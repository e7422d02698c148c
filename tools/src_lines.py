"""Line counts of the package source, as a Markdown table.

Usage: ``python tools/src_lines.py [DIR]`` (default ``src/layerseal``).

For each module it prints all its lines, and its code lines: lines that hold
a token of a statement, read with :mod:`tokenize`, so blank lines, comments
and docstrings (a statement that is a string alone) do not count. A line of
a statement that spans several lines counts once.
"""

import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def count(path: Path) -> tuple[int, int]:
    """All lines of the file at ``path``, and its code lines."""
    with tokenize.open(path) as f:
        text = f.read()
    code: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _SKIPPED:
            statement.append(tok)
        if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
            if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                code.update(row for t in statement for row in range(t.start[0], t.end[0] + 1))
            statement = []
    return len(text.splitlines()), len(code)


def main() -> int:
    default = Path(__file__).resolve().parents[1] / "src" / "layerseal"
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else default
    rows = [(path.name, *count(path)) for path in sorted(root.glob("*.py"))]
    print(f"### `{root.name}` source lines\n")
    print("| module | lines | code |\n|---|---:|---:|")
    for name, lines, code in rows:
        print(f"| {name} | {lines} | {code} |")
    print(f"| **total** | **{sum(r[1] for r in rows)}** | **{sum(r[2] for r in rows)}** |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
