"""Text format for programs.

Grammar::

    file    := header program
    header  := "processes" NAT ";"
    program := "program" IDENT "{" proc* "}"
    proc    := "process" NAT "{" stmt* "}"
    stmt    := "send" NAT ";" | "recv" NAT ";" | "assign" IDENT ";"

``#`` starts a comment running to the end of the line. Whitespace is
insignificant; columns count characters, so a tab is one column. ``assign``
statements are accepted and discarded; they have no communication effect.
Process blocks may appear in any order; processes without a block are empty.
The program name may not be a keyword, which ``format_program`` could not
print.

:func:`parse` scans the whole source once, with one regular expression,
into a flat run of token strings, and walks that run by index. A token
keeps no position: only when an error is raised is the source scanned again
to the offending token, and its line and column counted from its offset.

:func:`parse` raises :class:`ParseError` with the 1-based ``line`` and
``column`` of the offending token and a kind:

* ``SYNTAX``: token-level or structural violations of the grammar.
* ``BAD_PROCESS_ID``: a process id or peer outside 1..n.
* ``SELF_CHANNEL``: a process sending to or receiving from itself.
* ``DUPLICATE_PROCESS``: two blocks for the same process id.
* ``TOO_MANY_PROCESSES``: a process count above :data:`MAX_PROCESSES`.

A program declares at most :data:`MAX_PROCESSES` (100,000) processes. A
number token longer than that limit is refused by its length alone, as a
count with ``TOO_MANY_PROCESSES`` and as an id or peer with
``BAD_PROCESS_ID``, so no token is too long for ``int``.

:func:`format_program` renders a program so that parsing the result yields an
equal program, name included.
"""

from __future__ import annotations

import re
from enum import Enum
from itertools import islice
from operator import itemgetter

from .model import Program, Statement, StmtKind, program

__all__ = [
    "MAX_PROCESSES",
    "ParseError",
    "ParseErrorKind",
    "format_program",
    "parse",
]

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# Blanks, newlines and comments, then one token (group 1) or one stray
# character (group 2); matches nothing more at the end of the source.
# Tokens are ASCII, so ``str.isdigit`` and ``str.isidentifier`` tell
# naturals and identifiers exactly.
_SCAN = re.compile(
    r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*(?:([{};]|[0-9]+|" + _IDENT_RE.pattern + r")|(.))?"
)
_KEYWORDS = frozenset({"processes", "program", "process", "send", "recv", "assign"})
_STMT_KINDS = {"send": StmtKind.SEND, "recv": StmtKind.RECV}

# The largest process count a program may declare.
MAX_PROCESSES = 100_000


class ParseErrorKind(Enum):
    SYNTAX = "syntax"
    BAD_PROCESS_ID = "bad-process-id"
    SELF_CHANNEL = "self-channel"
    DUPLICATE_PROCESS = "duplicate-process"
    TOO_MANY_PROCESSES = "too-many-processes"


class ParseError(Exception):
    """A refused source, at the 1-based ``line`` and ``column`` of the
    offending token."""

    def __init__(self, kind: ParseErrorKind, line: int, column: int, message: str) -> None:
        super().__init__(f"line {line} col {column}: {message}")
        self.kind = kind
        self.line = line
        self.column = column
        self.message = message

    def __reduce__(self):
        return type(self), (self.kind, self.line, self.column, self.message)


def natural(digits: str, what: str) -> int:
    """The value of an ASCII digit string. One with more digits than
    ``MAX_PROCESSES``, leading zeros aside, raises :class:`ValueError` naming
    ``what`` before ``int`` sees it: ``int`` refuses more than 4300 digits
    with an error that names no place."""
    significant = digits.lstrip("0")
    if len(significant) > len(str(MAX_PROCESSES)):
        raise ValueError(f"{what} with {len(significant)} digits exceeds {MAX_PROCESSES}")
    return int(significant or "0")


def _error(
    source: str, at: int, message: str, kind: ParseErrorKind = ParseErrorKind.SYNTAX
) -> ParseError:
    """The error at the ``at``'th match of the scan of ``source``: at its
    token or stray, or, at a match without either, at the end of input."""
    m = next(islice(_SCAN.finditer(source), at, None))
    offset = m.start(m.lastindex) if m.lastindex else m.end()
    line = source.count("\n", 0, offset) + 1
    return ParseError(kind, line, offset - source.rfind("\n", 0, offset), message)


def _expected(source: str, toks: list[str], at: int, what: str) -> ParseError:
    found = repr(toks[at]) if toks[at] else "end of input"
    return _error(source, at, f"expected {what}, found {found}")


def _number(source: str, toks: list[str], at: int, what: str, kind: ParseErrorKind) -> int:
    """The natural number at token ``at``; one too long is refused with ``kind``."""
    if not toks[at].isdigit():
        raise _expected(source, toks, at, what)
    try:
        return natural(toks[at], what)
    except ValueError as exc:
        raise _error(source, at, str(exc), kind) from None


def parse(source: str) -> Program:
    """Parse DSL text into a :class:`Program`. Raises :class:`ParseError`."""
    found = _SCAN.findall(source)
    if any(map(itemgetter(1), found)):
        at, stray = next((k, stray) for k, (_, stray) in enumerate(found) if stray)
        raise _error(source, at, f"unexpected character {stray!r}")
    toks = list(map(itemgetter(0), found))
    # Every check below refuses the empty token that ends ``toks``, so no
    # index runs past it.
    if toks[0] != "processes":
        raise _expected(source, toks, 0, "'processes'")
    n = _number(source, toks, 1, "process count", ParseErrorKind.TOO_MANY_PROCESSES)
    if n > MAX_PROCESSES:
        message = f"process count {n} exceeds {MAX_PROCESSES}"
        raise _error(source, 1, message, ParseErrorKind.TOO_MANY_PROCESSES)
    for at, literal in ((2, ";"), (3, "program")):
        if toks[at] != literal:
            raise _expected(source, toks, at, repr(literal))
    name = toks[4]
    if not name.isidentifier() or name in _KEYWORDS:
        raise _expected(source, toks, 4, "program name")
    if toks[5] != "{":
        raise _expected(source, toks, 5, "'{'")
    seqs: dict[int, list[Statement]] = {}
    shared: dict[tuple[StmtKind, int], Statement] = {}  # one per (kind, peer)
    i = 6
    while (tok := toks[i]) != "}":
        if tok != "process":
            raise _expected(source, toks, i, "'process'" if tok else "'process' or '}'")
        pid = _number(source, toks, i + 1, "process id", ParseErrorKind.BAD_PROCESS_ID)
        if not 1 <= pid <= n:
            message = f"process id {pid} outside 1..{n}"
            raise _error(source, i + 1, message, ParseErrorKind.BAD_PROCESS_ID)
        if pid in seqs:
            message = f"duplicate block for process {pid}"
            raise _error(source, i + 1, message, ParseErrorKind.DUPLICATE_PROCESS)
        if toks[i + 2] != "{":
            raise _expected(source, toks, i + 2, "'{'")
        out = seqs[pid] = []
        i += 3
        while (tok := toks[i]) != "}":
            kind = _STMT_KINDS.get(tok)
            if kind is not None:
                peer = _number(source, toks, i + 1, "peer id", ParseErrorKind.BAD_PROCESS_ID)
                if not 1 <= peer <= n:
                    message = f"peer {peer} outside 1..{n}"
                    raise _error(source, i + 1, message, ParseErrorKind.BAD_PROCESS_ID)
                if peer == pid:
                    message = f"process {pid} addresses itself"
                    raise _error(source, i + 1, message, ParseErrorKind.SELF_CHANNEL)
                out.append(shared.get((kind, peer)) or shared.setdefault((kind, peer), Statement(kind, peer)))
            elif tok == "assign":
                if not toks[i + 1].isidentifier():
                    raise _expected(source, toks, i + 1, "variable name")
            else:
                what = "'send', 'recv' or 'assign'" if tok else "statement or '}'"
                raise _expected(source, toks, i, what)
            if toks[i + 2] != ";":
                raise _expected(source, toks, i + 2, "';'")
            i += 3
        i += 1
    if trailing := toks[i + 1]:
        raise _error(source, i + 1, f"trailing input after program: {trailing!r}")
    return program(name, n, seqs)


def format_program(p: Program) -> str:
    """Render ``p`` as DSL text. Empty process blocks are omitted."""
    if not _IDENT_RE.fullmatch(p.name) or p.name in _KEYWORDS:
        raise ValueError(f"program name {p.name!r} is not a printable identifier")
    out = [f"processes {p.n};", f"program {p.name} {{"]
    for proc in range(1, p.n + 1):
        seq = p.statements(proc)
        if not seq:
            continue
        out.append(f"  process {proc} {{")
        for stmt in seq:
            out.append(f"    {stmt.kind.value} {stmt.peer};")
        out.append("  }")
    out.append("}")
    return "\n".join(out) + "\n"
