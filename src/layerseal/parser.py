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

:func:`parse` raises :class:`ParseError` with a source span and a kind:

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
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .model import Program, Statement, StmtKind, program

__all__ = [
    "MAX_PROCESSES",
    "ParseError",
    "ParseErrorKind",
    "SourceSpan",
    "format_program",
    "parse",
]

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# Blanks and an optional comment, then one token (group 1) or one stray
# character (group 2); matches nothing more at the end of a line.
_TOKEN_RE = re.compile(r"[ \t\r]*(?:#.*)?(?:([{};]|[0-9]+|" + _IDENT_RE.pattern + r")|(.))?")
_KEYWORDS = frozenset({"processes", "program", "process", "send", "recv", "assign"})

# The largest process count a program may declare.
MAX_PROCESSES = 100_000


class ParseErrorKind(Enum):
    SYNTAX = "syntax"
    BAD_PROCESS_ID = "bad-process-id"
    SELF_CHANNEL = "self-channel"
    DUPLICATE_PROCESS = "duplicate-process"
    TOO_MANY_PROCESSES = "too-many-processes"


@dataclass(frozen=True)
class SourceSpan:
    """1-based line and column of the offending token."""

    line: int
    column: int


class ParseError(Exception):
    def __init__(self, kind: ParseErrorKind, span: SourceSpan, message: str) -> None:
        super().__init__(f"line {span.line} col {span.column}: {message}")
        self.kind = kind
        self.span = span
        self.message = message


# A token's text, line and column; the last token, with empty text, marks
# the end of input. Tokens are ASCII, so ``str.isdigit`` and
# ``str.isidentifier`` tell naturals and identifiers exactly.
_Tok = tuple[str, int, int]


class _Parser:
    def __init__(self, source: str) -> None:
        self._pos = 0
        self._tokens: list[_Tok] = []
        lines = source.split("\n")
        for line, text in enumerate(lines, start=1):
            for m in _TOKEN_RE.finditer(text):
                token, stray = m.groups()
                if token:
                    self._tokens.append((token, line, m.start(1) + 1))
                elif stray:
                    at = (stray, line, m.start(2) + 1)
                    raise self._fail(f"unexpected character {stray!r}", tok=at)
        self._tokens.append(("", len(lines), len(lines[-1]) + 1))

    def _fail(
        self, message: str, kind: ParseErrorKind = ParseErrorKind.SYNTAX, tok: _Tok | None = None
    ) -> ParseError:
        """The error at ``tok``, by default the next token."""
        _, line, column = tok or self._tokens[self._pos]
        return ParseError(kind, SourceSpan(line, column), message)

    def _next(self, expected: str, accept: Callable[[str], bool]) -> _Tok:
        tok = self._tokens[self._pos]
        if not tok[0]:
            raise self._fail(f"expected {expected}, found end of input")
        if not accept(tok[0]):
            raise self._fail(f"expected {expected}, found {tok[0]!r}")
        self._pos += 1
        return tok

    def _expect(self, literal: str) -> None:
        self._next(repr(literal), literal.__eq__)

    def _nat(self, what: str, kind: ParseErrorKind) -> tuple[int, _Tok]:
        """A natural number and its token. One with more digits than
        ``MAX_PROCESSES`` is refused with ``kind`` before ``int`` sees it."""
        tok = self._next(what, str.isdigit)
        digits = tok[0].lstrip("0")
        if len(digits) > len(str(MAX_PROCESSES)):
            raise self._fail(f"{what} with {len(digits)} digits exceeds {MAX_PROCESSES}", kind, tok)
        return int(digits or "0"), tok

    def _block(self, item: str, parse_item: Callable[[], None]) -> None:
        """``{`` then items until the matching ``}``."""
        self._expect("{")
        while (text := self._tokens[self._pos][0]) != "}":
            if not text:
                raise self._fail(f"expected {item} or '}}', found end of input")
            parse_item()
        self._pos += 1

    def parse_file(self) -> Program:
        self._expect("processes")
        n, tok = self._nat("process count", ParseErrorKind.TOO_MANY_PROCESSES)
        if n > MAX_PROCESSES:
            raise self._fail(
                f"process count {n} exceeds {MAX_PROCESSES}", ParseErrorKind.TOO_MANY_PROCESSES, tok
            )
        self._expect(";")
        self._expect("program")
        name = self._next(
            "program name", lambda text: text.isidentifier() and text not in _KEYWORDS
        )[0]
        seqs: dict[int, list[Statement]] = {}
        self._block("'process'", lambda: self._parse_proc(n, seqs))
        if trailing := self._tokens[self._pos][0]:
            raise self._fail(f"trailing input after program: {trailing!r}")
        return program(name, n, seqs)

    def _parse_proc(self, n: int, seqs: dict[int, list[Statement]]) -> None:
        self._expect("process")
        pid, tok = self._nat("process id", ParseErrorKind.BAD_PROCESS_ID)
        if not 1 <= pid <= n:
            raise self._fail(f"process id {pid} outside 1..{n}", ParseErrorKind.BAD_PROCESS_ID, tok)
        if pid in seqs:
            raise self._fail(
                f"duplicate block for process {pid}", ParseErrorKind.DUPLICATE_PROCESS, tok
            )
        out = seqs[pid] = []
        self._block("statement", lambda: self._parse_stmt(pid, n, out))

    def _parse_stmt(self, pid: int, n: int, out: list[Statement]) -> None:
        keyword = self._next(
            "'send', 'recv' or 'assign'", ("send", "recv", "assign").__contains__
        )[0]
        if keyword == "assign":
            self._next("variable name", str.isidentifier)
            self._expect(";")
            return
        peer, tok = self._nat("peer id", ParseErrorKind.BAD_PROCESS_ID)
        if not 1 <= peer <= n:
            raise self._fail(f"peer {peer} outside 1..{n}", ParseErrorKind.BAD_PROCESS_ID, tok)
        if peer == pid:
            raise self._fail(f"process {pid} addresses itself", ParseErrorKind.SELF_CHANNEL, tok)
        self._expect(";")
        out.append(Statement(StmtKind.SEND if keyword == "send" else StmtKind.RECV, peer))


def parse(source: str) -> Program:
    """Parse DSL text into a :class:`Program`. Raises :class:`ParseError`."""
    return _Parser(source).parse_file()


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
