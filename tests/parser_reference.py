"""A reference for :func:`layerseal.parser.parse`: the recursive-descent
parser the one-scan parser replaced, kept to check it against.

It scans the source line by line, keeps every token with its line and
column, and descends through the grammar one token at a time. It imports
nothing from ``layerseal`` and returns plain tuples:

* a program as ``(name, n, seqs)``, where ``seqs`` holds, for each process
  1..n in order, a tuple of ``(kind, peer)`` pairs with ``kind`` ``"send"``
  or ``"recv"``;
* an error as ``(kind, line, column, message)``, where ``kind`` is the
  value of the parser's ``ParseErrorKind``; the error's ``str`` is
  ``f"line {line} col {column}: {message}"``.
"""

from __future__ import annotations

import re
from typing import Callable

MAX_PROCESSES = 100_000

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
# Blanks and an optional comment, then one token (group 1) or one stray
# character (group 2); matches nothing more at the end of a line.
_TOKEN_RE = re.compile(r"[ \t\r]*(?:#.*)?(?:([{};]|[0-9]+|" + _IDENT + r")|(.))?")
_KEYWORDS = frozenset({"processes", "program", "process", "send", "recv", "assign"})

# A token's text, line and column; the last token, with empty text, marks
# the end of input.
_Tok = tuple[str, int, int]


class _Refused(Exception):
    def __init__(self, kind: str, tok: _Tok, message: str) -> None:
        super().__init__(message)
        self.error = (kind, tok[1], tok[2], message)


def _natural(digits: str, what: str) -> int:
    significant = digits.lstrip("0")
    if len(significant) > len(str(MAX_PROCESSES)):
        raise ValueError(f"{what} with {len(significant)} digits exceeds {MAX_PROCESSES}")
    return int(significant or "0")


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

    def _fail(self, message: str, kind: str = "syntax", tok: _Tok | None = None) -> _Refused:
        return _Refused(kind, tok or self._tokens[self._pos], message)

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

    def _nat(self, what: str, kind: str) -> tuple[int, _Tok]:
        tok = self._next(what, str.isdigit)
        try:
            return _natural(tok[0], what), tok
        except ValueError as exc:
            raise self._fail(str(exc), kind, tok) from None

    def _block(self, item: str, parse_item: Callable[[], None]) -> None:
        self._expect("{")
        while (text := self._tokens[self._pos][0]) != "}":
            if not text:
                raise self._fail(f"expected {item} or '}}', found end of input")
            parse_item()
        self._pos += 1

    def parse_file(self) -> tuple:
        self._expect("processes")
        n, tok = self._nat("process count", "too-many-processes")
        if n > MAX_PROCESSES:
            raise self._fail(f"process count {n} exceeds {MAX_PROCESSES}", "too-many-processes", tok)
        self._expect(";")
        self._expect("program")
        name = self._next("program name", lambda text: text.isidentifier() and text not in _KEYWORDS)[0]
        seqs: dict[int, list[tuple[str, int]]] = {}
        self._block("'process'", lambda: self._parse_proc(n, seqs))
        if trailing := self._tokens[self._pos][0]:
            raise self._fail(f"trailing input after program: {trailing!r}")
        return name, n, tuple(tuple(seqs.get(proc, ())) for proc in range(1, n + 1))

    def _parse_proc(self, n: int, seqs: dict[int, list[tuple[str, int]]]) -> None:
        self._expect("process")
        pid, tok = self._nat("process id", "bad-process-id")
        if not 1 <= pid <= n:
            raise self._fail(f"process id {pid} outside 1..{n}", "bad-process-id", tok)
        if pid in seqs:
            raise self._fail(f"duplicate block for process {pid}", "duplicate-process", tok)
        out = seqs[pid] = []
        self._block("statement", lambda: self._parse_stmt(pid, n, out))

    def _parse_stmt(self, pid: int, n: int, out: list[tuple[str, int]]) -> None:
        keyword = self._next("'send', 'recv' or 'assign'", ("send", "recv", "assign").__contains__)[0]
        if keyword == "assign":
            self._next("variable name", str.isidentifier)
            self._expect(";")
            return
        peer, tok = self._nat("peer id", "bad-process-id")
        if not 1 <= peer <= n:
            raise self._fail(f"peer {peer} outside 1..{n}", "bad-process-id", tok)
        if peer == pid:
            raise self._fail(f"process {pid} addresses itself", "self-channel", tok)
        self._expect(";")
        out.append((keyword, peer))


def parse(source: str) -> tuple:
    """``(name, n, seqs)`` for a well-formed source, else
    ``(kind, line, column, message)`` for the error the parser raises."""
    try:
        return _Parser(source).parse_file()
    except _Refused as exc:
        return exc.error
