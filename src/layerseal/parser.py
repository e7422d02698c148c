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

:func:`parse` finds the first stray character with one regular expression,
and refuses it before any grammar error. The tokens are then a flat list of
strings, walked by index. Past the stray check, a source without a comment
holds only blanks, ``{};`` and ``[0-9A-Za-z_]``, so its tokens are its
blank-separated words once ``{};`` are spaced out, save a word such as
``2x``, a digit then a letter or ``_``, that the exact scan ``_SCAN`` splits
in two. That word is no literal, number or identifier, so the walk refuses
it wherever it stands: words that the walk accepts are the scan's tokens.
Refused words are walked again as the scan's tokens, which settle the exact
error. A source with a comment is scanned at once, as a word holding ``#``
is refused too. A token keeps no position: the walk refuses with the index
of the offending token, its message and its kind, and only that refusal,
on the scan's tokens, is placed by scanning the source again to the
offending token and counting its line and column from its offset.

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

from .model import Program, Statement, StmtKind

__all__ = [
    "MAX_PROCESSES",
    "ParseError",
    "ParseErrorKind",
    "format_program",
    "parse",
]

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"  # ``format_program`` matches it alone, compiled on first use
# The source up to its first stray character: blanks, newlines, comments and
# the characters tokens are made of.
_CLEAN = re.compile(r"(?:[ \t\r\n{};0-9A-Za-z_]+|#[^\n]*)*")
# Blanks, newlines and comments, then one token (the group), which is empty
# at the end of the source. Tokens are ASCII, so ``str.isdigit`` and
# ``str.isidentifier`` tell naturals and identifiers exactly. Compiled on
# first use: a source without a comment is scanned only to place an error.
_SCAN = r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*([{};]|[0-9]+|" + _IDENT + r")?"
_KEYWORDS = frozenset({"processes", "program", "process", "send", "recv", "assign"})
_STMT_KINDS = {"send": StmtKind.SEND, "recv": StmtKind.RECV}

# The largest process count a program may declare, and its number of digits.
MAX_PROCESSES = 100_000
_DIGITS = len(str(MAX_PROCESSES))


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


def natural(digits: str, what: str, bound: int | None) -> int:
    """The value of an ASCII digit string, at most ``bound`` unless that is
    None; else :class:`ValueError` naming ``what``. One with more digits
    than ``MAX_PROCESSES``, leading zeros aside, is refused before ``int``
    sees it: ``int`` refuses more than 4300 digits with an error that names
    no place."""
    significant = digits.lstrip("0")
    if len(significant) > _DIGITS:
        raise ValueError(f"{what} with {len(significant)} digits exceeds {MAX_PROCESSES}")
    value = int(significant or "0")
    if bound is not None and value > bound:
        raise ValueError(f"{what} {value} exceeds {bound}")
    return value


class _Refusal(Exception):
    """A refusal of the walk, with three arguments: the index of the offending
    token, the message and the kind, placed in the source by :func:`parse`."""


def _error_at(source: str, offset: int, message: str, kind=ParseErrorKind.SYNTAX) -> ParseError:
    line = source.count("\n", 0, offset) + 1
    return ParseError(kind, line, offset - source.rfind("\n", 0, offset), message)


def _expected(toks: list[str], at: int, what: str) -> _Refusal:
    found = repr(toks[at]) if toks[at] else "end of input"
    return _Refusal(at, f"expected {what}, found {found}", ParseErrorKind.SYNTAX)


def _number(toks: list[str], at: int, what: str) -> int:
    """The natural number at token ``at``. The count, token 1, is refused
    above ``MAX_PROCESSES`` as ``TOO_MANY_PROCESSES``; an id or peer, which
    the walk checks against n, only when too long, as ``BAD_PROCESS_ID``."""
    tok = toks[at]
    if not tok.isdigit():
        raise _expected(toks, at, what)
    bound = MAX_PROCESSES if at == 1 else None
    try:
        # A number with fewer digits than MAX_PROCESSES lies below it.
        return int(tok) if len(tok) < _DIGITS else natural(tok, what, bound)
    except ValueError as exc:
        kind = ParseErrorKind.BAD_PROCESS_ID if bound is None else ParseErrorKind.TOO_MANY_PROCESSES
        raise _Refusal(at, str(exc), kind) from None


def parse(source: str) -> Program:
    """Parse DSL text into a :class:`Program`. Raises :class:`ParseError`."""
    stray = _CLEAN.match(source).end()
    if stray < len(source):
        raise _error_at(source, stray, f"unexpected character {source[stray]!r}")
    if "#" not in source:
        toks = source.replace("{", " { ").replace("}", " } ").replace(";", " ; ").split()
        toks.append("")
        try:
            return _walk(toks)
        except _Refusal:
            del toks  # freed before the scan's tokens, which settle the refusal
    try:
        return _walk(re.findall(_SCAN, source))
    except _Refusal as refusal:
        at, message, kind = refusal.args
    # The at'th match of the scan holds the offending token, or ends the input without one.
    m = next(islice(re.finditer(_SCAN, source), at, None))
    raise _error_at(source, m.start(1) if m.lastindex else m.end(), message, kind)


def _walk(toks: list[str]) -> Program:
    """The program that the tokens ``toks`` spell; raises :class:`_Refusal`."""
    # Every check below refuses the empty token that ends ``toks``, so no
    # index runs past it.
    if toks[0] != "processes":
        raise _expected(toks, 0, "'processes'")
    n = _number(toks, 1, "process count")
    for at, literal in ((2, ";"), (3, "program")):
        if toks[at] != literal:
            raise _expected(toks, at, repr(literal))
    name = toks[4]
    if not name.isidentifier() or name in _KEYWORDS:
        raise _expected(toks, 4, "program name")
    if toks[5] != "{":
        raise _expected(toks, 5, "'{'")
    seqs: dict[int, list[Statement]] = {}
    shared: dict[tuple[str, int], Statement] = {}  # one per (keyword, peer)
    i = 6
    while (tok := toks[i]) != "}":
        if tok != "process":
            raise _expected(toks, i, "'process'" if tok else "'process' or '}'")
        pid = _number(toks, i + 1, "process id")
        if not 1 <= pid <= n:
            message = f"process id {pid} outside 1..{n}"
            raise _Refusal(i + 1, message, ParseErrorKind.BAD_PROCESS_ID)
        if pid in seqs:
            message = f"duplicate block for process {pid}"
            raise _Refusal(i + 1, message, ParseErrorKind.DUPLICATE_PROCESS)
        if toks[i + 2] != "{":
            raise _expected(toks, i + 2, "'{'")
        out = seqs[pid] = []
        i += 3
        while (tok := toks[i]) != "}":
            kind = _STMT_KINDS.get(tok)
            if kind is not None:
                peer = toks[i + 1]  # ``_number``'s common case, inline on the hot path
                if len(peer) <= _DIGITS and peer.isdigit():
                    peer = int(peer)
                else:
                    peer = _number(toks, i + 1, "peer id")
                if not 1 <= peer <= n:
                    message = f"peer {peer} outside 1..{n}"
                    raise _Refusal(i + 1, message, ParseErrorKind.BAD_PROCESS_ID)
                if peer == pid:
                    message = f"process {pid} addresses itself"
                    raise _Refusal(i + 1, message, ParseErrorKind.SELF_CHANNEL)
                out.append(shared.get((tok, peer)) or shared.setdefault((tok, peer), Statement(kind, peer)))
            elif tok == "assign":
                if not toks[i + 1].isidentifier():
                    raise _expected(toks, i + 1, "variable name")
            else:
                what = "'send', 'recv' or 'assign'" if tok else "statement or '}'"
                raise _expected(toks, i, what)
            if toks[i + 2] != ";":
                raise _expected(toks, i + 2, "';'")
            i += 3
        i += 1
    if trailing := toks[i + 1]:
        raise _Refusal(i + 1, f"trailing input after program: {trailing!r}", ParseErrorKind.SYNTAX)
    return Program(name, n, [seqs.get(k, ()) for k in range(1, n + 1)])


def format_program(p: Program) -> str:
    """Render ``p`` as DSL text. Empty process blocks are omitted."""
    if not re.fullmatch(_IDENT, p.name) or p.name in _KEYWORDS:
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
