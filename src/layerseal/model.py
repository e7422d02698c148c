"""Core model: straight-line message-passing programs.

A program runs n processes, numbered 1..n. Each process executes a fixed
sequence of statements: ``send j`` (emit one message to process j),
``recv j`` (consume one message from process j), or a local assignment.
Assignments never affect the communication analyses, so they are dropped at
parse time and the model keeps only send/recv statements.

A directed channel exists between every ordered pair of distinct processes.
Channels are reliable but not FIFO: a receive on a channel may consume any
message in flight on that channel, not necessarily the oldest one.

Layering (:func:`layer`) concatenates two programs process by process. There
is no barrier between layers; statements of the second program may execute
while slower processes are still inside the first.

One memo outlives a call: :func:`found` keeps the facts found about each of
the last two programs asked about, matched by identity, so the queries on
one pair of programs find each fact once. ``graph`` stores
``deadlock_free`` when a sweep finished on the program, ``signature`` its
checked ``signature``, and ``oracle`` its bare ``world``. A fact is stored
once found, so a program that raises stores none; a program is immutable,
so a fact holds while it is kept. The memo is one tuple, read once and
replaced whole, so concurrent queries each read a consistent pair.
"""

from __future__ import annotations

from enum import Enum
from functools import total_ordering
from itertools import permutations
from operator import attrgetter

from .errors import ProcessCountMismatch, Unbalanced

TYPE_CHECKING = False  # as ``typing`` would say at run time, without loading it
if TYPE_CHECKING:
    from collections.abc import Mapping, Sequence

__all__ = [
    "Channel",
    "Program",
    "Statement",
    "StmtKind",
    "channel_balance",
    "channels_of",
    "empty_program",
    "is_balanced",
    "layer",
    "message_transmit",
    "program",
    "recv",
    "require_balanced",
    "send",
]


class StmtKind(Enum):
    SEND = "send"
    RECV = "recv"


# Sets a field of a Record, past its __setattr__; for use in ``__init__``.
setfield = object.__setattr__


class Record:
    """Base of the package's immutable value classes.

    A subclass names its fields in ``__slots__``, sets them in its own
    ``__init__`` with :data:`setfield`, and is not subclassed further.
    Instances compare and hash by their fields, in order, and only with
    instances of the same class, so a record never equals a plain tuple.
    Assigning or deleting a field raises :class:`AttributeError`; copy and
    pickle rebuild a record through its ``__init__``. Plain classes rather
    than ``dataclasses``: that module's import, and the code it generates
    and compiles for every class, cost each CLI call more than its analysis.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._key = attrgetter(*cls.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


@total_ordering
class Channel(Record):
    """Directed channel from process ``src`` to process ``dst``, ordered by
    ``src`` and then ``dst``."""

    __slots__ = ("src", "dst")

    def __init__(self, src: int, dst: int) -> None:
        if src < 1 or dst < 1:
            raise ValueError(f"process ids start at 1: {src}->{dst}")
        if src == dst:
            raise ValueError(f"no channel from a process to itself: {src}")
        setfield(self, "src", src)
        setfield(self, "dst", dst)

    def __lt__(self, other: object) -> bool:
        if other.__class__ is not Channel:
            return NotImplemented
        return (self.src, self.dst) < (other.src, other.dst)

    def __str__(self) -> str:
        return f"{self.src}->{self.dst}"


class Statement(Record):
    """One communication statement, owned by some process.

    ``peer`` is the other endpoint: the destination for a send, the source
    for a receive.
    """

    __slots__ = ("kind", "peer")

    def __init__(self, kind: StmtKind, peer: int) -> None:
        setfield(self, "kind", kind)
        setfield(self, "peer", peer)


def send(peer: int) -> Statement:
    return Statement(StmtKind.SEND, peer)


def recv(peer: int) -> Statement:
    return Statement(StmtKind.RECV, peer)


class Program(Record):
    """An n-process straight-line program.

    ``seqs[i - 1]`` is the statement sequence of process i, kept as a tuple.
    Every peer id must lie in 1..n and differ from the owning process.
    """

    __slots__ = ("name", "n", "seqs")

    def __init__(self, name: str, n: int, seqs: Sequence[Sequence[Statement]]) -> None:
        if n < 0:
            raise ValueError("process count must be non-negative")
        seqs = tuple(map(tuple, seqs))
        if len(seqs) != n:
            raise ValueError(f"expected {n} sequences, got {len(seqs)}")
        for proc, seq in enumerate(seqs, start=1):
            for stmt in seq:
                if not 1 <= stmt.peer <= n:
                    raise ValueError(f"process {proc}: peer {stmt.peer} outside 1..{n}")
                if stmt.peer == proc:
                    raise ValueError(f"process {proc} addresses itself")
        setfield(self, "name", name)
        setfield(self, "n", n)
        setfield(self, "seqs", seqs)

    def statements(self, proc: int) -> tuple[Statement, ...]:
        return self.seqs[proc - 1]

    @property
    def event_count(self) -> int:
        return sum(len(seq) for seq in self.seqs)


def program(name: str, n: int, seqs: Mapping[int, Sequence[Statement]] | None = None) -> Program:
    """Build a :class:`Program` from a process-id-keyed mapping.

    Processes absent from ``seqs`` get an empty sequence.
    """
    seqs = seqs or {}
    for proc in seqs:
        if not 1 <= proc <= n:
            raise ValueError(f"process id {proc} outside 1..{n}")
    rows = [seqs.get(i, ()) for i in range(1, n + 1)]
    return Program(name, n, rows)


def empty_program(n: int, name: str = "empty") -> Program:
    return program(name, n)


def message_transmit(src: int, dst: int, n: int, name: str | None = None) -> Program:
    """The two-statement program that sends one message from src to dst."""
    if name is None:
        name = f"mt_{src}_{dst}"
    return program(name, n, {src: [send(dst)], dst: [recv(src)]})


def layer(p: Program, q: Program, name: str | None = None) -> Program:
    """Sequential composition per process, without any barrier."""
    if p.n != q.n:
        raise ProcessCountMismatch(p.n, q.n)
    if name is None:
        name = f"{p.name}__{q.name}"
    rows = tuple(p.seqs[i] + q.seqs[i] for i in range(p.n))
    return Program(name, p.n, rows)


def channel_balance(p: Program) -> dict[tuple[int, int], int]:
    """Sends minus receives on every channel ``(src, dst)`` that p uses."""
    balance: dict[tuple[int, int], int] = {}
    for i, seq in enumerate(p.seqs, start=1):
        for stmt in seq:
            ch, step = ((i, stmt.peer), 1) if stmt.kind is StmtKind.SEND else ((stmt.peer, i), -1)
            balance[ch] = balance.get(ch, 0) + step
    return balance


def require_balanced(balance: Mapping[tuple[int, int], object]) -> None:
    """Raise :class:`Unbalanced` naming the first channel, in canonical
    order, whose entry in ``balance`` is true: a nonzero count of sends
    minus receives, or a non-empty queue of messages never received."""
    unbalanced = [ch for ch, left in balance.items() if left]
    if unbalanced:
        raise Unbalanced(Channel(*min(unbalanced)))


def is_balanced(p: Program) -> bool:
    """True when every channel has as many sends as receives.

    For straight-line programs this static count decides balance exactly.
    """
    return not any(channel_balance(p).values())


# The last two programs asked about and their facts, latest first.
_found: tuple = ((None, None), (None, None))


def found(p: Program) -> dict:
    """The facts found about p, as the module docstring describes; p is
    now the latest program asked about."""
    global _found
    last = _found
    if last[0][0] is p:
        return last[0][1]
    facts = last[1][1] if last[1][0] is p else {}
    _found = ((p, facts), last[0])
    return facts


def channels_of(n: int) -> list[Channel]:
    """All n*(n-1) directed channels in canonical order."""
    return [Channel(i, j) for i, j in permutations(range(1, n + 1), 2)]
