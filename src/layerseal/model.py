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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

from .errors import ProcessCountMismatch, Unbalanced

__all__ = [
    "Channel",
    "Program",
    "Statement",
    "StmtKind",
    "channels_of",
    "empty_program",
    "is_balanced",
    "layer",
    "message_transmit",
    "pairing",
    "program",
    "recv",
    "send",
    "statement_channel",
]


class StmtKind(Enum):
    SEND = "send"
    RECV = "recv"


@dataclass(frozen=True, order=True, slots=True)
class Channel:
    """Directed channel from process ``src`` to process ``dst``."""

    src: int
    dst: int

    def __post_init__(self) -> None:
        if self.src < 1 or self.dst < 1:
            raise ValueError(f"process ids start at 1: {self.src}->{self.dst}")
        if self.src == self.dst:
            raise ValueError(f"no channel from a process to itself: {self.src}")

    def __str__(self) -> str:
        return f"{self.src}->{self.dst}"


@dataclass(frozen=True, slots=True)
class Statement:
    """One communication statement, owned by some process.

    ``peer`` is the other endpoint: the destination for a send, the source
    for a receive.
    """

    kind: StmtKind
    peer: int

    def __str__(self) -> str:
        return f"{self.kind.value} {self.peer}"


def send(peer: int) -> Statement:
    return Statement(StmtKind.SEND, peer)


def recv(peer: int) -> Statement:
    return Statement(StmtKind.RECV, peer)


@dataclass(frozen=True)
class Program:
    """An n-process straight-line program.

    ``seqs[i - 1]`` is the statement sequence of process i. Every peer id
    must lie in 1..n and differ from the owning process.
    """

    name: str
    n: int
    seqs: tuple[tuple[Statement, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("process count must be non-negative")
        if len(self.seqs) != self.n:
            raise ValueError(f"expected {self.n} sequences, got {len(self.seqs)}")
        for proc, seq in enumerate(self.seqs, start=1):
            for stmt in seq:
                if not 1 <= stmt.peer <= self.n:
                    raise ValueError(f"process {proc}: peer {stmt.peer} outside 1..{self.n}")
                if stmt.peer == proc:
                    raise ValueError(f"process {proc} addresses itself")

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
    rows = tuple(tuple(seqs.get(i, ())) for i in range(1, n + 1))
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


def statement_channel(proc: int, stmt: Statement) -> Channel:
    if stmt.kind is StmtKind.SEND:
        return Channel(proc, stmt.peer)
    return Channel(stmt.peer, proc)


def pairing(p: Program) -> dict[tuple[int, int], tuple[int, int]]:
    """The send each receive is paired with in the program graph.

    Maps the (process, position) of the k'th receive on every channel to the
    (process, position) of the k'th send on it; positions count a process's
    events from 1. Raises :class:`Unbalanced` naming the first channel, in
    canonical order, whose send and receive counts differ.
    """
    sends: dict[tuple[int, int], list[tuple[int, int]]] = {}
    recvs: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i, seq in enumerate(p.seqs, start=1):
        for x, stmt in enumerate(seq, start=1):
            if stmt.kind is StmtKind.SEND:
                sends.setdefault((i, stmt.peer), []).append((i, x))
            else:
                recvs.setdefault((stmt.peer, i), []).append((i, x))
    unbalanced = [
        key
        for key in sends.keys() | recvs.keys()
        if len(sends.get(key, ())) != len(recvs.get(key, ()))
    ]
    if unbalanced:
        raise Unbalanced(Channel(*min(unbalanced)))
    return {r: s for key, rs in recvs.items() for r, s in zip(rs, sends[key])}


def is_balanced(p: Program) -> bool:
    """True when every channel has as many sends as receives.

    For straight-line programs this static count decides balance exactly.
    """
    try:
        pairing(p)
    except Unbalanced:
        return False
    return True


def channels_of(n: int) -> list[Channel]:
    """All n*(n-1) directed channels in canonical order."""
    return [Channel(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
