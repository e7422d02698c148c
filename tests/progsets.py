"""Shared program fixtures and exhaustive/random program generators.

The exhaustive generators drive the oracle-agreement tests: they enumerate
every balanced program up to a small event budget, so agreement over them is
agreement over the whole space the oracle can afford to check.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import permutations, product
from typing import Iterator

from layerseal import (
    Channel,
    Program,
    Statement,
    channels_of,
    deadlock_free,
    is_balanced,
    layer,
    message_transmit,
    program,
    recv,
    send,
)


def _stmt_key(stmt: Statement) -> tuple[str, int]:
    return (stmt.kind.value, stmt.peer)


def _distinct_orders(stmts: list[Statement]) -> list[tuple[Statement, ...]]:
    return sorted(set(permutations(stmts)), key=lambda seq: [_stmt_key(s) for s in seq])


def _count_vectors(slots: int, total_max: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``slots`` non-negative ints summing to at most total_max."""
    if slots == 0:
        yield ()
        return
    for head in range(total_max + 1):
        for tail in _count_vectors(slots - 1, total_max - head):
            yield (head,) + tail


def _programs_for_counts(n: int, chans: list[Channel], counts: tuple[int, ...]) -> Iterator[Program]:
    per_proc: list[list[Statement]] = [[] for _ in range(n)]
    for ch, count in zip(chans, counts):
        per_proc[ch.src - 1].extend(send(ch.dst) for _ in range(count))
        per_proc[ch.dst - 1].extend(recv(ch.src) for _ in range(count))
    orderings = [_distinct_orders(stmts) for stmts in per_proc]

    def rec(i: int, rows: tuple[tuple[Statement, ...], ...]) -> Iterator[Program]:
        if i == n:
            yield Program("enum", n, rows)
            return
        for order in orderings[i]:
            yield from rec(i + 1, rows + (order,))

    yield from rec(0, ())


@lru_cache(maxsize=None)
def all_balanced_programs(n: int, max_events: int) -> tuple[Program, ...]:
    """Every balanced program over n processes with at most max_events events.

    Balanced programs pair each send with a receive, so the enumeration walks
    per-channel transmission counts and then all interleavings per process.
    """
    chans = channels_of(n)
    out: list[Program] = []
    for counts in _count_vectors(len(chans), max_events // 2):
        out.extend(_programs_for_counts(n, chans, counts))
    if not all(is_balanced(p) for p in out):
        raise AssertionError(f"unbalanced program among the {len(out)} enumerated")
    return tuple(out)


def all_programs(n: int, max_stmts: int) -> Iterator[Program]:
    """Every program over n processes with at most max_stmts statements in
    all, balanced or not."""

    def rec(i: int, rows: tuple[tuple[Statement, ...], ...], left: int) -> Iterator[Program]:
        if i > n:
            yield Program("any", n, rows)
            return
        alphabet = [make(j) for j in range(1, n + 1) if j != i for make in (send, recv)]
        for length in range(left + 1):
            for seq in product(alphabet, repeat=length):
                yield from rec(i + 1, rows + (seq,), left - length)

    yield from rec(1, (), max_stmts)


@lru_cache(maxsize=None)
def all_balanced_df_programs(n: int, max_events: int) -> tuple[Program, ...]:
    return tuple(p for p in all_balanced_programs(n, max_events) if deadlock_free(p))


def random_balanced_df(
    rng: random.Random,
    n: int,
    max_transmissions: int,
    name: str = "rand",
) -> Program:
    """A random balanced deadlock-free program, by rejection sampling."""
    chans = channels_of(n)
    if not chans:
        return program(name, n)
    while True:
        per_proc: list[list[Statement]] = [[] for _ in range(n)]
        for _ in range(rng.randint(0, max_transmissions)):
            ch = rng.choice(chans)
            per_proc[ch.src - 1].append(send(ch.dst))
            per_proc[ch.dst - 1].append(recv(ch.src))
        for stmts in per_proc:
            rng.shuffle(stmts)
        candidate = Program(name, n, tuple(tuple(s) for s in per_proc))
        if deadlock_free(candidate):
            return candidate


def rename(p: Program, perm: tuple[int, ...]) -> Program:
    """p with every process i renamed to ``perm[i - 1]``, where perm is a
    permutation of 1..n."""
    rows: list[tuple[Statement, ...]] = [()] * p.n
    for i, seq in enumerate(p.seqs, start=1):
        rows[perm[i - 1] - 1] = tuple(Statement(stmt.kind, perm[stmt.peer - 1]) for stmt in seq)
    return Program(p.name, p.n, tuple(rows))


def gather_phase(n: int) -> Program:
    """The all-to-all exchange that ends with everyone reporting to process 1.

    Process 1 only collects the reports. Every other process i first sends to
    all peers other than 1, then receives from all peers other than 1, then
    sends its report to 1.
    """
    seqs = {1: [recv(k) for k in range(2, n + 1)]}
    for i in range(2, n + 1):
        others = [k for k in range(2, n + 1) if k != i]
        seqs[i] = [send(k) for k in others] + [recv(k) for k in others] + [send(1)]
    return program("gather", n, seqs)


def hand_gather_seal(n: int) -> Program:
    """Process 1 answers every reporter once: n - 1 transmissions."""
    out = message_transmit(1, 2, n)
    for i in range(3, n + 1):
        out = layer(out, message_transmit(1, i, n))
    return Program("gather_ack", n, out.seqs)


def crossed_exchange(n: int = 2) -> Program:
    """Processes 1 and 2 swap one message each, sends first.

    Both channels stay open, so at n = 2 nothing can seal this program.
    """
    return program("crossed", n, {1: [send(2), recv(2)], 2: [send(1), recv(1)]})


def bystander_sealable() -> Program:
    """Crossed exchange plus a round trip through process 3.

    Alone, the crossed exchange is unsealable; the extra traffic closes
    enough channels through the third process to connect everyone.
    """
    p = crossed_exchange(n=3)
    p = layer(p, message_transmit(3, 1, 3))
    p = layer(p, message_transmit(1, 3, 3))
    return Program("bystander", 3, p.seqs)


def relay_ack_seal() -> Program:
    """A seal for :func:`bystander_sealable` that relays through process 3."""
    out = message_transmit(3, 1, 3)
    for src, dst in [(1, 3), (3, 2), (2, 3), (3, 1)]:
        out = layer(out, message_transmit(src, dst, 3))
    return Program("relay_ack", 3, out.seqs)


def deadlocked_pair() -> Program:
    """Both processes wait before sending: the canonical deadlock."""
    return program("deadlock", 2, {1: [recv(2), send(2)], 2: [recv(1), send(1)]})
