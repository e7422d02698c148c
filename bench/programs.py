"""Seeded program generators for the benchmark.

Programs are plain data: a process count and, per process, a list of
``(kind, peer)`` statements with kind ``"send"`` or ``"recv"``. They reach
the library only as program text (:func:`render`), so nothing here depends
on the code under test.
"""

from __future__ import annotations

import random

from reference import Diagram

Seqs = list[list[tuple[str, int]]]


class Prog:
    """An n-process straight-line program, ``seqs[i - 1]`` for process i."""

    def __init__(self, name: str, n: int, seqs: Seqs) -> None:
        self.name = name
        self.n = n
        self.seqs = seqs

    @property
    def events(self) -> int:
        return sum(len(seq) for seq in self.seqs)

    def then(self, other: Prog, name: str) -> Prog:
        """Per-process concatenation, the same as the library's ``layer``."""
        return Prog(name, self.n, [a + b for a, b in zip(self.seqs, other.seqs)])


def render(p: Prog) -> str:
    out = [f"processes {p.n};", f"program {p.name} {{"]
    for proc, seq in enumerate(p.seqs, start=1):
        if seq:
            out.append(f"  process {proc} {{")
            out.extend(f"    {kind} {peer};" for kind, peer in seq)
            out.append("  }")
    out.append("}")
    return "\n".join(out) + "\n"


def empty(n: int) -> Prog:
    return Prog(f"empty{n}", n, [[] for _ in range(n)])


def gather(n: int) -> Prog:
    """All-to-all among 2..n, then everyone reports to process 1."""
    seqs: Seqs = [[("recv", k) for k in range(2, n + 1)]]
    for i in range(2, n + 1):
        others = [k for k in range(2, n + 1) if k != i]
        seqs.append([("send", k) for k in others] + [("recv", k) for k in others] + [("send", 1)])
    return Prog(f"gather{n}", n, seqs)


def relay(n: int) -> Prog:
    """A message relayed from process 1 to n along the chain, and back."""
    seqs: Seqs = [[] for _ in range(n)]
    for i in range(1, n):
        seqs[i - 1].append(("send", i + 1))
        seqs[i].append(("recv", i))
    for i in range(n, 1, -1):
        seqs[i - 1].append(("send", i - 1))
        seqs[i - 2].append(("recv", i))
    return Prog(f"relay{n}", n, seqs)


def ring(n: int, rounds: int) -> Prog:
    """A token passed around the ring 1, 2, ..., n, 1 for ``rounds`` rounds."""
    seqs: Seqs = [[] for _ in range(n)]
    for _ in range(rounds):
        for i in range(1, n + 1):
            j = i % n + 1
            seqs[i - 1].append(("send", j))
            seqs[j - 1].append(("recv", i))
    return Prog(f"ring{n}x{rounds}", n, seqs)


def sparse(rng: random.Random, n: int, transmissions: int, name: str) -> Prog:
    """Random transmissions appended in one global order: deadlock free."""
    seqs: Seqs = [[] for _ in range(n)]
    for _ in range(transmissions):
        src, dst = rng.sample(range(1, n + 1), 2)
        seqs[src - 1].append(("send", dst))
        seqs[dst - 1].append(("recv", src))
    return Prog(name, n, seqs)


def shuffled(rng: random.Random, n: int, transmissions: int, name: str) -> Prog:
    """Random balanced deadlock-free program with each process's statements
    in random order, by rejection sampling on the reference's cycle check."""
    while True:
        seqs: Seqs = [[] for _ in range(n)]
        for _ in range(transmissions):
            src, dst = rng.sample(range(1, n + 1), 2)
            seqs[src - 1].append(("send", dst))
            seqs[dst - 1].append(("recv", src))
        for seq in seqs:
            rng.shuffle(seq)
        p = Prog(name, n, seqs)
        if Diagram(p).clocks is not None:
            return p
