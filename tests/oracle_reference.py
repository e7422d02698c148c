"""The depth-first matching enumerator, kept as a test reference.

Before the search ran over reachability bitsets, the oracle collected every
matching into a list, checking each candidate send with a depth-first
search for a path from the receive back to the send along successor edges:
the next event of a process, and the receive each chosen send is matched
with. It is restated here, with the oracle queries read off its full list,
so that :mod:`layerseal.oracle` can be required to give the same matchings
in the same order, the same answers and the same refusals.

The reference builds its own worlds from the programs' statement
sequences: one row of events per process, each event its channel as
``(src, dst)`` and whether it is a send, with one probe send per probed
channel at the end of its sender's row. It numbers the events row by row
from 0, and a matching is a tuple of ``(receive, send)`` index pairs, the
receives in index order. It takes only public types and errors from
:mod:`layerseal`, and shares no code with the search it checks.
"""

from __future__ import annotations

from math import perm
from typing import Iterable, Sequence

from layerseal import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    Channel,
    OracleBudget,
    Program,
    StmtKind,
)

# One event: its channel as (src, dst), and whether it is a send.
Event = tuple[tuple[int, int], bool]


def rows(layers: Sequence[Program], probes: Iterable[Channel] = ()) -> list[list[Event]]:
    """The events of ``layers`` run one after the other on every process,
    then one probe send on each channel of ``probes``, in the given order."""
    world: list[list[Event]] = [[] for _ in range(layers[0].n)]
    for p in layers:
        for i, seq in enumerate(p.seqs, start=1):
            for stmt in seq:
                if stmt.kind is StmtKind.SEND:
                    world[i - 1].append(((i, stmt.peer), True))
                else:
                    world[i - 1].append(((stmt.peer, i), False))
    for ch in probes:
        world[ch.src - 1].append(((ch.src, ch.dst), True))
    return world


def numbered(world: list[list[Event]]) -> list[list[int]]:
    """The index of every event of ``world``, row by row."""
    indices: list[list[int]] = []
    x = 0
    for row in world:
        indices.append(list(range(x, x + len(row))))
        x += len(row)
    return indices


def enumerate_matchings(
    world: list[list[Event]], budget: OracleBudget = DEFAULT_BUDGET
) -> list[tuple[tuple[int, int], ...]]:
    """All acyclic, injective, receive-total, per-channel matchings."""
    events = [ev for row in world for ev in row]
    if len(events) > budget.max_events:
        raise BudgetExceeded(
            f"world has {len(events)} events, budget allows {budget.max_events}"
        )

    sends_by_channel: dict[tuple[int, int], list[int]] = {}
    receives: list[int] = []
    for x, (ch, is_send) in enumerate(events):
        if is_send:
            sends_by_channel.setdefault(ch, []).append(x)
        else:
            receives.append(x)

    recv_count: dict[tuple[int, int], int] = {}
    for r in receives:
        recv_count[events[r][0]] = recv_count.get(events[r][0], 0) + 1
    candidates = 1
    for ch in sorted(recv_count):
        candidates *= perm(len(sends_by_channel.get(ch, ())), recv_count[ch])
    if candidates > budget.max_matchings:
        raise BudgetExceeded(
            f"{candidates} candidate matchings, budget allows {budget.max_matchings}"
        )
    if not candidates:
        # Some channel has more receives than sends: no matching is total.
        return []

    next_in_proc: dict[int, int] = {}
    for row in numbered(world):
        for a, b in zip(row, row[1:]):
            next_in_proc[a] = b

    assigned_recv: dict[int, int] = {}

    def reaches(start: int, target: int) -> bool:
        # DFS over process-successor edges and chosen send->receive edges.
        stack = [start]
        seen = {start}
        while stack:
            ev = stack.pop()
            if ev == target:
                return True
            succ = next_in_proc.get(ev)
            if succ is not None and succ not in seen:
                seen.add(succ)
                stack.append(succ)
            matched = assigned_recv.get(ev)
            if matched is not None and matched not in seen:
                seen.add(matched)
                stack.append(matched)
        return False

    chosen: list[tuple[int, int]] = []
    used: set[int] = set()
    results: list[tuple[tuple[int, int], ...]] = []

    def search(idx: int) -> None:
        if idx == len(receives):
            results.append(tuple(chosen))
            return
        r = receives[idx]
        for s in sends_by_channel.get(events[r][0], ()):
            if s in used:
                continue
            # The new edge s -> r closes a cycle exactly when r already
            # reaches s; pruning here is sound because edges only accumulate.
            if reaches(r, s):
                continue
            used.add(s)
            assigned_recv[s] = r
            chosen.append((r, s))
            search(idx + 1)
            chosen.pop()
            del assigned_recv[s]
            used.remove(s)

    search(0)
    return results


def uses_probe(matchings: list, world: list[list[Event]], channel: Channel) -> bool:
    """Does some matching hand the probe on ``channel``, the last event of
    its sender's row in ``world``, to a receive?"""
    probe = numbered(world)[channel.src - 1][-1]
    return any(s == probe for m in matchings for _, s in m)


def keeps_p_inside(matchings: list, world: list[list[Event]], p: Program) -> bool:
    """Does every matching serve every receive of p, the events that open
    the rows of ``world``, from a send of p?"""
    inside = {x for row, seq in zip(numbered(world), p.seqs) for x in row[: len(seq)]}
    return not any(r in inside and s not in inside for m in matchings for r, s in m)
