"""The depth-first matching enumerator, kept as a test reference.

Before the search ran over integer event indices and reachability bitsets,
the oracle collected every matching into a list, checking each candidate
send with a depth-first search over the hashed events for a path from the
receive back to the send. It is restated here, with the oracle queries
read off its full list, so that :mod:`layerseal.oracle` can be
required to give the same matchings in the same order, the same answers and
the same refusals. Only the world's data types are shared.
"""

from __future__ import annotations

from math import perm

from layerseal import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    Channel,
    EventWorld,
    Matching,
    OracleBudget,
    ShapeError,
    StmtKind,
)
from layerseal.oracle import Origin, WorldEvent


def enumerate_matchings(
    world: EventWorld, budget: OracleBudget = DEFAULT_BUDGET
) -> list[Matching]:
    """All acyclic, injective, receive-total, per-channel matchings."""
    if world.event_count > budget.max_events:
        raise BudgetExceeded(
            f"world has {world.event_count} events, budget allows {budget.max_events}"
        )

    sends_by_channel: dict[Channel, list[WorldEvent]] = {}
    receives: list[WorldEvent] = []
    for row in world.events:
        for ev in row:
            if ev.kind is StmtKind.SEND:
                sends_by_channel.setdefault(ev.channel, []).append(ev)
            else:
                receives.append(ev)
    receives.sort(key=lambda ev: (ev.proc, ev.pos))

    recv_count: dict[Channel, int] = {}
    for ev in receives:
        recv_count[ev.channel] = recv_count.get(ev.channel, 0) + 1
    candidates = 1
    for ch in sorted(recv_count):
        n_sends = len(sends_by_channel.get(ch, ()))
        n_recvs = recv_count[ch]
        if n_recvs > n_sends:
            raise ShapeError(ch)
        candidates *= perm(n_sends, n_recvs)
    if candidates > budget.max_matchings:
        raise BudgetExceeded(
            f"{candidates} candidate matchings, budget allows {budget.max_matchings}"
        )

    next_in_proc: dict[WorldEvent, WorldEvent] = {}
    for row in world.events:
        for a, b in zip(row, row[1:]):
            next_in_proc[a] = b

    assigned_recv: dict[WorldEvent, WorldEvent] = {}

    def reaches(start: WorldEvent, target: WorldEvent) -> bool:
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

    chosen: list[tuple[WorldEvent, WorldEvent]] = []
    used: set[WorldEvent] = set()
    results: list[Matching] = []

    def search(idx: int) -> None:
        if idx == len(receives):
            results.append(Matching(tuple(chosen)))
            return
        r = receives[idx]
        for s in sends_by_channel.get(r.channel, ()):
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


def uses_probe(matchings: list[Matching]) -> bool:
    """Does some matching hand a probe send to a receive?"""
    return any(s.origin is Origin.PROBE for m in matchings for _, s in m.pairs)


def keeps_p_inside(matchings: list[Matching]) -> bool:
    """Does every matching serve every receive of p from a send of p?"""
    return not any(
        r.origin is Origin.LAYER_P and s.origin is not Origin.LAYER_P
        for m in matchings
        for r, s in m.pairs
    )
