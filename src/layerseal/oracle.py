"""Brute-force semantic oracle over reliable non-FIFO channels.

The static analyses in this package answer questions of the form "can any
continuation of this program interfere with it". This module answers the
same questions by exhaustive enumeration, so the two can be checked against
each other on small inputs.

A run assigns every receive event the send event whose message it consumed:
an injective, per-channel matching, total on receives, whose induced order
(process order plus matched-send-before-receive) is acyclic. The oracle
enumerates every such matching of a finite event world.

Finite worlds suffice. A continuation of a balanced program can interfere
only through the messages it sends, and a single extra send per channel (a
"probe") already realizes every interference pattern a longer continuation
could: if some continuation's send can be consumed by a receive of the
program, so can the probe's, by the same acyclic order restricted to fewer
events. Any acyclic matching of the finite world extends to a legal infinite
run in which the processes simply stop afterwards; unmatched probe sends
stay in flight forever, which reliability permits since only finitely many
sends follow them.

Budgets are explicit: enumeration refuses, with :class:`BudgetExceeded`,
rather than silently truncating, when the world has more events than
``max_events`` or the per-channel injection count product exceeds
``max_matchings``. The product bound is computed before searching, so the
refusal errs toward caution even though cycle pruning might have kept the
actual count lower.

Results are deterministic: matchings appear in lexicographic order of send
choices along receives sorted by (process, position).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import perm
from typing import Iterable, Sequence

from .errors import BadProcessId, BudgetExceeded, CyclicGraph, ProcessCountMismatch, ShapeError
from .graph import deadlock_free
from .model import Channel, Program, StmtKind, channels_of, empty_program, statement_channel

__all__ = [
    "DEFAULT_BUDGET",
    "EventWorld",
    "Matching",
    "OracleBudget",
    "Origin",
    "WorldEvent",
    "enumerate_matchings",
    "has_rel_run",
    "oracle_channel_open",
    "oracle_seals",
    "oracle_tcc",
]


class Origin(Enum):
    LAYER_P = "p"
    LAYER_S = "s"
    PROBE = "probe"


@dataclass(frozen=True)
class WorldEvent:
    """One event in the world: position ``pos`` within process ``proc``."""

    proc: int
    pos: int
    kind: StmtKind
    channel: Channel
    origin: Origin


@dataclass(frozen=True)
class OracleBudget:
    max_matchings: int = 1_000_000
    max_events: int = 24


DEFAULT_BUDGET = OracleBudget()


@dataclass(frozen=True)
class EventWorld:
    """Per-process event sequences drawn from one or more layered programs."""

    n: int
    events: tuple[tuple[WorldEvent, ...], ...]

    @classmethod
    def from_layers(
        cls,
        layers: Sequence[tuple[Program, Origin]],
        probe_channels: Iterable[Channel] = (),
    ) -> EventWorld:
        if not layers:
            raise ValueError("at least one layer required")
        n = layers[0][0].n
        for prog, _ in layers:
            if prog.n != n:
                raise ProcessCountMismatch(n, prog.n)
        rows: list[list[WorldEvent]] = [[] for _ in range(n)]
        for prog, origin in layers:
            for proc in range(1, n + 1):
                for stmt in prog.statements(proc):
                    rows[proc - 1].append(
                        WorldEvent(
                            proc,
                            len(rows[proc - 1]),
                            stmt.kind,
                            statement_channel(proc, stmt),
                            origin,
                        )
                    )
        for ch in probe_channels:
            row = rows[ch.src - 1]
            row.append(WorldEvent(ch.src, len(row), StmtKind.SEND, ch, Origin.PROBE))
        return cls(n, tuple(tuple(row) for row in rows))

    def all_events(self) -> list[WorldEvent]:
        return [ev for row in self.events for ev in row]

    @property
    def event_count(self) -> int:
        return sum(len(row) for row in self.events)


@dataclass(frozen=True)
class Matching:
    """Receive-to-send assignment, in canonical receive order."""

    pairs: tuple[tuple[WorldEvent, WorldEvent], ...]


def enumerate_matchings(
    world: EventWorld, budget: OracleBudget = DEFAULT_BUDGET
) -> list[Matching]:
    """All acyclic, injective, receive-total, per-channel matchings.

    Raises :class:`ShapeError` when some channel has more receives than
    sends and :class:`BudgetExceeded` when the world or the candidate count
    is over budget.
    """
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


def _require_well_formed(p: Program) -> None:
    if not deadlock_free(p):
        raise CyclicGraph(f"{p.name!r} can deadlock")


def oracle_channel_open(
    p: Program, channel: Channel, budget: OracleBudget = DEFAULT_BUDGET
) -> bool:
    """Can a message sent after p be consumed by a receive inside p?

    Appends one probe send on ``channel`` and checks whether any matching
    hands it to one of p's receives.
    """
    if channel.src > p.n or channel.dst > p.n:
        raise BadProcessId(f"channel {channel} outside 1..{p.n}")
    _require_well_formed(p)
    world = EventWorld.from_layers([(p, Origin.LAYER_P)], probe_channels=[channel])
    return any(
        s.origin is Origin.PROBE
        for m in enumerate_matchings(world, budget)
        for _, s in m.pairs
    )


def oracle_seals(p: Program, s: Program, budget: OracleBudget = DEFAULT_BUDGET) -> bool:
    """Does s seal p, by exhaustive check?

    Layers s after p, appends one probe send per channel, and requires every
    matching to serve every receive of p from a send of p. Balance then
    forces all of p's sends to be consumed inside p as well, so the boundary
    after p is silent in every run.
    """
    if p.n != s.n:
        raise ProcessCountMismatch(p.n, s.n)
    _require_well_formed(p)
    _require_well_formed(s)
    world = EventWorld.from_layers(
        [(p, Origin.LAYER_P), (s, Origin.LAYER_S)], probe_channels=channels_of(p.n)
    )
    for m in enumerate_matchings(world, budget):
        for r, snd in m.pairs:
            if r.origin is Origin.LAYER_P and snd.origin is not Origin.LAYER_P:
                return False
    return True


def oracle_tcc(p: Program, budget: OracleBudget = DEFAULT_BUDGET) -> bool:
    """Is the boundary after p silent against every continuation?

    Equivalent to the empty program sealing p: nothing p's own tail could
    rely on may leak across the cut.
    """
    return oracle_seals(p, empty_program(p.n), budget)


def has_rel_run(p: Program, budget: OracleBudget = DEFAULT_BUDGET) -> bool:
    """Does the bare program admit any acyclic receive-total matching?

    Exposed separately so the graph-based deadlock check can be compared
    with the run-level notion on small inputs.
    """
    world = EventWorld.from_layers([(p, Origin.LAYER_P)])
    return bool(enumerate_matchings(world, budget))
