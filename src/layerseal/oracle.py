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

The search numbers the events of :meth:`EventWorld.all_events` 0..N-1 and
keeps, for every event x, an int bitset ``reach[x]`` of the events x
reaches, x included: at first along its process only. Choosing send s for
receive r closes a cycle exactly when bit s of ``reach[r]`` is set;
otherwise the edge s -> r adds ``reach[r]`` to every bitset that holds s,
in a new list, so backtracking drops nothing but a reference. This is
happened-before over a space-time diagram (Lamport 1978), one AND per
candidate. Matchings stream out one at a time, so the queries stop at the
first answer: :func:`oracle_channel_open` at the first matching that uses
the probe, :func:`oracle_seals` at the first that serves a receive of p
from outside p, :func:`has_rel_run` at the first matching. No state
outlives a call.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from math import perm
from typing import Iterable, Iterator, Sequence

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
    events = world.all_events()
    return [
        Matching(tuple((events[r], events[s]) for r, s in pairs))
        for pairs in _matchings(world, budget)
    ]


def _matchings(
    world: EventWorld, budget: OracleBudget
) -> Iterator[tuple[tuple[int, int], ...]]:
    """The matchings of ``world``, each as (receive, send) pairs of indices
    into ``world.all_events()``, in the order of the module docstring.

    The budget refusals and :class:`ShapeError` are raised by the call
    itself, before any matching is searched for.
    """
    if world.event_count > budget.max_events:
        raise BudgetExceeded(
            f"world has {world.event_count} events, budget allows {budget.max_events}"
        )
    events = world.all_events()
    sends: dict[Channel, list[int]] = {}
    receives: list[int] = []
    for x, ev in enumerate(events):
        if ev.kind is StmtKind.SEND:
            sends.setdefault(ev.channel, []).append(x)
        else:
            receives.append(x)
    receives.sort(key=lambda x: (events[x].proc, events[x].pos))

    recv_count = Counter(events[r].channel for r in receives)
    candidates = 1
    for ch in sorted(recv_count):
        n_sends = len(sends.get(ch, ()))
        if recv_count[ch] > n_sends:
            raise ShapeError(ch)
        candidates *= perm(n_sends, recv_count[ch])
    if candidates > budget.max_matchings:
        raise BudgetExceeded(
            f"{candidates} candidate matchings, budget allows {budget.max_matchings}"
        )

    # Along its row alone, an event reaches itself and the events after it.
    reach: list[int] = []
    for row in world.events:
        first = len(reach)
        reach += [((1 << len(row)) - 1 >> k) << (first + k) for k in range(len(row))]
    choices = [(r, sends[events[r].channel]) for r in receives]

    def search(k: int, reach: list[int], used: int, pairs: tuple) -> Iterator[tuple]:
        if k == len(choices):
            yield pairs
            return
        r, senders = choices[k]
        from_r = reach[r]
        for s in senders:
            # Skip a used send, and one that r already reaches: the edge
            # s -> r would close a cycle, and edges only accumulate.
            if (used | from_r) >> s & 1:
                continue
            grown = [v | from_r if v >> s & 1 else v for v in reach]
            yield from search(k + 1, grown, used | 1 << s, pairs + ((r, s),))

    return search(0, reach, 0, ())


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
    probe = next(x for x, ev in enumerate(world.all_events()) if ev.origin is Origin.PROBE)
    return any(s == probe for pairs in _matchings(world, budget) for _, s in pairs)


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
    events = world.all_events()
    return not any(
        events[r].origin is Origin.LAYER_P and events[s].origin is not Origin.LAYER_P
        for pairs in _matchings(world, budget)
        for r, s in pairs
    )


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
    return next(_matchings(world, budget), None) is not None
