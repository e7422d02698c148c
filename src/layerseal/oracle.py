"""Brute-force semantic oracle over reliable non-FIFO channels.

The static analyses in this package answer questions of the form "can any
continuation of this program interfere with it". This module answers the
same questions by exhaustive search, so the two can be checked against each
other on small inputs.

A run assigns every receive event the send event whose message it consumed:
an injective, per-channel matching, total on receives, whose induced order
(process order plus matched-send-before-receive) is acyclic. A query asks
whether such a matching of a finite event world holds a pair answering it.

Finite worlds suffice. A continuation of a balanced program can interfere
only through the messages it sends, and a single extra send per channel (a
"probe") already realizes every interference pattern a longer continuation
could: if some continuation's send can be consumed by a receive of the
program, so can the probe's, by the same acyclic order restricted to fewer
events. Any acyclic matching of the finite world extends to a legal infinite
run in which the processes simply stop afterwards; unmatched probe sends
stay in flight forever, which reliability permits since only finitely many
sends follow them.

Budgets are explicit: a query refuses with :class:`BudgetExceeded`, rather
than truncating, when the world has more events than ``max_events`` or more
candidate matchings, the per-channel injection count product, than
``max_matchings``. Both are counted before any search, so a refusal errs
toward caution: cycle pruning might have kept the actual count lower.

The queries build their world straight from the programs' statement
sequences, as per-process rows of ``((src, dst), is_send)`` pairs with the
probe sends at the ends of the rows, and number its events row by row
0..N-1, so index order is (process, position) order and a probe or an event
of p is told by its place in the rows. The search takes the receives in
index order and keeps, for each receive still to match, an int bitset of
the events it reaches, itself included: at first along its row only. Send
s closes a cycle for receive r exactly when bit s of r's bitset is set;
otherwise the edge s -> r adds r's bitset to every later bitset that holds
s, in a new list; frames share one list until then, so backtracking drops
nothing but a reference. This is happened-before over a space-time diagram
(Lamport 1978), one AND per candidate. The search keeps its branch as an
explicit stack of frames, one per receive, so a world of any size fits, and
yields matchings in lexicographic order of send choices along receives in
index order.

A query gives each receive a goal, the bitset of the sends whose choice
answers it: for :func:`oracle_seals` the sends outside p, on p's receives;
for :func:`oracle_channel_open` the probe, on its channel's receives. The
search returns at the first complete matching holding a goal pair, and
prunes a branch once the last receive with a goal is matched without one.
:func:`_search` is the same search with no goal, and streams every matching.

One entry outlives a call: the last program a query found well formed, and
its bare world once a channel query has built it. Matched by identity, it
lets :func:`oracle_seals` and the channel queries on one ``Program`` check
it once and build its world once; a program that fails the check never
enters it. A channel query adds its probe to that world as one event more,
numbered after p's (only its bit matters, and it is its channel's last send
either way): to the channel's sends, to the bitsets of the receives on its
sender's row, and to the candidates, as (k + 1)! for the channel's k!. A
channel with no receive in p answers ``False`` after the budget refusals.
"""

from __future__ import annotations

from itertools import accumulate, permutations
from math import perm
from operator import or_
from typing import Iterable, Iterator, Sequence

from .errors import BadProcessId, BudgetExceeded, CyclicGraph, ProcessCountMismatch
from .graph import deadlock_free
from .model import Channel, Program, Record, StmtKind, empty_program, setfield

__all__ = [
    "DEFAULT_BUDGET",
    "OracleBudget",
    "oracle_channel_open",
    "oracle_seals",
    "oracle_tcc",
]


class OracleBudget(Record):
    __slots__ = ("max_matchings", "max_events")

    def __init__(self, max_matchings: int = 1_000_000, max_events: int = 24) -> None:
        setfield(self, "max_matchings", max_matchings)
        setfield(self, "max_events", max_events)


DEFAULT_BUDGET = OracleBudget()


# A world's events, row by row: the channel as (src, dst), and whether the
# event is a send.
_Row = list[tuple[tuple[int, int], bool]]


def _rows(layers: Sequence[Program], probes: Iterable[tuple[int, int]] = ()) -> list[_Row]:
    """The rows of ``layers`` run one after the other on every process, then
    one probe send on each channel ``(src, dst)`` of ``probes``."""
    rows = [
        [
            ((i, stmt.peer), True) if stmt.kind is StmtKind.SEND else ((stmt.peer, i), False)
            for p in layers
            for stmt in p.seqs[i - 1]
        ]
        for i in range(1, layers[0].n + 1)
    ]
    for src, dst in probes:
        rows[src - 1].append(((src, dst), True))
    return rows


def _check_size(size: int, budget: OracleBudget) -> None:
    if size > budget.max_events:
        raise BudgetExceeded(f"world has {size} events, budget allows {budget.max_events}")


def _check_candidates(candidates: int, budget: OracleBudget) -> None:
    if candidates > budget.max_matchings:
        raise BudgetExceeded(
            f"{candidates} candidate matchings, budget allows {budget.max_matchings}"
        )


def _world(rows: list[_Row]) -> tuple:
    """The world of ``rows`` as :func:`_matchings` searches it: the sends on
    each channel, and the channel, index and reach bitset of each receive,
    all in index order, then its event count and candidate matchings, which
    are 0 when some channel has more receives than sends."""
    sends: dict[tuple[int, int], list[int]] = {}
    received: dict[tuple[int, int], int] = {}
    chans, indices, reach = [], [], []
    x = 0
    for row in rows:
        # Along its row alone, a receive reaches itself and the events after it.
        end = 1 << (x + len(row))
        for ch, is_send in row:
            if is_send:
                sends.setdefault(ch, []).append(x)
            else:
                chans.append(ch)
                indices.append(x)
                reach.append(end - (1 << x))
                received[ch] = received.get(ch, 0) + 1
            x += 1
    candidates = 1
    for ch, k in received.items():
        candidates *= perm(len(sends.get(ch, ())), k)
    return sends, chans, indices, reach, x, candidates


def _matchings(senders: list, reach: list[int], goals: list | None = None) -> Iterator[list[int]]:
    """The complete matchings, as the sends chosen for the receives in index
    order, in lexicographic order; with ``goals``, only those with a goal
    pair, receive k matched to a send in ``goals[k]``. Receive k takes a
    send of ``senders[k]`` and starts with bitset ``reach[k]``. One list
    holds every matching, changed in place for the next."""
    n = len(senders)
    hit = goals is None
    goals = goals or [0] * n
    # Past the last receive with a goal, a branch without a goal pair has none.
    stop = n
    while stop and not goals[stop - 1]:
        stop -= 1
    chosen = [0] * n
    # tails[j] is the union of the bitsets of receive j and those after it.
    tails = [*accumulate(reversed(reach), or_, initial=0)][::-1]
    # One frame per receive on the branch: the sends left for it to try, the
    # bitsets and tails as the branch reached it, the sends it may not take
    # (used ones, and those it already reaches: the edge s -> r would close
    # a cycle, and edges only accumulate), the sends used before it, and
    # whether a goal pair was hit before it.
    frames: list[tuple[Iterator[int], list[int], list[int], int, int, int]] = []
    used = 0
    while True:
        k = len(frames)
        if k == n:
            if hit:
                yield chosen
        elif k != stop or hit:
            frames.append((iter(senders[k]), reach, tails, used | reach[k], used, hit))
        while frames:
            choices, reach, tails, blocked, used, hit = frames[-1]
            s = next(choices, None)
            if s is None:
                frames.pop()
            elif not blocked >> s & 1:
                break
        else:
            return
        k = len(frames) - 1
        chosen[k] = s
        # The edge s -> k adds k's bitset to every later one that holds s
        # (and to earlier ones, which the branch no longer reads).
        if tails[k + 1] >> s & 1:
            from_r = reach[k]
            reach = [v | from_r if v >> s & 1 else v for v in reach]
            tails = [*accumulate(reversed(reach), or_, initial=0)][::-1]
        used, hit = used | 1 << s, hit or goals[k] >> s & 1


def _search(rows: list[_Row], budget: OracleBudget) -> Iterator[tuple[tuple[int, int], ...]]:
    """The matchings of the world of ``rows``, as (receive, send) index
    pairs, in the order of the module docstring. The refusals are raised by
    the call, before any search; a world with no candidates is not searched."""
    _check_size(sum(map(len, rows)), budget)
    sends, chans, indices, reach, _, candidates = _world(rows)
    _check_candidates(candidates, budget)
    found = _matchings([sends[ch] for ch in chans], reach) if candidates else ()
    return (tuple(zip(indices, m)) for m in found)


def _require_well_formed(p: Program) -> None:
    if not deadlock_free(p):
        raise CyclicGraph()


# The last program a query found well formed and its bare world, or None
# until a channel query builds it: one tuple, read once and replaced whole,
# so concurrent queries each use a consistent entry.
_checked: tuple | None = None


def _entry(p: Program) -> tuple:
    """The entry of p, checking p and filling ``_checked`` when it is not
    the last program a query found well formed."""
    global _checked
    entry = _checked
    if entry is None or entry[0] is not p:
        _require_well_formed(p)
        _checked = entry = (p, None)
    return entry


def oracle_channel_open(
    p: Program, channel: Channel, budget: OracleBudget = DEFAULT_BUDGET
) -> bool:
    """Can a message sent after p be consumed by a receive inside p?

    Appends one probe send on ``channel`` and checks whether any matching
    hands it to one of p's receives.
    """
    global _checked
    if channel.src > p.n or channel.dst > p.n:
        raise BadProcessId(f"channel {channel} outside 1..{p.n}")
    _, world = _entry(p)
    if world is None:
        _check_size(p.event_count + 1, budget)
        world = _world(_rows([p]))
        _checked = (p, world)
    sends, chans, _, reach, size, candidates = world
    _check_size(size + 1, budget)
    ch = (channel.src, channel.dst)
    # Balanced: the channel has k receives and k sends, k + 1 with the probe.
    k = len(sends.get(ch, ()))
    _check_candidates(candidates * (k + 1), budget)
    if not k:
        return False
    probed, bit = [*sends[ch], size], 1 << size  # the probe is event number size
    senders, probed_reach, goals = [], [], []
    for c, v in zip(chans, reach):
        senders.append(probed if c == ch else sends[c])
        probed_reach.append(v | bit if c[1] == ch[0] else v)
        goals.append(bit if c == ch else 0)
    return next(_matchings(senders, probed_reach, goals), None) is not None


def oracle_seals(p: Program, s: Program, budget: OracleBudget = DEFAULT_BUDGET) -> bool:
    """Does s seal p, by exhaustive check?

    Layers s after p, appends one probe send per channel, and requires every
    matching to serve every receive of p from a send of p. Balance then
    forces all of p's sends to be consumed inside p as well, so the boundary
    after p is silent in every run.
    """
    if p.n != s.n:
        raise ProcessCountMismatch(p.n, s.n)
    _entry(p)
    _require_well_formed(s)
    rows = _rows([p, s], permutations(range(1, p.n + 1), 2))
    _check_size(sum(map(len, rows)), budget)
    sends, chans, indices, reach, _, candidates = _world(rows)
    _check_candidates(candidates, budget)
    # The events of p open every row: a bitset of their indices.
    in_p = start = 0
    for seq, row in zip(p.seqs, rows):
        in_p |= ((1 << len(seq)) - 1) << start
        start += len(row)
    goals = [~in_p if in_p >> x & 1 else 0 for x in indices]
    return next(_matchings([sends[ch] for ch in chans], reach, goals), None) is None


def oracle_tcc(p: Program, budget: OracleBudget = DEFAULT_BUDGET) -> bool:
    """Is the boundary after p silent against every continuation?

    Equivalent to the empty program sealing p: nothing p's own tail could
    rely on may leak across the cut.
    """
    return oracle_seals(p, empty_program(p.n), budget)
