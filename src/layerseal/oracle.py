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
choices along receives in index order.

The queries build their world straight from the programs' statement
sequences, as per-process rows of ``((src, dst), is_send)`` pairs with the
probe sends at the ends of the rows, and number its events row by row
0..N-1, so index order is (process, position) order and a probe or an
event of p is told by its place in the rows. The search keeps, for
every event x, an int bitset ``reach[x]`` of the events x reaches, x
included: at first along its row only. Choosing send s for receive r
closes a cycle exactly when bit s of ``reach[r]`` is set; otherwise the
edge s -> r adds ``reach[r]`` to every bitset that holds s, in a new list,
so backtracking drops nothing but a reference. This is happened-before
over a space-time diagram (Lamport 1978), one AND per candidate. Matchings
stream out one at a time, so the queries stop at the first answer:
:func:`oracle_channel_open` at the first matching that uses the probe,
:func:`oracle_seals` at the first that serves a receive of p from outside
p.

One entry outlives a call: the last program that a channel query found
well formed, with the rows, the receive count on each channel and the
candidate count of its bare world. It is matched by identity and holds the
program, so a run of channel queries on one ``Program`` checks it once,
and a program that fails the check never enters it. A channel without a
receive in p cannot take the probe: its query raises the budget refusals
the search would raise (the world has one event more than the bare one,
and as many candidates, since perm(s + 1, 0) = 1) and answers ``False``
without a search.
"""

from __future__ import annotations

from collections import Counter
from math import factorial, perm, prod
from typing import Iterable, Iterator, Sequence

from .errors import BadProcessId, BudgetExceeded, CyclicGraph, ProcessCountMismatch, ShapeError
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


def _search(rows: list[_Row], budget: OracleBudget) -> Iterator[tuple[tuple[int, int], ...]]:
    """The matchings of the world of ``rows``, each as (receive, send) pairs
    of event indices, in the order of the module docstring.

    The budget refusals and :class:`ShapeError` are raised by the call
    itself, before any matching is searched for.
    """
    _check_size(sum(map(len, rows)), budget)
    sends: dict[tuple[int, int], list[int]] = {}
    receives: list[tuple[int, tuple[int, int]]] = []
    counts: dict[tuple[int, int], int] = {}
    # Along its row alone, an event reaches itself and the events after it.
    reach: list[int] = []
    x = 0
    for row in rows:
        end = 1 << (x + len(row))
        for ch, is_send in row:
            if is_send:
                sends.setdefault(ch, []).append(x)
            else:
                receives.append((x, ch))
                counts[ch] = counts.get(ch, 0) + 1
            reach.append(end - (1 << x))
            x += 1
    candidates = 1
    for ch in sorted(counts):
        n_sends = len(sends.get(ch, ()))
        if counts[ch] > n_sends:
            raise ShapeError(Channel(*ch))
        candidates *= perm(n_sends, counts[ch])
    _check_candidates(candidates, budget)
    choices = [(r, sends[ch]) for r, ch in receives]

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


# The last program a channel query found well formed, as (p, the rows of
# its bare world, their event count, its receive count on each channel that
# has a receive, the bare world's candidate count). One tuple, read once and
# replaced whole, so concurrent queries each use a consistent entry.
_checked: tuple | None = None


def _channel_facts(p: Program) -> tuple:
    global _checked
    facts = _checked
    if facts is None or facts[0] is not p:
        _require_well_formed(p)
        rows = _rows([p])
        takers = Counter(ch for row in rows for ch, is_send in row if not is_send)
        # Balanced: every channel has as many sends as receives.
        candidates = prod(map(factorial, takers.values()))
        _checked = facts = (p, rows, sum(map(len, rows)), takers, candidates)
    return facts


def oracle_channel_open(
    p: Program, channel: Channel, budget: OracleBudget = DEFAULT_BUDGET
) -> bool:
    """Can a message sent after p be consumed by a receive inside p?

    Appends one probe send on ``channel`` and checks whether any matching
    hands it to one of p's receives.
    """
    if channel.src > p.n or channel.dst > p.n:
        raise BadProcessId(f"channel {channel} outside 1..{p.n}")
    _, rows, size, takers, candidates = _channel_facts(p)
    ch = (channel.src, channel.dst)
    if ch not in takers:
        _check_size(size + 1, budget)
        _check_candidates(candidates, budget)
        return False
    # The probe ends the row of its sender.
    probe = sum(map(len, rows[: channel.src]))
    rows = rows.copy()
    rows[channel.src - 1] = [*rows[channel.src - 1], (ch, True)]
    return any(s == probe for pairs in _search(rows, budget) for _, s in pairs)


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
    n = p.n
    rows = _rows([p, s], [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j])
    # The events of p open every row: a bitset of their indices.
    in_p = start = 0
    for seq, row in zip(p.seqs, rows):
        in_p |= ((1 << len(seq)) - 1) << start
        start += len(row)
    return not any(
        in_p >> r & 1 and not in_p >> x & 1 for pairs in _search(rows, budget) for r, x in pairs
    )


def oracle_tcc(p: Program, budget: OracleBudget = DEFAULT_BUDGET) -> bool:
    """Is the boundary after p silent against every continuation?

    Equivalent to the empty program sealing p: nothing p's own tail could
    rely on may leak across the cut.
    """
    return oracle_seals(p, empty_program(p.n), budget)
