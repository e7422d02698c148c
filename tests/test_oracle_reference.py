"""Differential tests: the oracle's indexed search equals the depth-first
reference in ``oracle_reference.py`` on the same rows: the same matchings
in the same order, and the same refusals with the same messages. The
oracle's queries give the answers the reference reads off its matchings,
and the oracle builds the same rows from the same programs."""

from __future__ import annotations

import random
from collections import Counter
from math import perm, prod

import oracle_reference as ref
import pytest
from layerseal import (
    DEFAULT_BUDGET,
    BadProcessId,
    BudgetExceeded,
    Channel,
    CyclicGraph,
    OracleBudget,
    ProcessCountMismatch,
    Program,
    channels_of,
    deadlock_free,
    empty_program,
    message_transmit,
    oracle_channel_open,
    oracle_seals,
    oracle_tcc,
    program,
    recv,
    send,
)
from layerseal.oracle import _rows, _search
from progsets import all_balanced_programs, crossed_exchange, deadlocked_pair, random_balanced_df


def _outcome(fn, *args):
    try:
        return fn(*args)
    except BudgetExceeded as exc:
        return type(exc), str(exc)


def _matchings(rows, budget: OracleBudget = DEFAULT_BUDGET) -> list:
    return list(_search(rows, budget))


def _world(layers: list[Program], probes=()) -> list:
    """The reference's rows of ``layers`` with a probe on each channel of
    ``probes``, which the oracle's encoder must build alike."""
    rows = ref.rows(layers, probes)
    assert _rows(layers, [(ch.src, ch.dst) for ch in probes]) == rows, (layers, probes)
    return rows


def _check_world(rows, budget: OracleBudget = DEFAULT_BUDGET):
    """Requires the same outcome on ``rows`` as the reference; returns it:
    the list of matchings, or the type and message of the refusal."""
    expected = _outcome(ref.enumerate_matchings, rows, budget)
    assert _outcome(_matchings, rows, budget) == expected, rows
    return expected


def _answer(query, expected):
    """The reference's answer to ``query`` on an outcome of ``_check_world``."""
    return query(expected) if isinstance(expected, list) else expected


def _check_program(p: Program, s: Program | None = None) -> None:
    """Every world the oracle builds for p, and for p then s (by default
    the empty program): the bare world, p with one probe on each channel,
    and p then s with a probe on every channel. p is deadlock free exactly
    when its bare world has a matching."""
    s = s or empty_program(p.n)
    well_formed = deadlock_free(p)
    bare = _check_world(_world([p]))
    assert isinstance(bare, list) and bool(bare) == well_formed, p
    for ch in channels_of(p.n):
        world = _world([p], [ch])
        probed = _check_world(world)
        if well_formed:
            answer = _answer(lambda ms: ref.uses_probe(ms, world, ch), probed)
            assert _outcome(oracle_channel_open, p, ch) == answer, (p, ch)
    world = _world([p, s], channels_of(p.n))
    pair = _check_world(world)
    if well_formed and deadlock_free(s):
        answer = _answer(lambda ms: ref.keeps_p_inside(ms, world, p), pair)
        assert _outcome(oracle_seals, p, s) == answer, (p, s)


def test_matches_reference_on_enumerated_scopes():
    for n, cap in ((2, 4), (3, 4), (2, 6)):
        for p in all_balanced_programs(n, cap):
            _check_program(p)


def test_matches_reference_on_random_pairs():
    rng = random.Random(4242)
    for _ in range(60):
        n = rng.randint(2, 4)
        p = random_balanced_df(rng, n, 3)
        s = random_balanced_df(rng, n, 3)
        _check_program(p, s)


def test_matches_reference_on_fixtures():
    for p in (deadlocked_pair(), crossed_exchange(), crossed_exchange(3)):
        _check_program(p)
        _check_program(p, crossed_exchange(p.n))


def _grid_programs() -> list[Program]:
    """The programs whose worlds the budget grids run over."""
    rng = random.Random(4343)
    progs = [random_balanced_df(rng, n, 4) for n in (2, 3, 4)]
    # Two channels with a taker: 3! * 2! candidates bare, 4! * 2! with a
    # probe on 1->2 and 3! * 3! with one on 2->1.
    both = program(
        "both", 2, {1: [send(2)] * 3 + [recv(2)] * 2, 2: [recv(1)] * 3 + [send(1)] * 2}
    )
    return progs + [both, program("six", 2, {1: [send(2)] * 6, 2: [recv(1)] * 6})]


def _budget_grid(events: int) -> list[OracleBudget]:
    """Every event budget up to ``events``, and candidate budgets on both
    sides of 12, 36 and 48, the counts of ``both`` bare and with a probe,
    and of 5040, the count of ``six`` with its probe."""
    return [OracleBudget(max_events=e) for e in range(events + 1)] + [
        OracleBudget(max_matchings=m)
        for m in (0, 1, 2, 6, 11, 12, 24, 35, 36, 47, 48, 120, 720, 5039, 5040)
    ]


def test_refusals_match_reference():
    progs = _grid_programs()
    worlds = [_world([p], channels_of(p.n)) for p in progs[:-1]]
    worlds.append(_world([progs[-1]], [Channel(1, 2)]))
    for world in worlds:
        for budget in _budget_grid(sum(map(len, world))):
            _check_world(world, budget)


def test_query_refusals_match_reference():
    # The search on the bare world, and the queries, which build their
    # worlds from the programs, under every budget: each must answer, or
    # refuse with the same type and message, as the reference does on the
    # world it stands for.
    outcomes: dict = {}

    def expected(query, world, budget):
        # Budgets that admit the world's events and candidates admit it
        # alike: the reference enumerates it once for all of them.
        sends = Counter(ch for row in world for ch, is_send in row if is_send)
        recvs = Counter(ch for row in world for ch, is_send in row if not is_send)
        candidates = prod(perm(sends[ch], k) for ch, k in recvs.items())
        key = (
            id(world),
            min(budget.max_matchings, candidates),
            min(budget.max_events, sum(map(len, world))),
        )
        if key not in outcomes:
            outcomes[key] = _check_world(world, OracleBudget(*key[1:]))
        return _answer(query, outcomes[key])

    for p in _grid_programs():
        outcomes.clear()  # keyed by id: the worlds of this program only
        s = message_transmit(2, 1, p.n)
        bare = _world([p])
        probed = {ch: _world([p], [ch]) for ch in channels_of(p.n)}
        pair = _world([p, s], channels_of(p.n))
        for budget in _budget_grid(sum(map(len, pair))):
            assert _outcome(_matchings, bare, budget) == expected(list, bare, budget), (p, budget)
            for ch, world in probed.items():
                answer = expected(lambda ms: ref.uses_probe(ms, world, ch), world, budget)
                assert _outcome(oracle_channel_open, p, ch, budget) == answer, (p, ch, budget)
            answer = expected(lambda ms: ref.keeps_p_inside(ms, pair, p), pair, budget)
            assert _outcome(oracle_seals, p, s, budget) == answer, (p, budget)


def test_input_errors_come_before_budget_refusals():
    tight = OracleBudget(max_matchings=0, max_events=0)
    p, stuck = crossed_exchange(), deadlocked_pair()
    with pytest.raises(BadProcessId):
        oracle_channel_open(p, Channel(1, 3), tight)
    with pytest.raises(BadProcessId):
        oracle_channel_open(stuck, Channel(3, 1), tight)
    with pytest.raises(ProcessCountMismatch):
        oracle_seals(p, empty_program(3), tight)
    with pytest.raises(ProcessCountMismatch):
        oracle_seals(stuck, crossed_exchange(3), tight)
    with pytest.raises(CyclicGraph):
        oracle_channel_open(stuck, Channel(1, 2), tight)
    with pytest.raises(CyclicGraph):
        oracle_seals(stuck, p, tight)
    with pytest.raises(CyclicGraph):
        oracle_seals(p, stuck, tight)
    with pytest.raises(CyclicGraph):
        oracle_tcc(stuck, tight)


def test_shape_errors_match_reference():
    # More receives than sends on some channel, alone, after a channel
    # whose candidate count is over budget, and in random unbalanced worlds.
    short = program("short", 2, {1: [send(2)], 2: [recv(1), recv(1)]})
    late = program(
        "late", 3, {1: [send(2)] * 9, 2: [recv(1)] * 9 + [recv(3)], 3: []}
    )
    worlds = [_world([p]) for p in (short, late)]
    rng = random.Random(4444)
    for _ in range(100):
        n = rng.randint(2, 4)
        seqs = {
            i: [rng.choice((send, recv))(rng.choice([k for k in range(1, n + 1) if k != i]))
                for _ in range(rng.randint(0, 3))]
            for i in range(1, n + 1)
        }
        worlds.append(_world([program("u", n, seqs)]))
    for world in worlds:
        for budget in (DEFAULT_BUDGET, OracleBudget(max_matchings=1)):
            _check_world(world, budget)
    assert _outcome(_matchings, worlds[0]) == _outcome(_matchings, worlds[1]) == []
