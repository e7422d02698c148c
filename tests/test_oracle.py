"""Tests for the brute-force matching oracle."""

from __future__ import annotations

import random

import oracle_reference as ref
import pytest
from layerseal import (
    DEFAULT_BUDGET,
    BadProcessId,
    BudgetExceeded,
    Channel,
    CyclicGraph,
    EventWorld,
    OracleBudget,
    ProcessCountMismatch,
    ShapeError,
    StmtKind,
    Unbalanced,
    channels_of,
    compute_signature,
    deadlock_free,
    empty_program,
    enumerate_matchings,
    has_rel_run,
    layer,
    message_transmit,
    oracle_channel_open,
    oracle_seals,
    oracle_tcc,
    program,
    recv,
    send,
)
from layerseal.oracle import Origin, WorldEvent
from progsets import (
    all_balanced_programs,
    crossed_exchange,
    deadlocked_pair,
    gather_phase,
    random_balanced_df,
)


def _world(p, probes=()):
    return EventWorld.from_layers([(p, Origin.LAYER_P)], probe_channels=probes)


def test_matching_count_single_transmit():
    ms = enumerate_matchings(_world(message_transmit(1, 2, 2)))
    assert len(ms) == 1
    ((r, s),) = ms[0].pairs
    assert s.kind is StmtKind.SEND and r.kind is StmtKind.RECV
    assert s.proc == 1 and r.proc == 2


def test_matching_count_two_parallel_sends():
    # Two messages from 1 to 2: either receive may take either message.
    p = program("two", 2, {1: [send(2), send(2)], 2: [recv(1), recv(1)]})
    assert len(enumerate_matchings(_world(p))) == 2


def test_matching_count_crossed_exchange():
    # One message each way; only one assignment per channel exists, and it
    # is acyclic because both sends come first.
    assert len(enumerate_matchings(_world(crossed_exchange()))) == 1


def test_cycle_pruning_rejects_deadlock():
    assert enumerate_matchings(_world(deadlocked_pair())) == []
    assert not has_rel_run(deadlocked_pair())


def test_deadlock_freedom_matches_oracle_exhaustively():
    for n, cap in ((2, 4), (3, 4)):
        for p in all_balanced_programs(n, cap):
            assert deadlock_free(p) == has_rel_run(p), p


def test_matchings_are_valid_and_deterministic():
    p = program(
        "mix",
        3,
        {1: [send(2), send(2)], 2: [recv(1), recv(1), send(3)], 3: [recv(2)]},
    )
    world = _world(p)
    first = enumerate_matchings(world)
    second = enumerate_matchings(world)
    assert first == second
    for m in first:
        recvs = [r for r, _ in m.pairs]
        sends = [s for _, s in m.pairs]
        assert len(set(recvs)) == len(recvs)
        assert len(set(sends)) == len(sends)
        for r, s in m.pairs:
            assert r.channel == s.channel


def test_shape_error_when_receives_outnumber_sends():
    row1 = (WorldEvent(1, 0, StmtKind.SEND, Channel(1, 2), Origin.LAYER_P),)
    row2 = (
        WorldEvent(2, 0, StmtKind.RECV, Channel(1, 2), Origin.LAYER_P),
        WorldEvent(2, 1, StmtKind.RECV, Channel(1, 2), Origin.LAYER_P),
    )
    world = EventWorld(2, (row1, row2))
    with pytest.raises(ShapeError) as exc:
        enumerate_matchings(world)
    assert exc.value.channel == Channel(1, 2)


def test_budget_exceeded_on_too_many_events():
    p = message_transmit(1, 2, 2)
    with pytest.raises(BudgetExceeded):
        enumerate_matchings(_world(p), OracleBudget(max_events=1))


def test_budget_exceeded_on_too_many_matchings():
    # Ten parallel transmissions on one channel: 10! candidate matchings.
    # The bound is checked before searching, so the refusal is instant.
    p = program(
        "wide",
        2,
        {1: [send(2)] * 10, 2: [recv(1)] * 10},
    )
    with pytest.raises(BudgetExceeded):
        enumerate_matchings(_world(p))


def test_matching_count_parallel_factorial():
    # Six parallel transmissions: every permutation is acyclic, 6! in all.
    p = program("six", 2, {1: [send(2)] * 6, 2: [recv(1)] * 6})
    assert len(enumerate_matchings(_world(p))) == 720


def test_oracle_channel_open_fixtures():
    mt = message_transmit(1, 2, 2)
    assert oracle_channel_open(mt, Channel(1, 2))
    assert not oracle_channel_open(mt, Channel(2, 1))
    acked = layer(mt, message_transmit(2, 1, 2))
    # 2's receive is chained before the probe via the acknowledgement.
    assert not oracle_channel_open(acked, Channel(1, 2))
    assert oracle_channel_open(acked, Channel(2, 1))


def test_oracle_channel_open_validates_channel():
    with pytest.raises(BadProcessId):
        oracle_channel_open(message_transmit(1, 2, 2), Channel(1, 3))


def test_oracle_rejects_deadlocking_input():
    with pytest.raises(CyclicGraph):
        oracle_channel_open(deadlocked_pair(), Channel(1, 2))
    with pytest.raises(CyclicGraph):
        oracle_seals(deadlocked_pair(), empty_program(2))


def test_oracle_seals_fixtures():
    mt = message_transmit(1, 2, 2)
    ack = message_transmit(2, 1, 2)
    assert oracle_seals(mt, ack)
    assert not oracle_seals(mt, mt)
    assert not oracle_seals(mt, empty_program(2))
    assert oracle_seals(empty_program(2), empty_program(2))
    # The counts are compared before either program is checked.
    with pytest.raises(ProcessCountMismatch):
        oracle_seals(deadlocked_pair(), empty_program(3))


def test_oracle_tcc_fixtures():
    assert oracle_tcc(empty_program(3))
    assert not oracle_tcc(message_transmit(1, 2, 2))
    assert not oracle_tcc(crossed_exchange())


def test_probe_worlds_include_probe_sends():
    world = EventWorld.from_layers(
        [(empty_program(2), Origin.LAYER_P)], probe_channels=[Channel(1, 2)]
    )
    assert world.event_count == 1
    (probe,) = world.all_events()
    assert probe.origin is Origin.PROBE
    assert probe.kind is StmtKind.SEND


def test_world_positions_run_per_process():
    p = program("p", 2, {1: [send(2), send(2)], 2: [recv(1), recv(1)]})
    world = EventWorld.from_layers(
        [(p, Origin.LAYER_P), (message_transmit(2, 1, 2), Origin.LAYER_S)]
    )
    assert [ev.pos for ev in world.events[0]] == [0, 1, 2]
    assert [ev.origin for ev in world.events[0]] == [
        Origin.LAYER_P,
        Origin.LAYER_P,
        Origin.LAYER_S,
    ]
    with pytest.raises(ValueError, match="at least one layer"):
        EventWorld.from_layers([])
    with pytest.raises(ProcessCountMismatch):
        EventWorld.from_layers([(p, Origin.LAYER_P), (empty_program(3), Origin.LAYER_S)])


def test_oracle_results_stable_across_calls():
    rng = random.Random(41)
    for _ in range(10):
        p = random_balanced_df(rng, 3, 4)
        a = [oracle_channel_open(p, ch) for ch in [Channel(1, 2), Channel(2, 1)]]
        b = [oracle_channel_open(p, ch) for ch in [Channel(1, 2), Channel(2, 1)]]
        assert a == b


def test_gather_phase_4_open_channels_match_oracle():
    # Pins the n=4 gather example channel by channel: every i->j with
    # i >= 2 is open, and the collector's channels 1->* are closed.
    p = gather_phase(4)
    sig = compute_signature(p)
    for ch in channels_of(4):
        assert sig.leaves_open(ch) == oracle_channel_open(p, ch), ch
    assert sig.open_channels() == [ch for ch in channels_of(4) if ch.src >= 2]
    assert len(sig.open_channels()) == 9


# Programs the oracle refuses. All but the first have channels with no
# receive on them, which a query on a well-formed program answers without
# a search.
ILL_FORMED = [
    (deadlocked_pair(), CyclicGraph),
    (program("stuck", 3, {1: [recv(2), send(2)], 2: [recv(1), send(1)]}), CyclicGraph),
    (program("short", 2, {1: [send(2)], 2: [recv(1), recv(1)]}), Unbalanced),
    (program("lost", 2, {1: [send(2)]}), Unbalanced),
]


@pytest.mark.parametrize("bad, error", ILL_FORMED, ids=[p.name for p, _ in ILL_FORMED])
def test_channel_queries_on_an_ill_formed_program_always_raise(bad, error):
    # The oracle remembers the last program a channel query found well
    # formed; a program that fails the check must fail it in every position.
    good = crossed_exchange(bad.n)
    opened = {Channel(1, 2), Channel(2, 1)}

    def refused_on_every_channel():
        for ch in channels_of(bad.n):
            with pytest.raises(error):
                oracle_channel_open(bad, ch)

    refused_on_every_channel()  # queried first
    refused_on_every_channel()  # and again, right after itself
    assert oracle_channel_open(good, Channel(1, 2))
    refused_on_every_channel()  # right after a well-formed program
    for ch in channels_of(bad.n):
        assert oracle_channel_open(good, ch) == (ch in opened), ch
        refused_on_every_channel()  # between two queries on one program


def _reference_open(p, ch, budget):
    """The reference's answer on the world of p with one probe on ch, or
    its refusal as (type, message)."""
    try:
        return ref.uses_probe(ref.enumerate_matchings(_world(p, [ch]), budget))
    except BudgetExceeded as exc:
        return BudgetExceeded, str(exc)


def _open(p, ch, budget):
    try:
        return oracle_channel_open(p, ch, budget)
    except BudgetExceeded as exc:
        return BudgetExceeded, str(exc)


def test_channel_queries_interleaved_across_programs_and_budgets_match_reference():
    two = {1: [send(2), send(2), recv(3)], 2: [recv(1), recv(1)], 3: [send(1)]}
    a, twin = program("a", 3, two), program("a", 3, two)
    assert a == twin and a is not twin
    b = program(
        "b",
        3,
        {1: [send(2), recv(2), recv(3)], 2: [send(1), recv(1), send(3)], 3: [send(1), recv(2)]},
    )
    # The tight budget refuses a's probed worlds where the probe has a
    # taker, by their candidates, and every probed world of b, by its
    # events, but answers a's channels without a receive.
    tight = OracleBudget(max_matchings=2, max_events=7)
    progs, budgets = (a, b, twin), (DEFAULT_BUDGET, tight)
    expected = {
        (id(p), ch, budget): _reference_open(p, ch, budget)
        for p in progs
        for ch in channels_of(3)
        for budget in budgets
    }
    refusals = [v[1] for v in expected.values() if isinstance(v, tuple)]
    assert {True, False} <= set(expected.values())
    assert any("candidate" in m for m in refusals) and any("events" in m for m in refusals)
    # Every query switches program or budget, then runs of one program.
    interleaved = [(p, ch, bu) for ch in channels_of(3) for p in progs for bu in budgets]
    in_a_row = [(p, ch, bu) for p in progs for bu in budgets for ch in channels_of(3)]
    for p, ch, budget in interleaved + in_a_row:
        assert _open(p, ch, budget) == expected[id(p), ch, budget], (p.name, ch, budget)
