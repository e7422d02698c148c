"""Tests for the brute-force matching oracle."""

from __future__ import annotations

import random
import tracemalloc

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
    StmtKind,
    Unbalanced,
    channels_of,
    compute_signature,
    deadlock_free,
    empty_program,
    layer,
    message_transmit,
    oracle_channel_open,
    oracle_seals,
    oracle_tcc,
    program,
    recv,
    send,
)
from layerseal import oracle
from layerseal.oracle import _rows, _search
from progsets import (
    all_balanced_df_programs,
    all_balanced_programs,
    crossed_exchange,
    deadlocked_pair,
    gather_phase,
    random_balanced_df,
)


def _matchings(p, budget=DEFAULT_BUDGET):
    """The matchings of the bare world of p, as (receive, send) index pairs."""
    return list(_search(_rows([p]), budget))


def test_matching_count_single_transmit():
    ms = _matchings(message_transmit(1, 2, 2))
    # Process 1's send is event 0, process 2's receive event 1.
    assert ms == [((1, 0),)]


def test_matching_count_two_parallel_sends():
    # Two messages from 1 to 2: either receive may take either message.
    p = program("two", 2, {1: [send(2), send(2)], 2: [recv(1), recv(1)]})
    assert len(_matchings(p)) == 2


def test_matching_count_crossed_exchange():
    # One message each way; only one assignment per channel exists, and it
    # is acyclic because both sends come first.
    assert len(_matchings(crossed_exchange())) == 1


def test_cycle_pruning_rejects_deadlock():
    assert _matchings(deadlocked_pair()) == []


def test_deadlock_freedom_matches_oracle_exhaustively():
    for n, cap in ((2, 4), (3, 4)):
        for p in all_balanced_programs(n, cap):
            assert deadlock_free(p) == bool(_matchings(p)), p


def test_matchings_are_valid_and_deterministic():
    p = program(
        "mix",
        3,
        {1: [send(2), send(2)], 2: [recv(1), recv(1), send(3)], 3: [recv(2)]},
    )
    events = [ev for row in _rows([p]) for ev in row]
    first = _matchings(p)
    second = _matchings(p)
    assert first == second and len(first) == 2
    for m in first:
        recvs = [r for r, _ in m]
        sends = [s for _, s in m]
        assert len(set(recvs)) == len(recvs)
        assert len(set(sends)) == len(sends)
        for r, s in m:
            assert events[r] == (events[s][0], False) and events[s][1]


def test_shape_error_when_receives_outnumber_sends(monkeypatch):
    # No candidate matching: the answer is none, without a search.
    def no_search(*args):
        raise AssertionError("a world with no candidates was searched")

    monkeypatch.setattr(oracle, "_matchings", no_search)
    rows = [[((1, 2), True)], [((1, 2), False), ((1, 2), False)]]
    assert list(_search(rows, OracleBudget(max_matchings=0))) == []
    rows = [[((1, 2), True)] * 9, [((1, 2), False)] * 9 + [((3, 2), False)], []]
    assert list(_search(rows, DEFAULT_BUDGET)) == []


def test_budget_exceeded_on_too_many_events():
    p = message_transmit(1, 2, 2)
    with pytest.raises(BudgetExceeded):
        _matchings(p, budget=OracleBudget(max_events=1))


def test_budget_exceeded_on_too_many_matchings():
    # Ten parallel transmissions on one channel: 10! candidate matchings.
    # The bound is checked before searching, so the refusal is instant.
    p = program(
        "wide",
        2,
        {1: [send(2)] * 10, 2: [recv(1)] * 10},
    )
    with pytest.raises(BudgetExceeded):
        _matchings(p)


def test_matching_count_parallel_factorial():
    # Six parallel transmissions: every permutation is acyclic, 6! in all.
    p = program("six", 2, {1: [send(2)] * 6, 2: [recv(1)] * 6})
    assert len(_matchings(p)) == 720


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


def test_queries_search_for_a_witness_without_listing_matchings(monkeypatch):
    # Each query stops at its first witness: none lists the matchings of
    # its world to filter them, so the fixture answers hold without the
    # listing search.
    def listing(*args):
        raise AssertionError("a query listed the matchings of its world")

    monkeypatch.setattr("layerseal.oracle._search", listing)
    test_oracle_channel_open_fixtures()
    test_oracle_seals_fixtures()
    test_oracle_tcc_fixtures()


def test_probe_worlds_include_probe_sends():
    assert _rows([empty_program(2)], [(1, 2)]) == [[((1, 2), True)], []]
    # Probes end their senders' rows, in the order given.
    assert _rows([message_transmit(1, 2, 3)], [(2, 1), (1, 3), (1, 2)]) == [
        [((1, 2), True), ((1, 3), True), ((1, 2), True)],
        [((1, 2), False), ((2, 1), True)],
        [],
    ]


def test_world_positions_run_per_process():
    p = program("p", 2, {1: [send(2), send(2)], 2: [recv(1), recv(1)]})
    rows = _rows([p, message_transmit(2, 1, 2)])
    # Layers concatenate per process.
    assert rows == [
        [((1, 2), True), ((1, 2), True), ((2, 1), False)],
        [((1, 2), False), ((1, 2), False), ((2, 1), True)],
    ]
    # Events are numbered row by row: 0-2 on process 1, 3-5 on process 2,
    # and receives are taken in that order.
    assert list(_search(rows, DEFAULT_BUDGET)) == [
        ((2, 5), (3, 0), (4, 1)),
        ((2, 5), (3, 1), (4, 0)),
    ]


def test_seal_and_channel_queries_check_each_program_once(monkeypatch):
    # oracle_seals checks p and s and builds one world, of p then s and the
    # probes; the channel queries that follow on the same p find it already
    # checked, and build p's bare world once among them.
    checked, rows, worlds = [], [], []
    real_rows, real_world = oracle._rows, oracle._world

    def counting(p):
        checked.append(p)
        return deadlock_free(p)

    def counting_rows(layers, probes=()):
        rows.append(list(layers))
        return real_rows(layers, probes)

    def counting_world(r):
        worlds.append(r)
        return real_world(r)

    monkeypatch.setattr("layerseal.oracle.deadlock_free", counting)
    monkeypatch.setattr("layerseal.oracle._rows", counting_rows)
    monkeypatch.setattr("layerseal.oracle._world", counting_world)
    p = layer(message_transmit(1, 2, 3), message_transmit(2, 3, 3))
    s = message_transmit(3, 1, 3)
    oracle_seals(p, s)
    assert checked == [p, s] and rows == [[p, s]] and len(worlds) == 1
    for ch in channels_of(3):
        oracle_channel_open(p, ch)
    assert checked == [p, s] and rows == [[p, s], [p]]
    assert worlds[1:] == [real_rows([p])]


def test_search_depth_is_not_bounded_by_recursion():
    # A relay through 1100 processes: 1099 receives on the branch of its one
    # candidate matching, past the interpreter's recursion limit.
    n = 1100
    p = program("relay", n, {
        i: ([recv(i - 1)] if i > 1 else []) + ([send(i + 1)] if i < n else [])
        for i in range(1, n + 1)
    })
    budget = OracleBudget(max_events=3000)
    opened = compute_signature(p).open_channels()
    tracemalloc.start()
    try:
        for ch in (Channel(n - 1, n), Channel(1, 2)):
            assert oracle_channel_open(p, ch, budget) == (ch in opened), ch
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The branch's frames share the receives' bitsets, since no later
    # receive reaches the send an earlier one takes: 1.9 MB, where a list
    # per frame took 6.9 MB.
    assert peak < 2_500_000, peak


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
        assert (ch in sig.open_channels()) == oracle_channel_open(p, ch), ch
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
    world = ref.rows([p], [ch])
    try:
        return ref.uses_probe(ref.enumerate_matchings(world, budget), world, ch)
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


def _interferes(first, second):
    """Does some run of first;second have a receive of first take a send of
    second? The search of ``oracle_seals`` without probes, each receive of
    first aiming at the sends outside first."""
    rows = _rows([first, second])
    sends, chans, indices, reach, _, candidates = oracle._world(rows)
    in_first = start = 0
    for seq, row in zip(first.seqs, rows):
        in_first |= ((1 << len(seq)) - 1) << start
        start += len(row)
    goals = [~in_first if in_first >> x & 1 else 0 for x in indices]
    return bool(candidates) and next(oracle._matchings([sends[ch] for ch in chans], reach, goals), None) is not None


def test_barriers_do_not_exist():
    # The paper's first result: no program with an event is a barrier. A
    # minimal event of B is a send, first on its process i, say to d: a
    # receive of P, the one message i->d, may take B's message. A maximal
    # event is a receive, last on its process j, say from s: it may take
    # the message of Q, the one message s->j.
    programs = [b for n, e in ((2, 8), (3, 6), (4, 6)) for b in all_balanced_df_programs(n, e) if b.event_count]
    assert len(programs) == 2230
    for b in programs:
        i, first = next((i, seq[0]) for i, seq in enumerate(b.seqs, 1) if seq and seq[0].kind is StmtKind.SEND)
        j, last = next((j, seq[-1]) for j, seq in enumerate(b.seqs, 1) if seq and seq[-1].kind is StmtKind.RECV)
        assert _interferes(message_transmit(i, first.peer, b.n), b), b.seqs
        assert _interferes(b, message_transmit(last.peer, j, b.n)), b.seqs
