"""Tests for signature construction and composition."""

from __future__ import annotations

import random

import pytest
from layerseal import (
    Channel,
    CyclicGraph,
    InvariantViolation,
    ProcessCountMismatch,
    SigNode,
    Unbalanced,
    compute_signature,
    empty_program,
    format_program,
    layer,
    message_transmit,
    program,
    recv,
    send,
    signature_compose,
    signature_equal,
)
from layerseal.cli import run
from layerseal.signature import Signature, _check
from progsets import (
    all_balanced_df_programs,
    bystander_sealable,
    crossed_exchange,
    gather_phase,
    random_balanced_df,
)


def fst(k):
    return SigNode(f"fst_{k}")


def lst(k):
    return SigNode(f"lst_{k}")


def snd(i, j):
    return SigNode(f"snd:{i}>{j}")


def rcv(i, j):
    """The last receive on channel i->j, which process j makes."""
    return SigNode(f"rcv:{j}<{i}")


def test_signature_requires_balance_and_acyclicity():
    with pytest.raises(Unbalanced):
        compute_signature(program("p", 2, {1: [send(2)]}))
    with pytest.raises(CyclicGraph):
        compute_signature(
            program("p", 2, {1: [recv(2), send(2)], 2: [recv(1), send(1)]})
        )


def test_empty_signature_is_dummies_only():
    sig = compute_signature(empty_program(3))
    assert set(sig.nodes) == {fst(i) for i in (1, 2, 3)} | {lst(i) for i in (1, 2, 3)}
    assert set(sig.edges) == {(fst(i), lst(i)) for i in (1, 2, 3)}
    assert sig.open_channels() == []


def test_message_transmit_signature_frozen():
    sig = compute_signature(message_transmit(1, 2, 2))
    s, r = snd(1, 2), rcv(1, 2)
    assert set(sig.nodes) == {fst(1), fst(2), lst(1), lst(2), s, r}
    assert set(sig.edges) == {
        (fst(1), lst(1)),
        (fst(1), lst(2)),
        (fst(1), s),
        (fst(1), r),
        (fst(2), lst(2)),
        (fst(2), r),
        (s, lst(1)),
        (s, lst(2)),
        (s, r),
        (r, lst(2)),
    }
    assert sig.open_channels() == [Channel(1, 2)]


@pytest.mark.parametrize(
    "p",
    [message_transmit(1, 2, 2), gather_phase(4), crossed_exchange(3), bystander_sealable()],
    ids=["mt", "gather4", "crossed3", "bystander"],
)
def test_listings_are_in_cli_sig_order(tmp_path, p):
    sig = compute_signature(p)
    path = tmp_path / "p.lsl"
    path.write_text(format_program(p))
    lines = run(["sig", str(path)]).stdout.splitlines()
    assert [f"node: {v.name}" for v in sig.nodes] == [x for x in lines if x.startswith("node: ")]
    assert [f"edge: {a.name} -> {b.name}" for a, b in sig.edges] == [
        x for x in lines if x.startswith("edge: ")
    ]
    assert len(set(sig.nodes)) == len(sig.nodes) and len(set(sig.edges)) == len(sig.edges)


def test_acknowledged_transmit_closes_the_channel():
    p = layer(message_transmit(1, 2, 2), message_transmit(2, 1, 2))
    sig = compute_signature(p)
    # 2's receive is followed by 2's send back to 1, so no future send on
    # 1->2 can reach it; 1's receive ends the program, so 2->1 stays open.
    assert sig.open_channels() == [Channel(2, 1)]
    assert rcv(1, 2) not in sig.nodes
    assert snd(1, 2) in sig.nodes


def test_first_send_dropped_when_receiver_precedes_it():
    # 1 hears from 2 before sending back, so a fresh layer at process 2
    # already happens-before 1's send: the send is not externally visible.
    p = program("p", 2, {1: [recv(2), send(2)], 2: [send(1), recv(1)]})
    sig = compute_signature(p)
    assert snd(1, 2) not in sig.nodes
    assert snd(2, 1) in sig.nodes


def test_crossed_exchange_keeps_both_channels_open():
    sig = compute_signature(crossed_exchange())
    assert sig.open_channels() == [Channel(1, 2), Channel(2, 1)]


def test_bystander_open_channels():
    sig = compute_signature(bystander_sealable())
    assert sig.open_channels() == [Channel(1, 2), Channel(1, 3), Channel(2, 1)]


def test_gather_phase_leaves_reports_open():
    n = 4
    sig = compute_signature(gather_phase(n))
    # Process 1 never sends, so nothing it receives is ever acknowledged.
    for i in range(2, n + 1):
        assert Channel(i, 1) in sig.open_channels()


def test_signature_size_is_quadratic():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 5)
        p = random_balanced_df(rng, n, 12)
        sig = compute_signature(p)
        assert len(sig.nodes) <= 2 * n + 2 * n * (n - 1)
        assert len(sig.edges) <= len(sig.nodes) ** 2


def test_compose_identity_both_sides():
    rng = random.Random(9)
    eps3 = compute_signature(empty_program(3))
    for _ in range(30):
        p = random_balanced_df(rng, 3, 8)
        sig = compute_signature(p)
        assert signature_equal(signature_compose(sig, eps3), sig)
        assert signature_equal(signature_compose(eps3, sig), sig)


def test_compose_rejects_mismatched_counts():
    with pytest.raises(ProcessCountMismatch):
        signature_compose(
            compute_signature(empty_program(2)), compute_signature(empty_program(3))
        )


def _clocks(sig):
    return sig.exits, sig.sends, sig.recvs


def test_compose_matches_direct_on_exhaustive_pairs():
    # Clock for clock, not only up to the ranked key: a shift that keeps
    # the order of positions but moves them fails here.
    progs = all_balanced_df_programs(2, 4)
    for p, q in [(a, b) for a in progs for b in progs]:
        direct = compute_signature(layer(p, q))
        composed = signature_compose(compute_signature(p), compute_signature(q))
        assert signature_equal(direct, composed), (p, q)
        assert _clocks(composed) == _clocks(direct), (p, q)


def test_compose_keeps_every_receive_of_the_second_layer():
    # The keep rule never drops a glued last receive of q: see _kept.
    sigs = [compute_signature(p) for p in all_balanced_df_programs(2, 4)]
    for sp in sigs:
        for sq in sigs:
            assert set(sq.recvs) <= set(signature_compose(sp, sq).recvs)


def test_compose_leaves_its_inputs_untouched():
    # The keep rule filters the dicts it is handed in place; composing
    # hands it fresh ones, so the layer signatures keep every node.
    rng = random.Random(29)
    dropped = 0
    for _ in range(200):
        n = rng.randint(2, 4)
        sp, sq = (compute_signature(random_balanced_df(rng, n, 6)) for _ in range(2))
        before = [dict(d) for d in (sp.sends, sp.recvs, sq.sends, sq.recvs)]
        composed = signature_compose(sp, sq)
        assert [sp.sends, sp.recvs, sq.sends, sq.recvs] == before
        dropped += len(composed.sends) < len(sp.sends | sq.sends)
    assert dropped  # the rule dropped a glued node somewhere


def test_every_exit_sits_past_its_last_event():
    # The pass gives lst_k the position len + 1 when it finishes process k,
    # in whatever order the processes finish.
    assert compute_signature(empty_program(3)).exits == ((1, -1, -1), (-1, 1, -1), (-1, -1, 1))
    last_first = program("p", 3, {1: [recv(2)], 2: [send(1), recv(3)], 3: [send(2)]})
    first_first = program("p", 3, {1: [send(2)], 2: [recv(1), send(3), send(3)], 3: [recv(2), recv(2)]})
    rng = random.Random(31)
    for p in [last_first, first_first] + [random_balanced_df(rng, 4, 8) for _ in range(50)]:
        exits = compute_signature(p).exits
        assert [clock[k] for k, clock in enumerate(exits)] == [len(seq) + 1 for seq in p.seqs], p


def test_compose_matches_direct_on_random_pairs():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(1, 5)
        p = random_balanced_df(rng, n, 8)
        q = random_balanced_df(rng, n, 8)
        direct = compute_signature(layer(p, q))
        composed = signature_compose(compute_signature(p), compute_signature(q))
        assert signature_equal(direct, composed), (p, q)
        assert _clocks(composed) == _clocks(direct), (p, q)


def test_compose_is_associative_via_direct():
    rng = random.Random(23)
    for _ in range(50):
        n = rng.randint(2, 4)
        sigs = [compute_signature(random_balanced_df(rng, n, 6)) for _ in range(3)]
        left = signature_compose(signature_compose(sigs[0], sigs[1]), sigs[2])
        right = signature_compose(sigs[0], signature_compose(sigs[1], sigs[2]))
        assert signature_equal(left, right)


def test_open_channels_sorted_and_distinct():
    for p in all_balanced_df_programs(3, 4):
        opens = compute_signature(p).open_channels()
        assert opens == sorted(opens)
        assert len(set(opens)) == len(opens)


def test_distinct_programs_can_share_a_signature():
    # The signature abstracts away event multiplicity.
    single = message_transmit(1, 2, 2)
    double = program(
        "double", 2, {1: [send(2), send(2)], 2: [recv(1), recv(1)]}
    )
    a, b = compute_signature(single), compute_signature(double)
    assert a.exits != b.exits
    assert signature_equal(a, b)
    assert a == b and hash(a) == hash(b)
    assert a != compute_signature(message_transmit(2, 1, 2))


def test_equality_and_hash_list_no_nodes_or_edges():
    n = 5
    p = gather_phase(n)
    direct = compute_signature(layer(p, p))
    composed = signature_compose(compute_signature(p), compute_signature(p))
    other = compute_signature(empty_program(n))
    assert direct == composed and hash(direct) == hash(composed)
    assert signature_equal(direct, composed) and direct != other
    assert {direct, composed, other} == {direct, other}
    for sig in (direct, composed, other):
        assert not {"nodes", "edges", "_points"} & sig.__dict__.keys()


def test_signature_node_names():
    sig = compute_signature(message_transmit(2, 1, 3))
    names = {v.name for v in sig.nodes}
    assert "snd:2>1" in names
    assert "rcv:1<2" in names
    assert {"fst_1", "fst_2", "fst_3", "lst_1", "lst_2", "lst_3"} <= names


def test_check_rejects_inconsistent_clocks():
    # MT(1->2): the send is at position 1 of process 1 with clock (1, -1),
    # the receive at position 1 of process 2 with clock (1, 1).
    sig = compute_signature(message_transmit(1, 2, 2))
    assert sig.sends == {(1, 2): (1, -1)}
    assert sig.recvs == {(1, 2): (1, 1)}
    broken = [
        # the receive does not see the send
        Signature(2, sig.exits, sig.sends, {(1, 2): (-1, 1)}),
        # fst_2 precedes the kept first send
        Signature(2, sig.exits, {(1, 2): (1, 0)}, sig.recvs),
        # the kept last receive precedes lst_1
        Signature(2, ((2, 1), sig.exits[1]), sig.sends, sig.recvs),
        # lst_2 sees less than the receive before it
        Signature(2, (sig.exits[0], (-1, 2)), sig.sends, sig.recvs),
        # fewer exits than processes
        Signature(2, sig.exits[:1], sig.sends, sig.recvs),
        # a clock with fewer entries than processes
        Signature(2, sig.exits, {(1, 2): (1,)}, sig.recvs),
        # the first kept node of process 1 has an entry below -1
        Signature(2, sig.exits, {(1, 2): (1, -2)}, sig.recvs),
        # the first kept node of process 2 sits at fst_2's position
        Signature(2, sig.exits, sig.sends, {(1, 2): (1, 0)}),
    ]
    # Process 3 of MT(1->2) over three processes keeps no node but lst_3.
    sig3 = compute_signature(message_transmit(1, 2, 3))
    assert sig3.exits[2] == (-1, -1, 1)
    broken += [
        # lst_3 sits at fst_3's position
        Signature(3, (*sig3.exits[:2], (-1, -1, 0)), sig3.sends, sig3.recvs),
        # lst_3 has an entry below -1
        Signature(3, (*sig3.exits[:2], (-1, -2, 1)), sig3.sends, sig3.recvs),
    ]
    for bad in broken:
        with pytest.raises(InvariantViolation):
            _check(bad)
