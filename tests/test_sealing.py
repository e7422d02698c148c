"""Tests for seal decision and construction."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from functools import cache
from itertools import permutations, product
from pathlib import Path

import pytest
import layerseal
from layerseal import sealing
from layerseal import (
    BadProcessId,
    ClosedChannelGraph,
    InvariantViolation,
    Phase,
    ProcessCountMismatch,
    SealPlan,
    Unsealable,
    closed_channels,
    compute_signature,
    construct_seal,
    empty_program,
    expand_plan,
    format_plan,
    format_program,
    is_seal,
    is_sealable,
    layer,
    message_transmit,
    oracle_seals,
    parse,
    parse_plan,
    plan_seal,
    program,
    recv,
    send,
    signature_compose,
    signature_seals,
)
from layerseal.cli import run
from progsets import (
    all_balanced_df_programs,
    bystander_sealable,
    crossed_exchange,
    gather_phase,
    hand_gather_seal,
    news_through_bystander,
    news_through_bystander_seal,
    random_balanced_df,
    relay_ack_seal,
)


def test_closed_channels_fixtures():
    assert sorted(closed_channels(message_transmit(1, 2, 2)).edges) == [(2, 1)]
    assert sorted(closed_channels(empty_program(3)).edges) == [
        (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2),
    ]
    assert sorted(closed_channels(crossed_exchange()).edges) == []
    assert sorted(closed_channels(bystander_sealable()).edges) == [
        (2, 3), (3, 1), (3, 2),
    ]


def test_closed_channel_graph_connectivity():
    g = closed_channels(empty_program(1))
    assert g.undirected_connected()
    assert closed_channels(empty_program(4)).undirected_connected()
    assert not closed_channels(crossed_exchange()).undirected_connected()
    # One direction suffices for undirected connectivity.
    assert closed_channels(message_transmit(1, 2, 2)).undirected_connected()


def test_is_sealable_fixtures():
    assert is_sealable(empty_program(3))
    assert is_sealable(message_transmit(1, 2, 2))
    assert not is_sealable(crossed_exchange())
    assert is_sealable(bystander_sealable())
    assert is_sealable(gather_phase(4))


def test_is_seal_fixtures():
    mt = message_transmit(1, 2, 2)
    ack = message_transmit(2, 1, 2)
    # The acknowledgement seals the transmit: 2's receive precedes 2's
    # ack-send, which precedes 1's ack-receive, so every future send on
    # 1->2 starts after the receive is done.
    assert is_seal(mt, ack)
    assert is_seal(mt, layer(ack, mt, name="ack_then_send"))
    # Re-sending on the same channel does not: the old receive can consume
    # the new message.
    assert not is_seal(mt, mt)
    # The empty layer seals only programs with no open channels.
    assert not is_seal(mt, empty_program(2))
    assert is_seal(empty_program(2), empty_program(2))
    assert is_seal(layer(mt, ack), empty_program(2)) is False  # 2->1 open


def test_is_seal_relay_fixture():
    assert is_seal(bystander_sealable(), relay_ack_seal())


def test_is_seal_gather_fixture():
    for n in (3, 4, 5):
        assert is_seal(gather_phase(n), hand_gather_seal(n))


def test_a_disconnected_closed_graph_can_have_a_seal():
    p, q = news_through_bystander(), news_through_bystander_seal()
    assert sorted(closed_channels(p).edges) == [(1, 2), (2, 1)]
    assert is_seal(p, q)
    assert oracle_seals(p, q)


@pytest.mark.xfail(strict=True, reason="is_sealable asks for a connected closed-channel graph, which a seal does not need")
def test_is_sealable_finds_a_seal_past_a_disconnected_closed_graph():
    assert is_sealable(news_through_bystander())


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="is_sealable asks for a connected closed-channel graph, which a seal does not need",
)
def test_no_program_that_is_sealable_rejects_has_a_seal():
    # The census of rejections: every p of (2,8) and (3,8) that is_sealable
    # rejects, against every q of (2,8) and (3,6) over its process count.
    # Today it rejects 37, and 6 of them have a seal.
    candidates = {2: all_balanced_df_programs(2, 8), 3: all_balanced_df_programs(3, 6)}
    rejected = [p for n in (2, 3) for p in all_balanced_df_programs(n, 8) if not is_sealable(p)]
    sealed = [p.seqs for p in rejected if any(is_seal(p, q) for q in candidates[p.n])]
    assert sealed == []


def test_is_seal_rejects_mismatched_counts():
    with pytest.raises(ProcessCountMismatch):
        is_seal(empty_program(2), empty_program(3))
    # The counts are compared first, as oracle_seals compares them: a q over
    # another count is refused for its count even when its graph is cyclic
    # or unbalanced.
    p = message_transmit(1, 2, 2)
    cyclic = program("cyclic", 3, {1: [recv(2), send(2)], 2: [recv(1), send(1)]})
    unbalanced = program("unbalanced", 3, {1: [send(2)]})
    for q in (cyclic, unbalanced):
        for check in (is_seal, oracle_seals):
            with pytest.raises(ProcessCountMismatch):
                check(p, q)
    # The decision on signatures compares the counts too.
    with pytest.raises(ProcessCountMismatch):
        signature_seals(compute_signature(p), compute_signature(empty_program(3)))


def test_the_empty_program_seals_exactly_the_programs_without_events():
    # CLI `verify tcc` reads its static side from is_seal against the empty
    # program; without events is the closed form of that answer.
    programs = [p for n, cap in ((2, 6), (3, 6), (4, 4)) for p in all_balanced_df_programs(n, cap)]
    assert len(programs) == 503
    for p in programs:
        assert is_seal(p, empty_program(p.n)) == (p.event_count == 0), p


def test_seal_is_not_symmetric():
    mt = message_transmit(1, 2, 2)
    seal = layer(message_transmit(2, 1, 2), mt, name="seal")
    assert is_seal(mt, seal)
    assert not is_seal(seal, mt)


def test_construct_seal_message_transmit():
    mt = message_transmit(1, 2, 2)
    plan = construct_seal(mt)
    assert plan.transmissions == ((2, 1), (1, 2))
    assert plan.phase_tags == (Phase.CONVERGE_CAST, Phase.BROADCAST)
    assert is_seal(mt, expand_plan(plan, 2))


def test_construct_seal_empty_program():
    assert construct_seal(empty_program(1)) == SealPlan((), ())
    plan = construct_seal(empty_program(3))
    assert len(plan.transmissions) == 4  # two casts over a 2-edge star
    assert is_seal(empty_program(3), expand_plan(plan, 3))


def test_construct_seal_uses_direct_close_when_needed():
    # MT(2->1) leaves 2->1 open and never touches 1->2, so only (1, 2) is
    # closed. The converge-cast toward process 1 would ride the open 2->1
    # channel, so a direct close down the tree edge must come first.
    p = message_transmit(2, 1, 2)
    closed = closed_channels(p)
    assert sorted(closed.edges) == [(1, 2)]
    plan = construct_seal(p)
    assert plan.transmissions == ((1, 2), (2, 1), (1, 2))
    assert plan.phase_tags == (
        Phase.DIRECT_CLOSE,
        Phase.CONVERGE_CAST,
        Phase.BROADCAST,
    )
    assert is_seal(p, expand_plan(plan, 2))


def test_construct_seal_unsealable():
    with pytest.raises(Unsealable):
        construct_seal(crossed_exchange())


def test_construct_seal_bound_and_validity_randomized():
    rng = random.Random(29)
    sealable = 0
    unsealable = 0
    for _ in range(150):
        n = rng.randint(1, 5)
        p = random_balanced_df(rng, n, 8)
        if is_sealable(p):
            plan = construct_seal(p)
            assert len(plan.transmissions) < 3 * max(n, 1)
            assert is_seal(p, expand_plan(plan, n))
            sealable += 1
        else:
            with pytest.raises(Unsealable):
                construct_seal(p)
            unsealable += 1
    assert sealable and unsealable


def test_construct_seal_exhaustive_small():
    for p in all_balanced_df_programs(3, 4):
        if not is_sealable(p):
            continue
        plan = construct_seal(p)
        assert len(plan.transmissions) < 9
        assert is_seal(p, expand_plan(plan, 3))


def test_construct_seal_deterministic():
    p = bystander_sealable()
    plans = {construct_seal(p) for _ in range(5)}
    assert len(plans) == 1


def test_expand_plan_round_trip_and_errors():
    plan = SealPlan(((2, 1), (1, 2)), (Phase.CONVERGE_CAST, Phase.BROADCAST))
    q = expand_plan(plan, 2)
    assert q.statements(1) == (recv(2), send(2))
    assert q.statements(2) == (send(1), recv(1))
    with pytest.raises(BadProcessId):
        expand_plan(plan, 1)
    with pytest.raises(BadProcessId):
        expand_plan(SealPlan(((1, 1),), (Phase.BROADCAST,)), 3)
    with pytest.raises(ValueError, match="one phase tag"):
        SealPlan(((2, 1), (1, 2)), (Phase.BROADCAST,))


def test_plan_format_parse_round_trip():
    plan = construct_seal(bystander_sealable())
    assert parse_plan(format_plan(plan)) == plan
    assert parse_plan("") == SealPlan((), ())
    assert format_plan(SealPlan((), ())) == ""


def test_parse_plan_tolerates_comments_and_defaults():
    text = "# a comment\n\n 2 -> 1 \n1 -> 2 [broadcast]\n"
    plan = parse_plan(text)
    assert plan.transmissions == ((2, 1), (1, 2))
    assert plan.phase_tags == (Phase.DIRECT_CLOSE, Phase.BROADCAST)


def test_parse_plan_errors():
    with pytest.raises(ValueError):
        parse_plan("2 => 1\n")
    with pytest.raises(ValueError):
        parse_plan("2 -> 1 [sideways]\n")
    # A number is judged by its length before ``int`` sees it.
    for digits in (7, 5000):
        with pytest.raises(ValueError, match=f"^plan line 2: process id with {digits} digits"):
            parse_plan("1 -> 2\n" + "9" * digits + " -> 1\n")
    assert parse_plan("000100000 -> 1\n").transmissions == ((100000, 1),)
    for pid in (100001, 999999):
        with pytest.raises(ValueError, match=f"^plan line 2: process id {pid} exceeds 100000$"):
            parse_plan(f"1 -> 2\n1 -> {pid}\n")
    with pytest.raises(ValueError, match="^plan line 1: process id 100001 exceeds 100000$"):
        parse_plan("0100001 -> 1\n")


def test_parse_plan_is_ascii_only():
    # Like the program grammar: other scripts' digits and blanks do not parse.
    # Only ``\n`` ends a line: a form feed or a line separator is a stray.
    for line in (
        "\u0661 -> \u0662 [broadcast]", "1 -> \uff12", "1\u3000-> 2", "\u3000", "1 -> 2\xa0",
        "1 -> 2\u20282 -> 1", "\x0c",
    ):
        with pytest.raises(ValueError, match="^plan line 2: cannot parse "):
            parse_plan("1 -> 2\n" + line + "\n")
    assert parse_plan("\t1\t->\t2\t[broadcast]\t\n \t\n").transmissions == ((1, 2),)
    assert parse_plan("1 -> 2\r\n# note\r\n2 -> 1 [broadcast]\r\n").transmissions == ((1, 2), (2, 1))


def test_sealing_composes_with_extra_layers():
    # Once q seals p, anything after q cannot reopen p.
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 4)
        p = random_balanced_df(rng, n, 6)
        if not is_sealable(p):
            continue
        s = expand_plan(construct_seal(p), n)
        r = random_balanced_df(rng, n, 6)
        assert is_seal(p, layer(s, r))


def test_construct_seal_checks_its_plan(monkeypatch):
    # Without its first transmission, the plan for MT(1->2) no longer
    # orders fst_2 before the re-send on 1->2, so it does not seal.
    expand = sealing.expand_plan

    def lossy(plan, n):
        return expand(SealPlan(plan.transmissions[1:], plan.phase_tags[1:]), n)

    monkeypatch.setattr(sealing, "expand_plan", lossy)
    with pytest.raises(InvariantViolation):
        construct_seal(message_transmit(1, 2, 2))


def test_plan_check_survives_optimised_mode():
    code = (
        "from layerseal import InvariantViolation, SealPlan, construct_seal, message_transmit, sealing\n"
        "expand = sealing.expand_plan\n"
        "sealing.expand_plan = lambda plan, n: expand(SealPlan(plan.transmissions[1:], plan.phase_tags[1:]), n)\n"
        "try:\n"
        "    construct_seal(message_transmit(1, 2, 2))\n"
        "except InvariantViolation:\n"
        "    print('raised')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(layerseal.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.stdout == "raised\n", done.stderr


def test_plan_seal_on_a_long_path():
    # Only i->i+1 is closed. The tree is the path itself; its centres are
    # 2500 and 2501, and the smaller wins. Every edge above the centre needs
    # a direct close before the converge-cast can climb it.
    n = 5000
    plan = plan_seal(ClosedChannelGraph(n, frozenset((i, i + 1) for i in range(1, n))))
    centre = 2500
    below = list(range(centre - 1, 0, -1))
    above = list(range(centre + 1, n + 1))
    parent = {w: w + 1 for w in below} | {w: w - 1 for w in above}
    preorder = below + above
    postorder = below[::-1] + above[::-1]
    assert plan.transmissions == tuple(
        [(w - 1, w) for w in above]
        + [(w, parent[w]) for w in postorder]
        + [(parent[w], w) for w in preorder]
    )
    assert plan.phase_tags == (
        (Phase.DIRECT_CLOSE,) * len(above)
        + (Phase.CONVERGE_CAST,) * (n - 1)
        + (Phase.BROADCAST,) * (n - 1)
    )
    assert len(plan.transmissions) < 3 * n


def _least_eccentric(n: int, edges) -> list[int]:
    """The vertices of least eccentricity in a connected graph over 1..n,
    ascending, by a breadth-first search from every vertex."""
    adj = {v: set() for v in range(1, n + 1)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    eccentricity = {}
    for v in adj:
        dist = {v: 0}
        frontier = [v]
        for u in frontier:
            for w in adj[u] - dist.keys():
                dist[w] = dist[u] + 1
                frontier.append(w)
        eccentricity[v] = max(dist.values())
    return [v for v in adj if eccentricity[v] == min(eccentricity.values())]


def test_plan_centre_has_the_least_eccentricity():
    # The plan's centre, the one process no broadcast reaches, has the least
    # eccentricity in the tree the converge-cast climbs, the smallest id on
    # ties. Inputs: random trees with random labels and edge directions, the
    # tree being the whole closed graph, and random closed graphs.
    rng = random.Random(1869)
    graphs = []
    for _ in range(300):
        n = rng.randint(2, 40)
        label = rng.sample(range(1, n + 1), n)
        edges = set()
        for v in range(1, n):
            a, b = label[rng.randrange(v)], label[v]
            edges |= rng.choice(({(a, b)}, {(b, a)}, {(a, b), (b, a)}))
        graphs.append(ClosedChannelGraph(n, frozenset(edges)))
    for _ in range(300):
        n = rng.randint(2, 10)
        density = rng.uniform(0.2, 0.6)
        edges = frozenset(e for e in permutations(range(1, n + 1), 2) if rng.random() < density)
        graphs.append(ClosedChannelGraph(n, edges))
    ties = 0
    for g in graphs:
        if not g.undirected_connected():
            continue
        plan = plan_seal(g)
        steps = list(zip(plan.transmissions, plan.phase_tags))
        cast = [t for t, tag in steps if tag is Phase.CONVERGE_CAST]
        [centre] = set(range(1, g.n + 1)) - {dst for (_, dst), tag in steps if tag is Phase.BROADCAST}
        least = _least_eccentric(g.n, cast)
        assert centre == least[0], g
        if len(g.edges) < g.n:  # a tree given one way per edge
            assert {frozenset(e) for e in cast} == {frozenset(e) for e in g.edges}, g
        ties += len(least) == 2
    assert ties > 100


def test_pipelines_are_decided_from_composed_signatures():
    # A pipeline a; b; c needs each layer sealed by the next: b seals a on
    # their signatures, and c seals a; b on the composition of theirs, as
    # the oracle decides on the layered programs.
    rng = random.Random(2007)
    wide = all_balanced_df_programs(3, 4)
    triples = [
        *product(all_balanced_df_programs(2, 4), repeat=3),
        *((rng.choice(wide), rng.choice(wide), rng.choice(wide)) for _ in range(1500)),
    ]
    signature = cache(compute_signature)
    for a, b, c in triples:
        sa, sb, sc = map(signature, (a, b, c))
        assert signature_seals(sa, sb) == oracle_seals(a, b), (a, b)
        assert signature_seals(signature_compose(sa, sb), sc) == oracle_seals(layer(a, b), c), (a, b, c)


def test_plan_seal_rejects_a_disconnected_graph():
    with pytest.raises(Unsealable):
        plan_seal(ClosedChannelGraph(3, frozenset({(1, 2)})))


def test_closed_channel_graph_refuses_pairs_that_are_not_channels():
    # A pair outside 1..n or a process paired with itself names no channel;
    # both the decision and the plan refuse it, naming the pair.
    for edges, named in (
        ({(1, 5)}, "1->5"),
        ({(0, 1), (1, 2)}, "0->1"),
        ({(1, 2), (2, 3), (2, 2)}, "2->2"),
    ):
        g = ClosedChannelGraph(3, frozenset(edges))
        with pytest.raises(BadProcessId, match=named):
            g.undirected_connected()
        with pytest.raises(BadProcessId, match=named):
            plan_seal(g)


def _planned(build) -> bool:
    """False when build() raises Unsealable, else True."""
    try:
        build()
    except Unsealable:
        return False
    return True


def test_sealable_exactly_when_a_plan_exists(tmp_path, monkeypatch):
    # One spanning search decides sealability and roots the plan, so the two
    # cannot disagree, and the CLI lists the library's closed channels.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import programs

    rng = random.Random(20)
    progs = [random_balanced_df(rng, rng.randint(2, 6), 6) for _ in range(150)]
    for n in range(2, 6):
        for prog in (
            programs.empty(n), programs.gather(n), programs.relay(n), programs.ring(n, 2),
            programs.sparse(rng, n, n, "sparse"), programs.shuffled(rng, n, n, "shuffled"),
        ):
            progs.append(parse(programs.render(prog)))
    path = tmp_path / "p.lsl"
    answers = set()
    for p in progs:
        sealable = is_sealable(p)
        assert sealable == _planned(lambda: construct_seal(p)), p
        answers.add(sealable)
        path.write_text(format_program(p))
        lines = run(["channels", str(path)]).stdout.splitlines()
        listed = [line for line in lines if line.startswith("closed: ")]
        assert listed == [f"closed: {i}->{j}" for i, j in sorted(closed_channels(p).edges)]
    assert answers == {False, True}

    answers.clear()
    for _ in range(3000):
        n = rng.randint(1, 9)
        density = rng.random()
        edges = frozenset(c for c in permutations(range(1, n + 1), 2) if rng.random() < density)
        g = ClosedChannelGraph(n, edges)
        connected = g.undirected_connected()
        assert connected == _planned(lambda: plan_seal(g)), g
        answers.add(connected)
    assert answers == {False, True}
