"""Tests for the program graph, its send/receive pairing, the causality
sweep, and the closure reference in ``closure_reference.py``."""

from __future__ import annotations

import random
import tracemalloc
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closure_reference import (
    Event,
    FstDummy,
    LstDummy,
    by_name,
    close_edges,
    closure,
    closure_signature,
    explicit_graph,
    listed,
    pairing,
)
from layerseal import (
    Channel,
    CyclicGraph,
    StmtKind,
    Unbalanced,
    compute_signature,
    deadlock_free,
    empty_program,
    is_balanced,
    layer,
    message_transmit,
    program,
    program_graph,
    recv,
    send,
)
from layerseal.graph import causality_sweep
from layerseal.oracle import DEFAULT_BUDGET, _rows, _search
from progsets import (
    all_balanced_df_programs,
    all_balanced_programs,
    all_programs,
    deadlocked_pair,
    random_balanced_df,
)


def _names(pairs):
    return sorted((a.name, b.name) for a, b in pairs)


def reference_closure(nodes, edges):
    """Floyd-Warshall closure, kept independent of the production algorithm."""
    nodes = list(nodes)
    reach = {(a, b) for a, b in edges}
    for k in nodes:
        for i in nodes:
            if (i, k) in reach:
                for j in nodes:
                    if (k, j) in reach:
                        reach.add((i, j))
    return frozenset(reach)


def test_message_transmit_graph_shape():
    nodes, edges = program_graph(message_transmit(1, 2, 2))
    assert nodes == ["fst_1", "s:1:0", "lst_1", "fst_2", "r:2:0", "lst_2"]
    assert sorted(edges) == [
        ("fst_1", "s:1:0"),
        ("fst_2", "r:2:0"),
        ("r:2:0", "lst_2"),
        ("s:1:0", "lst_1"),
        ("s:1:0", "r:2:0"),
    ]


def test_message_transmit_closure_frozen():
    closed = closure(message_transmit(1, 2, 2))
    assert _names(closed) == [
        ("fst_1", "lst_1"),
        ("fst_1", "lst_2"),
        ("fst_1", "r:2:0"),
        ("fst_1", "s:1:0"),
        ("fst_2", "lst_2"),
        ("fst_2", "r:2:0"),
        ("r:2:0", "lst_2"),
        ("s:1:0", "lst_1"),
        ("s:1:0", "lst_2"),
        ("s:1:0", "r:2:0"),
    ]


def test_empty_program_graph():
    nodes, edges = program_graph(program("idle", 2))
    assert nodes == ["fst_1", "lst_1", "fst_2", "lst_2"]
    assert edges == [("fst_1", "lst_1"), ("fst_2", "lst_2")]


def test_unbalanced_rejected_with_channel():
    lonely = program("lonely", 2, {1: [send(2)]})
    with pytest.raises(Unbalanced) as exc:
        pairing(lonely)
    assert exc.value.channel == Channel(1, 2)
    # The first offending channel in canonical order is reported.
    two = program("two", 3, {2: [send(3)], 3: [recv(1)]})
    for analysis in (
        pairing,
        program_graph,
        causality_sweep,
        compute_signature,
        deadlock_free,
        explicit_graph,
    ):
        with pytest.raises(Unbalanced) as exc:
            analysis(two)
        assert exc.value.channel == Channel(1, 3)
    assert not is_balanced(lonely) and not is_balanced(two)


def test_match_edges_pair_kth_send_with_kth_receive():
    p = program(
        "double",
        2,
        {1: [send(2), send(2)], 2: [recv(1), recv(1)]},
    )
    match = [(a, b) for a, b in program_graph(p)[1] if a[0] == "s" and b[0] == "r"]
    assert match == [("s:1:0", "r:2:0"), ("s:1:1", "r:2:1")]
    assert pairing(p) == {(2, 1): (1, 1), (2, 2): (1, 2)}


def test_program_graph_lists_in_display_order():
    # Nodes per process from fst to lst; edges by source, then by target,
    # so a match edge into a lower process comes before the chain edge.
    p = program("pingpong", 2, {1: [recv(2), send(2)], 2: [send(1), recv(1)]})
    nodes, edges = program_graph(p)
    assert nodes == ["fst_1", "r:1:0", "s:1:1", "lst_1", "fst_2", "s:2:0", "r:2:1", "lst_2"]
    assert edges == [
        ("fst_1", "r:1:0"),
        ("r:1:0", "s:1:1"),
        ("s:1:1", "lst_1"),
        ("s:1:1", "r:2:1"),
        ("fst_2", "s:2:0"),
        ("s:2:0", "r:1:0"),
        ("s:2:0", "r:2:1"),
        ("r:2:1", "lst_2"),
    ]


def test_vector_clocks_of_message_transmit():
    # Positions: fst 0, the events 1.., lst last; -1 where nothing of that
    # process precedes, and a node's own entry is its position. The sweep
    # returns lst of each process, the first send and the last receive per
    # channel.
    exits, sends, recvs = causality_sweep(message_transmit(1, 2, 2))
    assert sends == {(1, 2): (1, -1)}
    assert recvs == {(1, 2): (1, 1)}
    assert exits == ((2, -1), (1, 2))


def _outcome(analysis, p):
    try:
        return "ok", analysis(p)
    except Unbalanced as exc:
        return "unbalanced", exc.channel
    except CyclicGraph:
        return "cyclic", None


def _reference_sweep(p):
    """What :func:`causality_sweep` returns, read off the closure of the
    explicit graph: a node's clock entry k is the largest position on
    process k among the node and its predecessors."""
    nodes, edges = explicit_graph(p)

    def place(v):
        if isinstance(v, FstDummy):
            return v.proc, 0
        if isinstance(v, LstDummy):
            return v.proc, len(p.seqs[v.proc - 1]) + 1
        return v.proc, v.index + 1

    clocks = {}
    for v in nodes:
        i, x = place(v)
        clocks[v] = [-1] * p.n
        clocks[v][i - 1] = x
    for a, b in close_edges(nodes, edges):
        k, x = place(a)
        clocks[b][k - 1] = max(clocks[b][k - 1], x)

    def point(v):
        return tuple(clocks[v])

    sends, recvs = {}, {}
    for v in nodes:
        if isinstance(v, Event):
            ch = (v.channel.src, v.channel.dst)
            if v.kind is StmtKind.SEND:
                sends.setdefault(ch, point(v))
            else:
                recvs[ch] = point(v)
    return tuple(point(LstDummy(i)) for i in range(1, p.n + 1)), sends, recvs


def _short_of_sends(p):
    """True when some channel has more receives than sends, so that a
    receive waits forever."""
    sends, recvs = Counter(), Counter()
    for i, seq in enumerate(p.seqs, start=1):
        for stmt in seq:
            if stmt.kind is StmtKind.SEND:
                sends[(i, stmt.peer)] += 1
            else:
                recvs[(stmt.peer, i)] += 1
    return any(count > sends[ch] for ch, count in recvs.items())


@pytest.mark.parametrize(
    "p, expected",
    [
        # a lonely receive blocks its process: unbalanced
        (program("lonely", 2, {1: [recv(2)]}), ("unbalanced", Channel(2, 1))),
        # an extra send leaves every process finished: unbalanced
        (
            program("extra", 2, {1: [send(2), send(2)], 2: [recv(1)]}),
            ("unbalanced", Channel(1, 2)),
        ),
        # both, and the extra send is on the first channel
        (program("both", 3, {1: [send(2)], 2: [recv(3)]}), ("unbalanced", Channel(1, 2))),
        # balanced and cyclic
        (deadlocked_pair(), ("cyclic", None)),
    ],
    ids=["lonely-receive", "extra-send", "both", "cyclic"],
)
def test_error_precedence(p, expected):
    assert _outcome(causality_sweep, p) == expected
    assert _outcome(compute_signature, p) == expected
    freedom = expected if expected[0] == "unbalanced" else ("ok", False)
    assert _outcome(deadlock_free, p) == freedom


def test_errors_and_clocks_match_pairing_and_closure_on_every_small_program():
    """Every program with n <= 3 and at most 4 statements, balanced or not:
    the sweep, the signature, ``deadlock_free`` and ``program_graph`` raise
    what ``pairing`` and the closure reference raise, naming the same
    channel, the sweep's clocks are the closure's, and the graph lists the
    reference's."""
    cases = Counter()
    for n in (1, 2, 3):
        for p in all_programs(n, 4):
            kind, ref = _outcome(closure_signature, p)
            if kind == "ok":
                cases[kind] += 1
                assert program_graph(p) == _reference_listing(p), p
                assert listed(compute_signature(p)) == by_name(ref), p
                assert causality_sweep(p) == _reference_sweep(p), p
                assert deadlock_free(p), p
                continue
            if kind == "unbalanced":
                cases["receive short" if _short_of_sends(p) else "sends over"] += 1
                assert _outcome(pairing, p) == (kind, ref), p
                assert _outcome(program_graph, p) == (kind, ref), p
                freedom = (kind, ref)
            else:
                cases[kind] += 1
                assert program_graph(p) == _reference_listing(p), p
                freedom = ("ok", False)
            assert _outcome(causality_sweep, p) == (kind, ref), p
            assert _outcome(compute_signature, p) == (kind, ref), p
            assert _outcome(deadlock_free, p) == freedom, p
    assert len(cases) == 4, cases


def _reference_listing(p):
    """The reference graph of p as ``program_graph`` lists it: node names
    per process, and edges by source and then target in that order."""
    nodes, edges = explicit_graph(p)
    at = {v: k for k, v in enumerate(nodes)}
    edges = sorted(edges, key=lambda e: (at[e[0]], at[e[1]]))
    return [v.name for v in nodes], [(a.name, b.name) for a, b in edges]


def test_program_graph_lists_the_reference_graph_on_every_small_balanced_program():
    """All 645 balanced programs of (2, 8), (3, 6) and (4, 4), cyclic ones
    included: the listed graph is the reference's, node for node and edge
    for edge, in order."""
    programs = all_balanced_programs(2, 8) + all_balanced_programs(3, 6) + all_balanced_programs(4, 4)
    assert len(programs) == 645
    assert sum(not deadlock_free(p) for p in programs) == 100
    for p in programs:
        assert program_graph(p) == _reference_listing(p), p


def test_deadlock_detection():
    assert not deadlock_free(deadlocked_pair())
    assert deadlock_free(message_transmit(1, 2, 2))
    assert deadlock_free(program("idle", 3))
    # A one-sided wait before the matching send also cycles.
    ring = program(
        "ring3",
        3,
        {1: [recv(3), send(2)], 2: [recv(1), send(3)], 3: [recv(2), send(1)]},
    )
    assert not deadlock_free(ring)


def test_deadlock_free_memory_is_linear():
    # 5000 idle processes: a clock per dummy would hold 5000 entries each,
    # some 400 MB; the count of events run needs a few hundred kB.
    p = empty_program(5000)
    tracemalloc.start()
    try:
        assert deadlock_free(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_layering_deadlock_free_programs_stays_deadlock_free():
    rng = random.Random(11)
    for _ in range(40):
        p = random_balanced_df(rng, 3, 4)
        q = random_balanced_df(rng, 3, 4)
        assert deadlock_free(layer(p, q))


def test_close_edges_rejects_cycles():
    with pytest.raises(CyclicGraph):
        close_edges([1, 2], [(1, 2), (2, 1)])


def test_close_edges_matches_reference_on_random_dags():
    rng = random.Random(3)
    for _ in range(60):
        size = rng.randint(1, 8)
        nodes = list(range(size))
        edges = {
            (a, b)
            for a, b in product(nodes, nodes)
            if a < b and rng.random() < 0.4
        }
        assert close_edges(nodes, edges) == reference_closure(nodes, edges)


def test_closure_is_transitive_and_irreflexive():
    for p in all_balanced_df_programs(3, 4):
        closed = closure(p)
        assert all(a != b for a, b in closed)
        succ = {}
        for a, b in closed:
            succ.setdefault(a, set()).add(b)
        for a, bs in succ.items():
            for b in bs:
                assert succ.get(b, set()) <= bs


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=1, max_value=4), st.randoms(use_true_random=False))
def test_node_and_edge_counts(n, pyrng):
    rng = random.Random(pyrng.randint(0, 10**9))
    p = random_balanced_df(rng, n, 5)
    nodes, edges = program_graph(p)
    transmissions = p.event_count // 2
    assert len(nodes) == len(set(nodes)) == 2 * n + p.event_count
    # chain edges: one per event plus one per process; match edges: one per
    # transmission.
    assert len(edges) == len(set(edges)) == p.event_count + n + transmissions
    assert len(pairing(p)) == transmissions
    # The listed graph is the reference's graph, under the same names.
    ref_nodes, ref_edges = explicit_graph(p)
    assert sorted(nodes) == sorted(v.name for v in ref_nodes)
    assert sorted(edges) == _names(ref_edges)


def test_graph_edges_hold_in_every_run():
    """Every matching's happens-before respects the pairing.

    The k'th-send/k'th-receive pairing is a static stand-in for whichever
    message a receive really consumes; soundness means no run can order the
    receive before that send.
    """
    for p in all_balanced_df_programs(2, 4) + all_balanced_df_programs(3, 4)[:20]:
        # (process, position) from pairing, positions counting from 1; the
        # world numbers the events row by row from 0.
        starts = [0]
        for seq in p.seqs:
            starts.append(starts[-1] + len(seq))
        static = {
            (starts[i - 1] + x - 1, starts[j - 1] + y - 1) for (j, y), (i, x) in pairing(p).items()
        }
        if not static:
            continue
        # Order induced by a matching: process chains plus matched pairs.
        chains = {(x, x + 1) for a, b in zip(starts, starts[1:]) for x in range(a, b - 1)}
        for matching in _search(_rows([p]), DEFAULT_BUDGET):
            edges = chains | {(s, r) for r, s in matching}
            closed = close_edges(range(starts[-1]), edges)
            for a, b in static:
                assert (b, a) not in closed, (p, a, b)
