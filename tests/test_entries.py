"""The one memo that outlives a call, ``model.found``: for each of the last
two programs asked about, that a pass found it deadlock-free, its checked
signature, and that the oracle checked it and built its bare world. Every
fact turns over with its program, and is matched by identity, so a live
program must answer every question as a fresh copy of it does."""

from __future__ import annotations

import copy
import gc
import random
import sys
import threading
import tracemalloc
from itertools import permutations

import pytest
from layerseal import (
    BudgetExceeded,
    Channel,
    CyclicGraph,
    Unbalanced,
    channels_of,
    closed_channels,
    compute_signature,
    deadlock_free,
    empty_program,
    is_seal,
    oracle_channel_open,
    oracle_seals,
    program,
    send,
)
from layerseal import graph, oracle
from progsets import deadlocked_pair, random_balanced_df


def _answer(fn, *args):
    try:
        return fn(*args)
    except BudgetExceeded:
        return "refused"


def _programs(seed: int, count: int) -> list:
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    return [random_balanced_df(rng, n, 3, f"p{k}") for k in range(count)]


def test_repeated_compute_signature_returns_the_same_object():
    a, b, c, d = _programs(1, 4)
    sig = compute_signature(a)
    assert compute_signature(a) is sig
    compute_signature(b)
    assert compute_signature(a) is sig  # two programs are kept
    compute_signature(c)
    compute_signature(d)
    again = compute_signature(a)  # turned over by two others
    assert again is not sig and again == sig


def test_deadlock_free_after_is_seal_runs_no_sweep(monkeypatch):
    p, q = _programs(2, 2)
    calls = []
    sweep = graph._sweep

    def counted(prog, clocked):
        calls.append(prog)
        return sweep(prog, clocked)

    monkeypatch.setattr(graph, "_sweep", counted)
    is_seal(p, q)
    assert calls == [p, q]
    assert deadlock_free(p) and deadlock_free(q)
    _answer(oracle_seals, p, q)
    closed_channels(p)
    for ch in channels_of(p.n):
        _answer(oracle_channel_open, p, ch)
    assert calls == [p, q]
    # A copy is another program: it is swept afresh.
    assert deadlock_free(copy.copy(p))
    assert len(calls) == 3


def test_two_programs_signed_after_p_turn_over_its_oracle_world(monkeypatch):
    p, a, b = _programs(8, 3)
    ch = channels_of(p.n)[0]
    worlds, sweeps = [], []
    world, sweep = oracle._world, graph._sweep
    monkeypatch.setattr(oracle, "_world", lambda rows: worlds.append(rows) or world(rows))
    monkeypatch.setattr(graph, "_sweep", lambda prog, clocked: sweeps.append(prog) or sweep(prog, clocked))
    answer = oracle_channel_open(p, ch)
    assert oracle_channel_open(p, ch) is answer
    compute_signature(a)  # one other program: p is still kept
    assert oracle_channel_open(p, ch) is answer
    assert len(worlds) == 1 and sweeps == [p, a]
    compute_signature(a)
    compute_signature(b)
    assert oracle_channel_open(p, ch) is answer
    # Checked and built again, as every fact about p turned over together.
    assert len(worlds) == 2 and sweeps == [p, a, b, p]


def test_faulty_programs_raise_on_every_call():
    unbalanced = program("u", 2, {1: [send(2)]})
    cyclic = deadlocked_pair()
    for _ in range(2):
        with pytest.raises(Unbalanced):
            compute_signature(unbalanced)
        with pytest.raises(Unbalanced):
            deadlock_free(unbalanced)
        with pytest.raises(CyclicGraph):
            compute_signature(cyclic)
        with pytest.raises(CyclicGraph):
            closed_channels(cyclic)
        with pytest.raises(CyclicGraph):
            oracle_channel_open(cyclic, Channel(1, 2))
        assert deadlock_free(cyclic) is False
    # Well-formed programs filling both entries leave the cyclic one out.
    for p in [*_programs(3, 2), *_programs(4, 2)]:
        compute_signature(p)
        assert deadlock_free(p)
    assert deadlock_free(cyclic) is False
    with pytest.raises(CyclicGraph):
        compute_signature(cyclic)


def _queries(rng: random.Random, progs: list) -> list:
    """Twelve queries over the programs, each a function and its
    arguments, in shuffled order."""
    pairs = list(permutations(progs, 2))
    queries = []
    for _ in range(12):
        x, y = rng.choice(pairs)
        kind = rng.randrange(5)
        if kind == 0:
            queries.append((is_seal, x, y))
        elif kind == 1:
            queries.append((oracle_seals, x, y))
        elif kind == 2:
            queries.append((closed_channels, x))
        elif kind == 3:
            queries.append((oracle_channel_open, x, rng.choice(channels_of(x.n))))
        else:
            queries.append((compute_signature, x))
    return queries


def _fresh(arg):
    return copy.copy(arg) if arg.__class__ is not Channel else arg


def test_live_programs_answer_as_fresh_copies():
    for seed in range(400):
        rng = random.Random(seed)
        queries = _queries(rng, _programs(seed, 3))
        live = [_answer(*query) for query in queries]
        fresh = [_answer(fn, *map(_fresh, args)) for fn, *args in queries]
        assert live == fresh, seed


def test_threads_on_alternating_programs_give_the_same_answers():
    progs = _programs(5, 3) + _programs(6, 3)
    rng = random.Random(7)
    queries = [q for seed in range(8) for q in _queries(rng, progs[seed % 2 * 3 :][:3])]
    expected = [_answer(fn, *map(_fresh, args)) for fn, *args in queries]
    barrier = threading.Barrier(4, timeout=60)
    results: dict[int, list] = {}

    def work(k: int) -> None:
        # Each thread starts at another query, so the threads' programs alternate.
        order = [(k * 5 + x) % len(queries) for x in range(len(queries))]
        barrier.wait()
        rounds = [[(x, _answer(*queries[x])) for x in order] for _ in range(5)]
        results[k] = rounds

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(results) == [0, 1, 2, 3]
    for rounds in results.values():
        for answers in rounds:
            assert [a for _, a in answers] == [expected[x] for x, _ in answers]


def test_retained_memory_covers_at_most_two_signatures():
    progs = [empty_program(300, f"e{k}") for k in range(5)]
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        compute_signature(progs[0])
        one = tracemalloc.get_traced_memory()[0] - base
        for p in progs[1:]:
            compute_signature(p)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert one > 500_000  # the n x n clocks of the exits
    assert kept < 2.5 * one, (one, kept)
