"""Differential tests: the clock-based signatures equal the closure-based
reference in ``closure_reference.py`` exactly, nodes and edges, and
``signature_equal`` on ranked clocks agrees with comparing those sets."""

from __future__ import annotations

import random

from closure_reference import (
    by_name,
    closure,
    closure_compose,
    closure_signature,
    edge_sets,
    listed,
)
from layerseal import (
    CyclicGraph,
    InvariantViolation,
    compute_signature,
    deadlock_free,
    layer,
    message_transmit,
    signature_compose,
)
from layerseal.signature import Signature, _check
from progsets import (
    all_balanced_df_programs,
    all_balanced_programs,
    crossed_exchange,
    deadlocked_pair,
    random_balanced_df,
)

EXHAUSTIVE = ((1, 4), (2, 4), (2, 6), (3, 4), (3, 6), (4, 4))


def _classes(sigs, key):
    """The indices of sigs grouped by key, equal keys in one class."""
    groups = {}
    for x, sig in enumerate(sigs):
        groups.setdefault(key(sig), []).append(x)
    return sorted(groups.values())


def _agree_on_all_pairs(sigs):
    """``==``, which is ``signature_equal``, and ``hash`` split sigs into the
    same classes as the edge-set comparison, so the two agree on every
    pair; returns the number of ordered pairs that are unequal and of those
    that are equal."""
    ranked = _classes(sigs, lambda sig: sig)
    assert ranked == _classes(sigs, edge_sets)
    equal = sum(len(c) ** 2 for c in ranked)
    return len(sigs) ** 2 - equal, equal


def test_signature_matches_reference_exhaustively():
    counts = (0, 0)
    for n, cap in EXHAUSTIVE:
        sigs = []
        for p in all_balanced_df_programs(n, cap):
            sigs.append(compute_signature(p))
            assert listed(sigs[-1]) == by_name(closure_signature(p)), p
        counts = tuple(map(sum, zip(counts, _agree_on_all_pairs(sigs))))
    assert min(counts) > 0, counts


def test_compose_matches_reference_on_exhaustive_pairs():
    for n, cap in ((1, 4), (2, 4), (3, 4)):
        progs = all_balanced_df_programs(n, cap)
        sigs = [compute_signature(p) for p in progs]
        refs = [closure_signature(p) for p in progs]
        layered = []
        for p, sp, rp in zip(progs, sigs, refs):
            for q, sq, rq in zip(progs, sigs, refs):
                composed = signature_compose(sp, sq)
                assert listed(composed) == by_name(closure_compose(rp, rq))
                layered += [composed, compute_signature(layer(p, q))]
        _agree_on_all_pairs(sigs + layered)


def test_signature_and_compose_match_reference_on_random_programs():
    rng = random.Random(2024)
    sigs = []
    for _ in range(500):
        n = rng.randint(2, 6)
        p = random_balanced_df(rng, n, 8)
        q = random_balanced_df(rng, n, 8)
        sp, sq = compute_signature(p), compute_signature(q)
        rp, rq = closure_signature(p), closure_signature(q)
        composed = signature_compose(sp, sq)
        assert listed(sp) == by_name(rp), p
        assert listed(composed) == by_name(closure_compose(rp, rq)), (p, q)
        sigs += [sp, composed, compute_signature(layer(p, q))]
    assert min(_agree_on_all_pairs(sigs)) > 0


def test_left_folds_match_reference():
    rng = random.Random(2025)
    sigs = []
    for fold in range(10):
        n = 2 + fold % 5
        layers = [random_balanced_df(rng, n, 4) for _ in range(20)]
        sig, whole = compute_signature(layers[0]), layers[0]
        ref = closure_signature(layers[0])
        for x in layers[1:]:
            sig, whole = signature_compose(sig, compute_signature(x)), layer(whole, x)
            ref = closure_compose(ref, closure_signature(x))
            assert listed(sig) == by_name(ref), (fold, x)
            sigs += [sig, compute_signature(whole)]
    assert min(_agree_on_all_pairs(sigs)) > 0


def test_deadlock_freedom_matches_closure():
    fixtures = [
        deadlocked_pair(),
        layer(message_transmit(1, 2, 2), deadlocked_pair()),
        layer(crossed_exchange(), deadlocked_pair()),
        layer(deadlocked_pair(), crossed_exchange()),
    ]
    for n, cap in EXHAUSTIVE:
        fixtures += all_balanced_programs(n, cap)
    for p in fixtures:
        try:
            closure(p)
            acyclic = True
        except CyclicGraph:
            acyclic = False
        assert deadlock_free(p) == acyclic, p


def _variants(sig):
    """Copies of sig with one clock entry moved by one, or one kept first
    send or last receive dropped, that pass ``_check``. Moving a node's own
    entry moves its position."""
    n = sig.n
    out = []
    for k, clock in enumerate(sig.exits):
        for e in range(n):
            for step in (-1, 1):
                moved = tuple(c + step if x == e else c for x, c in enumerate(clock))
                exits = sig.exits[:k] + (moved,) + sig.exits[k + 1 :]
                out.append(Signature(n, exits, sig.sends, sig.recvs))
    for is_send, table in ((True, sig.sends), (False, sig.recvs)):
        for (i, j), clock in table.items():
            changed = [{c: p for c, p in table.items() if c != (i, j)}]
            for e in range(n):
                for step in (-1, 1):
                    moved = tuple(c + step if x == e else c for x, c in enumerate(clock))
                    changed.append({**table, (i, j): moved})
            for t in changed:
                sends, recvs = (t, sig.recvs) if is_send else (sig.sends, t)
                out.append(Signature(n, sig.exits, sends, recvs))
    kept = []
    for v in out:
        try:
            kept.append(_check(v))
        except InvariantViolation:
            pass
    return kept


def test_equality_matches_edge_sets_on_perturbed_signatures():
    rng = random.Random(2026)
    for _ in range(40):
        n = rng.randint(2, 5)
        p = random_balanced_df(rng, n, 6)
        q = random_balanced_df(rng, n, 6)
        for sig in (compute_signature(p), signature_compose(compute_signature(p), compute_signature(q))):
            _agree_on_all_pairs([sig, *_variants(sig)])
