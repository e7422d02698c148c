"""Differential tests: the clock-based signatures equal the closure-based
reference in ``closure_reference.py`` exactly, nodes and edges."""

from __future__ import annotations

import random

from closure_reference import closure, closure_compose, closure_signature
from layerseal import (
    CyclicGraph,
    compute_signature,
    deadlock_free,
    layer,
    message_transmit,
    signature_compose,
)
from progsets import (
    all_balanced_df_programs,
    all_balanced_programs,
    crossed_exchange,
    deadlocked_pair,
    random_balanced_df,
)

EXHAUSTIVE = ((1, 4), (2, 4), (2, 6), (3, 4), (3, 6), (4, 4))


def _as_ref(sig):
    return sig.n, sig.nodes, sig.edges


def test_signature_matches_reference_exhaustively():
    for n, cap in EXHAUSTIVE:
        for p in all_balanced_df_programs(n, cap):
            assert _as_ref(compute_signature(p)) == closure_signature(p), p


def test_compose_matches_reference_on_exhaustive_pairs():
    for n, cap in ((1, 4), (2, 4), (3, 4)):
        progs = all_balanced_df_programs(n, cap)
        sigs = [compute_signature(p) for p in progs]
        refs = [closure_signature(p) for p in progs]
        for sp, rp in zip(sigs, refs):
            for sq, rq in zip(sigs, refs):
                assert _as_ref(signature_compose(sp, sq)) == closure_compose(rp, rq)


def test_signature_and_compose_match_reference_on_random_programs():
    rng = random.Random(2024)
    for _ in range(500):
        n = rng.randint(2, 6)
        p = random_balanced_df(rng, n, 8)
        q = random_balanced_df(rng, n, 8)
        sp, sq = compute_signature(p), compute_signature(q)
        rp, rq = closure_signature(p), closure_signature(q)
        assert _as_ref(sp) == rp, p
        assert _as_ref(signature_compose(sp, sq)) == closure_compose(rp, rq), (p, q)


def test_left_folds_match_reference():
    rng = random.Random(2025)
    for fold in range(10):
        n = 2 + fold % 5
        layers = [random_balanced_df(rng, n, 4) for _ in range(20)]
        sig = compute_signature(layers[0])
        ref = closure_signature(layers[0])
        for x in layers[1:]:
            sig = signature_compose(sig, compute_signature(x))
            ref = closure_compose(ref, closure_signature(x))
            assert _as_ref(sig) == ref, (fold, x)


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
