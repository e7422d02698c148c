"""Differential tests widened to the oracle's real budget: the static open
channels and ``is_seal`` against exhaustive matching enumeration on every
program, or every pair, of scopes beyond the acceptance suite's."""

from __future__ import annotations

import random

from layerseal import channels_of, compute_signature, is_seal, oracle_channel_open, oracle_seals
from progsets import all_balanced_df_programs


def test_open_channels_match_oracle_on_wide_scopes():
    queries = 0
    for n, cap in ((2, 6), (3, 6), (4, 4)):
        for p in all_balanced_df_programs(n, cap):
            sig = compute_signature(p)
            for ch in channels_of(n):
                assert sig.leaves_open(ch) == oracle_channel_open(p, ch), (p, ch)
                queries += 1
    assert queries == 3836


def test_is_seal_matches_oracle_on_all_pairs_of_two_processes():
    progs = all_balanced_df_programs(2, 6)
    assert len(progs) ** 2 == 484
    for p in progs:
        for s in progs:
            assert is_seal(p, s) == oracle_seals(p, s), (p, s)


def test_is_seal_matches_oracle_on_sampled_pairs_of_four_processes():
    # Every world has at most 4 + 4 events and 12 probes, within budget.
    progs = all_balanced_df_programs(4, 4)
    rng = random.Random(2026)
    for _ in range(1500):
        p, s = rng.choice(progs), rng.choice(progs)
        assert is_seal(p, s) == oracle_seals(p, s), (p, s)
