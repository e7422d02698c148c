"""Differential tests widened to the oracle's real budget: the static open
channels and ``is_seal`` against exhaustive matching enumeration on every
program, or every pair, of scopes beyond the acceptance suite's, and
composition and seal construction against the oracle on programs drawn by
Hypothesis."""

from __future__ import annotations

import itertools
import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from layerseal import (
    DEFAULT_BUDGET,
    Channel,
    OracleBudget,
    Program,
    Statement,
    channels_of,
    compute_signature,
    construct_seal,
    expand_plan,
    is_seal,
    is_sealable,
    layer,
    oracle_channel_open,
    oracle_seals,
    recv,
    send,
    signature_compose,
)
from progsets import all_balanced_df_programs, gather_then_transmit, rename


def test_open_channels_match_oracle_on_wide_scopes():
    queries = 0
    for n, cap in ((2, 6), (3, 6), (4, 4)):
        for p in all_balanced_df_programs(n, cap):
            opened = compute_signature(p).open_channels()
            for ch in channels_of(n):
                assert (ch in opened) == oracle_channel_open(p, ch), (p, ch)
                queries += 1
    assert queries == 3836


def test_open_channels_match_oracle_on_the_widest_affordable_scopes():
    # Every program of these scopes, with its probe, fits the default budget
    # of 24 events; so does (4, 8), but its 289,152 queries take about five
    # times as long as these.
    queries = 0
    for n, cap in ((3, 8), (4, 6), (5, 4)):
        for p in all_balanced_df_programs(n, cap):
            opened = compute_signature(p).open_channels()
            for ch in channels_of(n):
                assert (ch in opened) == oracle_channel_open(p, ch), (p, ch)
                queries += 1
    assert queries == 15660 + 22068 + 7420


def test_gather_then_transmit_has_the_claimed_open_count():
    # The count criterion 6 claims for the gather example belongs to this
    # nearby program, and the oracle agrees channel by channel.
    for n in range(4, 11):
        assert len(compute_signature(gather_then_transmit(n)).open_channels()) == n * n - 3 * n + 3
    p = gather_then_transmit(4)
    assert p.event_count == 20
    opened = compute_signature(p).open_channels()
    for ch in channels_of(4):
        assert (ch in opened) == oracle_channel_open(p, ch), ch


def test_is_seal_matches_oracle_on_all_pairs_of_two_processes():
    progs = all_balanced_df_programs(2, 6)
    assert len(progs) ** 2 == 484
    for p in progs:
        for s in progs:
            assert is_seal(p, s) == oracle_seals(p, s), (p, s)


def test_is_seal_matches_oracle_on_all_pairs_of_three_processes():
    progs = all_balanced_df_programs(3, 4)
    assert len(progs) ** 2 == 2116
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


@st.composite
def df_programs(draw, n: int, max_transmissions: int, name: str) -> Program:
    """A balanced, deadlock-free program on n processes, written along one
    of its runs: each step sends on some channel, or receives a message
    still in flight. Every receive on a channel then comes after as many
    sends on it, so the program graph is acyclic."""
    chans = channels_of(n)
    rows: list[list[Statement]] = [[] for _ in range(n)]
    in_flight = []
    count = draw(st.integers(0, max_transmissions))
    sent = 0
    while sent < count or in_flight:
        k = draw(st.integers(0 if sent < count else 1, len(in_flight)))
        if k == 0:
            ch = draw(st.sampled_from(chans))
            rows[ch.src - 1].append(send(ch.dst))
            in_flight.append(ch)
            sent += 1
        else:
            ch = in_flight.pop(k - 1)
            rows[ch.dst - 1].append(recv(ch.src))
    return Program(name, n, tuple(map(tuple, rows)))


@st.composite
def df_pairs(draw) -> tuple[Program, Program]:
    # At most 8 + 8 events, and a probe: within the 24-event budget.
    n = draw(st.integers(2, 4))
    return draw(df_programs(n, 4, "p")), draw(df_programs(n, 4, "q"))


@settings(max_examples=60, deadline=None)
@given(df_pairs())
def test_composed_open_channels_match_oracle_on_the_layered_program(pq):
    p, q = pq
    opened = signature_compose(compute_signature(p), compute_signature(q)).open_channels()
    whole = layer(p, q)
    for ch in channels_of(p.n):
        assert (ch in opened) == oracle_channel_open(whole, ch), (p, q, ch)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: df_programs(n, 3, "p")))
def test_constructed_seals_pass_the_oracle(p):
    assume(is_sealable(p))
    seal = expand_plan(construct_seal(p), p.n)
    assume(p.event_count + seal.event_count + p.n * (p.n - 1) <= DEFAULT_BUDGET.max_events)
    assert oracle_seals(p, seal), p


# p then s with a probe on every channel: at most 8 + 8 + 12 events.
WIDE = OracleBudget(max_events=28)


@settings(max_examples=60, deadline=None)
@given(df_pairs())
def test_static_open_channels_match_oracle_on_drawn_programs(pq):
    for p in pq:
        opened = compute_signature(p).open_channels()
        for ch in channels_of(p.n):
            assert (ch in opened) == oracle_channel_open(p, ch), (p, ch)


@settings(max_examples=60, deadline=None)
@given(df_pairs())
def test_is_seal_matches_oracle_on_drawn_pairs(pq):
    p, s = pq
    assert is_seal(p, s) == oracle_seals(p, s, WIDE), (p, s)


def _renamed_clocks(sig, perm):
    """The clocks of sig with process k renamed to ``perm[k - 1]``: a clock
    moves to the renamed node and its entry k to entry ``perm[k - 1]``."""
    inv = [0] * sig.n
    for k, target in enumerate(perm):
        inv[target - 1] = k

    def clock(c):
        return tuple(c[k] for k in inv)

    exits = tuple(clock(sig.exits[k]) for k in inv)
    sends = {(perm[i - 1], perm[j - 1]): clock(c) for (i, j), c in sig.sends.items()}
    recvs = {(perm[i - 1], perm[j - 1]): clock(c) for (i, j), c in sig.recvs.items()}
    return exits, sends, recvs


@st.composite
def renamed_pairs(draw) -> tuple[Program, Program, tuple[int, ...]]:
    p, s = draw(df_pairs())
    return p, s, tuple(draw(st.permutations(range(1, p.n + 1))))


@settings(max_examples=60, deadline=None)
@given(renamed_pairs())
def test_renaming_processes_permutes_every_answer(case):
    """Renaming the processes permutes the signature, the static answers
    and the oracle's answers alike: what a reduction to one program per
    renaming orbit relies on."""
    p, s, perm = case
    rp, rs = rename(p, perm), rename(s, perm)
    for a, ra in ((p, rp), (s, rs)):
        sig = compute_signature(ra)
        expected = _renamed_clocks(compute_signature(a), perm)
        assert (sig.exits, sig.sends, sig.recvs) == expected, (a, perm)
    assert is_seal(rp, rs) == is_seal(p, s), (p, s, perm)
    for ch in channels_of(p.n):
        renamed = Channel(perm[ch.src - 1], perm[ch.dst - 1])
        assert oracle_channel_open(rp, renamed) == oracle_channel_open(p, ch), (p, ch, perm)
    assert oracle_seals(rp, rs, WIDE) == oracle_seals(p, s, WIDE), (p, s, perm)


def test_two_process_signature_classes():
    """n = 2 by signature class: the balanced deadlock-free programs of up
    to 10 events have 12 signatures, all reached within 6 events; the 12
    are closed under composition, which is associative on them; and on
    the smallest program of each class ``is_seal`` agrees with the oracle.
    Evidence for every n = 2 program, not a proof: a longer program that
    no layering splits could still have a new signature."""
    reps: dict = {}
    for p in all_balanced_df_programs(2, 6):
        sig = compute_signature(p)
        if sig not in reps or p.event_count < reps[sig].event_count:
            reps[sig] = p
    assert len(reps) == 12
    assert {compute_signature(p) for p in all_balanced_df_programs(2, 10)} == reps.keys()
    for (a, p), (b, q) in itertools.product(reps.items(), repeat=2):
        assert signature_compose(a, b) in reps, (p, q)
        assert is_seal(p, q) == oracle_seals(p, q), (p, q)
    for (a, p), (b, q), (c, r) in itertools.product(reps.items(), repeat=3):
        left = signature_compose(signature_compose(a, b), c)
        assert left == signature_compose(a, signature_compose(b, c)), (p, q, r)
        assert left == compute_signature(layer(layer(p, q), r)), (p, q, r)
