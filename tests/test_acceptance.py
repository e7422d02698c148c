"""Acceptance suite: one test per criterion, one verdict line each.

Each test prints ``acceptance criterion k: PASS|FAIL`` before asserting, so
the verdicts survive in captured output even when a criterion fails.
"""

from __future__ import annotations

import random
import time

from layerseal import (
    BudgetExceeded,
    Channel,
    ParseError,
    ParseErrorKind,
    SigNode,
    Unsealable,
    channels_of,
    closed_channels,
    compute_signature,
    construct_seal,
    empty_program,
    expand_plan,
    format_program,
    is_seal,
    is_sealable,
    layer,
    message_transmit,
    oracle_channel_open,
    oracle_seals,
    oracle_tcc,
    parse,
    signature_compose,
    signature_equal,
)
from layerseal.cli import run
from progsets import (
    all_balanced_df_programs,
    bystander_sealable,
    crossed_exchange,
    gather_phase,
    hand_gather_seal,
    random_balanced_df,
    relay_ack_seal,
)

ENUM_SCOPES = ((1, 4), (2, 4), (3, 4))


def _report(k: int, ok: bool, detail: str = "") -> bool:
    line = f"acceptance criterion {k}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    return ok


def _enum_programs():
    out = []
    for n, cap in ENUM_SCOPES:
        out.extend(all_balanced_df_programs(n, cap))
    return out


def test_criterion_1_example_fixtures():
    start = time.perf_counter()
    failures = []

    mt = message_transmit(1, 2, 2)
    ack = message_transmit(2, 1, 2)
    if not is_seal(mt, ack):
        failures.append("is_seal(MT, ack) should be true")
    if is_seal(mt, mt):
        failures.append("is_seal(MT, MT) should be false")
    if not Channel(1, 2) in compute_signature(mt).open_channels():
        failures.append("Sig(MT) should keep the last receive on 1->2")
    if Channel(1, 2) in compute_signature(layer(mt, ack)).open_channels():
        failures.append("Sig(MT then ack) should drop the last receive on 1->2")

    x = crossed_exchange()
    if is_sealable(x):
        failures.append("crossed exchange should be unsealable")
    try:
        construct_seal(x)
        failures.append("construct_seal(crossed exchange) should refuse")
    except Unsealable:
        pass

    if not is_seal(bystander_sealable(), relay_ack_seal()):
        failures.append("relay seal should seal the bystander program")

    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"fixtures took {elapsed:.2f}s, require < 1s")

    ok = _report(1, not failures, f"{elapsed * 1000:.0f}ms")
    assert ok, failures


def test_criterion_2_decision_matches_oracle_exhaustively():
    checked = 0
    disagreements = []
    for n, cap in ENUM_SCOPES:
        progs = all_balanced_df_programs(n, cap)
        for p in progs:
            for q in progs:
                static = is_seal(p, q)
                dynamic = oracle_seals(p, q)
                checked += 1
                if static != dynamic:
                    disagreements.append((p, q, static, dynamic))
    ok = _report(2, not disagreements, f"{checked} pairs")
    assert ok, disagreements[:3]


def test_criterion_3_open_channels_match_oracle():
    checked = 0
    disagreements = []
    for p in _enum_programs():
        sig = compute_signature(p)
        for ch in channels_of(p.n):
            static = SigNode(f"rcv:{ch.dst}<{ch.src}") in sig.nodes
            dynamic = oracle_channel_open(p, ch)
            checked += 1
            if static != dynamic:
                disagreements.append((p, ch, static, dynamic))
    ok = _report(3, not disagreements, f"{checked} channel queries")
    assert ok, disagreements[:3]


def test_criterion_4_signature_composition():
    rng = random.Random(1004)
    mismatches = []
    pairs = 0
    for _ in range(1000):
        n = rng.randint(1, 5)
        p = random_balanced_df(rng, n, 5)
        q = random_balanced_df(rng, n, 5)
        direct = compute_signature(layer(p, q))
        composed = signature_compose(compute_signature(p), compute_signature(q))
        pairs += 1
        if not signature_equal(direct, composed):
            mismatches.append((p, q))
    for n, cap in ENUM_SCOPES:
        progs = all_balanced_df_programs(n, cap)
        for p in progs:
            for q in progs:
                direct = compute_signature(layer(p, q))
                composed = signature_compose(
                    compute_signature(p), compute_signature(q)
                )
                pairs += 1
                if not signature_equal(direct, composed):
                    mismatches.append((p, q))
    ok = _report(4, not mismatches, f"{pairs} pairs")
    assert ok, mismatches[:3]


def test_criterion_5_seal_synthesis():
    rng = random.Random(1005)
    sealable_seen = 0
    unsealable_seen = 0
    oracle_confirmed = 0
    failures = []
    while sealable_seen < 500:
        n = rng.randint(1, 6)
        p = random_balanced_df(rng, n, 6)
        if is_sealable(p):
            sealable_seen += 1
            try:
                plan = construct_seal(p)
            except Unsealable:
                failures.append((p, "constructor refused a sealable program"))
                continue
            s = expand_plan(plan, n)
            if not is_seal(p, s):
                failures.append((p, "expansion does not seal"))
            if not len(plan.transmissions) < 3 * max(n, 1):
                failures.append((p, f"{len(plan.transmissions)} transmissions"))
            try:
                if oracle_seals(p, s):
                    oracle_confirmed += 1
                else:
                    failures.append((p, "oracle rejects the constructed seal"))
            except BudgetExceeded:
                pass
        else:
            unsealable_seen += 1
            try:
                construct_seal(p)
                failures.append((p, "constructor accepted an unsealable program"))
            except Unsealable:
                pass
    detail = (
        f"500 sealable, {unsealable_seen} unsealable,"
        f" {oracle_confirmed} oracle-confirmed"
    )
    if oracle_confirmed < 50:
        failures.append(("coverage", "too few instances fit the oracle budget"))
    ok = _report(5, not failures, detail)
    assert ok, failures[:3]


def test_criterion_6_gather_example():
    claimed = {n: n * n - 3 * n + 3 for n in (4, 5, 6)}
    actual = {}
    seal_ok = True
    bound_ok = True
    for n in (4, 5, 6):
        L = gather_phase(n)
        closed = closed_channels(L)
        actual[n] = n * (n - 1) - len(closed.edges)
        seal_ok &= is_seal(L, hand_gather_seal(n))
        plan = construct_seal(L)
        bound_ok &= len(plan.transmissions) < 3 * n
    count_ok = actual == claimed
    _report(
        6,
        seal_ok and bound_ok and count_ok,
        f"open counts actual={actual} claimed={claimed}",
    )
    assert seal_ok, "hand seal must pass is_seal"
    assert bound_ok, "constructed seal must stay under 3n transmissions"
    # The claimed open-channel count cannot hold for this program: process 1
    # never sends, so none of the n - 1 report channels and none of the
    # (n-1)(n-2) cross channels can ever be closed, giving (n-1)^2. The
    # count is asserted at its claimed value and fails; the oracle-backed
    # criteria 2 and 3 pin the per-channel analysis as the correct one.
    assert actual == claimed, (
        f"open-channel counts: expected {claimed}, analysis yields {actual}"
    )


def test_criterion_7_nonempty_programs_are_not_tail_closed():
    violations = []
    checked = 0
    for p in _enum_programs():
        if p.event_count == 0:
            continue
        checked += 1
        if oracle_tcc(p):
            violations.append(p)
    empties_ok = all(oracle_tcc(empty_program(n)) for n in (1, 2, 3))
    ok = _report(
        7, not violations and empties_ok, f"{checked} communicating programs"
    )
    assert ok, violations[:3]


def test_criterion_8_seal_algebra():
    rng = random.Random(1008)
    triples = 0
    failures = []
    while triples < 300:
        n = rng.randint(2, 4)
        p = random_balanced_df(rng, n, 4)
        if not is_sealable(p):
            continue
        s = expand_plan(construct_seal(p), n)
        if rng.random() < 0.3:
            # Vary the seal beyond constructor output; keep only real seals.
            s = layer(s, random_balanced_df(rng, n, 2), name="seal_plus")
        if not is_seal(p, s):
            continue
        q = random_balanced_df(rng, n, 4)
        try:
            s2 = expand_plan(construct_seal(s), n)
        except Unsealable:
            continue
        if not is_seal(s, s2):
            continue
        triples += 1
        if not is_seal(p, layer(s, q)):
            failures.append((p, s, q, "later layers broke the seal"))
        if not is_seal(layer(p, s), s2):
            failures.append((p, s, s2, "seal of the seal fails on the whole"))
    ok = _report(8, not failures, f"{triples} triples")
    assert ok, failures[:3]


def test_criterion_9_round_trip_and_parse_errors():
    rng = random.Random(1009)
    failures = []
    for _ in range(1000):
        p = random_balanced_df(rng, rng.randint(1, 6), 8)
        if parse(format_program(p)) != p:
            failures.append(p)

    fixtures = [
        ("processes 2;\nprogram p {\n  process 9 { }\n}\n", ParseErrorKind.BAD_PROCESS_ID),
        ("processes 2;\nprogram p {\n  process 1 { send 7; } \n}\n", ParseErrorKind.BAD_PROCESS_ID),
        ("processes 2;\nprogram p {\n  process 2 { recv 2; }\n}\n", ParseErrorKind.SELF_CHANNEL),
        (
            "processes 2;\nprogram p {\n  process 1 { }\n  process 1 { }\n}\n",
            ParseErrorKind.DUPLICATE_PROCESS,
        ),
        ("processes 2;\nprogram p {\n  process 1 { send ; }\n}\n", ParseErrorKind.SYNTAX),
        ("not a program", ParseErrorKind.SYNTAX),
    ]
    for src, kind in fixtures:
        try:
            parse(src)
            failures.append((src, "no error"))
        except ParseError as exc:
            if exc.kind is not kind:
                failures.append((src, exc.kind))

    ok = _report(9, not failures, "1000 round trips, 6 error fixtures")
    assert ok, failures[:3]


def test_criterion_9_cli_exit_code(tmp_path):
    bad = tmp_path / "bad.lsl"
    bad.write_text("processes 2;\nprogram p {\n  process 2 { recv 2; }\n}\n")
    res = run(["check", str(bad)])
    assert res.exit_code == 2
    assert "[self-channel]" in res.stdout
