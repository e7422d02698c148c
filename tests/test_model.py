"""Tests for the core program model."""

from __future__ import annotations

import copy
import pickle

import pytest
import layerseal
from hypothesis import given, settings
from hypothesis import strategies as st

from closure_reference import pairing
from layerseal import (
    AnalysisError,
    BadProcessId,
    BudgetExceeded,
    Channel,
    ClosedChannelGraph,
    CyclicGraph,
    InvariantViolation,
    OracleBudget,
    ParseError,
    ParseErrorKind,
    Phase,
    ProcessCountMismatch,
    Program,
    SealPlan,
    SigNode,
    Statement,
    StmtKind,
    Unbalanced,
    Unsealable,
    channels_of,
    closed_channels,
    compute_signature,
    empty_program,
    is_balanced,
    layer,
    message_transmit,
    oracle_channel_open,
    program,
    recv,
    send,
)
from layerseal.cli import CliResult


def test_channel_validation():
    with pytest.raises(ValueError):
        Channel(1, 1)
    with pytest.raises(ValueError):
        Channel(0, 2)
    assert str(Channel(3, 1)) == "3->1"


def test_channel_ordering_is_src_then_dst():
    assert sorted([Channel(2, 1), Channel(1, 3), Channel(1, 2)]) == [
        Channel(1, 2),
        Channel(1, 3),
        Channel(2, 1),
    ]


def test_program_rejects_bad_peers():
    with pytest.raises(ValueError):
        program("p", 2, {1: [send(3)]})
    with pytest.raises(ValueError):
        program("p", 2, {1: [send(1)]})
    with pytest.raises(ValueError):
        program("p", 2, {3: [send(1)]})
    with pytest.raises(ValueError, match="non-negative"):
        Program("p", -1, ())
    with pytest.raises(ValueError, match="expected 2 sequences"):
        Program("p", 2, ((),))


def test_program_builder_fills_missing_processes():
    p = program("p", 3, {2: [send(1)]})
    assert p.statements(1) == ()
    assert p.statements(2) == (send(1),)
    assert p.statements(3) == ()
    assert p.event_count == 1


def test_message_transmit_shape():
    mt = message_transmit(1, 2, n=3)
    assert mt.statements(1) == (send(2),)
    assert mt.statements(2) == (recv(1),)
    assert mt.statements(3) == ()


def test_layer_concatenates_per_process():
    p = layer(message_transmit(1, 2, 2), message_transmit(2, 1, 2))
    assert p.statements(1) == (send(2), recv(2))
    assert p.statements(2) == (recv(1), send(1))


def test_layer_rejects_mismatched_process_counts():
    with pytest.raises(ProcessCountMismatch):
        layer(empty_program(2), empty_program(3))


def test_pairing_numbers_each_channel_apart():
    # Positions count from 1. The k'th receive on a channel pairs with the
    # k'th send on that channel, whatever other channels lie in between.
    p = program(
        "p",
        3,
        {1: [send(2), send(3), send(2), recv(3)], 2: [recv(1), recv(1)], 3: [send(1), recv(1)]},
    )
    assert pairing(p) == {(2, 1): (1, 1), (2, 2): (1, 3), (3, 2): (1, 2), (1, 4): (3, 1)}
    assert pairing(empty_program(3)) == {}


def test_channel_traffic_counts():
    # 1->2 carries two sends and one receive, 3->1 one of each: the
    # channel with a send too many is named, the other pairs up.
    p = program("p", 3, {1: [send(2), send(2), recv(3)], 2: [recv(1)], 3: [send(1)]})
    with pytest.raises(Unbalanced) as exc:
        pairing(p)
    assert exc.value.channel == Channel(1, 2)
    assert not is_balanced(p)
    q = program("q", 3, {1: [send(2), recv(3)], 2: [recv(1)], 3: [send(1)]})
    assert pairing(q) == {(2, 1): (1, 1), (1, 2): (3, 1)}
    assert is_balanced(q)


def test_balance_examples():
    assert is_balanced(empty_program(4))
    assert is_balanced(message_transmit(1, 2, 2))
    assert not is_balanced(program("p", 2, {1: [send(2)]}))
    # Equal totals across different channels do not balance.
    assert not is_balanced(program("p", 3, {1: [send(2)], 3: [recv(2)]}))
    # One channel balanced, another with a send too many.
    assert not is_balanced(
        program("p", 3, {1: [send(2), send(2), recv(3)], 2: [recv(1)], 3: [send(1)]})
    )


def test_channels_of():
    assert channels_of(1) == []
    assert channels_of(3) == [
        Channel(1, 2),
        Channel(1, 3),
        Channel(2, 1),
        Channel(2, 3),
        Channel(3, 1),
        Channel(3, 2),
    ]


@given(st.integers(min_value=1, max_value=5), st.data())
@settings(deadline=None)
def test_layering_preserves_balance(n, data):
    chans = channels_of(n)
    if not chans:
        return

    def draw_prog(label):
        pairs = data.draw(
            st.lists(st.sampled_from(chans), max_size=4), label=label
        )
        seqs = {}
        for ch in pairs:
            seqs.setdefault(ch.src, []).append(send(ch.dst))
            seqs.setdefault(ch.dst, []).append(recv(ch.src))
        return program(label, n, seqs)

    p = draw_prog("p")
    q = draw_prog("q")
    assert is_balanced(p) and is_balanced(q)
    assert is_balanced(layer(p, q))


def test_program_equality_includes_name():
    a = message_transmit(1, 2, 2)
    b = message_transmit(1, 2, 2, name="other")
    assert a != b
    assert a == message_transmit(1, 2, 2)


def test_program_keeps_no_reference_to_the_callers_lists():
    # Analyses remember programs by identity, so a program must not change
    # under them when the lists it was built from do.
    rows = [[send(2), recv(2)], [recv(1), send(1)]]
    p = Program("p", 2, rows)

    def answers(q: Program) -> tuple:
        return (
            oracle_channel_open(q, Channel(2, 1)),
            oracle_channel_open(q, Channel(1, 2)),
            compute_signature(q).open_channels(),
            closed_channels(q),
        )

    before = answers(p)
    rows[0][:] = [recv(2), send(2)]
    rows[1][:] = [send(1), recv(1)]
    assert p.seqs == ((send(2), recv(2)), (recv(1), send(1)))
    assert all(type(seq) is tuple for seq in (p.seqs, *p.seqs))
    assert answers(p) == before == answers(copy.copy(p))
    assert before[:2] == (True, False)
    assert answers(Program("p", 2, rows))[:2] == (False, True)


def test_event_count():
    assert empty_program(3).event_count == 0
    assert message_transmit(1, 2, 2).event_count == 2
    p = Program("p", 2, ((send(2), send(2)), (recv(1), recv(1))))
    assert p.event_count == 4


# Every value class of the package: its fields in order, and for the ones
# that validate their fields, a field value that must raise ValueError.
RECORDS = [
    (Channel, {"src": 1, "dst": 2}, {"dst": 1}),
    (Statement, {"kind": StmtKind.SEND, "peer": 2}, None),
    (Program, {"name": "p", "n": 2, "seqs": ((send(2),), (recv(1),))}, {"n": 1}),
    (SigNode, {"name": "snd:1>2"}, None),
    (ClosedChannelGraph, {"n": 2, "edges": frozenset({(2, 1)})}, {"n": -1}),
    (SealPlan, {"transmissions": ((1, 2),), "phase_tags": (Phase.BROADCAST,)}, {"phase_tags": ()}),
    (CliResult, {"exit_code": 1, "stdout": "seals: false\n"}, None),
    (OracleBudget, {"max_matchings": 6, "max_events": 5}, None),
]


@pytest.mark.parametrize("cls, fields, invalid", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_are_immutable_values(cls, fields, invalid):
    values = tuple(fields.values())
    a, b = cls(*values), cls(**fields)
    assert a is not b and a == b and hash(a) == hash(b)
    assert [getattr(a, name) for name in fields] == list(values)
    # A record equals no plain tuple, so tuple keys and records never alias.
    assert a != values and values != a and a != values[0]
    assert repr(a).startswith(f"{cls.__name__}(")
    assert copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(a, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 0
    # Equality holds only within one class.
    for other, other_fields, _ in RECORDS:
        if other is not cls:
            assert a != other(**other_fields)
    if invalid is not None:
        with pytest.raises(ValueError):
            cls(**{**fields, **invalid})
    if cls is Channel:
        assert a < Channel(1, 3) < Channel(2, 1) and Channel(2, 1) >= a
        with pytest.raises(TypeError):
            a < values
    if cls is OracleBudget:
        assert OracleBudget() == OracleBudget(1_000_000, 24)
        assert OracleBudget(max_events=3) == OracleBudget(1_000_000, 3)


# The constructor arguments of every error class the package exports.
ERRORS = {
    AnalysisError: ("analysis failed",),
    BadProcessId: ("channel 1->3 outside 1..2",),
    BudgetExceeded: ("world has 25 events, budget allows 24",),
    CyclicGraph: (),
    InvariantViolation: ("constructed plan does not seal its input",),
    ParseError: (ParseErrorKind.SYNTAX, 3, 7, "expected ';'"),
    ProcessCountMismatch: (2, 3),
    Unbalanced: (Channel(1, 2),),
    Unsealable: ("closed-channel graph is disconnected",),
}
EXPORTED_ERRORS = [
    cls for name in layerseal.__all__
    if isinstance(cls := getattr(layerseal, name), type) and issubclass(cls, Exception)
]


@pytest.mark.parametrize("cls", EXPORTED_ERRORS, ids=lambda cls: cls.__name__)
def test_errors_survive_copy_and_pickle(cls):
    exc = cls(*ERRORS[cls])
    for twin in (copy.copy(exc), copy.deepcopy(exc), pickle.loads(pickle.dumps(exc))):
        assert type(twin) is cls and twin is not exc
        assert str(twin) == str(exc) and twin.args == exc.args and vars(twin) == vars(exc)
