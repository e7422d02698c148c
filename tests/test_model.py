"""Tests for the core program model."""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerseal import (
    Channel,
    ClosedChannelGraph,
    OracleBudget,
    Phase,
    ProcessCountMismatch,
    Program,
    SealPlan,
    SigNode,
    SourceSpan,
    Statement,
    StmtKind,
    Unbalanced,
    channels_of,
    empty_program,
    is_balanced,
    layer,
    message_transmit,
    pairing,
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
    (SourceSpan, {"line": 3, "column": 7}, None),
    (SigNode, {"name": "snd:1>2"}, None),
    (ClosedChannelGraph, {"n": 2, "edges": frozenset({(2, 1)})}, None),
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
