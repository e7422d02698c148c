"""Tests for the program text format."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerseal import (
    ParseError,
    ParseErrorKind,
    empty_program,
    format_program,
    parse,
    program,
    recv,
    send,
)
from layerseal.parser import MAX_PROCESSES
from progsets import random_balanced_df

GOOD = """\
processes 3;
program relay {
  process 1 {
    send 2;
  }
  process 2 {
    recv 1;
    send 3;
  }
  process 3 {
    recv 2;
  }
}
"""


def test_parse_basic():
    p = parse(GOOD)
    assert p.name == "relay"
    assert p.n == 3
    assert p.statements(1) == (send(2),)
    assert p.statements(2) == (recv(1), send(3))
    assert p.statements(3) == (recv(2),)


def test_missing_process_blocks_are_empty():
    p = parse("processes 4;\nprogram p {\n  process 2 { send 1; }\n}\n")
    assert p.statements(1) == ()
    assert p.statements(2) == (send(1),)
    assert p.statements(3) == ()
    assert p.statements(4) == ()


def test_comments_and_whitespace():
    src = (
        "# leading comment\n"
        "processes 2; # trailing\n"
        "program   p{process 1{send 2;}# dense\n"
        "}\n"
    )
    assert parse(src) == program("p", 2, {1: [send(2)]})


def test_assign_statements_are_discarded():
    src = """\
processes 2;
program p {
  process 1 {
    assign x;
    send 2;
    assign y;
  }
  process 2 {
    recv 1;
  }
}
"""
    p = parse(src)
    assert p.statements(1) == (send(2),)


def test_zero_process_program():
    p = parse("processes 0;\nprogram nothing {\n}\n")
    assert p.n == 0
    assert p.event_count == 0


@pytest.mark.parametrize(
    "src,kind,line,col",
    [
        ("processes 2;\nprogram p {\n  process 3 { }\n}\n", ParseErrorKind.BAD_PROCESS_ID, 3, 11),
        ("processes 2;\nprogram p {\n  process 1 { send 5; }\n}\n", ParseErrorKind.BAD_PROCESS_ID, 3, 20),
        ("processes 2;\nprogram p {\n  process 1 { send 1; }\n}\n", ParseErrorKind.SELF_CHANNEL, 3, 20),
        ("processes 2;\nprogram p {\n  process 1 { recv 1; }\n}\n", ParseErrorKind.SELF_CHANNEL, 3, 20),
        (
            "processes 2;\nprogram p {\n  process 1 { }\n  process 1 { }\n}\n",
            ParseErrorKind.DUPLICATE_PROCESS,
            4,
            11,
        ),
        # \r\n line endings, tabs (one column each) and comments right
        # after a token leave the span where it would be without them.
        (
            "processes 2;\r\nprogram p {\r\n  process 3 { }\r\n}\r\n",
            ParseErrorKind.BAD_PROCESS_ID,
            3,
            11,
        ),
        ("processes 2;\nprogram p {\n\t\tprocess 3 { }\n}\n", ParseErrorKind.BAD_PROCESS_ID, 3, 11),
        (
            "processes 2;\nprogram p {# open\n  process 3 { }#x\n}\n",
            ParseErrorKind.BAD_PROCESS_ID,
            3,
            11,
        ),
    ],
)
def test_semantic_errors_carry_kind_and_span(src, kind, line, col):
    with pytest.raises(ParseError) as exc:
        parse(src)
    assert exc.value.kind is kind
    assert exc.value.span.line == line
    assert exc.value.span.column == col


@pytest.mark.parametrize(
    "src",
    [
        "",
        "processes;",
        "processes 2",
        "processes 2; program { }",
        "processes 2; program 9 { }",
        "processes 2; program p { process 1 { send 2 } }",
        "processes 2; program p { process 1 { emit 2; } }",
        "processes 2; program p { process 1 { assign 3; } }",
        "processes 2; program p { } extra",
        "processes 2; program p { process 1 {",
        "processes 2; program p { process 1 { send 2; ",
        "processes 2; program p $ }",
    ],
)
def test_syntax_errors(src):
    with pytest.raises(ParseError) as exc:
        parse(src)
    assert exc.value.kind is ParseErrorKind.SYNTAX


def test_syntax_error_spans_point_at_offender():
    cases = [
        ("processes 2;\nprogram p {\n  process 1 { emit 2; }\n}\n", 3, 15),
        ("processes 2;\r\nprogram p {\r\n  process 1 { emit 2; }\r\n}\r\n", 3, 15),
        ("processes 2;\nprogram p {\n\tprocess 1 {\temit 2; }\n}\n", 3, 14),
        ("processes 2;#c\nprogram p {#\n  process 1 { emit 2; }#x\n}\n", 3, 15),
        # A letter outside ASCII ends the identifier and is itself the error.
        ("processes 2;\nprogram p {\n  process 1 { sénd 2; }\n}\n", 3, 16),
        # End of input, after a comment with no final newline.
        ("processes 2;\nprogram p {\n  process 1 { send 2; } # end", 3, 30),
        # A block left open: the span lies past the last line.
        ("processes 2;\nprogram p {\n  process 1 {\n", 4, 1),
        ("processes 2;\r\nprogram p {\r\n  process 1 {\r\n", 4, 1),
        # A keyword is no program name: format_program could not print it.
        *(
            (f"processes 1;\nprogram {kw} {{ }}\n", 2, 9)
            for kw in ("assign", "process", "processes", "program", "recv", "send")
        ),
    ]
    for src, line, col in cases:
        with pytest.raises(ParseError) as exc:
            parse(src)
        assert exc.value.kind is ParseErrorKind.SYNTAX
        assert exc.value.span == type(exc.value.span)(line, col), src


def test_process_count_limit():
    assert MAX_PROCESSES == 100_000
    assert parse("processes 100000;\nprogram wide { }\n").n == MAX_PROCESSES
    assert parse("processes 000100000;\nprogram wide { }\n").n == MAX_PROCESSES
    # Counts above the limit, up to one too long for Python's int(), are
    # refused at the number before any process is built.
    for count in ("100001", "1000000", "0" * 9 + "1000000", "9" * 5000):
        with pytest.raises(ParseError) as exc:
            parse(f"processes {count};\nprogram wide {{ }}\n")
        assert exc.value.kind is ParseErrorKind.TOO_MANY_PROCESSES
        assert exc.value.span == type(exc.value.span)(1, 11)


def test_oversized_ids_and_peers_are_bad_process_ids():
    huge = "7" * 5000
    for src, col in (
        (f"processes 3;\nprogram p {{\n  process {huge} {{ }}\n}}\n", 11),
        (f"processes 3;\nprogram p {{\n  process 1 {{ send {huge}; }}\n}}\n", 20),
        ("processes 3;\nprogram p {\n  process 1 { recv 100001; }\n}\n", 20),
    ):
        with pytest.raises(ParseError) as exc:
            parse(src)
        assert exc.value.kind is ParseErrorKind.BAD_PROCESS_ID
        assert exc.value.span == type(exc.value.span)(3, col)
        assert len(str(exc.value)) < 100
    # Leading zeros do not count toward a number's length.
    assert parse("processes 3;\nprogram p { process 0000001 { send 00000002; } }\n").n == 3


def test_error_at_end_of_input_has_span_past_last_line():
    with pytest.raises(ParseError) as exc:
        parse("processes 2;\nprogram p {")
    assert exc.value.span.line == 2


def test_format_round_trip_examples():
    for p in [
        empty_program(3, name="idle"),
        program("pair", 2, {1: [send(2), recv(2)], 2: [recv(1), send(1)]}),
        parse(GOOD),
    ]:
        assert parse(format_program(p)) == p


def test_format_empty_program_omits_blocks():
    text = format_program(empty_program(2, name="idle"))
    assert "process" not in text.replace("processes", "")
    assert parse(text) == empty_program(2, name="idle")


def test_format_rejects_unprintable_names():
    with pytest.raises(ValueError):
        format_program(empty_program(2, name="a b"))
    with pytest.raises(ValueError):
        format_program(empty_program(2, name="42"))
    with pytest.raises(ValueError):
        format_program(empty_program(2, name="send"))
    # Double underscores (layering default) are ordinary identifiers.
    parse(format_program(empty_program(2, name="p__q")))


def test_round_trip_random_programs():
    rng = random.Random(7)
    for _ in range(50):
        p = random_balanced_df(rng, rng.randint(1, 5), 6)
        assert parse(format_program(p)) == p


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_round_trip_property(data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    seqs = {}
    for proc in range(1, n + 1):
        peers = [k for k in range(1, n + 1) if k != proc]
        if not peers:
            continue
        stmts = data.draw(
            st.lists(
                st.tuples(st.booleans(), st.sampled_from(peers)).map(
                    lambda t: send(t[1]) if t[0] else recv(t[1])
                ),
                max_size=5,
            )
        )
        seqs[proc] = stmts
    p = program("prop", n, seqs)
    assert parse(format_program(p)) == p
