"""Tests for the program text format."""

from __future__ import annotations

import random
import re
import tracemalloc

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
from layerseal import parser as parser_module
from layerseal.parser import MAX_PROCESSES
from parser_reference import parse as reference_parse
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


def test_equal_statements_of_one_parse_are_one_object():
    p = parse("processes 3;\nprogram p {\n  process 1 { send 2; send 3; send 2; recv 2; }\n"
              "  process 2 { recv 1; send 1; }\n  process 3 { recv 1; }\n}\n")
    one, two, three = p.seqs
    # send 2 twice on one process, recv 1 on two: 5 distinct statements of 7.
    assert one[0] is one[2] and two[0] is three[0]
    assert len({id(stmt) for seq in p.seqs for stmt in seq}) == 5


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


SEMANTIC_ERRORS = [
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
]


@pytest.mark.parametrize("src,kind,line,col", SEMANTIC_ERRORS)
def test_semantic_errors_carry_kind_and_span(src, kind, line, col):
    with pytest.raises(ParseError) as exc:
        parse(src)
    assert exc.value.kind is kind
    assert exc.value.line == line
    assert exc.value.column == col


SYNTAX_ERRORS = [
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
]


@pytest.mark.parametrize("src", SYNTAX_ERRORS)
def test_syntax_errors(src):
    with pytest.raises(ParseError) as exc:
        parse(src)
    assert exc.value.kind is ParseErrorKind.SYNTAX


SYNTAX_SPANS = [
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


def test_syntax_error_spans_point_at_offender():
    for src, line, col in SYNTAX_SPANS:
        with pytest.raises(ParseError) as exc:
            parse(src)
        assert exc.value.kind is ParseErrorKind.SYNTAX
        assert (exc.value.line, exc.value.column) == (line, col), src


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
        assert (exc.value.line, exc.value.column) == (1, 11)


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
        assert (exc.value.line, exc.value.column) == (3, col)
        assert len(str(exc.value)) < 100
    # Leading zeros do not count toward a number's length.
    assert parse("processes 3;\nprogram p { process 0000001 { send 00000002; } }\n").n == 3


def test_error_at_end_of_input_has_span_past_last_line():
    with pytest.raises(ParseError) as exc:
        parse("processes 2;\nprogram p {")
    assert exc.value.line == 2


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


def _outcome(src):
    """``parse(src)`` in the reference's plain tuples, with the error's ``str``."""
    try:
        p = parse(src)
    except ParseError as exc:
        return (exc.kind.value, exc.line, exc.column, exc.message), str(exc)
    return (p.name, p.n, tuple(tuple((s.kind.value, s.peer) for s in seq) for seq in p.seqs)), None


def _reference_outcome(src):
    got = reference_parse(src)
    if len(got) == 4:
        kind, line, col, message = got
        return got, f"line {line} col {col}: {message}"
    return got, None


# What a single edit inserts or puts in place of a character: the grammar's
# punctuation, blanks, characters that are no blank, digits, keywords, and
# numbers past the limit or with leading zeros.
_EDITS = [
    *"{};# \t\n\r\x0b@0123456789",
    *"\f\x00\u00e9\ufeff",
    *("processes", "program", "process", "send", "recv", "assign"),
    *("9999999", "000001"),
    # Words that start with a digit and go on with a letter or ``_``: the
    # scan splits each in two, a split on blanks does not.
    *("2x", "0_", "1send"),
]


def test_parse_matches_reference_on_error_tables_and_mutants():
    rng = random.Random(2026)
    texts = [format_program(random_balanced_df(rng, rng.randint(1, 5), 6)) for _ in range(60)]
    tables = [GOOD] + [src for src, *_ in SEMANTIC_ERRORS] + SYNTAX_ERRORS + [src for src, *_ in SYNTAX_SPANS]
    # Each table entry as it is, which is mostly free of comments, and with a
    # comment at its head, at its tail and after its first ';'.
    sources = [
        variant
        for src in tables
        for variant in (src, "# head\n" + src, src + "\n# tail @", src.replace(";", "; #;\n", 1))
    ]
    sources += texts
    for _ in range(3000):
        text = rng.choice(texts)
        at = rng.randrange(len(text) + 1)
        edit = rng.randrange(3)
        if edit == 0:
            text = text[:at] + rng.choice(_EDITS) + text[at:]
        elif edit == 1:
            text = text[:at] + text[at + rng.randint(1, 3) :]
        else:
            text = text[:at] + rng.choice(_EDITS) + text[at + 1 :]
        sources.append(text)
    for src in sources:
        assert _outcome(src) == _reference_outcome(src), repr(src)


# Pieces that sources over the program alphabet are joined from: blanks,
# punctuation, numbers with and without leading zeros, names, keywords,
# glued forms, digit-led words and comments holding any character.
_PIECES = [
    *" \t\r\n",
    "\r\n",
    *"{};",
    *("0", "2", "02", "0003", "100001", "x", "_", "p", "a_1", "Z9"),
    *("processes", "program", "process", "send", "recv", "assign"),
    *("process1{send2;}", "send 2;", "recv\t1 ;", "assign v;", "}}", "processes 3;program q{"),
    *("2x", "0_", "7send", "00_a"),
    *("#", "# any @\u00e9\x00\f\ufeff text\n", "#}{;\r\n", "#x"),
]


def _drawn_source(rng):
    """A source over the program alphabet: a well-formed program with its
    blanks redrawn and a few pieces spliced in, or pieces alone."""
    if rng.random() < 0.2:
        return "".join(rng.choice(_PIECES) for _ in range(rng.randint(0, 30)))
    text = format_program(random_balanced_df(rng, rng.randint(1, 4), 5))
    words = text.split()
    blanks = ["", " ", "\t", "\n", "\r\n", "  \n\t"]
    parts = [rng.choice(blanks)]
    for word in words:
        # A blank may vanish after punctuation, which keeps the tokens apart,
        # and now and then after a name or number, which glues it to the next;
        # a number may gain leading zeros.
        glue = word[-1] in "{};" or rng.random() < 0.05
        if word[0].isdigit() and rng.random() < 0.1:
            word = "00" + word
        parts += [word, rng.choice(blanks if glue else blanks[1:])]
    for _ in range(rng.choice((0, 0, 1, 2))):
        parts.insert(rng.randrange(len(parts) + 1), rng.choice(_PIECES))
    return "".join(parts)


def test_parse_matches_reference_on_sources_over_the_program_alphabet():
    rng = random.Random(3217)
    accepted = refused = 0
    for _ in range(4000):
        src = _drawn_source(rng)
        got = _outcome(src)
        assert got == _reference_outcome(src), repr(src)
        if got[1] is None:
            accepted += 1
        else:
            refused += 1
    # Both outcomes are common, so both paths of ``parse`` are exercised.
    assert accepted > 1000 and refused > 1000, (accepted, refused)


def test_a_source_without_comments_is_walked_without_the_scan(monkeypatch):
    # With the scan unusable, a well-formed source without a comment still
    # parses; one with a comment, or with an error, reaches the scan.
    good = _outcome(GOOD)
    monkeypatch.setattr(parser_module, "_SCAN", "(")
    assert _outcome(GOOD) == good
    for src in (GOOD + "# end\n", GOOD + "extra", GOOD.replace("send 2", "send 2x")):
        with pytest.raises(re.error):
            parse(src)


def test_a_stray_wins_over_an_earlier_syntax_error():
    for src, line, col in (("processes x; @", 1, 14), ("processes 2;\nprogram 9 { }\n\n  \x00", 4, 3)):
        with pytest.raises(ParseError) as exc:
            parse(src)
        assert (exc.value.line, exc.value.column) == (line, col)
        assert exc.value.message.startswith("unexpected character ")
        assert _outcome(src) == _reference_outcome(src)


# Characters that are neither blanks nor part of a token: allowed in a
# comment, a stray anywhere else.
_STRAYS = "@\f\x00\u00e9\ufeff"


def test_any_character_is_accepted_in_a_comment():
    for ch in _STRAYS:
        src = f"processes 2; # {ch} to\nprogram p {{ process 1 {{ send 2; #{ch}\n}} }} #{ch}"
        assert parse(src) == program("p", 2, {1: [send(2)]}), repr(ch)


def test_strays_outside_comments_are_placed_as_the_reference_places_them():
    text = format_program(program("p", 2, {1: [send(2), recv(2)], 2: [recv(1), send(1)]}))
    for ch in _STRAYS:
        for at in range(len(text) + 1):
            src = text[:at] + ch + text[at:]
            got = _outcome(src)
            assert got == _reference_outcome(src), repr(src)
            assert got[0][0] == "syntax" and got[0][3] == f"unexpected character {ch!r}", repr(src)


def test_a_peer_with_leading_zeros_shares_its_statement():
    p = parse("processes 2; program p { process 1 { send 02; send 2; recv 0002; } }")
    one = p.statements(1)
    assert one == (send(2), send(2), recv(2)) and one[0] is one[1]


def test_byte_order_mark_in_text_is_a_stray():
    # Files are read with the mark dropped; text handed to ``parse`` keeps it.
    with pytest.raises(ParseError) as exc:
        parse("\ufeffprocesses 1;\nprogram p { }\n")
    assert str(exc.value) == "line 1 col 1: unexpected character '\\ufeff'"


# Two processes and one message from 1 to 2 per pair of statements; each
# statement line is followed by a comment line and a blank line. With k
# statements a process the source has 6k + 7 lines: line 6k + 3 holds the
# last statement and line 6k + 7 the final ``}``.
_STATEMENTS = 33_332


def _long_source(last_peer=1):
    k = _STATEMENTS
    return (
        "processes 2;\nprogram long {\n  process 1 {\n"
        + "    send 2;\n    # to 2\n\n" * k
        + "  }\n  process 2 {\n"
        + "    recv 1;\n    # from 1\n\n" * (k - 1)
        + f"    recv {last_peer};\n    # from 1\n\n  }}\n}}\n"
    )


def test_spans_on_a_long_source():
    # A position is found only for the error, by one more scan of the
    # source, so each case costs about two scans.
    k = _STATEMENTS
    source = _long_source()
    assert source.count("\n") == 6 * k + 7 == 199_999
    cases = [
        (_long_source(last_peer=3), 6 * k + 3, 10, "peer 3 outside 1..2"),
        (source + "  @", 6 * k + 8, 3, "unexpected character '@'"),
        (source[: -len("}\n")], 6 * k + 7, 1, "expected 'process' or '}', found end of input"),
    ]
    for src, line, col, message in cases:
        with pytest.raises(ParseError) as exc:
            parse(src)
        assert (exc.value.line, exc.value.column, exc.value.message) == (line, col, message)


def test_spans_through_the_retry_on_a_long_source():
    # Without a comment, an error found on the words is placed by the
    # scan's tokens: ``1x`` is one word but two tokens. After a late
    # comment, the whole source is scanned.
    k = 50_000
    head = "processes 2;\nprogram long {\n  process 1 {\n" + "    send 2;\n" * k + "  }\n  process 2 {\n"
    body = "    recv 1;\n" * (k - 1)
    cases = [
        (head + body + "    recv 1x;\n  }\n}\n", 2 * k + 5, 11, "expected ';', found 'x'"),
        (
            head + body + "    # late\n    recv 1; program 1;\n  }\n}\n",
            2 * k + 6,
            13,
            "expected 'send', 'recv' or 'assign', found 'program'",
        ),
    ]
    for src, line, col, message in cases:
        assert "#" not in src or src.index("#") > len(head)
        with pytest.raises(ParseError) as exc:
            parse(src)
        assert (exc.value.line, exc.value.column, exc.value.message) == (line, col, message)
        assert _outcome(src) == _reference_outcome(src)


def _peak_over_source(head):
    """The ``tracemalloc`` peak of parsing a 50,000-statement source that
    starts with ``head``, as a multiple of the source's length."""
    k = 25_000
    source = (
        head
        + "program big {\n  process 1 {\n"
        + "    send 2;\n" * k
        + "  }\n  process 2 {\n"
        + "    recv 1;\n" * k
        + "  }\n}\n"
    )
    tracemalloc.start()
    try:
        p = parse(source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p.event_count == 2 * k
    return peak / len(source)


def test_parse_memory_stays_within_a_small_multiple_of_the_source():
    # Tokens are kept as plain strings in one list, so the peak is a few
    # times the source: about 8 times for this shape, where keeping a
    # tuple per token read about 24 times.
    assert _peak_over_source("processes 2;\n") < 12


def test_parse_memory_with_a_comment_stays_within_the_same_multiple():
    # A comment sends the source through the scan, under the same bound.
    assert _peak_over_source("processes 2; # big\n") < 12
