"""Tests for the command line interface."""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import layerseal
from layerseal import Channel, format_program, message_transmit, parse
from layerseal.cli import CliResult, _build_parser, _plain, run
from layerseal.parser import MAX_PROCESSES
from progsets import bystander_sealable, crossed_exchange, deadlocked_pair, gather_phase
from test_bench import BENCH_ENV

MT = """\
processes 2;
program mt {
  process 1 { send 2; }
  process 2 { recv 1; }
}
"""

ACK = """\
processes 2;
program ack {
  process 2 { send 1; }
  process 1 { recv 2; }
}
"""


@pytest.fixture
def mt_file(tmp_path):
    path = tmp_path / "mt.lsl"
    path.write_text(MT)
    return str(path)


@pytest.fixture
def ack_file(tmp_path):
    path = tmp_path / "ack.lsl"
    path.write_text(ACK)
    return str(path)


def _write(tmp_path, name, prog):
    path = tmp_path / name
    path.write_text(format_program(prog))
    return str(path)


def test_check_ok(mt_file):
    res = run(["check", mt_file])
    assert res.exit_code == 0
    assert res.stdout == "balanced: true\ndeadlock_free: true\n"


def test_check_unbalanced(tmp_path):
    path = tmp_path / "p.lsl"
    path.write_text("processes 2;\nprogram p { process 1 { send 2; } }\n")
    res = run(["check", str(path)])
    assert res.exit_code == 1
    assert res.stdout == "balanced: false\ndeadlock_free: unknown\n"


def test_check_deadlock(tmp_path):
    res = run(["check", _write(tmp_path, "d.lsl", deadlocked_pair())])
    assert res.exit_code == 1
    assert "deadlock_free: false" in res.stdout


def test_graph_text_and_dot(mt_file):
    text = run(["graph", mt_file])
    assert text.exit_code == 0
    assert "nodes: 6" in text.stdout
    assert "edge: s:1:0 -> r:2:0" in text.stdout
    dot = run(["graph", mt_file, "--dot"])
    assert dot.exit_code == 0
    assert dot.stdout.startswith("digraph program_graph {")
    assert '"fst_1" [shape=box];' in dot.stdout
    assert '"lst_2" [shape=box];' in dot.stdout
    assert '"s:1:0" [shape=circle];' in dot.stdout
    assert '"s:1:0" -> "r:2:0";' in dot.stdout


def test_sig_text_and_dot(mt_file):
    text = run(["sig", mt_file])
    assert text.exit_code == 0
    assert "node: snd:1>2" in text.stdout
    assert "node: rcv:2<1" in text.stdout
    dot = run(["sig", mt_file, "--dot"])
    assert dot.exit_code == 0
    # Direct edges plain, transitively implied edges thin.
    assert '"snd:1>2" -> "rcv:2<1";' in dot.stdout
    assert '"fst_1" -> "rcv:2<1" [penwidth="0.5"];' in dot.stdout


def test_channels_output(mt_file):
    res = run(["channels", mt_file])
    assert res.exit_code == 0
    assert res.stdout == (
        "closed: 2->1\nopen: 1->2\nclosed_count: 1\nopen_count: 1\n"
    )


def test_sealable_exit_codes(tmp_path, mt_file):
    assert run(["sealable", mt_file]).exit_code == 0
    res = run(["sealable", _write(tmp_path, "x.lsl", crossed_exchange())])
    assert res.exit_code == 1
    assert res.stdout == "sealable: false\n"


def test_is_seal_exit_codes(mt_file, ack_file):
    res = run(["is-seal", mt_file, ack_file])
    assert res.exit_code == 0
    assert res.stdout == "seals: true\n"
    res = run(["is-seal", mt_file, mt_file])
    assert res.exit_code == 1
    assert res.stdout == "seals: false\n"


def test_seal_writes_plan_and_expand_round_trips(tmp_path, mt_file):
    plan_path = tmp_path / "mt.plan"
    res = run(["seal", mt_file, "-o", str(plan_path)])
    assert res.exit_code == 0
    assert "open_channels: 1" in res.stdout
    assert "transmissions: 2" in res.stdout
    assert plan_path.read_text() == "2 -> 1 [converge-cast]\n1 -> 2 [broadcast]\n"
    expanded = run(["expand", str(plan_path), "-n", "2"])
    assert expanded.exit_code == 0
    q = parse(expanded.stdout)
    check = run(["is-seal", mt_file, _write(tmp_path, "q.lsl", q)])
    assert check.exit_code == 0


def test_expand_process_count_limit(tmp_path, capsys):
    plan = tmp_path / "p.plan"
    plan.write_text("1 -> 2 [broadcast]\n")
    res = run(["expand", str(plan), "-n", str(MAX_PROCESSES)])
    assert res.exit_code == 0
    assert res.stdout.startswith(f"processes {MAX_PROCESSES};\n")
    expanded = tmp_path / "p.lsl"
    expanded.write_text(res.stdout)
    assert run(["check", str(expanded)]) == CliResult(0, "balanced: true\ndeadlock_free: true\n")
    for count in (MAX_PROCESSES + 1, 0):
        assert run(["expand", str(plan), "-n", str(count)]) == CliResult(2, "")
        assert "error: argument -n/--processes: must be at" in capsys.readouterr().err


def test_expand_refuses_a_long_number_with_its_plan_line(tmp_path):
    plan = tmp_path / "long.plan"
    plan.write_text("1 -> 2\n# many digits\n2 -> " + "9" * 5000 + "\n")
    res = run(["expand", str(plan), "-n", "2"])
    assert res == CliResult(2, f"error: plan line 3: process id with 5000 digits exceeds {MAX_PROCESSES}\n")


def test_expand_refuses_non_ascii_digits_with_its_plan_line(tmp_path):
    plan = tmp_path / "arabic.plan"
    plan.write_text("1 -> 2\n\u0661 -> \u0662 [broadcast]\n", encoding="utf-8")
    res = run(["expand", str(plan), "-n", "2"])
    assert res == CliResult(2, "error: plan line 2: cannot parse '\u0661 -> \u0662 [broadcast]'\n")


def test_seal_unsealable(tmp_path):
    res = run(["seal", _write(tmp_path, "x.lsl", crossed_exchange())])
    assert res.exit_code == 1
    assert res.stdout == "sealable: false\n"


def test_seal_large_instance(tmp_path):
    res = run(["seal", _write(tmp_path, "g.lsl", gather_phase(6))])
    assert res.exit_code == 0
    lines = [l for l in res.stdout.splitlines() if "->" in l]
    assert len(lines) < 18


WIDE = (
    "processes 2;\nprogram wide {\n  process 1 {\n" + "    send 2;\n" * 8
    + "  }\n  process 2 {\n" + "    recv 1;\n" * 8 + "  }\n}\n"
)


def test_verify_channels(mt_file):
    res = run(["verify", "channels", mt_file])
    assert res.exit_code == 0
    assert "1->2: AGREE (open)" in res.stdout
    assert "2->1: AGREE (closed)" in res.stdout
    assert res.stdout.endswith("verdict: AGREE\n")


def test_verify_is_seal(mt_file, ack_file):
    res = run(["verify", "is-seal", mt_file, ack_file])
    assert res.exit_code == 0
    assert "static: true" in res.stdout
    assert "oracle: true" in res.stdout


def test_verify_tcc(tmp_path, mt_file):
    res = run(["verify", "tcc", mt_file])
    assert res.exit_code == 0
    assert "static: false" in res.stdout
    empty = tmp_path / "e.lsl"
    empty.write_text("processes 2;\nprogram idle {\n}\n")
    res = run(["verify", "tcc", str(empty)])
    assert res.exit_code == 0
    assert "static: true" in res.stdout


@pytest.mark.parametrize(
    "text, budget, want",
    [
        (MT, None, CliResult(0, "static: false\noracle: false\nverdict: AGREE\n")),
        ("processes 2;\nprogram idle {\n}\n", None, CliResult(0, "static: true\noracle: true\nverdict: AGREE\n")),
        (format_program(deadlocked_pair()), None, CliResult(2, "error: graph has a cycle\n")),
        ("processes 2;\nprogram p { process 1 { send 2; } }\n", None, CliResult(2, "error: unbalanced channel 1->2\n")),
        (WIDE, None, CliResult(0, "static: false\noracle: false\nverdict: AGREE\n")),
        (WIDE, "10", CliResult(3, "error: 362880 candidate matchings, budget allows 10\n")),
    ],
)
def test_verify_tcc_output(tmp_path, text, budget, want):
    # tcc is is-seal against the empty program: answers, refusals and the
    # budget's exit 3 alike.
    path = tmp_path / "p.lsl"
    path.write_text(text)
    argv = ["verify", "tcc", str(path)] + (["--budget", budget] if budget else [])
    assert run(argv) == want


def test_verify_reports_a_disagreement(monkeypatch, mt_file, ack_file):
    # An oracle that flips one answer: the 2->1 probe, and every seal.
    from layerseal import oracle
    channel_open, seals = oracle.oracle_channel_open, oracle.oracle_seals
    monkeypatch.setattr(
        oracle, "oracle_channel_open",
        lambda p, ch, budget: channel_open(p, ch, budget) != (ch == Channel(2, 1)),
    )
    monkeypatch.setattr(oracle, "oracle_seals", lambda p, s, budget: not seals(p, s, budget))
    assert run(["verify", "channels", mt_file]) == CliResult(
        1, "1->2: AGREE (open)\n2->1: DISAGREE (static=closed, oracle=open)\nverdict: DISAGREE\n"
    )
    assert run(["verify", "is-seal", mt_file, ack_file]) == CliResult(
        1, "static: true\noracle: false\nverdict: DISAGREE\n"
    )
    assert run(["verify", "tcc", mt_file]) == CliResult(
        1, "static: false\noracle: true\nverdict: DISAGREE\n"
    )


def test_verify_budget_exhaustion(tmp_path):
    wide = tmp_path / "wide.lsl"
    wide.write_text(WIDE)
    res = run(["verify", "channels", str(wide), "--budget", "10"])
    assert res.exit_code == 3
    assert res.stdout.startswith("error:")


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_verify_budget_below_one_is_usage_error(mt_file, capsys, budget):
    res = run(["verify", "channels", mt_file, "--budget", budget])
    assert res.exit_code == 2
    assert f"error: argument --budget: must be at least 1, not {budget}\n" in capsys.readouterr().err


def test_verify_wrong_arity(mt_file, ack_file):
    res = run(["verify", "tcc", mt_file, ack_file])
    assert res.exit_code == 2
    assert "one program file" in res.stdout
    res = run(["verify", "is-seal", mt_file])
    assert res.exit_code == 2
    assert "takes two program files" in res.stdout


def test_parse_error_reported_with_position(tmp_path):
    bad = tmp_path / "bad.lsl"
    bad.write_text("processes 2;\nprogram p {\n  process 1 { send 1; }\n}\n")
    res = run(["check", str(bad)])
    assert res.exit_code == 2
    assert res.stdout == "error: line 3 col 20: process 1 addresses itself [self-channel]\n"


@pytest.mark.parametrize("count", ["1000000", "9" * 5000])
def test_process_count_over_limit_is_parse_error(tmp_path, count):
    big = tmp_path / "big.lsl"
    big.write_text(f"processes {count};\nprogram p {{ }}\n")
    res = run(["check", str(big)])
    assert res.exit_code == 2
    assert res.stdout.startswith("error: line 1 col 11: process count ")
    assert res.stdout.endswith(" exceeds 100000 [too-many-processes]\n")


def test_cli_import_leaves_the_oracle_unloaded():
    # Every CLI call pays for its imports, and for compiling them where no
    # bytecode is cached: the library loads no ``dataclasses`` and none of
    # the modules it pulls in. ``-S`` keeps site-packages from loading them.
    env = dict(os.environ, PYTHONPATH=str(Path(layerseal.__file__).resolve().parents[1]))
    code = (
        "import sys, layerseal.cli, layerseal\n"
        "heavy = {'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'}\n"
        "assert not heavy & sys.modules.keys(), heavy & sys.modules.keys()\n"
        "assert 'layerseal.oracle' not in sys.modules\n"
        "assert layerseal.oracle_seals is layerseal.oracle.oracle_seals\n"
        "assert 'layerseal.oracle' in sys.modules\n"
        "assert not heavy & sys.modules.keys(), heavy & sys.modules.keys()\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr


def test_each_command_loads_only_the_modules_it_runs(tmp_path, mt_file, ack_file):
    # The package loads no submodule until a name is used, and each command
    # only the analysis it runs. A plain call loads no argparse (nor the
    # gettext it imports); help and usage errors still go through it.
    plan = tmp_path / "plan.txt"
    plan.write_text("1 -> 2\n2 -> 1\n")
    env = dict(os.environ, PYTHONPATH=str(Path(layerseal.__file__).resolve().parents[1]), COLUMNS="80")
    parsing = {"argparse", "gettext"}

    def loaded(code: str) -> tuple[set[str], str, str]:
        code += "\nprint(*sorted(m for m in sys.modules if m.startswith('layerseal.') or m in PARSING))"
        done = subprocess.run(
            [sys.executable, "-S", "-c", f"import sys\nPARSING = {parsing!r}\n" + code],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        out, names = done.stdout[:-1].rpartition("\n")[::2]
        return {m.removeprefix("layerseal.") for m in names.split()}, out, done.stderr

    assert loaded("import layerseal")[0] == set()
    analyses = {"graph", "signature", "sealing", "oracle"}
    cases = {
        ("--version",): analyses,
        ("check", mt_file): {"signature", "sealing", "oracle"},
        ("graph", mt_file): {"signature", "sealing", "oracle"},
        ("sig", mt_file): {"sealing", "oracle"},
        ("sig", mt_file, "--dot"): {"sealing", "oracle"},
        ("channels", mt_file): {"sealing", "oracle"},
        ("sealable", mt_file): {"oracle"},
        ("is-seal", mt_file, ack_file): {"oracle"},
        ("seal", mt_file): {"oracle"},
        ("seal", mt_file, "-o", str(tmp_path / "out.plan")): {"oracle"},
        ("expand", str(plan), "-n", "2"): {"graph", "signature", "oracle"},
        ("verify", "tcc", mt_file, "--budget", "9"): set(),
    }
    for argv, unloaded in cases.items():
        modules, _, _ = loaded(f"from layerseal.cli import run\nprint(run({list(argv)!r}).stdout)")
        assert not modules & (unloaded | parsing), (argv, modules & (unloaded | parsing))
    # An option before the file goes through argparse, and loads no more analyses.
    modules, _, _ = loaded(f"from layerseal.cli import run\nprint(run(['sig', '--dot', {mt_file!r}]).stdout)")
    assert parsing <= modules and not modules & {"sealing", "oracle"}, modules
    # argparse's text, as it reads at 80 columns.
    for argv, code, out, err in (
        (["check", "--help"], 0, (
            "usage: layerseal check [-h] file\n\npositional arguments:\n  file\n\n"
            "options:\n  -h, --help  show this help message and exit\n"
        ), ""),
        (["expand", str(plan)], 2, "", (
            "usage: layerseal expand [-h] -n PROCESSES plan\n"
            "layerseal expand: error: the following arguments are required: -n/--processes\n"
        )),
    ):
        modules, *printed = loaded(f"from layerseal.cli import run\nres = run({argv!r})\nprint(res.stdout, res.exit_code, sep='')")
        assert parsing <= modules and not modules & analyses, (argv, modules)
        assert printed == [f"{out}{code}", err], argv


def test_star_import_gives_every_public_name():
    names: dict = {}
    exec("from layerseal import *", names)
    assert set(layerseal.__all__) <= names.keys()
    assert names["DEFAULT_BUDGET"] is layerseal.oracle.DEFAULT_BUDGET


def test_byte_order_mark_is_dropped_from_files(tmp_path):
    # Some editors start a UTF-8 file with a byte-order mark; it changes no
    # output, not even the position of a parse error.
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    bad = "processes 2;\nprogram p {\n  process 3 { }\n}\n"
    plan = "2 -> 1 [converge-cast]\n1 -> 2 [broadcast]\n"
    for text, command, code in (
        (MT, ["check"], 0),
        (MT, ["sig"], 0),
        (bad, ["check"], 2),
        (plan, ["expand", "-n", "2"], 0),
    ):
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        want = run([command[0], str(plain), *command[1:]])
        assert want.exit_code == code
        assert run([command[0], str(marked), *command[1:]]) == want


def test_missing_file_is_input_error():
    res = run(["check", "/nonexistent/no.lsl"])
    assert res.exit_code == 2
    assert res.stdout.startswith("error:")


def test_mismatched_process_counts_between_files(tmp_path, mt_file):
    three = _write(tmp_path, "three.lsl", message_transmit(1, 2, 3))
    res = run(["is-seal", mt_file, three])
    assert res.exit_code == 2
    assert res.stdout.startswith("error:")


def test_usage_errors_exit_two():
    assert run([]).exit_code == 2
    assert run(["frobnicate"]).exit_code == 2
    assert run(["expand"]).exit_code == 2


@pytest.mark.parametrize(
    "argv, flag",
    [(["expand", "p.plan", "-n", "x"], "-n/--processes"), (["verify", "channels", "f.lsl", "--budget", "x"], "--budget")],
)
def test_a_count_that_is_no_integer_is_a_usage_error(capsys, argv, flag):
    # Counts are ASCII digits, as in programs and plans: no blank, sign,
    # underscore or other script's digit, though ``int`` takes them all.
    for value in ("x", "\u0662", " 2", "+2", "0_2", "\uff12"):
        assert run([*argv[:-1], value]) == CliResult(2, ""), value
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"usage: layerseal {argv[0]} ")
        assert err.endswith(f"error: argument {flag}: invalid int value: {value!r}\n")


# The argvs of the CLI tests, with stand-in file names.
ARGVS = [
    ["check", "mt.lsl"], ["graph", "mt.lsl"], ["graph", "mt.lsl", "--dot"], ["sig", "mt.lsl"],
    ["sig", "mt.lsl", "--dot"], ["sig", "--dot", "mt.lsl"], ["channels", "mt.lsl"], ["sealable", "mt.lsl"],
    ["is-seal", "mt.lsl", "ack.lsl"], ["seal", "mt.lsl"], ["seal", "mt.lsl", "-o", "mt.plan"],
    ["expand", "mt.plan", "-n", "2"], ["expand", "-n", "2", "mt.plan"], ["verify", "channels", "mt.lsl"],
    ["verify", "is-seal", "mt.lsl", "ack.lsl"], ["verify", "tcc", "mt.lsl"], ["verify", "tcc", "mt.lsl", "ack.lsl"],
    ["verify", "channels", "wide.lsl", "--budget", "10"], ["verify", "is-seal", "mt.lsl"],
    [], ["frobnicate"], ["expand"], ["--version"], ["check", "--help"], ["--help"],
]
_LONG = {"-o": "--output", "-n": "--processes"}


def _variants(argv: list[str]) -> list[list[str]]:
    """argv, and the spellings and slips of it that argparse reads its own way."""
    if not argv:
        return [argv, ["-h"], ["--"], ["--vers"]]
    name, *rest = argv
    split = next((k for k, word in enumerate(rest) if word.startswith("-")), len(rest))
    words, opts = rest[:split], rest[split:]
    found = [argv, [name, *opts, *words], [*argv, *opts], [*argv, "-h"], [name, "--", *rest],
             [*argv, "--frob"], [*argv, "-"], [name, *words[:-1], *opts], [name, *words, "x", *opts],
             [name, *words, "", *opts], [name, "bogus", *words[1:], *opts], [*argv, "--version"]]
    for k, word in enumerate(opts):
        if word.startswith("-"):
            flag = _LONG.get(word, word)
            found += [[name, *words, *opts[:k], flag[:-2], *opts[k + 1:]]]
            if k + 1 < len(opts) and not opts[k + 1].startswith("-"):
                found += [[name, *words, *opts[:k], f"{flag}={opts[k + 1]}", *opts[k + 2:]]]
                found += [
                    [name, *words, *opts[:k], word, value, *opts[k + 2:]]
                    for value in ("0", "-1", " 5", "+3", "\u0665", "100001", "x", "-x", "--")
                ]
    return found


def _bench_argvs() -> list[list[str]]:
    # The argvs of the benchmark's ``Cli`` part, which runs one child a call.
    code = "import json, workloads\nprint(json.dumps([op.argv for op in workloads.Cli(1).ops]))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=BENCH_ENV, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_plain_calls_parse_as_argparse_does(capsys):
    # argparse is the reference: ``_plain`` declines an argv, or gives the
    # namespace argparse gives and prints what it prints. Every call the
    # benchmark makes is plain.
    def parsed(parse, argv):
        try:
            ns = parse(argv)
            return None if ns is None else vars(ns), capsys.readouterr()
        except SystemExit as exc:
            return exc.code, capsys.readouterr()

    bench = _bench_argvs()
    assert len(bench) == 11
    plain = 0
    for argv in [v for base in ARGVS + bench for v in _variants(base)]:
        fast = parsed(_plain, argv)
        if fast[0] is not None:
            plain += 1
            assert fast == parsed(_build_parser().parse_args, argv), argv
    for argv in bench:
        assert parsed(_plain, argv)[0] is not None, argv
    assert plain > 50


def test_version_flag_exits_zero(capsys):
    assert run(["--version"]) == CliResult(0, f"layerseal {layerseal.__version__}\n")
    assert capsys.readouterr().out == ""


def test_module_entry_point():
    env = dict(os.environ, PYTHONPATH=str(Path(layerseal.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "layerseal", "--version"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0
    assert done.stdout == f"layerseal {layerseal.__version__}\n"


def test_deadlocking_input_to_sig_is_input_error(tmp_path):
    res = run(["sig", _write(tmp_path, "d.lsl", deadlocked_pair())])
    assert res.exit_code == 2
    assert res.stdout.startswith("error:")


def test_a_deadlocking_program_has_one_message(tmp_path):
    # The static analyses and the oracle refuse it with the same line.
    stuck = _write(tmp_path, "d.lsl", deadlocked_pair())
    for argv in (
        ["sig", stuck], ["channels", stuck], ["sealable", stuck], ["seal", stuck],
        ["is-seal", stuck, stuck], ["verify", "channels", stuck],
        ["verify", "is-seal", stuck, stuck], ["verify", "tcc", stuck],
    ):
        assert run(argv) == CliResult(2, "error: graph has a cycle\n"), argv


def test_bystander_channels(tmp_path):
    res = run(["channels", _write(tmp_path, "b.lsl", bystander_sealable())])
    assert res.exit_code == 0
    assert "closed: 2->3" in res.stdout
    assert "closed: 3->1" in res.stdout
    assert "closed: 3->2" in res.stdout
    assert "open_count: 3" in res.stdout


# The usage line of every subcommand, in the order ``--help`` lists them.
USAGE = {
    "check": "check [-h] file",
    "graph": "graph [-h] [--dot] file",
    "sig": "sig [-h] [--dot] file",
    "channels": "channels [-h] file",
    "sealable": "sealable [-h] file",
    "is-seal": "is-seal [-h] program candidate",
    "seal": "seal [-h] [-o OUTPUT] file",
    "expand": "expand [-h] -n PROCESSES plan",
    "verify": "verify [-h] [--budget BUDGET] {channels,is-seal,tcc} files [files ...]",
}


def test_every_command_is_declared_whole_and_documented(capsys):
    # Every subcommand, and no other, has its usage line, and its help names
    # the help of each option; the top help gives each subcommand a line of
    # help; the README's CLI block lists them all. Help is compared with its
    # line breaks folded, as argparse wraps it to the terminal.
    def help_of(argv):
        res = run([*argv, "--help"])
        assert res.exit_code == 0 and capsys.readouterr().out == ""
        return " ".join(res.stdout.split())

    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(USAGE)
    top = help_of([])
    assert [c.dest for c in sub._choices_actions] == list(USAGE)
    for choice in sub._choices_actions:
        assert choice.help and f"{choice.dest} {choice.help}" in top, choice.dest
    for name, parser in sub.choices.items():
        text = help_of([name])
        assert text.startswith(f"usage: layerseal {USAGE[name]} "), text
        for action in parser._actions:
            if action.option_strings:
                assert action.help and " ".join(action.help.split()) in text, (name, action.dest)
    block = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = block.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    assert re.findall(r"^layerseal (\S+)", block, re.M) == list(USAGE)
