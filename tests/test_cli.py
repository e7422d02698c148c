"""Tests for the command line interface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
import layerseal
from layerseal import format_program, message_transmit, parse
from layerseal.cli import run
from progsets import bystander_sealable, crossed_exchange, deadlocked_pair, gather_phase

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


def test_seal_unsealable(tmp_path):
    res = run(["seal", _write(tmp_path, "x.lsl", crossed_exchange())])
    assert res.exit_code == 1
    assert res.stdout == "sealable: false\n"


def test_seal_large_instance(tmp_path):
    res = run(["seal", _write(tmp_path, "g.lsl", gather_phase(6))])
    assert res.exit_code == 0
    lines = [l for l in res.stdout.splitlines() if "->" in l]
    assert len(lines) < 18


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


def test_verify_budget_exhaustion(tmp_path):
    wide = tmp_path / "wide.lsl"
    body = "".join("    send 2;\n" for _ in range(8))
    rbody = "".join("    recv 1;\n" for _ in range(8))
    wide.write_text(
        "processes 2;\nprogram wide {\n  process 1 {\n"
        + body
        + "  }\n  process 2 {\n"
        + rbody
        + "  }\n}\n"
    )
    res = run(["verify", "channels", str(wide), "--budget", "10"])
    assert res.exit_code == 3
    assert res.stdout.startswith("error:")


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
    env = dict(os.environ, PYTHONPATH=str(Path(layerseal.__file__).resolve().parents[1]))
    code = (
        "import sys, layerseal.cli, layerseal\n"
        "assert 'layerseal.oracle' not in sys.modules\n"
        "assert layerseal.oracle_seals is layerseal.oracle.oracle_seals\n"
        "assert 'layerseal.oracle' in sys.modules\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr


def test_star_import_gives_every_public_name():
    names: dict = {}
    exec("from layerseal import *", names)
    assert set(layerseal.__all__) <= names.keys()
    assert names["DEFAULT_BUDGET"] is layerseal.oracle.DEFAULT_BUDGET


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


def test_version_flag_exits_zero():
    assert run(["--version"]).exit_code == 0


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


def test_bystander_channels(tmp_path):
    res = run(["channels", _write(tmp_path, "b.lsl", bystander_sealable())])
    assert res.exit_code == 0
    assert "closed: 2->3" in res.stdout
    assert "closed: 3->1" in res.stdout
    assert "closed: 3->2" in res.stdout
    assert "open_count: 3" in res.stdout
