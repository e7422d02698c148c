"""Command line interface.

Output is line oriented and stable: one ``key: value`` pair per line, or DOT
text when ``--dot`` is given, or program/plan text for ``expand`` and
``seal -o``. Exit codes:

* 0: success, and the analysis answered positively where applicable;
* 1: the analysis answered negatively (not balanced, not deadlock-free, not
  sealable, not a seal, oracle disagreement);
* 2: input error (unreadable file, parse error, unbalanced or deadlocking
  program where the analysis requires otherwise, bad process ids);
* 3: oracle budget exceeded.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .errors import (
    BadProcessId,
    BudgetExceeded,
    CyclicGraph,
    ProcessCountMismatch,
    Unbalanced,
    Unsealable,
)
from .graph import deadlock_free, program_graph
from .model import Program, channels_of
from .parser import ParseError, format_program, parse
from .sealing import (
    closed_channels,
    expand_plan,
    format_plan,
    is_seal,
    is_sealable,
    parse_plan,
    seal_signature,
)
from .signature import FirstSend, LastRecv, Signature, compute_signature

__all__ = ["CliResult", "main", "run"]


@dataclass(frozen=True)
class CliResult:
    exit_code: int
    stdout: str


def _load_program(path: str) -> Program:
    return parse(Path(path).read_text(encoding="utf-8"))


def _quote(name: str) -> str:
    return '"' + name.replace('"', '\\"') + '"'


def _dot_program_graph(nodes: list[str], edges: list[tuple[str, str]]) -> str:
    lines = ["digraph program_graph {", "  rankdir=LR;"]
    for name in nodes:
        shape = "box" if name.startswith(("fst_", "lst_")) else "circle"
        lines.append(f"  {_quote(name)} [shape={shape}];")
    for a, b in edges:
        lines.append(f"  {_quote(a)} -> {_quote(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_signature(sig: Signature) -> str:
    # Edges implied by other edges transitively are drawn thin, so the
    # direct causality skeleton stands out. An edge a -> b is implied when
    # some successor of a is a predecessor of b.
    edges = sig.sorted_edges()
    succ: dict = {}
    pred: dict = {}
    for a, b in edges:
        succ.setdefault(a, set()).add(b)
        pred.setdefault(b, set()).add(a)
    lines = ["digraph signature {", "  rankdir=LR;"]
    for node in sig.sorted_nodes():
        shape = "circle" if isinstance(node, (FirstSend, LastRecv)) else "box"
        lines.append(f"  {_quote(node.name)} [shape={shape}];")
    for a, b in edges:
        implied = not succ[a].isdisjoint(pred[b])
        attr = ' [penwidth="0.5"]' if implied else ""
        lines.append(f"  {_quote(a.name)} -> {_quote(b.name)}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_check(ns: argparse.Namespace) -> CliResult:
    try:
        free = deadlock_free(_load_program(ns.file))
    except Unbalanced:
        return CliResult(1, "balanced: false\ndeadlock_free: unknown\n")
    text = f"balanced: true\ndeadlock_free: {'true' if free else 'false'}\n"
    return CliResult(0 if free else 1, text)


def _cmd_graph(ns: argparse.Namespace) -> CliResult:
    nodes, edges = program_graph(_load_program(ns.file))
    if ns.dot:
        return CliResult(0, _dot_program_graph(nodes, edges))
    lines = [f"nodes: {len(nodes)}", f"edges: {len(edges)}"]
    lines += [f"node: {name}" for name in nodes]
    lines += [f"edge: {a} -> {b}" for a, b in edges]
    return CliResult(0, "\n".join(lines) + "\n")


def _cmd_sig(ns: argparse.Namespace) -> CliResult:
    sig = compute_signature(_load_program(ns.file))
    if ns.dot:
        return CliResult(0, _dot_signature(sig))
    nodes, edges = sig.sorted_nodes(), sig.sorted_edges()
    lines = [f"n: {sig.n}", f"nodes: {len(nodes)}", f"edges: {len(edges)}"]
    lines += [f"node: {v.name}" for v in nodes]
    lines += [f"edge: {a.name} -> {b.name}" for a, b in edges]
    return CliResult(0, "\n".join(lines) + "\n")


def _cmd_channels(ns: argparse.Namespace) -> CliResult:
    p = _load_program(ns.file)
    closed = closed_channels(p)
    all_pairs = [(c.src, c.dst) for c in channels_of(p.n)]
    open_pairs = [pair for pair in all_pairs if pair not in closed.edges]
    lines = [f"closed: {i}->{j}" for i, j in sorted(closed.edges)]
    lines += [f"open: {i}->{j}" for i, j in open_pairs]
    lines.append(f"closed_count: {len(closed.edges)}")
    lines.append(f"open_count: {len(open_pairs)}")
    return CliResult(0, "\n".join(lines) + "\n")


def _cmd_sealable(ns: argparse.Namespace) -> CliResult:
    ok = is_sealable(_load_program(ns.file))
    return CliResult(0 if ok else 1, f"sealable: {'true' if ok else 'false'}\n")


def _cmd_is_seal(ns: argparse.Namespace) -> CliResult:
    p = _load_program(ns.program)
    q = _load_program(ns.candidate)
    ok = is_seal(p, q)
    return CliResult(0 if ok else 1, f"seals: {'true' if ok else 'false'}\n")


def _cmd_seal(ns: argparse.Namespace) -> CliResult:
    sig = compute_signature(_load_program(ns.file))
    open_count = len(sig.open_channels())
    try:
        plan = seal_signature(sig)
    except Unsealable:
        return CliResult(1, "sealable: false\n")
    text = format_plan(plan)
    if ns.output is not None:
        Path(ns.output).write_text(text, encoding="utf-8")
    lines = [f"open_channels: {open_count}", f"transmissions: {len(plan.transmissions)}"]
    body = "\n".join(lines) + "\n" + text
    return CliResult(0, body)


def _cmd_expand(ns: argparse.Namespace) -> CliResult:
    plan = parse_plan(Path(ns.plan).read_text(encoding="utf-8"))
    return CliResult(0, format_program(expand_plan(plan, ns.processes)))


def _cmd_verify(ns: argparse.Namespace) -> CliResult:
    # The oracle is loaded here alone, so that no other command pays for it.
    from .oracle import DEFAULT_BUDGET, OracleBudget, oracle_channel_open, oracle_seals, oracle_tcc

    budget = DEFAULT_BUDGET
    if ns.budget is not None:
        budget = OracleBudget(max_matchings=ns.budget, max_events=DEFAULT_BUDGET.max_events)
    lines: list[str] = []
    agree = True
    if ns.mode != "is-seal" and len(ns.files) != 1:
        raise ValueError(f"verify {ns.mode} takes one program file")
    if ns.mode == "channels":
        p = _load_program(ns.files[0])
        sig = compute_signature(p)
        for ch in channels_of(p.n):
            static_open = sig.leaves_open(ch)
            oracle_open = oracle_channel_open(p, ch, budget)
            same = static_open == oracle_open
            agree &= same
            state = "open" if static_open else "closed"
            if same:
                lines.append(f"{ch}: AGREE ({state})")
            else:
                lines.append(
                    f"{ch}: DISAGREE (static={state},"
                    f" oracle={'open' if oracle_open else 'closed'})"
                )
    elif ns.mode == "is-seal":
        if len(ns.files) != 2:
            raise ValueError("verify is-seal takes two program files")
        p = _load_program(ns.files[0])
        q = _load_program(ns.files[1])
        static = is_seal(p, q)
        dynamic = oracle_seals(p, q, budget)
        agree = static == dynamic
        lines.append(f"static: {'true' if static else 'false'}")
        lines.append(f"oracle: {'true' if dynamic else 'false'}")
    else:  # tcc
        p = _load_program(ns.files[0])
        static = p.event_count == 0
        dynamic = oracle_tcc(p, budget)
        agree = static == dynamic
        lines.append(f"static: {'true' if static else 'false'}")
        lines.append(f"oracle: {'true' if dynamic else 'false'}")
    lines.append(f"verdict: {'AGREE' if agree else 'DISAGREE'}")
    return CliResult(0 if agree else 1, "\n".join(lines) + "\n")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="layerseal",
        description="Sealing analysis for layered message-passing programs.",
    )
    top.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    s = sub.add_parser("check", help="report balance and deadlock freedom")
    s.add_argument("file")
    s.set_defaults(handler=_cmd_check)

    s = sub.add_parser("graph", help="print the program graph")
    s.add_argument("file")
    s.add_argument("--dot", action="store_true", help="emit DOT instead of key: value lines")
    s.set_defaults(handler=_cmd_graph)

    s = sub.add_parser("sig", help="print the signature")
    s.add_argument("file")
    s.add_argument("--dot", action="store_true", help="emit DOT instead of key: value lines")
    s.set_defaults(handler=_cmd_sig)

    s = sub.add_parser("channels", help="list closed and open channels")
    s.add_argument("file")
    s.set_defaults(handler=_cmd_channels)

    s = sub.add_parser("sealable", help="decide whether any seal exists")
    s.add_argument("file")
    s.set_defaults(handler=_cmd_sealable)

    s = sub.add_parser("is-seal", help="decide whether the second program seals the first")
    s.add_argument("program")
    s.add_argument("candidate")
    s.set_defaults(handler=_cmd_is_seal)

    s = sub.add_parser("seal", help="synthesize a seal plan")
    s.add_argument("file")
    s.add_argument("-o", "--output", help="also write the plan to this file")
    s.set_defaults(handler=_cmd_seal)

    s = sub.add_parser("expand", help="expand a seal plan into program text")
    s.add_argument("plan")
    s.add_argument("-n", "--processes", type=int, required=True, help="process count")
    s.set_defaults(handler=_cmd_expand)

    s = sub.add_parser(
        "verify",
        help="cross-check a static analysis against the brute-force oracle",
    )
    s.add_argument("mode", choices=["channels", "is-seal", "tcc"])
    s.add_argument("files", nargs="+")
    s.add_argument("--budget", type=int, help="cap on enumerated matchings")
    s.set_defaults(handler=_cmd_verify)

    return top


def run(argv: list[str]) -> CliResult:
    """Execute one invocation; never raises for user errors."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return CliResult(code, "")
    try:
        return ns.handler(ns)
    except ParseError as exc:
        return CliResult(
            2,
            f"error: line {exc.span.line} col {exc.span.column}:"
            f" {exc.message} [{exc.kind.value}]\n",
        )
    except BudgetExceeded as exc:
        return CliResult(3, f"error: {exc}\n")
    except (
        Unbalanced,
        CyclicGraph,
        ProcessCountMismatch,
        BadProcessId,
        ValueError,
        OSError,
    ) as exc:
        return CliResult(2, f"error: {exc}\n")


def main() -> None:
    result = run(sys.argv[1:])
    if result.stdout:
        sys.stdout.write(result.stdout)
    sys.exit(result.exit_code)
