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
from itertools import filterfalse, permutations
from typing import TYPE_CHECKING, Callable

from . import __version__
from .errors import (
    BadProcessId,
    BudgetExceeded,
    CyclicGraph,
    ProcessCountMismatch,
    Unbalanced,
    Unsealable,
)
from .model import Program, Record, channels_of, setfield
from .parser import MAX_PROCESSES, ParseError, format_program, parse

if TYPE_CHECKING:
    from .signature import Signature

# Each command imports the analyses it runs: a call loads, and where no
# bytecode is cached compiles, only those.

__all__ = ["CliResult", "main", "run"]


class CliResult(Record):
    __slots__ = ("exit_code", "stdout")

    def __init__(self, exit_code: int, stdout: str) -> None:
        setfield(self, "exit_code", exit_code)
        setfield(self, "stdout", stdout)


def _positive(text: str) -> int:
    """An integer argument of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def _process_count(text: str) -> int:
    """A process count a program may declare."""
    value = _positive(text)
    if value > MAX_PROCESSES:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_PROCESSES}, not {value}")
    return value


def _read(path: str) -> str:
    # ``utf-8-sig`` drops a byte-order mark that some editors write first.
    with open(path, encoding="utf-8-sig") as f:
        return f.read()


def _load_program(path: str) -> Program:
    return parse(_read(path))


def _quote(name: str) -> str:
    return '"' + name.replace('"', '\\"') + '"'


def _dot(
    graph: str,
    nodes: list[str],
    edges: list[tuple[str, str]],
    implied: Callable[[str, str], bool] = lambda a, b: False,
) -> str:
    """DOT text: dummies as boxes, events as circles, and each edge that
    ``implied`` marks drawn thin."""
    lines = [f"digraph {graph} {{", "  rankdir=LR;"]
    for name in nodes:
        shape = "box" if name.startswith(("fst_", "lst_")) else "circle"
        lines.append(f"  {_quote(name)} [shape={shape}];")
    for a, b in edges:
        attr = ' [penwidth="0.5"]' if implied(a, b) else ""
        lines.append(f"  {_quote(a)} -> {_quote(b)}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_signature(sig: Signature) -> str:
    # Edges implied by other edges transitively are drawn thin, so the
    # direct causality skeleton stands out. An edge a -> b is implied when
    # some successor of a is a predecessor of b.
    edges = [(a.name, b.name) for a, b in sig.edges]
    succ: dict[str, set[str]] = {}
    pred: dict[str, set[str]] = {}
    for a, b in edges:
        succ.setdefault(a, set()).add(b)
        pred.setdefault(b, set()).add(a)
    nodes = [v.name for v in sig.nodes]
    return _dot("signature", nodes, edges, lambda a, b: not succ[a].isdisjoint(pred[b]))


def _cmd_check(ns: argparse.Namespace) -> CliResult:
    from .graph import deadlock_free
    try:
        free = deadlock_free(_load_program(ns.file))
    except Unbalanced:
        return CliResult(1, "balanced: false\ndeadlock_free: unknown\n")
    text = f"balanced: true\ndeadlock_free: {'true' if free else 'false'}\n"
    return CliResult(0 if free else 1, text)


def _cmd_graph(ns: argparse.Namespace) -> CliResult:
    from .graph import program_graph
    nodes, edges = program_graph(_load_program(ns.file))
    if ns.dot:
        return CliResult(0, _dot("program_graph", nodes, edges))
    lines = [f"nodes: {len(nodes)}", f"edges: {len(edges)}"]
    lines += [f"node: {name}" for name in nodes]
    lines += [f"edge: {a} -> {b}" for a, b in edges]
    return CliResult(0, "\n".join(lines) + "\n")


def _cmd_sig(ns: argparse.Namespace) -> CliResult:
    from .signature import compute_signature
    sig = compute_signature(_load_program(ns.file))
    if ns.dot:
        return CliResult(0, _dot_signature(sig))
    lines = [f"n: {sig.n}", f"nodes: {len(sig.nodes)}", f"edges: {len(sig.edges)}"]
    lines += [f"node: {v.name}" for v in sig.nodes]
    lines += [f"edge: {a.name} -> {b.name}" for a, b in sig.edges]
    return CliResult(0, "\n".join(lines) + "\n")


def _cmd_channels(ns: argparse.Namespace) -> CliResult:
    from .signature import compute_signature
    sig = compute_signature(_load_program(ns.file))
    closed = list(filterfalse(sig.recvs.__contains__, permutations(range(1, sig.n + 1), 2)))
    opened = sorted(sig.recvs)
    lines = [f"closed: {i}->{j}" for i, j in closed] + [f"open: {i}->{j}" for i, j in opened]
    lines.append(f"closed_count: {len(closed)}")
    lines.append(f"open_count: {len(opened)}")
    return CliResult(0, "\n".join(lines) + "\n")


def _cmd_sealable(ns: argparse.Namespace) -> CliResult:
    from .sealing import is_sealable
    ok = is_sealable(_load_program(ns.file))
    return CliResult(0 if ok else 1, f"sealable: {'true' if ok else 'false'}\n")


def _cmd_is_seal(ns: argparse.Namespace) -> CliResult:
    from .sealing import is_seal
    p = _load_program(ns.program)
    q = _load_program(ns.candidate)
    ok = is_seal(p, q)
    return CliResult(0 if ok else 1, f"seals: {'true' if ok else 'false'}\n")


def _cmd_seal(ns: argparse.Namespace) -> CliResult:
    from .sealing import format_plan, seal_signature
    from .signature import compute_signature
    sig = compute_signature(_load_program(ns.file))
    open_count = len(sig.recvs)
    try:
        plan = seal_signature(sig)
    except Unsealable:
        return CliResult(1, "sealable: false\n")
    text = format_plan(plan)
    if ns.output is not None:
        with open(ns.output, "w", encoding="utf-8") as f:
            f.write(text)
    lines = [f"open_channels: {open_count}", f"transmissions: {len(plan.transmissions)}"]
    body = "\n".join(lines) + "\n" + text
    return CliResult(0, body)


def _cmd_expand(ns: argparse.Namespace) -> CliResult:
    from .sealing import expand_plan, parse_plan
    plan = parse_plan(_read(ns.plan))
    return CliResult(0, format_program(expand_plan(plan, ns.processes)))


def _cmd_verify(ns: argparse.Namespace) -> CliResult:
    from .oracle import DEFAULT_BUDGET, OracleBudget, oracle_channel_open, oracle_seals, oracle_tcc
    from .sealing import is_seal
    from .signature import compute_signature
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
        p, q = map(_load_program, ns.files)
        static, dynamic = is_seal(p, q), oracle_seals(p, q, budget)
    else:  # tcc
        p = _load_program(ns.files[0])
        static, dynamic = p.event_count == 0, oracle_tcc(p, budget)
    if ns.mode != "channels":
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
    s.add_argument(
        "-n", "--processes", type=_process_count, required=True, help="process count"
    )
    s.set_defaults(handler=_cmd_expand)

    s = sub.add_parser(
        "verify",
        help="cross-check a static analysis against the brute-force oracle",
    )
    s.add_argument("mode", choices=["channels", "is-seal", "tcc"])
    s.add_argument("files", nargs="+")
    s.add_argument("--budget", type=_positive, help="cap on candidate matchings")
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
