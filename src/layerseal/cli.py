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
from typing import Callable

from . import __version__
from .errors import BadProcessId, BudgetExceeded, CyclicGraph, ProcessCountMismatch, Unbalanced, Unsealable
from .model import Program, Record, channels_of, empty_program, setfield
from .parser import MAX_PROCESSES, ParseError, format_program, parse

# Each command imports the analyses it runs: a call loads, and where no
# bytecode is cached compiles, only those.

__all__ = ["CliResult", "main", "run"]

# ``key: value`` pairs, one a line.
_Lines = list[tuple[object, object]]


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


def _answer(ok: bool, lines: _Lines) -> CliResult:
    """The ``key: value`` lines, a bool value as ``true`` or ``false``, with
    exit 0 for a positive answer and 1 for a negative one."""
    text = "".join(f"{k}: {str(v).lower() if isinstance(v, bool) else v}\n" for k, v in lines)
    return CliResult(0 if ok else 1, text)


def _listing(head: _Lines, nodes: list[str], edges: list[tuple[str, str]]) -> CliResult:
    """A graph: ``head``, the counts, the nodes and the edges."""
    lines = [*head, ("nodes", len(nodes)), ("edges", len(edges))]
    lines += [("node", name) for name in nodes]
    lines += [("edge", f"{a} -> {b}") for a, b in edges]
    return _answer(True, lines)


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


def _dot_signature(nodes: list[str], edges: list[tuple[str, str]]) -> str:
    # Edges implied by other edges transitively are drawn thin, so the
    # direct causality skeleton stands out. An edge a -> b is implied when
    # some successor of a is a predecessor of b.
    succ: dict[str, set[str]] = {}
    pred: dict[str, set[str]] = {}
    for a, b in edges:
        succ.setdefault(a, set()).add(b)
        pred.setdefault(b, set()).add(a)
    return _dot("signature", nodes, edges, lambda a, b: not succ[a].isdisjoint(pred[b]))


def _cmd_check(ns: argparse.Namespace) -> CliResult:
    from .graph import deadlock_free
    try:
        free = deadlock_free(_load_program(ns.file))
    except Unbalanced:
        return _answer(False, [("balanced", False), ("deadlock_free", "unknown")])
    return _answer(free, [("balanced", True), ("deadlock_free", free)])


def _cmd_graph(ns: argparse.Namespace) -> CliResult:
    from .graph import program_graph
    nodes, edges = program_graph(_load_program(ns.file))
    if ns.dot:
        return CliResult(0, _dot("program_graph", nodes, edges))
    return _listing([], nodes, edges)


def _cmd_sig(ns: argparse.Namespace) -> CliResult:
    from .signature import compute_signature
    sig = compute_signature(_load_program(ns.file))
    nodes = [v.name for v in sig.nodes]
    edges = [(a.name, b.name) for a, b in sig.edges]
    if ns.dot:
        return CliResult(0, _dot_signature(nodes, edges))
    return _listing([("n", sig.n)], nodes, edges)


def _cmd_channels(ns: argparse.Namespace) -> CliResult:
    from .signature import compute_signature
    sig = compute_signature(_load_program(ns.file))
    closed = sig.closed_pairs()
    opened = sig.open_channels()
    lines = [("closed", f"{i}->{j}") for i, j in closed] + [("open", ch) for ch in opened]
    return _answer(True, [*lines, ("closed_count", len(closed)), ("open_count", len(opened))])


def _cmd_sealable(ns: argparse.Namespace) -> CliResult:
    from .sealing import is_sealable
    ok = is_sealable(_load_program(ns.file))
    return _answer(ok, [("sealable", ok)])


def _cmd_is_seal(ns: argparse.Namespace) -> CliResult:
    from .sealing import is_seal
    ok = is_seal(_load_program(ns.program), _load_program(ns.candidate))
    return _answer(ok, [("seals", ok)])


def _cmd_seal(ns: argparse.Namespace) -> CliResult:
    from .sealing import format_plan, seal_signature
    from .signature import compute_signature
    sig = compute_signature(_load_program(ns.file))
    try:
        plan = seal_signature(sig)
    except Unsealable:
        return _answer(False, [("sealable", False)])
    text = format_plan(plan)
    if ns.output is not None:
        with open(ns.output, "w", encoding="utf-8") as f:
            f.write(text)
    head = f"open_channels: {len(sig.open_channels())}\ntransmissions: {len(plan.transmissions)}\n"
    return CliResult(0, head + text)


def _cmd_expand(ns: argparse.Namespace) -> CliResult:
    from .sealing import expand_plan, parse_plan
    plan = parse_plan(_read(ns.plan))
    return CliResult(0, format_program(expand_plan(plan, ns.processes)))


def _cmd_verify(ns: argparse.Namespace) -> CliResult:
    from .oracle import DEFAULT_BUDGET, OracleBudget, oracle_channel_open, oracle_seals, oracle_tcc
    from .sealing import is_seal
    from .signature import compute_signature
    budget = DEFAULT_BUDGET if ns.budget is None else OracleBudget(max_matchings=ns.budget)
    if ns.mode == "is-seal":
        if len(ns.files) != 2:
            raise ValueError("verify is-seal takes two program files")
    elif len(ns.files) != 1:
        raise ValueError(f"verify {ns.mode} takes one program file")
    p = _load_program(ns.files[0])
    lines: _Lines = []
    if ns.mode == "channels":
        opened = set(compute_signature(p).open_channels())
        agree = True
        for ch in channels_of(p.n):
            static, oracle = ch in opened, oracle_channel_open(p, ch, budget)
            state = "open" if static else "closed"
            if static == oracle:
                lines.append((ch, f"AGREE ({state})"))
            else:
                agree = False
                other = "open" if oracle else "closed"
                lines.append((ch, f"DISAGREE (static={state}, oracle={other})"))
    else:
        if ns.mode == "is-seal":
            q = _load_program(ns.files[1])
            static, oracle = is_seal(p, q), oracle_seals(p, q, budget)
        else:  # tcc
            oracle = oracle_tcc(p, budget)
            static = is_seal(p, empty_program(p.n))
        agree = static == oracle
        lines += [("static", static), ("oracle", oracle)]
    lines.append(("verdict", "AGREE" if agree else "DISAGREE"))
    return _answer(agree, lines)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="layerseal",
        description="Sealing analysis for layered message-passing programs.",
    )
    top.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    def command(
        name: str, handler: Callable[[argparse.Namespace], CliResult], help: str, *positionals: str
    ) -> argparse.ArgumentParser:
        s = sub.add_parser(name, help=help)
        for positional in positionals:
            s.add_argument(positional)
        s.set_defaults(handler=handler)
        return s

    command("check", _cmd_check, "report balance and deadlock freedom", "file")
    for s in (
        command("graph", _cmd_graph, "print the program graph", "file"),
        command("sig", _cmd_sig, "print the signature", "file"),
    ):
        s.add_argument("--dot", action="store_true", help="emit DOT instead of key: value lines")
    command("channels", _cmd_channels, "list closed and open channels", "file")
    command("sealable", _cmd_sealable, "decide whether any seal exists", "file")
    command(
        "is-seal", _cmd_is_seal, "decide whether the second program seals the first",
        "program", "candidate",
    )
    command("seal", _cmd_seal, "synthesize a seal plan", "file").add_argument(
        "-o", "--output", help="also write the plan to this file"
    )
    command("expand", _cmd_expand, "expand a seal plan into program text", "plan").add_argument(
        "-n", "--processes", type=_process_count, required=True, help="process count"
    )
    s = command("verify", _cmd_verify, "cross-check a static analysis against the brute-force oracle")
    s.add_argument("mode", choices=["channels", "is-seal", "tcc"])
    s.add_argument("files", nargs="+")
    s.add_argument("--budget", type=_positive, help="cap on candidate matchings")
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
        return CliResult(2, f"error: {exc} [{exc.kind.value}]\n")
    except BudgetExceeded as exc:
        return CliResult(3, f"error: {exc}\n")
    except (Unbalanced, CyclicGraph, ProcessCountMismatch, BadProcessId, ValueError, OSError) as exc:
        return CliResult(2, f"error: {exc}\n")


def main() -> None:
    result = run(sys.argv[1:])
    if result.stdout:
        sys.stdout.write(result.stdout)
    sys.exit(result.exit_code)
