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

import io
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable

from . import __version__
from .errors import BadProcessId, BudgetExceeded, CyclicGraph, ProcessCountMismatch, Unbalanced, Unsealable
from .model import Program, Record, channels_of, empty_program, setfield
from .parser import MAX_PROCESSES, ParseError, format_program, parse

if TYPE_CHECKING:
    import argparse

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


def _positive(text: str, most: int = sys.maxsize) -> int:
    """An integer argument of at least 1 and at most ``most``, in ASCII digits as in programs."""
    try:
        if not (text.isascii() and text.removeprefix("-").isdigit()):
            raise ValueError(text)
        value = int(text)
    except ValueError:
        problem = f"invalid int value: {text!r}"
    else:
        if 1 <= value <= most:
            return value
        problem = f"must be at least 1, not {value}" if value < 1 else f"must be at most {most}, not {value}"
    from argparse import ArgumentTypeError  # only a rejected value loads argparse here
    raise ArgumentTypeError(problem)


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


def _cmd_check(ns: SimpleNamespace) -> CliResult:
    from .graph import deadlock_free
    try:
        free = deadlock_free(_load_program(ns.file))
    except Unbalanced:
        return _answer(False, [("balanced", False), ("deadlock_free", "unknown")])
    return _answer(free, [("balanced", True), ("deadlock_free", free)])


def _cmd_graph(ns: SimpleNamespace) -> CliResult:
    from .graph import program_graph
    nodes, edges = program_graph(_load_program(ns.file))
    if ns.dot:
        return CliResult(0, _dot("program_graph", nodes, edges))
    return _listing([], nodes, edges)


def _cmd_sig(ns: SimpleNamespace) -> CliResult:
    from .signature import compute_signature
    sig = compute_signature(_load_program(ns.file))
    nodes = [v.name for v in sig.nodes]
    edges = [(a.name, b.name) for a, b in sig.edges]
    if ns.dot:
        return CliResult(0, _dot_signature(nodes, edges))
    return _listing([("n", sig.n)], nodes, edges)


def _cmd_channels(ns: SimpleNamespace) -> CliResult:
    from .signature import compute_signature
    sig = compute_signature(_load_program(ns.file))
    closed = sig.closed_pairs()
    opened = sig.open_channels()
    lines = [("closed", f"{i}->{j}") for i, j in closed] + [("open", ch) for ch in opened]
    return _answer(True, [*lines, ("closed_count", len(closed)), ("open_count", len(opened))])


def _cmd_sealable(ns: SimpleNamespace) -> CliResult:
    from .sealing import is_sealable
    ok = is_sealable(_load_program(ns.file))
    return _answer(ok, [("sealable", ok)])


def _cmd_is_seal(ns: SimpleNamespace) -> CliResult:
    from .sealing import is_seal
    ok = is_seal(_load_program(ns.program), _load_program(ns.candidate))
    return _answer(ok, [("seals", ok)])


def _cmd_seal(ns: SimpleNamespace) -> CliResult:
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


def _cmd_expand(ns: SimpleNamespace) -> CliResult:
    from .sealing import expand_plan, parse_plan
    plan = parse_plan(_read(ns.plan))
    return CliResult(0, format_program(expand_plan(plan, ns.processes)))


def _cmd_verify(ns: SimpleNamespace) -> CliResult:
    from .oracle import DEFAULT_BUDGET, OracleBudget, oracle_channel_open, oracle_seals
    from .sealing import is_seal
    from .signature import compute_signature
    budget = DEFAULT_BUDGET if ns.budget is None else OracleBudget(max_matchings=ns.budget)
    want = "two program files" if ns.mode == "is-seal" else "one program file"
    if len(ns.files) != (2 if ns.mode == "is-seal" else 1):
        raise ValueError(f"verify {ns.mode} takes {want}")
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
        # tcc: does the empty program seal p?
        q = _load_program(ns.files[1]) if ns.mode == "is-seal" else empty_program(p.n)
        static, oracle = is_seal(p, q), oracle_seals(p, q, budget)
        agree = static == oracle
        lines += [("static", static), ("oracle", oracle)]
    lines.append(("verdict", "AGREE" if agree else "DISAGREE"))
    return _answer(agree, lines)


# Each subcommand once, read by both parsers: its handler, its help and the
# names and keywords of each ``add_argument`` call.
_FILE = (("file",), {})
_DOT = (("--dot",), dict(action="store_true", help="emit DOT instead of key: value lines"))
_COMMANDS = {
    "check": (_cmd_check, "report balance and deadlock freedom", [_FILE]),
    "graph": (_cmd_graph, "print the program graph", [_FILE, _DOT]),
    "sig": (_cmd_sig, "print the signature", [_FILE, _DOT]),
    "channels": (_cmd_channels, "list closed and open channels", [_FILE]),
    "sealable": (_cmd_sealable, "decide whether any seal exists", [_FILE]),
    "is-seal": (_cmd_is_seal, "decide whether the second program seals the first", [
        (("program",), {}), (("candidate",), {}),
    ]),
    "seal": (_cmd_seal, "synthesize a seal plan", [
        _FILE, (("-o", "--output"), dict(help="also write the plan to this file")),
    ]),
    "expand": (_cmd_expand, "expand a seal plan into program text", [
        (("plan",), {}),
        (("-n", "--processes"), dict(
            type=lambda text: _positive(text, MAX_PROCESSES), required=True, help="process count")),
    ]),
    "verify": (_cmd_verify, "cross-check a static analysis against the brute-force oracle", [
        (("mode",), dict(choices=["channels", "is-seal", "tcc"])),
        (("files",), dict(nargs="+")),
        (("--budget",), dict(type=_positive, help="cap on candidate matchings")),
    ]),
}


def _build_parser() -> argparse.ArgumentParser:
    import argparse
    top = argparse.ArgumentParser(
        prog="layerseal",
        description="Sealing analysis for layered message-passing programs.",
    )
    top.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = top.add_subparsers(dest="command", required=True)
    for name, (handler, help, arguments) in _COMMANDS.items():
        s = sub.add_parser(name, help=help)
        for names, keywords in arguments:
            s.add_argument(*names, **keywords)
        s.set_defaults(handler=handler)
    return top


def _plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives a plain call: a command, its positionals,
    then its options spelled in full, each value a word of its own. Any other
    argv gives None, and ``--version`` alone writes what argparse does."""
    if argv == ["--version"]:
        sys.stdout.write(f"layerseal {__version__}\n")
        raise SystemExit(0)
    if not argv or argv[0] not in _COMMANDS:
        return None
    handler, _, arguments = _COMMANDS[argv[0]]
    split = next((k for k, word in enumerate(argv) if word.startswith("-")), len(argv))
    words, rest = argv[1:split], iter(argv[split:])
    ns, flags = {"command": argv[0], "handler": handler}, {}
    for names, keywords in arguments:
        dest = names[-1].lstrip("-")  # as argparse derives it
        if names[0].startswith("-"):
            flags.update(dict.fromkeys(names, (dest, keywords)))
            ns[dest] = False if "action" in keywords else None  # store_true, or a value
        elif not words or "choices" in keywords and words[0] not in keywords["choices"]:
            return None
        else:
            ns[dest], words = (words, []) if "nargs" in keywords else (words[0], words[1:])
    for word in rest:
        if word not in flags:
            return None
        dest, keywords = flags[word]
        if "action" in keywords:
            ns[dest] = True
        elif (value := next(rest, "-")).startswith("-"):
            return None
        else:
            try:
                ns[dest] = keywords.get("type", str)(value)
            except Exception:  # argparse converts it again, and reports or raises alike
                return None
    if words or any(keywords.get("required") and ns[dest] is None for dest, keywords in flags.values()):
        return None
    return SimpleNamespace(**ns)


def run(argv: list[str]) -> CliResult:
    """Execute one invocation, all its output in ``stdout``; never raises for user errors."""
    stdout, sys.stdout = sys.stdout, io.StringIO()  # both parsers print --version and --help
    try:
        ns = _plain(argv) or _build_parser().parse_args(argv, SimpleNamespace())
    except SystemExit as exc:
        return CliResult(exc.code if isinstance(exc.code, int) else 2, sys.stdout.getvalue())
    finally:
        sys.stdout = stdout
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
    sys.stdout.write(result.stdout)
    sys.exit(result.exit_code)
