"""The benchmark's workloads.

Each workload turns the seed into a fixed list of ops. A pass runs every op
once, in order, one at a time (a closed loop with one client). Each op
returns a verdict text; the harness compares it with the text the reference
(``reference.py``) predicts and, for inputs that do not depend on the seed,
with the digest committed in ``expected.json``.

There are two workloads. ``static`` runs the static analyses, in process on
large-n programs (the ``wide`` part) and on layered pipelines (``layered``),
and from the shell (``cli``); the oracle is idle there. ``differential``
checks small programs against the oracle, which does most of its work. A
planned change to the oracle shows on ``differential`` alone, a change to
causality, composition or sealing mostly on ``static``; BENCHMARK.json says
why each was chosen.
"""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys
from pathlib import Path

import programs as P
import reference as R


class Op:
    """One unit of a workload. ``fixed`` ops do not depend on the seed;
    ``child`` ops do their work in a child process."""

    def __init__(self, name: str, fixed: bool, child: bool = False, **data) -> None:
        self.name = name
        self.fixed = fixed
        self.child = child
        self.__dict__.update(data)


def _chans(chs) -> str:
    return " ".join(f"{i}->{j}" for i, j in chs)


def _flag(value: bool) -> str:
    return "true" if value else "false"


def _check_signature(sig, prog: P.Prog) -> list[str]:
    nodes = {v.name for v in sig.nodes}
    edges = {(a.name, b.name) for a, b in sig.edges}
    ref_nodes, ref_edges = R.Diagram(prog).signature()
    if nodes != set(ref_nodes) or edges != ref_edges:
        return [f"signature differs from the reference: {len(nodes)} nodes, {len(edges)} edges;"
                f" expected {len(ref_nodes)} and {len(ref_edges)}"]
    return []


class Workload:
    """A fixed list of ``ops`` made from the seed, and how to run and check
    one op. ``scale`` shrinks every size, for the harness self-test.

    ``part`` names the op list; the digests in ``expected.json`` are keyed
    by it and the op name.
    """

    part: str
    tail_percentile: int

    def setup(self, lib, workdir: Path) -> None:
        """Per-run set-up, after a fresh import of the library ``lib``."""
        self.lib = lib

    def run(self, op: Op, t):
        """The timed op; returns its raw results."""
        raise NotImplementedError

    def after(self, op: Op, raw, t) -> list[str]:
        """Untimed cross-checks run on the first and on traced passes."""
        return []

    def verdict(self, op: Op, raw) -> str:
        raise NotImplementedError

    def expected(self, op: Op) -> str:
        """The verdict the reference predicts."""
        raise NotImplementedError

    def deep_check(self, op: Op, raw) -> list[str]:
        """Checks too costly to repeat, run the first time an op runs."""
        return []

    def count(self, op: Op, raw, t) -> None:
        """Sizes for the per-layer metrics, recorded on traced passes."""


def _scaled(k: int, scale: float) -> int:
    return max(2, round(k * scale))


class Wide(Workload):
    """Full pipeline, one program per op: parse, balance and deadlock check,
    signature, closed channels, sealability, seal construction and expansion,
    and is_seal on the plan.

    Gather, relay and ring are the seed-independent families; two seeded
    sparse programs of equal size are the cheapest ops. The empty program,
    the case where the answer is trivial but the cost is n^2, is the
    dearest. Sizes keep one pass of ``Static`` near 3 s, so that each op
    repeats a dozen times in a run.
    """

    part = "wide"

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        rng = random.Random(seed)
        progs = [P.gather(_scaled(7, scale)), P.relay(_scaled(14, scale))]
        progs += [P.ring(_scaled(12, scale), 2), P.empty(_scaled(40, scale))]
        progs += [P.sparse(rng, _scaled(20, scale), _scaled(20, scale), f"sparse{k}") for k in range(2)]
        self.ops = [Op(p.name, not p.name.startswith("sparse"), prog=p, text=P.render(p)) for p in progs]

    def run(self, op: Op, t):
        lib = self.lib
        p = t.call(lib.parser.parse, op.text)
        balanced = t.call(lib.model.is_balanced, p)
        free = t.call(lib.graph.deadlock_free, p)
        sig = t.call(lib.signature.compute_signature, p)
        closed = t.call(lib.sealing.closed_channels, p)
        sealable = t.call(lib.sealing.is_sealable, p)
        plan = seals = None
        if sealable:
            plan = t.call(lib.sealing.construct_seal, p)
            q = t.call(lib.sealing.expand_plan, plan, p.n)
            seals = t.call(lib.sealing.is_seal, p, q)
        return p, balanced, free, sig, closed, sealable, plan, seals

    def verdict(self, op: Op, raw) -> str:
        p, balanced, free, sig, closed, sealable, plan, seals = raw
        opened = [(c.src, c.dst) for c in sig.open_channels()]
        plan_text = self.lib.sealing.format_plan(plan) if plan is not None else "none\n"
        return _wide_text(balanced, free, opened, len(closed.edges), sealable, seals, plan_text)

    def expected(self, op: Op) -> str:
        prog = op.prog
        opened = R.Diagram(prog).open_channels()
        closed = R.closed_edges(prog.n, opened)
        plan = R.plan_text(prog.n, closed)
        seals = None if plan is None else R.seals(prog, P.Prog("seal", prog.n, R.expand(prog.n, plan)))
        return _wide_text(True, True, opened, len(closed), plan is not None, seals, plan or "none\n")

    def deep_check(self, op: Op, raw) -> list[str]:
        p, _, _, sig, _, sealable, plan, _ = raw
        n = op.prog.n
        problems = _check_signature(sig, op.prog)
        opened = len(sig.open_channels())
        if op.name.startswith("empty") and (opened or not sealable):
            problems.append("the empty program must have no open channel and be sealable")
        if op.name.startswith("gather") and opened != (n - 1) ** 2:
            problems.append(f"gather_phase must leave (n-1)^2 = {(n - 1) ** 2} channels open, not {opened}")
        if plan is not None and n > 0 and len(plan.transmissions) >= 3 * n:
            problems.append(f"plan has {len(plan.transmissions)} transmissions, not fewer than 3n = {3 * n}")
        return problems

    def count(self, op: Op, raw, t) -> None:
        p, _, _, sig, closed, _, plan, _ = raw
        t.count("parser.bytes", len(op.text))
        t.count("model.events", op.prog.events)
        t.count("signature.nodes", len(sig.nodes))
        t.count("signature.edges", len(sig.edges))
        t.count("sealing.open_channels", p.n * (p.n - 1) - len(closed.edges))
        if plan is not None:
            t.count("sealing.plan_transmissions", len(plan.transmissions))
            t.count("sealing.plan_over_3n", len(plan.transmissions) / (3 * p.n) if p.n else 0.0)


def _wide_text(balanced, free, opened, closed_count, sealable, seals, plan_text) -> str:
    return (
        f"balanced: {_flag(balanced)}\ndeadlock_free: {_flag(free)}\n"
        f"open: {_chans(opened)}\nclosed_count: {closed_count}\n"
        f"sealable: {_flag(sealable)}\nseals: {'none' if seals is None else _flag(seals)}\n"
        f"plan:\n{plan_text}"
    )


class Layered(Workload):
    """One pipeline per op: parse every layer, take each layer's signature,
    left-fold ``signature_compose``, layer the programs, run is_seal at every
    boundary and read the composite's open channels. The direct signature of
    the layered program is computed after the op, as the cross-check, on the
    first pass and on traced passes.
    """

    part = "layered"

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        rng = random.Random(seed)
        self.ops = []
        for k in range(4):
            n, count = 6 + k % 2, _scaled(20 + k, scale)
            layers = [P.shuffled(rng, n, 4, f"l{k}_{i}") for i in range(count)]
            self.ops.append(Op(f"pipeline{k}", False, layers=layers, texts=[P.render(x) for x in layers]))

    def run(self, op: Op, t):
        lib = self.lib
        layers = [t.call(lib.parser.parse, text) for text in op.texts]
        sigs = [t.call(lib.signature.compute_signature, x) for x in layers]
        composite = sigs[0]
        whole = layers[0]
        for x, sig in zip(layers[1:], sigs[1:]):
            composite = t.call(lib.signature.signature_compose, composite, sig)
            whole = t.call(lib.model.layer, whole, x)
        seals = [t.call(lib.sealing.is_seal, a, b) for a, b in zip(layers, layers[1:])]
        return composite, whole, seals, composite.open_channels()

    def after(self, op: Op, raw, t) -> list[str]:
        composite, whole = raw[0], raw[1]
        direct = t.call_as("signature.direct", self.lib.signature.compute_signature, whole)
        if not self.lib.signature.signature_equal(composite, direct):
            return ["composed signature differs from the direct signature"]
        return []

    def verdict(self, op: Op, raw) -> str:
        _, _, seals, opened = raw
        return _layered_text(seals, [(c.src, c.dst) for c in opened])

    def expected(self, op: Op) -> str:
        seals = [R.seals(a, b) for a, b in zip(op.layers, op.layers[1:])]
        return _layered_text(seals, R.Diagram(_whole(op.layers)).open_channels())

    def deep_check(self, op: Op, raw) -> list[str]:
        return _check_signature(raw[0], _whole(op.layers))

    def count(self, op: Op, raw, t) -> None:
        t.count("parser.bytes", sum(len(x) for x in op.texts))
        t.count("model.events", sum(x.events for x in op.layers))
        t.count("signature.nodes", len(raw[0].nodes))
        t.count("signature.edges", len(raw[0].edges))
        t.count("sealing.open_channels", len(raw[3]))


def _whole(layers: list[P.Prog]) -> P.Prog:
    whole = layers[0]
    for x in layers[1:]:
        whole = whole.then(x, "whole")
    return whole


def _layered_text(seals, opened) -> str:
    return f"seals: {''.join('1' if s else '0' for s in seals)}\nopen: {_chans(opened)}\n"


class Differential(Workload):
    """One pair (p, s) per op: is_seal against oracle_seals, and the static
    open channels of p against oracle_channel_open on every channel.

    Sizes keep every oracle world within the default budget of 24 events.
    A pass of 240 pairs takes 2 to 3 s, so that each pair repeats some
    fifteen times in a run.
    """

    part = "differential"
    # The seed decides which pairs are dear: p99 rests on the two or three
    # dearest and swung with the seed by a third; p95 rests on twelve.
    tail_percentile = 95
    # (n, transmissions in p, in s), in ascending cost, so that the median op
    # falls inside the middle shape. Larger shapes give a few pairs that cost
    # a hundred times the median, which makes the pass time depend on the seed.
    SHAPES = [(2, 2, 2), (3, 3, 2), (4, 3, 2), (4, 3, 3), (4, 4, 2)]

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        rng = random.Random(seed)
        self.ops = []
        for k in range(max(4, round(240 * scale))):
            n, tp, ts = self.SHAPES[k % len(self.SHAPES)]
            p = P.shuffled(rng, n, tp, "p")
            s = P.shuffled(rng, n, ts, "s")
            self.ops.append(Op(f"pair{k}", False, p=p, s=s, texts=(P.render(p), P.render(s))))

    def setup(self, lib, workdir: Path) -> None:
        self.lib = lib
        for op in self.ops:
            op.lp, op.ls = (lib.parser.parse(text) for text in op.texts)
            op.channels = lib.model.channels_of(op.p.n)

    def run(self, op: Op, t):
        lib = self.lib
        static = t.call(lib.sealing.is_seal, op.lp, op.ls)
        oracle = self._oracle(t, lib.oracle.oracle_seals, op.lp, op.ls)
        closed = t.call(lib.sealing.closed_channels, op.lp)
        oracle_open = [self._oracle(t, lib.oracle.oracle_channel_open, op.lp, ch) for ch in op.channels]
        static_open = [(c.src, c.dst) for c in op.channels if (c.src, c.dst) not in closed.edges]
        return static, oracle, static_open, oracle_open

    def _oracle(self, t, fn, *args):
        try:
            return t.call(fn, *args)
        except self.lib.errors.BudgetExceeded:
            t.count("oracle.refused", 1)
            return "refused"

    def verdict(self, op: Op, raw) -> str:
        static, oracle, static_open, oracle_open = raw
        found = [
            f"{c.src}->{c.dst}" + ("" if v is True else f"?{v}")
            for c, v in zip(op.channels, oracle_open)
            if v is not False
        ]
        return _differential_text(static, oracle, _chans(static_open), " ".join(found))

    def expected(self, op: Op) -> str:
        seals = R.seals(op.p, op.s)
        opened = R.Diagram(op.p).open_channels()
        return _differential_text(seals, seals, _chans(opened), _chans(opened))

    def count(self, op: Op, raw, t) -> None:
        n, ep, es = op.p.n, op.p.events, op.s.events
        t.count("model.events", ep + es)
        t.count("oracle.calls", 1 + len(op.channels))
        t.count("oracle.world_events", ep + es + n * (n - 1))
        for _ in op.channels:
            t.count("oracle.world_events", ep + 1)
        t.count("sealing.open_channels", len(raw[2]))


def _differential_text(static, oracle, static_open: str, oracle_open: str) -> str:
    oracle = oracle if isinstance(oracle, str) else _flag(oracle)
    return (
        f"is_seal: {_flag(static)}\noracle_seals: {oracle}\n"
        f"open: {static_open}\noracle_open: {oracle_open}\n"
    )


class Cli(Workload):
    """One child process per op: every subcommand, plus ``--version``, on
    program files written at set-up."""

    part = "cli"

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        rng = random.Random(seed)
        while True:
            pr, sr = P.shuffled(rng, 3, 4, "pair_p"), P.shuffled(rng, 3, 3, "pair_s")
            # A pair on which is_seal answers true exercises the plan path.
            if R.seals(pr, sr):
                break
        self.progs = {
            "gather": P.gather(_scaled(8, scale)),
            "relay": P.relay(_scaled(16, scale)),
            "ring": P.ring(_scaled(8, scale), 2),
            "empty": P.empty(_scaled(24, scale)),
            "sparse": P.sparse(rng, _scaled(12, scale), _scaled(12, scale), "sparse"),
            "pair_p": pr,
            "pair_s": sr,
        }
        sparse = self.progs["sparse"]
        self.plan = R.plan_text(sparse.n, R.closed_edges(sparse.n, R.Diagram(sparse).open_channels()))
        calls = [
            ("startup", ["--version"]),
            ("check", ["check", "gather"]),
            ("graph", ["graph", "relay"]),
            ("sig", ["sig", "ring"]),
            ("sig_dot", ["sig", "gather", "--dot"]),
            ("channels", ["channels", "gather"]),
            ("sealable", ["sealable", "empty"]),
            ("is_seal", ["is-seal", "pair_p", "pair_s"]),
            ("seal", ["seal", "relay"]),
            ("expand", ["expand", "sparse.plan", "-n", str(sparse.n)]),
            ("verify", ["verify", "is-seal", "pair_p", "pair_s"]),
        ]
        fixed = {"gather", "relay", "ring", "empty"}
        self.ops = []
        for kind, roles in calls:
            # Files are named after their programs, so that op names, and
            # the digests keyed by them, carry the program sizes.
            argv = [self.progs[a].name if a in self.progs else a for a in roles]
            fixed_op = all(a in fixed for a in roles if a in self.progs or a.endswith(".plan"))
            self.ops.append(Op(f"{kind}:{' '.join(argv)}", fixed_op, True, kind=kind, argv=argv, roles=roles))

    def setup(self, lib, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = workdir
        for prog in self.progs.values():
            (workdir / prog.name).write_text(P.render(prog), encoding="utf-8")
        (workdir / "sparse.plan").write_text(self.plan or "", encoding="utf-8")
        self.env = dict(os.environ, PYTHONPATH=str(Path(lib.__file__).resolve().parents[1]))

    def run(self, op: Op, t):
        cmd = [sys.executable, "-c", "from layerseal.cli import main; main()", *op.argv]
        done = t.call_as(
            f"cli.{op.kind}", subprocess.run, cmd,
            cwd=self.workdir, env=self.env, capture_output=True, text=True, timeout=120,
        )
        return done.returncode, done.stdout

    def verdict(self, op: Op, raw) -> str:
        code, out = raw
        if op.kind == "startup" and re.fullmatch(r"layerseal [0-9][^\s]*\n", out):
            out = "layerseal VERSION\n"
        return f"exit: {code}\n{out}"

    def expected(self, op: Op) -> str:
        kind, argv = op.kind, op.roles
        progs = self.progs
        if kind == "startup":
            return "exit: 0\nlayerseal VERSION\n"
        if kind == "expand":
            n = int(argv[-1])
            return "exit: 0\n" + P.render(P.Prog("seal", n, R.expand(n, self.plan)))
        prog = progs[argv[1] if kind != "verify" else argv[2]]
        d = R.Diagram(prog)
        if kind == "check":
            return "exit: 0\nbalanced: true\ndeadlock_free: true\n"
        if kind == "graph":
            return "exit: 0\n" + _graph_text(prog)
        if kind in ("sig", "sig_dot"):
            nodes, edges = d.signature()
            text = _sig_dot(nodes, edges) if kind == "sig_dot" else _sig_text(prog.n, nodes, edges)
            return "exit: 0\n" + text
        opened = d.open_channels()
        closed = R.closed_edges(prog.n, opened)
        if kind == "channels":
            lines = [f"closed: {i}->{j}" for i, j in sorted(closed)]
            lines += [f"open: {i}->{j}" for i, j in opened]
            lines += [f"closed_count: {len(closed)}", f"open_count: {len(opened)}"]
            return "exit: 0\n" + "".join(line + "\n" for line in lines)
        if kind == "sealable":
            ok = R.sealable(prog.n, closed)
            return f"exit: {0 if ok else 1}\nsealable: {_flag(ok)}\n"
        if kind == "seal":
            plan = R.plan_text(prog.n, closed)
            if plan is None:
                return "exit: 1\nsealable: false\n"
            return f"exit: 0\nopen_channels: {len(opened)}\ntransmissions: {plan.count(chr(10))}\n{plan}"
        if kind == "is_seal":
            ok = R.seals(prog, progs[argv[2]])
            return f"exit: {0 if ok else 1}\nseals: {_flag(ok)}\n"
        if argv[1] == "channels":
            lines = [
                f"{i}->{j}: AGREE ({'open' if (i, j) in opened else 'closed'})"
                for i in range(1, prog.n + 1)
                for j in range(1, prog.n + 1)
                if i != j
            ]
            return "exit: 0\n" + "".join(line + "\n" for line in lines) + "verdict: AGREE\n"
        ok = _flag(R.seals(prog, progs[argv[3]]))
        return f"exit: 0\nstatic: {ok}\noracle: {ok}\nverdict: AGREE\n"

    def count(self, op: Op, raw, t) -> None:
        t.count("cli.stdout_bytes", len(raw[1].encode()))


def _graph_text(prog: P.Prog) -> str:
    def key(name: str) -> tuple[int, int, int]:
        kind, proc, *rest = name.replace("_", ":").split(":")
        return (int(proc), {"fst": 0, "s": 1, "r": 1, "lst": 2}[kind], int(rest[0]) if rest else 0)

    nodes, edges = [], []
    sends: dict[tuple[int, int], list[str]] = {}
    recvs: dict[tuple[int, int], list[str]] = {}
    for proc, seq in enumerate(prog.seqs, start=1):
        prev = f"fst_{proc}"
        nodes += [prev, f"lst_{proc}"]
        for idx, (kind, peer) in enumerate(seq):
            name = f"{kind[0]}:{proc}:{idx}"
            nodes.append(name)
            edges.append((prev, name))
            prev = name
            if kind == "send":
                sends.setdefault((proc, peer), []).append(name)
            else:
                recvs.setdefault((peer, proc), []).append(name)
        edges.append((prev, f"lst_{proc}"))
    for ch, out in sends.items():
        edges += zip(out, recvs[ch])
    lines = [f"nodes: {len(nodes)}", f"edges: {len(edges)}"]
    lines += [f"node: {v}" for v in sorted(nodes, key=key)]
    lines += [f"edge: {a} -> {b}" for a, b in sorted(edges, key=lambda e: (key(e[0]), key(e[1])))]
    return "".join(line + "\n" for line in lines)


def _sig_key(name: str) -> tuple[int, int, int]:
    if name.startswith(("fst_", "lst_")):
        return (0 if name[0] == "f" else 1, int(name[4:]), 0)
    if name.startswith("snd:"):
        i, j = name[4:].split(">")
        return (2, int(i), int(j))
    j, i = name[4:].split("<")
    return (3, int(i), int(j))


def _sorted_sig(nodes, edges):
    return (
        sorted(nodes, key=_sig_key),
        sorted(edges, key=lambda e: (_sig_key(e[0]), _sig_key(e[1]))),
    )


def _sig_text(n: int, nodes, edges) -> str:
    node_list, edge_list = _sorted_sig(nodes, edges)
    lines = [f"n: {n}", f"nodes: {len(node_list)}", f"edges: {len(edge_list)}"]
    lines += [f"node: {v}" for v in node_list]
    lines += [f"edge: {a} -> {b}" for a, b in edge_list]
    return "".join(line + "\n" for line in lines)


def _sig_dot(nodes, edges) -> str:
    node_list, edge_list = _sorted_sig(nodes, edges)
    succ: dict[str, set[str]] = {}
    for a, b in edges:
        succ.setdefault(a, set()).add(b)
    lines = ["digraph signature {", "  rankdir=LR;"]
    for v in node_list:
        lines.append(f'  "{v}" [shape={"box" if v[:4] in ("fst_", "lst_") else "circle"}];')
    for a, b in edge_list:
        # An edge that a two-step path also implies is drawn thin.
        implied = any(b in succ.get(c, ()) for c in succ.get(a, ()) if c != b)
        lines.append(f'  "{a}" -> "{b}"' + (' [penwidth="0.5"]' if implied else "") + ";")
    lines.append("}")
    return "\n".join(lines) + "\n"


class Static(Workload):
    """The ops of ``Wide``, ``Layered`` and ``Cli`` in one list, each run and
    checked by the part it comes from."""

    part = "static"
    # A run repeats each of the 21 ops some twelve times, so 12 or more of
    # its 250 samples lie beyond p95.
    tail_percentile = 95

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.parts = [Wide(seed, scale), Layered(seed, scale), Cli(seed, scale)]
        self.ops = []
        for part in self.parts:
            for op in part.ops:
                op.owner = part
                self.ops.append(op)

    def setup(self, lib, workdir: Path) -> None:
        self.lib = lib
        for part in self.parts:
            part.setup(lib, workdir)

    def run(self, op: Op, t):
        return op.owner.run(op, t)

    def after(self, op: Op, raw, t) -> list[str]:
        return op.owner.after(op, raw, t)

    def verdict(self, op: Op, raw) -> str:
        return op.owner.verdict(op, raw)

    def expected(self, op: Op) -> str:
        return op.owner.expected(op)

    def deep_check(self, op: Op, raw) -> list[str]:
        return op.owner.deep_check(op, raw)

    def count(self, op: Op, raw, t) -> None:
        op.owner.count(op, raw, t)


WORKLOADS = {"static": Static, "differential": Differential}
