"""Benchmark of layerseal: one workload per process, checked against an
independent reference.

Usage, from the root of the repository::

    python3 bench/run.py --workload static --seed 1 --seconds 56 --trace 0

Workloads are defined in ``workloads.py``. A run sets up the workload
(import of the library, input generation from the seed, writing of input
files), then runs passes over the workload's fixed list of ops, one op at a
time, as long as another pass fits in ``--seconds``, and checks every
verdict. Set-up is timed again after every pass; ``setup_s`` is the median.

Every time behind an end-to-end metric is scaled to a fixed reference speed
of the host (see ``GAUGES``): ``wall_s`` is the sum over ops of the median
of each op's scaled repeats, ``verdict_p50_ms`` and ``verdict_tail_ms`` are
percentiles of the scaled repeats of all ops.

With ``--trace 0`` every pass is untraced and the last line of stdout holds
the end-to-end metrics. With ``--trace 1`` passes alternate between
untraced and traced; a traced pass records a span around each call into the
library, keeps the spans in memory and writes them out at the end in Chrome
trace format under ``bench/out/``. The last line then holds the per-layer
metrics, each the median over traced passes.

Stdout has three JSON lines: the stamp (machine and input), details (sample
counts, the tail percentile, failures, the gauges' times, and the same
figures unscaled) and the result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
RUSAGE = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)

# Name and unit of every metric; BENCHMARK.json lists the same.
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]
PER_LAYER = [
    ("parser.parse_ms", "ms"),
    ("parser.kbytes_per_s", "kB/s"),
    ("model.layer_ms", "ms"),
    ("model.events", "count"),
    ("graph.deadlock_free_ms", "ms"),
    ("signature.compute_ms", "ms"),
    ("signature.compute_calls", "count"),
    ("signature.compose_ms", "ms"),
    ("signature.compose_calls", "count"),
    ("signature.direct_ms", "ms"),
    ("signature.compose_over_direct", "ratio"),
    ("signature.nodes", "count"),
    ("signature.edges", "count"),
    ("sealing.closed_channels_ms", "ms"),
    ("sealing.is_sealable_ms", "ms"),
    ("sealing.construct_ms", "ms"),
    ("sealing.expand_ms", "ms"),
    ("sealing.is_seal_ms", "ms"),
    ("sealing.open_channels", "count"),
    ("sealing.plan_transmissions", "count"),
    ("sealing.plan_over_3n", "ratio"),
    ("oracle.seals_ms", "ms"),
    ("oracle.channel_open_ms", "ms"),
    ("oracle.calls", "count"),
    ("oracle.world_events", "count"),
    ("oracle.refused", "count"),
    ("oracle.refused_frac", "ratio"),
    ("cli.startup_ms", "ms"),
    ("cli.check_ms", "ms"),
    ("cli.graph_ms", "ms"),
    ("cli.sig_ms", "ms"),
    ("cli.sig_dot_ms", "ms"),
    ("cli.channels_ms", "ms"),
    ("cli.sealable_ms", "ms"),
    ("cli.is_seal_ms", "ms"),
    ("cli.seal_ms", "ms"),
    ("cli.expand_ms", "ms"),
    ("cli.verify_ms", "ms"),
    ("cli.stdout_kb", "kB"),
    ("bench.self_ms", "ms"),
    ("bench.trace_overhead_ms", "ms"),
]


class Tracer:
    """Spans and counters of traced passes; while disabled it only calls
    through. A span is (name, pass, op, start_ns, end_ns); op is None for
    work outside an op."""

    def __init__(self) -> None:
        self.enabled = False
        self.pass_no = 0
        self.op_no: int | None = None
        self.spans: list[tuple[str, int, int | None, int, int]] = []
        self.counters: list[tuple[int, str, float]] = []

    def call(self, fn, *args):
        if not self.enabled:
            return fn(*args)
        return self.call_as(f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}", fn, *args)

    def call_as(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((name, self.pass_no, self.op_no, start, time.perf_counter_ns()))

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counters.append((self.pass_no, name, value))


def load_library():
    """Import layerseal afresh, so that every set-up pays for the import."""
    for name in [m for m in sys.modules if m == "layerseal" or m.startswith("layerseal.")]:
        del sys.modules[name]
    return importlib.import_module("layerseal")


def stamp(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "layerseal").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
    }


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Checker:
    """Compares each op's verdict with the reference: in full the first time
    an op runs, and on later passes with the expected text alone."""

    def __init__(self, name: str, workload) -> None:
        self.name = name
        self.w = workload
        self.expected: dict[int, str] = {}
        path = BENCH / "expected.json"
        self.digests = json.loads(path.read_text()) if path.is_file() else {}
        self.digest_checked = 0

    def check(self, i: int, op, raw, t: Tracer) -> list[str]:
        first = i not in self.expected
        problems = []
        if first or t.enabled:
            problems += self.w.after(op, raw, t)
        verdict = self.w.verdict(op, raw)
        if first:
            self.expected[i] = self.w.expected(op)
            problems += self.w.deep_check(op, raw)
            key = f"{getattr(op, 'owner', self.w).part}/{op.name}"
            if op.fixed and key in self.digests:
                self.digest_checked += 1
                if hashlib.sha256(verdict.encode()).hexdigest() != self.digests[key]:
                    problems.append("verdict differs from the committed digest")
        if verdict != self.expected[i]:
            problems.append(f"verdict differs from the reference:\n{verdict}expected:\n{self.expected[i]}")
        return problems


def measure(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> tuple[dict, dict]:
    """Set up and run one workload; returns (result, details)."""
    import workloads

    workdir = OUT / f"inputs-{os.getpid()}"
    # Set-up times in s, as measured and scaled to the reference speed.
    unscaled_setups: list[float] = []
    setups: list[float] = []

    def set_up():
        start = time.perf_counter()
        lib = load_library()
        w = workloads.WORKLOADS[name](seed, scale)
        w.setup(lib, workdir)
        unscaled_setups.append(time.perf_counter() - start)
        return w

    w = set_up()

    t = Tracer()
    checker = Checker(name, w)
    # times[traced][i]: the run's timings of op i, in ms scaled to the
    # reference speed, on untraced or traced passes; unscaled[i], the same
    # on untraced passes as measured.
    times: dict[bool, list[list[float]]] = {mode: [[] for _ in w.ops] for mode in (False, True)}
    unscaled: list[list[float]] = [[] for _ in w.ops]
    gauged: dict[bool, list[float]] = {False: [], True: []}
    passes = {False: 0, True: 0}
    attempted = failed = 0
    failures: list[str] = []
    deadline = time.perf_counter() + seconds
    try:
        while True:
            pass_start = time.perf_counter()
            traced = trace and passes[False] > passes[True]
            t.enabled = traced
            t.pass_no = passes[False] + passes[True]
            took = []
            gauges: dict[bool, list[float]] = {False: [], True: []}
            for i, op in enumerate(w.ops):
                gauges[op.child].append(time_gauge(op.child))
                t.op_no = i
                start = time.perf_counter_ns()
                try:
                    raw = w.run(op, t)
                    error = None
                except Exception as exc:  # an op that raises is a failed op, not the end of the run
                    error = f"{type(exc).__name__}: {exc}"
                end = time.perf_counter_ns()
                t.op_no = None
                attempted += 1
                took.append((end - start) / 1e6)
                if traced:
                    t.spans.append(("bench.op", t.pass_no, i, start, end))
                if error is None:
                    try:
                        problems = checker.check(i, op, raw, t)
                        if traced:
                            w.count(op, raw, t)
                    except Exception as exc:
                        problems = [f"check raised {type(exc).__name__}: {exc}"]
                else:
                    problems = [error]
                if problems:
                    failed += 1
                    if len(failures) < 5:
                        failures.append(f"{op.name}: " + "; ".join(problems))
            passes[traced] += 1
            # Set-up is timed again after every pass, so that its median
            # samples the whole run as the op times do; the copy is dropped.
            set_up()
            # The pass's times, and the set-ups since the last pass, scaled
            # by the host's speed over the pass as its gauge read it.
            to_reference = {
                child: GAUGES[child][1] / statistics.median(ms)
                for child, ms in gauges.items() if ms
            }
            for i, ms in enumerate(took):
                times[traced][i].append(ms * to_reference[w.ops[i].child])
                if not traced:
                    unscaled[i].append(ms)
            setups += [s * to_reference[False] for s in unscaled_setups[len(setups):]]
            for child, ms in gauges.items():
                gauged[child] += ms
            # Stop when another pass like this one would run past the deadline.
            now = time.perf_counter()
            if now + (now - pass_start) > deadline and (not trace or passes[True]):
                break
    finally:
        for path in workdir.glob("*"):
            path.unlink()
        if workdir.is_dir():
            workdir.rmdir()

    details = {
        "passes": {"untraced": passes[False], "traced": passes[True]},
        "ops_per_pass": len(w.ops),
        "failed_frac": failed / attempted,
        "failures": failures,
        "digest_checked_ops": checker.digest_checked,
        "setup_s_samples": setups,
        "gauge_ms": {
            GAUGES[child][0]: statistics.median(ms) for child, ms in gauged.items() if ms
        },
    }
    if trace:
        metrics = per_layer(t)
        overhead = pass_ms(times[True]) - pass_ms(times[False])
        metrics["bench.trace_overhead_ms"] = overhead
        details["trace_file"] = str(write_trace(name, seed, t).relative_to(ROOT))
        units = dict(PER_LAYER)
    else:
        op_ms = [ms for samples in times[False] for ms in samples]
        q = w.tail_percentile
        tail = percentile(op_ms, q)
        details["verdict_p50_ms"] = {"samples": len(op_ms)}
        details["verdict_tail_ms"] = {
            "percentile": q,
            "samples": len(op_ms),
            "beyond": sum(x > tail for x in op_ms),
        }
        every = [ms for samples in unscaled for ms in samples]
        details["unscaled"] = {
            "setup_s": statistics.median(unscaled_setups),
            "wall_s": pass_ms(unscaled) / 1000,
            "verdict_p50_ms": statistics.median(every),
            "verdict_tail_ms": percentile(every, q),
        }
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": pass_ms(times[False]) / 1000,
            "verdict_p50_ms": statistics.median(op_ms),
            "verdict_tail_ms": tail,
            # The largest process of the run: this one, or a CLI child.
            "peak_rss_mb": max(resource.getrusage(who).ru_maxrss for who in RUSAGE) / 1024,
        }
        units = dict(END_TO_END)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, details


def reference_loop() -> int:
    """Fixed pure-Python work: the gauge of ops that run in process. It
    allocates no object the cycle collector tracks, so the size of the
    program's heap does not change its time."""
    d: dict[int, int] = {}
    x = 0
    for i in range(4000):
        k = i * 7919 % 1021
        d[k] = d.get(k, 0) + i
        x ^= k
    return x


# Gauges of the host's speed, keyed by ``Op.child``: a name, and the time
# in ms the gauge is scaled to.
#
# The host gives the benchmark two cores of a shared machine whose speed
# swings by up to 1.6 times, in CPU time as much as in wall time, in
# stretches of 10 to 30 s and sometimes for longer than a run. Before every
# op its gauge is timed, and every time of a pass is multiplied by the
# gauge's reference time over its median time in that pass, so that a slow
# stretch slows gauge and program alike and cancels. Ops in process follow
# ``reference_loop``; ops in a child process follow the start of a bare
# interpreter, ``python -I -S -c pass``, and not the loop. The reference
# times are about what each gauge took on the machine where the benchmark
# was defined, so the figures read as milliseconds there.
GAUGES = {False: ("reference_loop", 1.0), True: ("bare_interpreter", 15.0)}
BARE_INTERPRETER = [sys.executable, "-I", "-S", "-c", "pass"]


def time_gauge(child: bool) -> float:
    start = time.perf_counter_ns()
    if child:
        subprocess.run(BARE_INTERPRETER, check=True)
    else:
        reference_loop()
    return (time.perf_counter_ns() - start) / 1e6


def percentile(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def pass_ms(times: list[list[float]]) -> float:
    """Time of one pass over the ops: the sum over ops of the median of
    each op's repeats."""
    return sum(statistics.median(samples) for samples in times)


def per_layer(t: Tracer) -> dict[str, float]:
    """Per-layer metrics: each the median over traced passes of its value in
    one pass. Times are totals per pass, except ``cli.*_ms``, the mean time
    of one invocation; sizes are means per op or per returned object."""
    passes: dict[int, dict] = {}
    for name, p, op, start, end in t.spans:
        rec = passes.setdefault(p, {"spans": {}, "counts": {}})
        rec["spans"].setdefault(name, []).append((op, (end - start) / 1e6))
    for p, name, value in t.counters:
        passes[p]["counts"].setdefault(name, []).append(value)

    def one(rec: dict) -> dict[str, float]:
        spans, counts = rec["spans"], rec["counts"]

        def total(*names: str) -> float:
            return sum(ms for n in names for _, ms in spans.get(n, ()))

        def calls(name: str) -> int:
            return len(spans.get(name, ()))

        def mean(name: str) -> float:
            return statistics.fmean(counts[name]) if counts.get(name) else 0.0

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        children = sum(ms for n, s in spans.items() if n != "bench.op" for op, ms in s if op is not None)
        out = {
            "parser.parse_ms": total("parser.parse"),
            "parser.kbytes_per_s": ratio(sum(counts.get("parser.bytes", ())), total("parser.parse")),
            "model.layer_ms": total("model.layer"),
            "model.events": mean("model.events"),
            "graph.deadlock_free_ms": total("model.is_balanced", "graph.deadlock_free"),
            "signature.compute_ms": total("signature.compute_signature"),
            "signature.compute_calls": calls("signature.compute_signature"),
            "signature.compose_ms": total("signature.signature_compose"),
            "signature.compose_calls": calls("signature.signature_compose"),
            "signature.direct_ms": total("signature.direct"),
            "signature.compose_over_direct": ratio(
                total("signature.signature_compose"), total("signature.direct")
            ),
            "signature.nodes": mean("signature.nodes"),
            "signature.edges": mean("signature.edges"),
            "sealing.closed_channels_ms": total("sealing.closed_channels"),
            "sealing.is_sealable_ms": total("sealing.is_sealable"),
            "sealing.construct_ms": total("sealing.construct_seal"),
            "sealing.expand_ms": total("sealing.expand_plan"),
            "sealing.is_seal_ms": total("sealing.is_seal"),
            "sealing.open_channels": mean("sealing.open_channels"),
            "sealing.plan_transmissions": mean("sealing.plan_transmissions"),
            "sealing.plan_over_3n": max(counts.get("sealing.plan_over_3n", [0.0])),
            "oracle.seals_ms": total("oracle.oracle_seals"),
            "oracle.channel_open_ms": total("oracle.oracle_channel_open"),
            "oracle.calls": sum(counts.get("oracle.calls", ())),
            "oracle.world_events": mean("oracle.world_events"),
            "oracle.refused": sum(counts.get("oracle.refused", ())),
            "oracle.refused_frac": ratio(
                sum(counts.get("oracle.refused", ())), sum(counts.get("oracle.calls", ()))
            ),
            "cli.stdout_kb": sum(counts.get("cli.stdout_bytes", ())) / 1000,
            "bench.self_ms": total("bench.op") - children,
        }
        for name, _ in PER_LAYER:
            if name.startswith("cli.") and name.endswith("_ms"):
                span = name[: -len("_ms")]
                out[name] = ratio(total(span), calls(span))
        return out

    rows = [one(rec) for rec in passes.values()]
    return {name: statistics.median(row[name] for row in rows) for name in rows[0]}


def write_trace(name: str, seed: int, t: Tracer) -> Path:
    events = [
        {
            "name": span,
            "ph": "X",
            "ts": start / 1000,
            "dur": (end - start) / 1000,
            "pid": 1,
            "tid": 1,
            "args": {"pass": p, "op": op},
        }
        for span, p, op, start, end in t.spans
    ]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{name}-{seed}.json"
    path.write_text(json.dumps({"traceEvents": events}))
    return path


def main() -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if sys.flags.optimize:
        # -O strips the library's assert-based invariant checks, so the run
        # would measure a different program.
        print("refusing to run under python -O", file=sys.stderr)
        return 2
    if not (SRC / "layerseal" / "__init__.py").is_file():
        print(f"layerseal sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    head = stamp(args.workload, args.seed, args.seconds, bool(args.trace))
    result, details = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"stamp": head}))
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
