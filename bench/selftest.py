"""Self-test of the benchmark harness, at tiny sizes.

Run from the root of the repository::

    python3 bench/selftest.py

It checks that every workload prints exactly the metrics BENCHMARK.json
names, with their units, untraced and traced, with no failed op; and that a
deliberately wrong expected verdict shows up as ``failed_frac > 0``.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

SCALE = 0.2


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(run.SRC))
    want = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(workloads.WORKLOADS):
        problems.append(f"BENCHMARK.json names workloads {names}, the harness {sorted(workloads.WORKLOADS)}")
    for name in names:
        for trace in (False, True):
            result, details = run.measure(name, 7, 0, trace, SCALE)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{name} trace={int(trace)}: metrics {got}, BENCHMARK.json {want[trace]}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{name} trace={int(trace)}: failed ops: {details['failures']}")
            ops, failed = result["attempted"], result["failed"]
            print(f"{name} trace={int(trace)}: {len(got)} metrics, {ops} ops, {failed} failed")

    cls = workloads.Wide
    honest = cls.expected
    cls.expected = lambda self, op: "wrong\n" if op is self.ops[0] else honest(self, op)
    try:
        result, details = run.measure("static", 7, 0, False, SCALE)
    finally:
        cls.expected = honest
    print(f"static with one wrong expected verdict: failed_frac {details['failed_frac']:.3f}")
    if not details["failed_frac"] > 0 or result["correct"]:
        problems.append("a wrong expected verdict was not counted as a failure")

    for line in problems:
        print("FAIL:", line)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
