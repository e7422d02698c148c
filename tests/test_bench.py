"""The benchmark harness in ``bench/`` still runs against the library.

``bench/workloads.py`` reads parts of the library that nothing else in the
package reads, such as ``Signature.nodes`` and ``SigNode.name``, so a
change to those shows up here rather than only in a benchmark run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

PROJECT = Path(__file__).resolve().parents[1]

# The benchmark's modules and the library, as ``bench/run.py`` imports them.
BENCH_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([str(PROJECT / "bench"), str(PROJECT / "src")])}

# ``measure`` imports the library afresh after every pass, so it runs in a
# process of its own rather than beside the modules the tests hold.
_MEASURE = """\
import json, sys
import run
name = sys.argv[1]
result, details = run.measure(name, 7, 0, False, 0.2)
print(json.dumps({"failed": result["failed"], "correct": result["correct"],
                  "attempted": result["attempted"], "failures": details["failures"]}))
"""


def test_benchmark_workloads_run_without_failures():
    for name in ("static", "differential"):
        proc = subprocess.run(
            [sys.executable, "-c", _MEASURE, name],
            cwd=PROJECT,
            env=BENCH_ENV,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["attempted"] > 0, (name, result)
        assert result["failed"] == 0 and result["correct"], (name, result)
