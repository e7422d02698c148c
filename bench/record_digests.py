"""Record ``expected.json``: a digest of the verdict of every op that does
not depend on the seed, so that later commits must reproduce them byte for
byte, plan texts included.

Run from the root of the repository, at the commit whose answers the
benchmark pins::

    python3 bench/record_digests.py

A verdict is recorded only when it also matches the reference.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    digests = {}
    for name, cls in workloads.WORKLOADS.items():
        w = cls(0)
        w.setup(run.load_library(), run.OUT / "record")
        for op in w.ops:
            if not op.fixed:
                continue
            verdict = w.verdict(op, w.run(op, run.Tracer()))
            if verdict != w.expected(op):
                print(f"{name}/{op.name}: verdict differs from the reference; not recorded", file=sys.stderr)
                return 1
            digests[f"{getattr(op, 'owner', w).part}/{op.name}"] = hashlib.sha256(verdict.encode()).hexdigest()
    shutil.rmtree(run.OUT / "record", ignore_errors=True)
    path = run.BENCH / "expected.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
