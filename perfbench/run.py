"""swarmstack benchmark: one workload, checked, with its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; ``src/`` is put on the import path, so nothing
needs installing.  With ``--trace 0`` it times ``SETUP_REPEATS`` fresh
interpreters for ``setup_s``, then runs the workload in a child process
(``workload.py``) for the end-to-end metrics; with ``--trace 1`` the child
adds a traced run to every round and reports the per-layer metrics.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exits non-zero, printing no result, when the
program is missing or a child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("rastrigin11", "rastrigin11-threads2", "twin2-cli")
SETUP_REPEATS = 5
DEADLINE_S = 170.0  # every child is stopped by then, so the run ends in 180 s
# One BLAS thread: the workloads stay within the two cores they are sized for.
CHILD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                 MKL_NUM_THREADS="1")


def child(*args: str, deadline: float) -> str:
    """Run a benchmark script to completion and return its last stdout line.

    A child still running at ``deadline`` (a ``time.monotonic`` value) is
    killed and waited for.
    """
    timeout = max(deadline - time.monotonic(), 1.0)
    done = subprocess.run([sys.executable, *args], cwd=ROOT, env=CHILD_ENV,
                          stdout=subprocess.PIPE, text=True, timeout=timeout,
                          check=True)
    return done.stdout.strip().splitlines()[-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "swarmstack" / "__init__.py").is_file():
        print(f"error: no swarmstack package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    metrics = {}
    try:
        if not args.trace:
            setups = [float(child("perfbench/setup_probe.py", args.workload,
                                  deadline=deadline))
                      for _ in range(SETUP_REPEATS)]
            metrics["setup_s"] = {"value": statistics.median(setups),
                                  "unit": "s"}
        result = json.loads(child(
            "perfbench/workload.py", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), deadline=deadline))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (value, unit) in result["metrics"].items():
        metrics[name] = {"value": value, "unit": unit}
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    print(f"attempted {result['attempted']}  failed {result['failed']}")
    print(json.dumps({"correct": not result["problems"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
