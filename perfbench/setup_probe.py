"""Set-up time of one workload in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD

Times, from before ``import swarmstack`` to a validated run configuration,
what a user's process does before the first evaluation: the library
workloads build the objective and a ``RunConfig``; the CLI workload parses
its arguments and calls ``build_run``.  Prints the seconds.  Nothing but the
standard library is imported before the clock starts.
"""

import sys
import time
from pathlib import Path

started = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

if sys.argv[1] == "twin2-cli":
    from swarmstack import cli

    config = cli.parse_config(None, {
        "function": "twin_valleys", "dim": "2", "trials": "2",
        "evals_per_trial": "10000", "emit_projections": "true",
        "projection_planes": "0-1"})
    cli.build_run(config)
else:
    from swarmstack import RunConfig, make_benchmark

    handle = make_benchmark("rastrigin", 11, bounds_style="offset")
    RunConfig(dim=11, bounds=handle.bounds, trials_per_temperature=2,
              evals_per_trial=10_000,
              threads=2 if sys.argv[1].endswith("threads2") else 1)
print(repr(time.perf_counter() - started))
