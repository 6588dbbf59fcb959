#!/usr/bin/env python3
"""Benchmark sweep: run the optimizer over functions x seeds, summarize.

Example:
    python scripts/run_benchmark.py --functions sphere rastrigin --dim 11 \
        --seeds 0 1 2 --evals-per-trial 10000 --out results.csv
"""

import argparse
import csv
import sys
import time

import numpy as np

from swarmstack.objective import BENCHMARK_NAMES, make_benchmark
from swarmstack.scheduler import RunConfig, run_optimization


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--functions", nargs="+", default=["sphere", "rastrigin"],
                        choices=list(BENCHMARK_NAMES))
    parser.add_argument("--dim", type=int, default=11)
    parser.add_argument("--seeds", nargs="+", type=int, default=[0, 1, 2])
    parser.add_argument("--trials", type=int, default=10)
    parser.add_argument("--evals-per-trial", type=int, default=10_000)
    parser.add_argument("--stack-capacity", type=int, default=120)
    parser.add_argument("--bounds-style", default="offset",
                        choices=["conventional", "offset"],
                        help="schwefel always runs on its conventional box")
    parser.add_argument("--out", default=None, help="optional CSV path")
    args = parser.parse_args(argv)

    rows = []
    for name in args.functions:
        # a shifted box leaves Schwefel's published domain
        style = "conventional" if name == "schwefel" else args.bounds_style
        for seed in args.seeds:
            handle = make_benchmark(name, args.dim, bounds_style=style,
                                    noise_seed=seed)
            config = RunConfig(dim=args.dim, bounds=handle.bounds,
                               trials_per_temperature=args.trials,
                               evals_per_trial=args.evals_per_trial,
                               stack_capacity=args.stack_capacity,
                               master_seed=seed)
            started = time.perf_counter()
            stack, diag = run_optimization(config, handle)
            elapsed = time.perf_counter() - started
            coord_err = float("nan")
            if handle.known_optima:
                coord_err = min(
                    float(np.abs(stack.best.position - opt).max())
                    for opt in handle.known_optima)
            rows.append({
                "function": name, "dim": args.dim, "bounds_style": style,
                "seed": seed,
                "best_value": stack.best.value,
                "max_coord_err": coord_err,
                "evaluations": diag.total_evaluations,
                "stack_size": len(stack),
                "elapsed_s": round(elapsed, 2),
            })
            print(f"{name:16s} seed={seed:<3d} best={stack.best.value:#.6g} "
                  f"coord_err={coord_err:#.3g} "
                  f"evals={diag.total_evaluations} t={elapsed:.1f}s")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
