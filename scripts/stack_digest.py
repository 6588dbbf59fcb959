#!/usr/bin/env python3
"""Determinism oracle: one SHA-256 per fixed run over everything it outputs.

Each case runs ``run_optimization`` with ``collect_history`` on and hashes
the final stack, the swarm history (value, position bytes and eval_index of
every point) and the stage records without their wall times.  Two versions
of the optimizer that print the same digests made the same decisions bit
for bit.

Example:
    python scripts/stack_digest.py --evals_per_trial 4000
    python scripts/stack_digest.py --evals_per_trial 300 --threads 2
"""

import argparse
import hashlib
import shlex
import struct
import sys

from swarmstack import (AlgorithmOptions, RunConfig, external_objective,
                        make_benchmark, run_optimization)

TRIALS = 2  # per temperature, so a run with threads > 1 uses a pool
DEFAULTS = AlgorithmOptions()
# sphere served over the line protocol by a one-line worker process, with
# as many workers as trials
EXTERNAL_SPHERE = "external_sphere"
SPHERE_WORKER = f"{shlex.quote(sys.executable)} -c " + shlex.quote(
    "import sys; [print(repr(sum(float(v) ** 2 for v in line.split())), "
    "flush=True) for line in sys.stdin]")

# (label, function, dim, bounds style, master seed, threads, options)
CASES = (
    ("twin_valleys-2-seed1", "twin_valleys", 2, "conventional", 1, 1, DEFAULTS),
    ("twin_valleys-2-seed7", "twin_valleys", 2, "conventional", 7, 1, DEFAULTS),
    ("rastrigin-11-offset", "rastrigin", 11, "offset", 1, 1, DEFAULTS),
    ("ackley-3-threads2", "ackley", 3, "conventional", 1, 2, DEFAULTS),
    ("noisy_rastrigin-4", "noisy_rastrigin", 4, "conventional", 1, 1, DEFAULTS),
    # probes that improve are offered as they are, not line-minimized
    ("twin_valleys-2-linmin-off", "twin_valleys", 2, "conventional", 1, 1,
     AlgorithmOptions(linmin_on_improvement=False)),
    ("sphere-3-external", EXTERNAL_SPHERE, 3, "conventional", 1, 1, DEFAULTS),
)


def _points(h, points) -> None:
    h.update(struct.pack("<q", len(points)))
    for p in points:
        h.update(struct.pack("<dq", p.value, p.eval_index))
        h.update(p.position.astype("<f8").tobytes())


def run_digest(name: str, dim: int, bounds_style: str, seed: int,
               evals_per_trial: int, threads: int,
               options: AlgorithmOptions = DEFAULTS) -> str:
    if name == EXTERNAL_SPHERE:
        bounds = make_benchmark("sphere", dim, bounds_style=bounds_style).bounds
        handle = external_objective(SPHERE_WORKER, bounds, workers=TRIALS)
    else:
        handle = make_benchmark(name, dim, bounds_style=bounds_style,
                                noise_seed=seed)
    config = RunConfig(dim=dim, bounds=handle.bounds,
                       trials_per_temperature=TRIALS,
                       evals_per_trial=evals_per_trial, master_seed=seed,
                       threads=threads, options=options,
                       collect_history=True)
    try:
        stack, diag = run_optimization(config, handle)
    finally:
        handle.close()
    h = hashlib.sha256()
    _points(h, stack.entries)
    _points(h, diag.swarm_history)
    for r in diag.records:
        m = r.metrics
        h.update(f"{r.stage}:{r.trial_index}:{r.evals_used}".encode())
        h.update(struct.pack("<7d", r.temperature, r.best_value, m.stat_dist,
                             m.stat_params, m.disp_score, m.fmt_score,
                             m.stack_score))
    h.update(struct.pack("<q", diag.total_evaluations))
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--evals_per_trial", type=int, default=4000)
    parser.add_argument("--threads", type=int, default=None,
                        help="override every case's thread count")
    args = parser.parse_args(argv)
    for label, name, dim, style, seed, threads, options in CASES:
        digest = run_digest(name, dim, style, seed, args.evals_per_trial,
                            args.threads or threads, options)
        print(f"{label} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
