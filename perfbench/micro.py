"""Per-call microbenchmarks of single layers on fixed seeded inputs.

Each figure is the median over a few repeats of a timed loop, divided by the
loop's call count.  The inputs do not depend on the workload seed, so the
figures compare one build of the program with another.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from swarmstack import domain, linmin, make_benchmark, rng, stages, swarm
from swarmstack.distributions import sample_fat_tail3, sample_notch_twin_peaks

import checks

_SEED = 20170228
_REPEATS = 5
_T = 0.5  # mid-ladder temperature for the samplers and the stack radius


def _per_call(fn, calls: int) -> float:
    """Median seconds per call of ``fn`` (which makes ``calls`` calls)."""
    times = []
    for _ in range(_REPEATS):
        started = time.perf_counter()
        fn()
        times.append((time.perf_counter() - started) / calls)
    return statistics.median(times)


def _full_stack(dim: int, capacity: int, state) -> swarm.Stack:
    stack = swarm.Stack(capacity, stages.AlgorithmOptions().equivalence_radius(
        _T, dim))
    while len(stack) < capacity:
        p = np.array([rng.uniform01(state) for _ in range(dim)])
        stack.try_insert(swarm.RatedPoint(p, rng.uniform01(state)))
    return stack


def run() -> dict[str, tuple[float, str]]:
    """Every microbenchmark as name -> (value, unit)."""
    out = {}
    state = rng.seed(_SEED, 0)
    n = 100_000
    out["rng.next_u32.ns"] = (1e9 * _per_call(
        lambda: [rng.next_u32(state) for _ in range(n)], n), "ns")
    out["rng.fill_u32.ns"] = (1e9 * _per_call(
        lambda: rng.fill_u32(state, n), n), "ns")

    opts = stages.AlgorithmOptions()
    rate = stages.recombine_rate(_T)
    n = 20_000
    out["rng.bounded_exponential.us"] = (1e6 * _per_call(
        lambda: [rng.bounded_exponential(state, rate, 0.0, 1.0)
                 for _ in range(n)], n), "us")
    notch = opts.notch_params(_T)
    n = 5_000
    out["distributions.sample_notch_twin_peaks.us"] = (1e6 * _per_call(
        lambda: [sample_notch_twin_peaks(state, notch, -0.37, 0.63)
                 for _ in range(n)], n), "us")
    fat = opts.fat_tail3_params(_T)
    out["distributions.sample_fat_tail3.us"] = (1e6 * _per_call(
        lambda: [sample_fat_tail3(state, fat, 0.37, 0.0, 1.0)
                 for _ in range(n)], n), "us")

    dim = 11
    handle = make_benchmark("rastrigin", dim, bounds_style="offset")
    origin = np.array([rng.uniform01(state) for _ in range(dim)])
    direction = domain.random_unit_direction(state, dim)
    seg = domain.LineSegment.through(origin, direction)
    n = 200
    out["linmin.minimize_on_line.us"] = (1e6 * _per_call(
        lambda: [linmin.minimize_on_line(handle.evaluate, seg)
                 for _ in range(n)], n), "us")

    n = 2_000
    candidates = [swarm.RatedPoint(
        np.array([rng.uniform01(state) for _ in range(dim)]),
        rng.uniform01(state)) for _ in range(n)]

    def insert_all():
        stack = _full_stack(dim, 120, rng.seed(_SEED, 1))
        started = time.perf_counter()
        for c in candidates:
            stack.try_insert(c)
        return time.perf_counter() - started

    out["swarm.try_insert.us"] = (1e6 * statistics.median(
        insert_all() for _ in range(_REPEATS)) / n, "us")

    points = [np.array([rng.uniform01(state) for _ in range(dim)])
              for _ in range(1_000)]
    lower, upper = checks.rastrigin_offset_bounds(dim)
    user_points = [lower + p * (upper - lower) for p in points]
    n = len(points)
    out["objective.evaluate.us"] = (1e6 * _per_call(
        lambda: [handle.evaluate(p) for p in points], n), "us")
    out["objective.formula.us"] = (1e6 * _per_call(
        lambda: [checks.rastrigin(u) for u in user_points], n), "us")
    return out
