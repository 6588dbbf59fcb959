"""Output checks, written apart from the program.

Every check compares an optimisation run's output with a computation made
here (the benchmark's own Rastrigin and twin-valley formulas and bounds) or
with a property the method must have.  None of them compares against a
stored copy of an earlier output.  Each checker returns a list of problems;
an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

# Rastrigin under "offset" bounds: the published half-width 5.12, shifted so
# the optimum (user coordinate 0) sits at normalized coordinate 0.37.
RASTRIGIN_HALF_WIDTH = 5.12
RASTRIGIN_OFFSET = 0.37
# Every non-global Rastrigin basin has a minimum of about 1 or above, so a
# value at or below this lies in the global basin.  It is the target of
# evals_to_target, not a pass/fail check: at 2 trials x 10k evaluations a
# rare seed (master seed 410000 of about 250 tried) ends in a neighbouring
# basin at about 1.
RASTRIGIN_TARGET = 0.5
# twin_valleys lives on the unit cube; its two minima are exactly 0, so a
# value at or below this sits on one of the loci.
TWIN_TARGET = 1e-8
TWIN_LOCUS_D1 = 0.05
# The CLI workload runs dim 2 and projects on plane 0-1, which spans the whole
# point, so every projected (u, v) can be recomputed with the formula.
TWIN_DIM = 2
PLANE = (0, 1)
# D1 equivalence radius the stack must respect: dim * (BASE + SLOPE * T).
R_EQ_BASE = 0.01
R_EQ_SLOPE = 0.09

_REL_TOL = 1e-9
_ABS_TOL = 1e-12


def rastrigin_offset_bounds(dim: int) -> tuple[np.ndarray, np.ndarray]:
    width = 2.0 * RASTRIGIN_HALF_WIDTH
    lower = np.full(dim, -RASTRIGIN_OFFSET * width)
    return lower, lower + width


def rastrigin(user_point) -> float:
    x = np.asarray(user_point, dtype=float)
    return float(10.0 * x.size + np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x)))


def twin_loci(dim: int) -> tuple[np.ndarray, np.ndarray]:
    a = np.array([0.18 if i % 2 == 0 else 0.26 for i in range(dim)])
    b = np.array([0.82 if i % 2 == 0 else 0.74 for i in range(dim)])
    return a, b


def twin_valleys(point) -> float:
    x = np.asarray(point, dtype=float)
    a, b = twin_loci(x.size)
    return float(min(np.sum((x - a) ** 2), np.sum((x - b) ** 2)))


def _same(a: float, b: float) -> bool:
    return abs(a - b) <= _ABS_TOL + _REL_TOL * max(abs(a), abs(b))


def evals_to_target(stage_rows, target: float) -> int:
    """Evaluations spent up to the end of the first stage meeting the target.

    ``stage_rows`` are (evals_used, best_value) pairs in stage order, as
    ``StageRecord``s or ``diagnostics.jsonl`` lines list them.  A run that
    never meets the target counts its whole spend.
    """
    spent = 0
    for evals, best in stage_rows:
        spent += evals
        if best <= target:
            break
    return spent


def check_stack(values, positions, capacity: int, r_eq: float) -> list[str]:
    """Sorted by value, within capacity, pairwise D1 at least ``r_eq``."""
    problems = []
    values = list(values)
    if not values:
        return ["stack is empty"]
    if len(values) > capacity:
        problems.append(f"stack holds {len(values)} > capacity {capacity}")
    if any(b < a for a, b in zip(values, values[1:])):
        problems.append("stack values are not sorted ascending")
    pos = np.asarray(positions, dtype=float)
    for i in range(len(pos) - 1):
        d1 = np.abs(pos[i + 1:] - pos[i]).sum(axis=1)
        if d1.size and d1.min() < r_eq:
            j = i + 1 + int(d1.argmin())
            problems.append(f"entries {i} and {j} are {d1.min():.3g} apart "
                            f"in D1, under the radius {r_eq:.3g}")
            break
    return problems


def check_monotone(stage_rows) -> list[str]:
    """Best values never rise within a trial, nor from one temperature on.

    ``stage_rows`` are (temperature, trial, best_value) triples in stage
    order.  Every trial of a step starts from the merged stack of the step
    before, so its first stage is no worse than the best of that step.
    """
    problems = []
    by_trial: dict[tuple[float, int], list[float]] = {}
    for temperature, trial, best in stage_rows:
        by_trial.setdefault((temperature, trial), []).append(best)
    for key, bests in by_trial.items():
        if any(b > a for a, b in zip(bests, bests[1:])):
            problems.append(f"best value rises within trial {key}")
    temps = sorted({t for t, _ in by_trial}, reverse=True)
    for hot, cold in zip(temps, temps[1:]):
        step_best = min(b[-1] for (t, _), b in by_trial.items() if t == hot)
        for (t, trial), bests in by_trial.items():
            if t == cold and bests[0] > step_best:
                problems.append(f"trial {trial} at T={cold} starts worse "
                                f"than the best of T={hot}")
    return problems


def check_library_run(stack, records, evaluations: int, dim: int,
                      capacity: int, t_last: float) -> list[str]:
    """Checks for a ``run_optimization`` call on offset Rastrigin.

    ``stack`` is the final ``Stack``, ``records`` the run's ``StageRecord``s
    and ``evaluations`` the run's reported evaluation total.
    """
    problems = []
    best = stack.entries[0] if stack.entries else None
    if best is None:
        return ["stack is empty"]
    lower, upper = rastrigin_offset_bounds(dim)
    user = lower + np.asarray(best.position) * (upper - lower)
    expected = rastrigin(user)
    if not _same(expected, best.value):
        problems.append(f"best value {best.value!r} but Rastrigin at the best "
                        f"point is {expected!r}")
    problems += check_stack([e.value for e in stack.entries],
                            [e.position for e in stack.entries], capacity,
                            dim * (R_EQ_BASE + R_EQ_SLOPE * t_last))
    recorded = sum(r.evals_used for r in records)
    if recorded != evaluations:
        problems.append(f"run reports {evaluations} evaluations, stage "
                        f"records sum to {recorded}")
    problems += check_monotone((r.temperature, r.trial_index, r.best_value)
                               for r in records)
    return problems


def check_same_stack(stack, reference) -> list[str]:
    """Values and positions equal entry by entry (``eval_index`` excluded)."""
    if len(stack.entries) != len(reference.entries):
        return [f"stack has {len(stack.entries)} entries, the serial run "
                f"{len(reference.entries)}"]
    for i, (e, r) in enumerate(zip(stack.entries, reference.entries)):
        if e.value != r.value or not np.array_equal(e.position, r.position):
            return [f"entry {i} differs from the serial run with the same seed"]
    return []


def check_cli_run(out_dir: Path, stdout: str, capacity: int,
                  t_last: float) -> list[str]:
    """Checks for a ``swarmstack`` CLI run on twin_valleys-2 (unit bounds)."""
    dim = TWIN_DIM
    problems = []
    with (out_dir / "stack.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        return ["stack.csv holds no rows"]
    values, positions = [], []
    for row in rows:
        x = [float(row[f"x{i}"]) for i in range(dim)]
        u = [float(row[f"u{i}"]) for i in range(dim)]
        value = float(row["value"])
        if x != u:
            problems.append(f"rank {row['rank']}: user and normalized "
                            f"coordinates differ on unit bounds")
        if not _same(value, twin_valleys(x)):
            problems.append(f"rank {row['rank']}: value {value!r} but the "
                            f"twin-valley formula gives {twin_valleys(x)!r}")
        values.append(value)
        positions.append(x)
    problems += check_stack(values, positions, capacity,
                            dim * (R_EQ_BASE + R_EQ_SLOPE * t_last))
    pos = np.asarray(positions)
    for name, locus in zip("ab", twin_loci(dim)):
        if np.abs(pos - locus).sum(axis=1).min() > TWIN_LOCUS_D1:
            problems.append(f"no stack entry within D1 {TWIN_LOCUS_D1} of "
                            f"locus {name}")

    projection = out_dir / "projections" / f"e{PLANE[0]}-e{PLANE[1]}.tsv"
    with projection.open(newline="") as fh:
        proj_rows = list(csv.DictReader(fh, delimiter="\t"))
    if not proj_rows:
        problems.append(f"{projection.name} holds no rows")
    for n, row in enumerate(proj_rows):
        point = np.array([float(row["u"]), float(row["v"])])
        if not _same(float(row["value"]), twin_valleys(point)):
            problems.append(f"{projection.name} row {n}: value {row['value']} "
                            f"but the twin-valley formula gives "
                            f"{twin_valleys(point)!r}")
            break

    recorded = sum(s["evals"] for s in diagnostics_rows(out_dir))
    printed = printed_total(stdout)
    if printed != recorded:
        problems.append(f"printed total {printed} but diagnostics.jsonl sums "
                        f"to {recorded}")
    return problems


def printed_total(stdout: str) -> int | None:
    for line in stdout.splitlines():
        if line.startswith("total evaluations:"):
            return int(line.split(":", 1)[1].split()[0])
    return None


def diagnostics_rows(out_dir: Path) -> list[dict]:
    with (out_dir / "diagnostics.jsonl").open() as fh:
        return [json.loads(line) for line in fh]
