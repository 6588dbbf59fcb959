"""Top-level orchestration: trials, temperature ladder, merging, diagnostics.

A run executes ``trials_per_temperature`` independent trials at each
temperature of a descending ladder.  Every trial owns a private RNG stream
derived from the master seed, seeds its stack from the current guess points,
then runs the four stages under a fixed evaluation budget.  After each
temperature step all trial stacks merge into one, whose positions become the
guess points of the next, cooler step.

With ``threads = N > 1`` up to N trials of a step run at once, in worker
processes (one pool per run, reused across steps), whatever the objective.
The objective must therefore pickle; an unpicklable in-process objective,
such as a lambda, fails fast with ``ValueError``.

Each trial counts its own evaluations and flags (evaluations that returned
no finite number) on its :class:`StageRecord` entries, which come back with
the trial's result from whichever process ran it.

``eval_index`` numbers evaluations in run order as if the trials had run in
turn: a trial stamps its own evaluation count, and after each step every
trial's entries are shifted by the evaluations of the steps before it and
of the trials before it in stream order.  So the output never depends on
scheduling, and ``threads = N`` reproduces ``threads = 1`` bit for bit.
"""

from __future__ import annotations

import pickle
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .domain import BoundsSpec
from .objective import ObjectiveHandle
from .rng import seed
from .stages import STAGE_NAMES, STAGES, AlgorithmOptions, TrialContext
from .swarm import (RatedPoint, Stack, StackMetrics, default_ema_alpha,
                    merge_stacks, stack_score)

DEFAULT_TEMPERATURES = (1.0, 0.75, 0.5, 0.25, 0.0)

# stage-3 and stage-4 budget weight relative to stages 1 and 2
_LATE_STAGE_WEIGHT = 1.3


@dataclass(frozen=True)
class RunConfig:
    """Everything one optimization run needs besides the objective itself."""

    dim: int
    bounds: BoundsSpec
    temperatures: tuple[float, ...] = DEFAULT_TEMPERATURES
    trials_per_temperature: int = 10
    evals_per_trial: int = 10_000
    stack_capacity: int = 120
    master_seed: int = 0
    threads: int = 1
    options: AlgorithmOptions = AlgorithmOptions()
    collect_history: bool = False

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.bounds.dim != self.dim:
            raise ValueError(f"bounds dim {self.bounds.dim} != dim {self.dim}")
        temps = tuple(float(t) for t in self.temperatures)
        object.__setattr__(self, "temperatures", temps)
        if not temps or any(not 0.0 <= t <= 1.0 for t in temps):
            raise ValueError("temperatures must lie in [0, 1]")
        if any(a <= b for a, b in zip(temps, temps[1:])):
            raise ValueError("temperatures must be strictly descending")
        if (self.trials_per_temperature < 1 or self.stack_capacity < 1
                or self.threads < 1):
            raise ValueError("counts must be positive")
        allocate_budget(self.evals_per_trial)  # validates the size
        # the options are checked here, as a whole, and not field by field:
        # a valid set can pass through invalid ones while it is built
        opts = self.options
        if not opts.fat_tail3_s_divisor > 0.0:
            raise ValueError("fat_tail3_s_divisor must be > 0")
        opts.notch_params(1.0)  # the parameter classes check their fields
        opts.fat_tail3_params(1.0)
        if not 0.0 <= opts.mutation_prob <= 1.0:
            raise ValueError("mutation_prob must be in [0, 1]")
        if not (opts.recombine_ratio_high_t > 1.0
                and opts.recombine_ratio_low_t > 1.0):
            raise ValueError("recombine ratios must be > 1")
        if not (opts.r_eq_base >= 0.0
                and opts.r_eq_base + opts.r_eq_slope >= 0.0):
            raise ValueError("r_eq_base + T * r_eq_slope must be >= 0")
        if not opts.linmin_tol > 0.0:
            raise ValueError("linmin_tol must be > 0")


@dataclass(frozen=True)
class StageRecord:
    """Diagnostics for one stage of one trial."""

    temperature: float
    trial_index: int
    stage: str
    evals_used: int
    flagged_evals: int
    best_value: float
    metrics: StackMetrics
    elapsed_s: float


@dataclass
class RunDiagnostics:
    """Per-stage records plus evaluation accounting for a whole run."""

    records: list[StageRecord] = field(default_factory=list)
    swarm_history: list[RatedPoint] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def total_evaluations(self) -> int:
        return sum(r.evals_used for r in self.records)

    @property
    def flagged_evaluations(self) -> int:
        return sum(r.flagged_evals for r in self.records)


def initial_guesses(dim: int) -> list[np.ndarray]:
    """Three points on the principal diagonal at 1/4, 1/2 and 3/4."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    return [np.full(dim, c) for c in (0.25, 0.5, 0.75)]


def allocate_budget(evals_per_trial: int) -> tuple[int, int, int, int]:
    """Split a trial budget over the four stages.

    The two late stages (proximal, axes) are more demanding and receive 30%
    more evaluations each; rounding remainders land on the last stage so the
    parts always sum to the input.
    """
    if evals_per_trial < 100:
        raise ValueError(
            f"evals_per_trial must be >= 100, got {evals_per_trial}")
    base = evals_per_trial / (2.0 + 2.0 * _LATE_STAGE_WEIGHT)
    s1 = round(base)
    s2 = round(base)
    s3 = round(_LATE_STAGE_WEIGHT * base)
    s4 = evals_per_trial - s1 - s2 - s3
    return (s1, s2, s3, s4)


def run_trial(config: RunConfig, objective: ObjectiveHandle, temperature: float,
              guess_points: Sequence[np.ndarray], stream_index: int,
              ) -> tuple[Stack, list[StageRecord], list[RatedPoint]]:
    """One full four-stage pass at a fixed temperature.

    Guess-point evaluations, and their flags, count against the first
    stage.  The returned stack is deterministic given (config, temperature,
    guesses, stream_index) and the objective.
    """
    if not guess_points:
        raise ValueError("run_trial needs at least one guess point")
    opts = config.options
    r_eq = opts.equivalence_radius(temperature, config.dim)
    stack = Stack(config.stack_capacity, r_eq)
    ctx = TrialContext(
        stack=stack, rng=seed(config.master_seed, stream_index),
        temperature=temperature, dim=config.dim, objective=objective,
        options=opts, insert_log=[] if config.collect_history else None)

    for guess in guess_points:
        position = np.asarray(guess, dtype=float)
        ctx.offer(position, ctx.evaluate(position))

    alpha = default_ema_alpha(config.stack_capacity)
    records = []
    budgets = list(allocate_budget(config.evals_per_trial))
    budgets[0] = max(budgets[0] - ctx.eval_count, 0)
    # counting from 0 charges the guesses to the first stage
    before = flags_before = 0
    for stage, name, budget in zip(STAGES, STAGE_NAMES, budgets):
        started = time.perf_counter()
        stage(ctx, budget)
        records.append(StageRecord(
            temperature=temperature, trial_index=stream_index,
            stage=name, evals_used=ctx.eval_count - before,
            flagged_evals=ctx.flagged_count - flags_before,
            best_value=stack.best.value,
            metrics=stack_score(stack, alpha),
            elapsed_s=time.perf_counter() - started))
        before, flags_before = ctx.eval_count, ctx.flagged_count
    return stack, records, ctx.insert_log or []


def _run_one_trial(*args):
    """:func:`run_trial`, looked up when called, so a pool pickles this
    module-level function while callers may rebind ``run_trial``."""
    return run_trial(*args)


def trial_pool(config: RunConfig, objective: ObjectiveHandle):
    """The process pool that runs a step's trials at once, or None for in turn.

    It has ``min(threads, trials_per_temperature)`` processes.  The objective
    must pickle.  The caller shuts the pool down.
    """
    processes = min(config.threads, config.trials_per_temperature)
    if processes < 2:
        return None
    try:
        pickle.dumps(objective)
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        raise ValueError(
            f"threads={config.threads} runs trials in worker processes, so "
            f"the objective must be picklable: define its function at module "
            f"level (not a lambda or nested function), or use threads=1"
        ) from exc
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=processes)


def _shift_eval_index(points: list[RatedPoint], offset: int) -> list[RatedPoint]:
    return [RatedPoint(p.position, p.value, p.eval_index + offset)
            for p in points]


def run_temperature_step(config: RunConfig, objective: ObjectiveHandle,
                         temperature: float, guesses: Sequence[np.ndarray],
                         base_stream: int, pool=None, evals_before: int = 0,
                         ) -> tuple[Stack, list[StageRecord], list[RatedPoint]]:
    """All trials of one temperature, merged into a single stack.

    ``pool`` (from :func:`trial_pool`) runs the trials at once; without it
    they run in turn.  ``evals_before`` is the number of evaluations the
    run made before this step.
    """
    streams = range(base_stream, base_stream + config.trials_per_temperature)
    results = (pool.map if pool else map)(partial(
        _run_one_trial, config, objective, temperature, guesses), streams)

    offset = evals_before
    stacks, records, history = [], [], []
    for stack, trial_records, trial_history in results:
        stack.entries = _shift_eval_index(stack.entries, offset)
        history += _shift_eval_index(trial_history, offset)
        stacks.append(stack)
        records += trial_records
        offset += sum(r.evals_used for r in trial_records)
    r_eq = config.options.equivalence_radius(temperature, config.dim)
    merged = merge_stacks(stacks, config.stack_capacity, r_eq)
    return merged, records, history


def run_optimization(config: RunConfig, objective: ObjectiveHandle,
                     ) -> tuple[Stack, RunDiagnostics]:
    """Full run over the temperature ladder; returns the final merged stack.

    Solutions of each temperature step become the guess points of the next,
    so the best value can only improve along the ladder.  Stream indices
    never repeat across the run.
    """
    if objective.dim != config.dim:
        raise ValueError(f"objective dim {objective.dim} != config {config.dim}")
    started = time.perf_counter()
    diagnostics = RunDiagnostics()
    guesses = initial_guesses(config.dim)
    stack: Optional[Stack] = None
    pool = trial_pool(config, objective)
    with pool or nullcontext():
        for step_index, temperature in enumerate(config.temperatures):
            base_stream = step_index * config.trials_per_temperature
            stack, records, history = run_temperature_step(
                config, objective, temperature, guesses, base_stream, pool,
                diagnostics.total_evaluations)
            diagnostics.records.extend(records)
            diagnostics.swarm_history.extend(history)
            guesses = [entry.position for entry in stack.entries]
    diagnostics.elapsed_s = time.perf_counter() - started
    return stack, diagnostics
