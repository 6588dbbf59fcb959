"""The four cascaded search stages run by every trial.

1. Swarm search: the whole swarm steps along one shared random direction per
   sweep, each point by its own signed notched step; improving probes earn a
   full line minimization.
2. Genetic improvement: children recombine coordinates of the best stack
   entries (selection pressure rises as temperature falls) with a 25%
   fat-tailed per-coordinate mutation.
3. Proximal search: worse points run line minimizations toward "attractors"
   picked by a temperature- and visibility-dependent attractiveness kernel.
4. Swarm along axes: per-axis probes and line minimizations over a randomly
   permuted coordinate sequence, shared by the whole swarm each sweep.

Each stage stops cleanly once its evaluation budget is spent; a line
minimization started on the last budget unit may overrun by at most its own
evaluation cap.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .distributions import (FatTail3Params, NotchParams, TwinPeaksParams,
                            sample_fat_tail3, sample_notch_twin_peaks,
                            scale_for_temperature)
from .domain import LineSegment, d1_distance, line_domain, point_on_line, \
    random_unit_direction
from .linmin import minimize_on_line
from .objective import ObjectiveHandle
from .rng import RngState, bounded_exponential, randint_below, truncated_gamma, \
    uniform01
from .swarm import InsertOutcome, RatedPoint, Stack

_DEGENERATE_SPAN = 1e-12


@dataclass(frozen=True)
class AlgorithmOptions:
    """Tunable knobs of the search stages (defaults match the shipped setup)."""

    linmin_on_improvement: bool = True
    linmin_tol: float = 1e-4
    linmin_eval_cap: int = 60
    linmin_n_scan: int = 12
    linmin_k_refine: int = 2
    notch_exponent: float = 1.0 / 6.0
    mutation_prob: float = 0.25
    # endpoint density ratios of the parent-selection distribution
    recombine_ratio_high_t: float = 2.0
    recombine_ratio_low_t: float = 5.0
    # fat-tail mutation mixture
    fat_tail3_c: tuple[float, float, float] = (15.0, 4.0, 1.0)
    fat_tail3_k: tuple[float, float] = (10.0, 50.0)
    fat_tail3_s_divisor: float = 20.0
    # equivalence radius schedule: dim * (base + slope * T)
    r_eq_base: float = 0.01
    r_eq_slope: float = 0.09
    direction_history_capacity: int = 64
    direction_cos_tol: float = 0.999
    attractor_retry_cap: int = 5

    def equivalence_radius(self, t: float, dim: int) -> float:
        return dim * (self.r_eq_base + self.r_eq_slope * t)

    def notch_params(self, t: float) -> NotchParams:
        return NotchParams(TwinPeaksParams(s=scale_for_temperature(t)),
                           self.notch_exponent)

    def fat_tail3_params(self, t: float) -> FatTail3Params:
        c1, c2, c3 = self.fat_tail3_c
        k1, k2 = self.fat_tail3_k
        return FatTail3Params(c1=c1, c2=c2, c3=c3, k1=k1, k2=k2,
                              s=scale_for_temperature(t) / self.fat_tail3_s_divisor)


@dataclass
class TrialContext:
    """All state one trial owns: stack, generator, temperature, budgets."""

    stack: Stack
    rng: RngState
    temperature: float
    dim: int
    objective: ObjectiveHandle
    stage_budgets: tuple[int, int, int, int]
    options: AlgorithmOptions = AlgorithmOptions()
    eval_count: int = 0
    direction_history: deque = field(default_factory=deque)
    insert_log: Optional[list] = None

    def __post_init__(self):
        if not self.direction_history.maxlen:
            self.direction_history = deque(
                maxlen=self.options.direction_history_capacity)

    def evaluate(self, position: np.ndarray) -> float:
        self.eval_count += 1
        return self.objective.evaluate(position)

    def rate(self, position: np.ndarray, value: float) -> RatedPoint:
        """Stamp with the trial's own evaluation count; the scheduler shifts
        it into run order once the temperature step is done."""
        return RatedPoint(position, value, self.eval_count)

    def offer(self, point: RatedPoint) -> InsertOutcome:
        outcome = self.stack.try_insert(point)
        if self.insert_log is not None and outcome in (
                InsertOutcome.INSERTED, InsertOutcome.REPLACED_EQUIVALENT):
            self.insert_log.append(point)
        return outcome


def run_swarm_search(ctx: TrialContext, budget: Optional[int] = None) -> TrialContext:
    """Stage one: populate and spread the swarm along shared random directions.

    Every sweep draws one direction for all points; each point takes a signed
    notched step inside its line domain.  A step that improves its origin
    point triggers a full line minimization (optional), whose best point is
    offered instead of the raw step.
    """
    if not ctx.stack.entries:
        raise ValueError("swarm search needs a seeded stack")
    if budget is None:
        budget = ctx.stage_budgets[0]
    opts = ctx.options
    notch = opts.notch_params(ctx.temperature)
    used = 0
    while used < budget:
        direction = random_unit_direction(ctx.rng, ctx.dim)
        for origin in list(ctx.stack.entries):
            if used >= budget:
                break
            lo, hi = line_domain(origin.position, direction)
            if hi - lo < _DEGENERATE_SPAN:
                continue
            seg = LineSegment(origin.position, direction, lo, hi)
            t = sample_notch_twin_peaks(ctx.rng, notch, lo, hi)
            candidate = point_on_line(seg, t)
            f_cand = ctx.evaluate(candidate)
            used += 1
            if (f_cand < origin.value and opts.linmin_on_improvement
                    and math.isfinite(f_cand)):
                res = minimize_on_line(
                    ctx.evaluate, seg, tol=opts.linmin_tol,
                    eval_cap=opts.linmin_eval_cap, f0=origin.value,
                    known_points=((t, f_cand),), n_scan=opts.linmin_n_scan,
                    k_refine=opts.linmin_k_refine)
                used += res.evals_used
                ctx.offer(ctx.rate(point_on_line(seg, res.t_best), res.f_best))
            else:
                ctx.offer(ctx.rate(candidate, f_cand))
    return ctx


def recombine_rate(t: float, ratio_high_t: float = 2.0,
                   ratio_low_t: float = 5.0) -> float:
    """Rate of the parent-selection exponential as a function of temperature.

    Chosen so the endpoint density ratio of the bounded exponential is
    exactly ``ratio_high_t`` at T=1 and ``ratio_low_t`` at T=0 (geometric
    interpolation in between): few good parents dominate when cold, the
    whole stack gets a chance when hot.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"temperature must be in [0, 1], got {t}")
    return (1.0 - t) * math.log(ratio_low_t) + t * math.log(ratio_high_t)


def choose_n_recombine(rng: RngState, t: float, n_stack: int,
                       ratio_high_t: float = 2.0,
                       ratio_low_t: float = 5.0) -> int:
    """Number of parents for one child, drawn in [2, n_stack]."""
    if n_stack < 2:
        raise ValueError(f"need at least 2 stack entries, got {n_stack}")
    if n_stack == 2:
        # the draw is still consumed so the stream advances uniformly
        bounded_exponential(rng, recombine_rate(t, ratio_high_t, ratio_low_t),
                            0.0, 1.0)
        return 2
    x = bounded_exponential(rng, recombine_rate(t, ratio_high_t, ratio_low_t),
                            0.0, 1.0)
    return int(round(2.0 + x * (n_stack - 2)))


def recombine(ctx: TrialContext) -> np.ndarray:
    """Produce one child by multi-parent coordinate recombination.

    The parent pool is the best n entries (n drawn by the bounded
    exponential); each coordinate picks its donor by an analogous draw
    mapped onto [1, n], then mutates with the fat-tailed kernel at the
    configured probability.
    """
    opts = ctx.options
    t = ctx.temperature
    n = choose_n_recombine(ctx.rng, t, len(ctx.stack.entries),
                           opts.recombine_ratio_high_t,
                           opts.recombine_ratio_low_t)
    parents = ctx.stack.entries[:n]
    rate = recombine_rate(t, opts.recombine_ratio_high_t,
                          opts.recombine_ratio_low_t)
    fat_tail = opts.fat_tail3_params(t)
    child = np.empty(ctx.dim)
    for j in range(ctx.dim):
        x = bounded_exponential(ctx.rng, rate, 0.0, 1.0)
        donor = int(round(1.0 + x * (n - 1))) - 1
        child[j] = parents[donor].position[j]
        if opts.mutation_prob > 0.0 and uniform01(ctx.rng) < opts.mutation_prob:
            child[j] = sample_fat_tail3(ctx.rng, fat_tail, child[j], 0.0, 1.0)
    return child


def run_genetic(ctx: TrialContext, budget: Optional[int] = None) -> TrialContext:
    """Stage two: recombination with mutation; selection is better-in-worst-out."""
    if budget is None:
        budget = ctx.stage_budgets[1]
    if len(ctx.stack.entries) < 2:
        return ctx
    used = 0
    while used < budget:
        child = recombine(ctx)
        f_child = ctx.evaluate(child)
        used += 1
        ctx.offer(ctx.rate(child, f_child))
    return ctx


def attractiveness(a0: float, d: float, big_d: float, t: float) -> float:
    """Apparent brightness of an attractor at distance d.

    Blends a clear-sky inverse-square kernel (weight T) with a foggy
    quadratic-exponential kernel (weight 1-T); ``big_d`` is the randomly
    drawn characteristic distance, the inverse attenuation coefficient.
    """
    if big_d <= 0.0:
        raise ValueError(f"characteristic distance must be > 0, got {big_d}")
    r2 = (d / big_d) ** 2
    return a0 * ((1.0 - t) * math.exp(-r2) + t / (1.0 + r2))


def sample_characteristic_distance(rng: RngState, dim: int) -> float:
    """Random visibility range in D1 units, gamma-distributed over [0.05d, d]."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    return truncated_gamma(rng, 2.0, 0.3 * dim, 0.05 * dim, float(dim))


def direction_is_new(history: deque, u: np.ndarray, cos_tol: float) -> bool:
    """True when u is not collinear with any remembered direction.

    Sign-insensitive (a line, not a ray).  A new direction is recorded;
    the bounded history evicts its oldest entry.
    """
    for h in history:
        if abs(float(np.dot(u, h))) >= cos_tol:
            return False
    history.append(u)
    return True


def run_proximal(ctx: TrialContext, budget: Optional[int] = None) -> TrialContext:
    """Stage three: line-minimize from worse points toward attractive ones.

    Cycling from the worst entry toward the best, each point draws a fresh
    visibility range, ranks all other entries by attractiveness and line
    minimizes toward the best-ranked ones whose directions were not tried
    recently, stopping at the first improvement (or after the retry cap).
    """
    if budget is None:
        budget = ctx.stage_budgets[2]
    if len(ctx.stack.entries) < 2:
        return ctx
    opts = ctx.options
    used = 0
    while used < budget:
        cycle_start = used
        for query in reversed(list(ctx.stack.entries)):
            if used >= budget:
                break
            if not any(entry is query for entry in ctx.stack.entries):
                continue  # evicted by an earlier insertion this cycle
            big_d = sample_characteristic_distance(ctx.rng, ctx.dim)
            f_worst = ctx.stack.worst.value
            ranked = []
            for other in ctx.stack.entries:
                if other is query:
                    continue
                attr = attractiveness(f_worst - other.value,
                                      d1_distance(query.position, other.position),
                                      big_d, ctx.temperature)
                ranked.append((-attr, other.value, other.eval_index, other))
            ranked.sort(key=lambda r: r[:3])
            tries = 0
            for _, _, _, attractor in ranked:
                if tries >= opts.attractor_retry_cap or used >= budget:
                    break
                delta = attractor.position - query.position
                norm = float(np.sqrt(delta @ delta))
                if norm < 1e-12:
                    continue
                direction = delta / norm
                if not direction_is_new(ctx.direction_history, direction,
                                        opts.direction_cos_tol):
                    continue
                tries += 1
                seg = LineSegment.through(query.position, direction)
                res = minimize_on_line(
                    ctx.evaluate, seg, tol=opts.linmin_tol,
                    eval_cap=opts.linmin_eval_cap, f0=query.value,
                    n_scan=opts.linmin_n_scan, k_refine=opts.linmin_k_refine)
                used += res.evals_used
                ctx.offer(ctx.rate(point_on_line(seg, res.t_best), res.f_best))
                if res.f_best < query.value:
                    break
        if used == cycle_start:
            break  # every direction stale or degenerate: nothing left to try
    return ctx


def _random_permutation(rng: RngState, n: int) -> list[int]:
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = randint_below(rng, i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def run_axes(ctx: TrialContext, budget: Optional[int] = None) -> TrialContext:
    """Stage four: per-axis sweeps in random order for the whole swarm.

    Along axis k the admissible step range is [-x_k, 1 - x_k].  A probe that
    improves its origin point earns a full line minimization on that axis;
    probes that do not improve are dropped (the stage-one skip rule applied
    per axis).
    """
    if not ctx.stack.entries:
        raise ValueError("axis sweeps need a seeded stack")
    if budget is None:
        budget = ctx.stage_budgets[3]
    opts = ctx.options
    notch = opts.notch_params(ctx.temperature)
    used = 0
    while used < budget:
        for axis in _random_permutation(ctx.rng, ctx.dim):
            if used >= budget:
                break
            for origin in list(ctx.stack.entries):
                if used >= budget:
                    break
                x_k = origin.position[axis]
                lo, hi = -x_k, 1.0 - x_k
                t = sample_notch_twin_peaks(ctx.rng, notch, lo, hi)
                candidate = origin.position.copy()
                candidate[axis] = min(max(x_k + t, 0.0), 1.0)
                f_cand = ctx.evaluate(candidate)
                used += 1
                if not (f_cand < origin.value) or not math.isfinite(f_cand):
                    continue
                if opts.linmin_on_improvement:
                    direction = np.zeros(ctx.dim)
                    direction[axis] = 1.0
                    seg = LineSegment(origin.position, direction, lo, hi)
                    res = minimize_on_line(
                        ctx.evaluate, seg, tol=opts.linmin_tol,
                        eval_cap=opts.linmin_eval_cap, f0=origin.value,
                        known_points=((t, f_cand),),
                        n_scan=opts.linmin_n_scan,
                        k_refine=opts.linmin_k_refine)
                    used += res.evals_used
                    ctx.offer(ctx.rate(point_on_line(seg, res.t_best),
                                       res.f_best))
                else:
                    ctx.offer(ctx.rate(candidate, f_cand))
    return ctx


STAGES = (run_swarm_search, run_genetic, run_proximal, run_axes)
STAGE_NAMES = ("swarm_search", "genetic", "proximal", "axes")
