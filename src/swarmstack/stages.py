"""The four cascaded search stages run by every trial.

1. Swarm search: the whole swarm steps along one shared random direction per
   sweep, each point by its own signed notched step; improving probes earn a
   full line minimization.
2. Genetic improvement: children recombine coordinates of the best stack
   entries (selection pressure rises as temperature falls) with a 25%
   fat-tailed per-coordinate mutation.
3. Proximal search: worse points run line minimizations toward "attractors"
   picked by a temperature- and visibility-dependent attractiveness kernel,
   along directions not tried recently.
4. Swarm along axes: per-axis probes and line minimizations over a randomly
   permuted coordinate sequence, shared by the whole swarm each sweep.

Each stage spends its evaluation budget on the trial's evaluation count and
stops cleanly once the budget is spent; a line minimization started on the
last budget unit may overrun by at most its own evaluation cap.

Every dot product is summed in a fixed order, never by BLAS, so a trial
makes the same decisions on any x86 host.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .distributions import (FatTail3Params, NotchParams, sample_fat_tail3,
                            sample_notch_twin_peaks, scale_for_temperature)
from .domain import LineSegment, line_domain, point_on_line, \
    random_unit_direction
from .linmin import DEFAULT_TOL, minimize_on_line
from .objective import ObjectiveHandle
from .rng import RngState, bounded_exponential, randint_below, truncated_gamma, \
    uniform01
from .swarm import InsertOutcome, RatedPoint, Stack

_DEGENERATE_SPAN = 1e-12
DIRECTION_HISTORY_CAPACITY = 64  # proximal directions remembered per trial
DIRECTION_COS_TOL = 0.999  # |cos| at or above which a direction is stale
ATTRACTOR_RETRY_CAP = 5  # line minimizations per proximal query point


@dataclass(frozen=True)
class AlgorithmOptions:
    """Tunable knobs of the search stages (defaults match the shipped setup).

    Every field is also a configuration key and command-line flag of the CLI,
    which derives its key table from this declaration.
    """

    linmin_on_improvement: bool = True
    linmin_tol: float = DEFAULT_TOL
    notch_exponent: float = 1.0 / 6.0
    mutation_prob: float = 0.25
    # endpoint density ratios of the parent-selection distribution
    recombine_ratio_high_t: float = 2.0
    recombine_ratio_low_t: float = 5.0
    # fat-tail mutation mixture
    fat_tail3_c1: float = 15.0
    fat_tail3_c2: float = 4.0
    fat_tail3_c3: float = 1.0
    fat_tail3_k1: float = 10.0
    fat_tail3_k2: float = 50.0
    fat_tail3_s_divisor: float = 20.0
    # equivalence radius schedule: dim * (base + slope * T)
    r_eq_base: float = 0.01
    r_eq_slope: float = 0.09

    def equivalence_radius(self, t: float, dim: int) -> float:
        return dim * (self.r_eq_base + self.r_eq_slope * t)

    def notch_params(self, t: float) -> NotchParams:
        return NotchParams(scale_for_temperature(t), self.notch_exponent)

    def fat_tail3_params(self, t: float) -> FatTail3Params:
        return FatTail3Params(c1=self.fat_tail3_c1, c2=self.fat_tail3_c2,
                              c3=self.fat_tail3_c3, k1=self.fat_tail3_k1,
                              k2=self.fat_tail3_k2,
                              s=scale_for_temperature(t) / self.fat_tail3_s_divisor)


@dataclass
class TrialContext:
    """All state one trial owns: stack, generator, temperature, counts."""

    stack: Stack
    rng: RngState
    temperature: float
    dim: int
    objective: ObjectiveHandle
    options: AlgorithmOptions = AlgorithmOptions()
    eval_count: int = 0
    flagged_count: int = 0  # evaluations that returned no finite number
    direction_history: deque = field(
        default_factory=lambda: deque(maxlen=DIRECTION_HISTORY_CAPACITY))
    insert_log: Optional[list] = None

    def evaluate(self, position: np.ndarray) -> float:
        self.eval_count += 1
        value = self.objective.evaluate(position)
        if not math.isfinite(value):
            self.flagged_count += 1
        return value

    def offer(self, position: np.ndarray, value: float) -> InsertOutcome:
        """Offer a point to the stack, stamped with the trial's own
        evaluation count; the scheduler shifts it into run order once the
        temperature step is done."""
        point = RatedPoint(position, value, self.eval_count)
        outcome = self.stack.try_insert(point)
        if self.insert_log is not None and outcome in (
                InsertOutcome.INSERTED, InsertOutcome.REPLACED_EQUIVALENT):
            self.insert_log.append(point)
        return outcome


def _probe(ctx: TrialContext, origin: RatedPoint, seg: LineSegment, t: float,
           candidate: np.ndarray, offer_worse: bool) -> None:
    """Evaluate the step ``candidate`` (at ``t`` on ``seg``) from ``origin``.

    A finite value that beats the origin earns a full line minimization
    along ``seg`` (when ``linmin_on_improvement`` is set), whose best point
    is offered instead of the raw step; otherwise the step is offered if it
    improved or ``offer_worse`` is set.
    """
    f_cand = ctx.evaluate(candidate)
    improved = f_cand < origin.value and math.isfinite(f_cand)
    if improved and ctx.options.linmin_on_improvement:
        res = minimize_on_line(ctx.evaluate, seg, tol=ctx.options.linmin_tol,
                               known_points=((0.0, origin.value), (t, f_cand)))
        ctx.offer(point_on_line(seg, res.t_best), res.f_best)
    elif improved or offer_worse:
        ctx.offer(candidate, f_cand)


def run_swarm_search(ctx: TrialContext, budget: int) -> None:
    """Stage one: populate and spread the swarm along shared random directions.

    Every sweep draws one direction for all points; each point takes a signed
    notched step inside its line domain, which is offered whatever its value
    unless it improved its origin and earned a line minimization.
    """
    if not ctx.stack.entries:
        raise ValueError("swarm search needs a seeded stack")
    notch = ctx.options.notch_params(ctx.temperature)
    end = ctx.eval_count + budget
    while ctx.eval_count < end:
        direction = random_unit_direction(ctx.rng, ctx.dim)
        for origin in list(ctx.stack.entries):
            if ctx.eval_count >= end:
                break
            lo, hi = line_domain(origin.position, direction)
            if hi - lo < _DEGENERATE_SPAN:
                continue
            seg = LineSegment(origin.position, direction, lo, hi)
            t = sample_notch_twin_peaks(ctx.rng, notch, lo, hi)
            _probe(ctx, origin, seg, t, point_on_line(seg, t), offer_worse=True)


def recombine_rate(t: float,
                   ratio_high_t: float = AlgorithmOptions.recombine_ratio_high_t,
                   ratio_low_t: float = AlgorithmOptions.recombine_ratio_low_t,
                   ) -> float:
    """Rate of the parent-selection exponential as a function of temperature.

    Chosen so the endpoint density ratio of the bounded exponential is
    exactly ``ratio_high_t`` at T=1 and ``ratio_low_t`` at T=0 (geometric
    interpolation in between): few good parents dominate when cold, the
    whole stack gets a chance when hot.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"temperature must be in [0, 1], got {t}")
    return (1.0 - t) * math.log(ratio_low_t) + t * math.log(ratio_high_t)


def choose_n_recombine(rng: RngState, rate: float, n_stack: int) -> int:
    """Number of parents for one child, drawn in [2, n_stack].

    ``rate`` is the parent-selection rate from :func:`recombine_rate`.
    """
    if n_stack < 2:
        raise ValueError(f"need at least 2 stack entries, got {n_stack}")
    # at n_stack == 2 the draw is still consumed so the stream advances
    # uniformly
    x = bounded_exponential(rng, rate, 0.0, 1.0)
    return 2 if n_stack == 2 else int(round(2.0 + x * (n_stack - 2)))


def recombine(ctx: TrialContext, rate: float,
              fat_tail: FatTail3Params) -> np.ndarray:
    """Produce one child by multi-parent coordinate recombination.

    The parent pool is the best n entries (n drawn by the bounded
    exponential of parent-selection ``rate``); each coordinate picks its
    donor by an analogous draw mapped onto [1, n], then mutates with the
    ``fat_tail`` kernel at the configured probability.
    """
    opts = ctx.options
    n = choose_n_recombine(ctx.rng, rate, len(ctx.stack.entries))
    parents = ctx.stack.entries[:n]
    child = np.empty(ctx.dim)
    for j in range(ctx.dim):
        x = bounded_exponential(ctx.rng, rate, 0.0, 1.0)
        donor = int(round(1.0 + x * (n - 1))) - 1
        child[j] = parents[donor].position[j]
        if opts.mutation_prob > 0.0 and uniform01(ctx.rng) < opts.mutation_prob:
            child[j] = sample_fat_tail3(ctx.rng, fat_tail, child[j], 0.0, 1.0)
    return child


def run_genetic(ctx: TrialContext, budget: int) -> None:
    """Stage two: recombination with mutation; selection is better-in-worst-out."""
    if len(ctx.stack.entries) < 2:
        return
    opts = ctx.options
    rate = recombine_rate(ctx.temperature, opts.recombine_ratio_high_t,
                          opts.recombine_ratio_low_t)
    fat_tail = opts.fat_tail3_params(ctx.temperature)
    end = ctx.eval_count + budget
    while ctx.eval_count < end:
        child = recombine(ctx, rate, fat_tail)
        ctx.offer(child, ctx.evaluate(child))


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


def _collinear_rows(directions: np.ndarray, history: deque,
                    cos_tol: float = DIRECTION_COS_TOL) -> np.ndarray:
    """Rows of ``directions`` whose |cos| with a remembered direction is at
    least ``cos_tol``; each cosine is summed coordinate by coordinate, in
    order, so a row's bits depend neither on the other rows nor on the host.
    """
    if not history:
        return np.zeros(len(directions), dtype=bool)
    remembered = np.array(history)
    cos = directions[:, :1] * remembered[:, 0]
    for k in range(1, directions.shape[1]):
        cos += directions[:, k:k + 1] * remembered[:, k]
    return (np.abs(cos) >= cos_tol).any(axis=1)


def direction_is_new(history: deque, u: np.ndarray, cos_tol: float) -> bool:
    """True when u is not collinear with any remembered direction.

    Sign-insensitive (a line, not a ray).  A new direction is recorded;
    the bounded history evicts its oldest entry.
    """
    if _collinear_rows(u[None, :], history, cos_tol)[0]:
        return False
    history.append(u)
    return True


def run_proximal(ctx: TrialContext, budget: int) -> None:
    """Stage three: line-minimize from worse points toward attractive ones.

    Cycling from the worst entry toward the best, each point draws a fresh
    visibility range, ranks all other entries by attractiveness and line
    minimizes toward the best-ranked ones whose directions were not tried
    recently, stopping at the first improvement (or after the retry cap).

    Per query the unit directions to all entries are built once, and one
    mask over them (:func:`_collinear_rows`) decides which are stale; it is
    recomputed after each tried direction joins the history.  A query with
    no usable direction left is not ranked at all.
    """
    if len(ctx.stack.entries) < 2:
        return
    opts = ctx.options
    history = ctx.direction_history
    end = ctx.eval_count + budget
    while ctx.eval_count < end:
        cycle_start = ctx.eval_count
        for query in reversed(list(ctx.stack.entries)):
            if ctx.eval_count >= end:
                break
            entries = list(ctx.stack.entries)
            qi = next((i for i, e in enumerate(entries) if e is query), None)
            if qi is None:
                continue  # evicted by an earlier insertion this cycle
            big_d = sample_characteristic_distance(ctx.rng, ctx.dim)
            # ctx.offer may change the stack during the walk below; the
            # stack then builds a new positions matrix, so this one stays
            # the snapshot that ``entries`` was taken from.
            deltas = ctx.stack.positions_matrix() - query.position
            norms = np.sqrt((deltas * deltas).sum(axis=1))
            usable = norms >= _DEGENERATE_SPAN  # not the query's own row
            directions = deltas / np.where(usable, norms, 1.0)[:, None]
            fresh = usable & ~_collinear_rows(directions, history)
            if not fresh.any():
                continue
            f_worst = ctx.stack.worst.value
            d1 = ctx.stack.d1_distances(query.position).tolist()
            ranked = sorted(
                (i for i in range(len(entries)) if i != qi),
                key=lambda i: (-attractiveness(f_worst - entries[i].value,
                                               d1[i], big_d, ctx.temperature),
                               entries[i].value, entries[i].eval_index))
            tries = 0
            for i in ranked:
                if tries >= ATTRACTOR_RETRY_CAP or ctx.eval_count >= end:
                    break
                if not fresh[i]:
                    continue
                direction = directions[i].copy()
                # records it: ``fresh`` has decided, so this returns True
                direction_is_new(history, direction, DIRECTION_COS_TOL)
                # it stales its collinear rows; an eviction can free one
                fresh = usable & ~_collinear_rows(directions, history)
                tries += 1
                seg = LineSegment.through(query.position, direction)
                res = minimize_on_line(ctx.evaluate, seg, tol=opts.linmin_tol,
                                       known_points=((0.0, query.value),))
                ctx.offer(point_on_line(seg, res.t_best), res.f_best)
                if res.f_best < query.value:
                    break
        if ctx.eval_count == cycle_start:
            break  # every direction stale or degenerate: nothing left to try


def _random_permutation(rng: RngState, n: int) -> list[int]:
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = randint_below(rng, i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def run_axes(ctx: TrialContext, budget: int) -> None:
    """Stage four: per-axis sweeps in random order for the whole swarm.

    Along axis k the admissible step range is [-x_k, 1 - x_k].  Each probe
    follows the stage-one rule on that axis, except that probes which do not
    improve their origin are dropped.
    """
    if not ctx.stack.entries:
        raise ValueError("axis sweeps need a seeded stack")
    notch = ctx.options.notch_params(ctx.temperature)
    unit_axes = np.eye(ctx.dim)
    end = ctx.eval_count + budget
    while ctx.eval_count < end:
        for axis in _random_permutation(ctx.rng, ctx.dim):
            if ctx.eval_count >= end:
                break
            for origin in list(ctx.stack.entries):
                if ctx.eval_count >= end:
                    break
                x_k = origin.position[axis]
                lo, hi = -x_k, 1.0 - x_k
                t = sample_notch_twin_peaks(ctx.rng, notch, lo, hi)
                # copy-and-set: cheaper than point_on_line, which clips
                candidate = origin.position.copy()
                candidate[axis] = min(max(x_k + t, 0.0), 1.0)
                seg = LineSegment(origin.position, unit_axes[axis], lo, hi)
                _probe(ctx, origin, seg, t, candidate, offer_worse=False)


STAGES = (run_swarm_search, run_genetic, run_proximal, run_axes)
STAGE_NAMES = ("swarm_search", "genetic", "proximal", "axes")
