"""Shared statistical utilities, oracles and objectives for the test suite.

The reference densities of the step and mutation laws live here too, for
the tests and for ``scripts/export_distribution_tables.py``.
"""

import math
import os

import numpy as np
from scipy import integrate, stats
from scipy.optimize import brentq

from swarmstack.distributions import NotchParams
from swarmstack.domain import BoundsSpec, LineSegment, point_on_line
from swarmstack.stages import (ATTRACTOR_RETRY_CAP, DIRECTION_COS_TOL,
                               attractiveness, direction_is_new,
                               minimize_on_line,
                               sample_characteristic_distance)
from swarmstack.swarm import Stack

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gauss_pdf(x: float, mean: float, sd: float) -> float:
    u = (x - mean) / sd
    return _INV_SQRT_2PI / sd * math.exp(-0.5 * u * u)


def mixture_pdf(x: float, components) -> float:
    """Density at ``x`` of a list of (weight, mean, sd) Gaussian components,
    such as the twin_peaks or fat_tail3 mixture's ``components``."""
    return sum(w * gauss_pdf(x, m, sd) for w, m, sd in components if w > 0)


def notch_twin_peaks_pdf(np_: NotchParams, lo: float, hi: float):
    """Density of the notched law truncated to [lo, hi]; zero at x = 0.

    The normalizing area is integrated once, split at the cusp at zero.
    """
    p = np_.notch_exponent

    def unnormalized(x):
        return abs(x) ** p * mixture_pdf(x, np_.components)

    area = integrate.quad(unnormalized, lo, hi, points=[0.0], limit=400)[0]

    def pdf(x):
        if x < lo or x > hi:
            return 0.0
        return unnormalized(x) / area

    return pdf


def normalize(user_point, bounds: BoundsSpec) -> np.ndarray:
    """Map a user-unit point into [0, 1]^dim."""
    p = np.asarray(user_point, dtype=float)
    if p.shape != bounds.lower.shape:
        raise ValueError(
            f"point has dim {p.size}, bounds have dim {bounds.dim}")
    bad = np.nonzero((p < bounds.lower) | (p > bounds.upper))[0]
    if bad.size:
        raise ValueError(
            f"parameter {bad[0]} value {p[bad[0]]} outside "
            f"[{bounds.lower[bad[0]]}, {bounds.upper[bad[0]]}]")
    return (p - bounds.lower) / bounds.width


def assert_stack_invariants(stack: Stack) -> None:
    """Assert sortedness, capacity and pairwise distinctness of a stack."""
    assert len(stack.entries) <= stack.capacity
    keys = [e.sort_key() for e in stack.entries]
    assert keys == sorted(keys)
    for i in range(len(stack.entries)):
        for j in range(i + 1, len(stack.entries)):
            d = float(np.abs(stack.entries[i].position
                             - stack.entries[j].position).sum())
            assert d >= stack.r_eq


def chi_square_vs_pdf(samples, pdf, lo, hi, bins=100, min_expected=5.0):
    """Chi-square p-value of a sample histogram against an analytic pdf.

    Expected bin masses come from quadrature of ``pdf`` over each bin; bins
    with expected count below ``min_expected`` are pooled into their neighbor
    so the chi-square approximation stays valid.
    """
    samples = np.asarray(samples)
    edges = np.linspace(lo, hi, bins + 1)
    observed = np.histogram(samples, bins=edges)[0].astype(float)
    expected = np.empty(bins)
    for i in range(bins):
        expected[i] = integrate.quad(pdf, edges[i], edges[i + 1], limit=200)[0]
    expected *= len(samples) / expected.sum()

    obs_pooled, exp_pooled = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= min_expected:
            obs_pooled.append(acc_o)
            exp_pooled.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0 and obs_pooled:
        obs_pooled[-1] += acc_o
        exp_pooled[-1] += acc_e
    obs_pooled = np.array(obs_pooled)
    exp_pooled = np.array(exp_pooled) * (obs_pooled.sum() / sum(exp_pooled))
    return stats.chisquare(obs_pooled, exp_pooled).pvalue


def fit_bounded_exp_rate(samples):
    """Max-likelihood rate of a truncated exponential on [0, 1] via its mean."""
    m = float(np.mean(samples))

    def mean_minus_target(lam):
        return 1.0 / lam - 1.0 / math.expm1(lam) - m

    return brentq(mean_minus_target, 1e-4, 80.0)


def ks_2samp_pvalue(a, b):
    return stats.ks_2samp(a, b).pvalue


class CountingFunction:
    """Wraps an objective function and counts its calls and its non-finite
    returns itself: the oracle for the trial's evaluation and flag counters.

    Counts only calls made in this process, so use it with ``threads=1``.
    """

    def __init__(self, func):
        self.func = func
        self.calls = 0
        self.nonfinite = 0

    def __call__(self, x):
        value = self.func(x)
        self.calls += 1
        self.nonfinite += not math.isfinite(value)
        return value


def running(pid):
    """Whether process ``pid`` runs: it exists and is not a zombie that
    waits for its parent, or an adopting init, to reap it."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class BruteForceStack:
    """Independent reimplementation of the keep-best-distinct stack policy.

    Plain lists and tuples only; used as the oracle for stack equivalence.
    """

    def __init__(self, capacity, r_eq):
        self.capacity = capacity
        self.r_eq = r_eq
        self.items = []  # (value, eval_index, coords)

    def offer(self, value, eval_index, coords):
        if not math.isfinite(value):
            return
        eq = [it for it in self.items
              if sum(abs(a - b) for a, b in zip(it[2], coords)) < self.r_eq]
        if eq:
            if value < min(it[0] for it in eq):
                self.items = [it for it in self.items if it not in eq]
                self.items.append((value, eval_index, coords))
                self.items.sort(key=lambda it: (it[0], it[1]))
            return
        self.items.append((value, eval_index, coords))
        self.items.sort(key=lambda it: (it[0], it[1]))
        if len(self.items) > self.capacity:
            self.items.pop()


def reference_run_proximal(ctx, budget):
    """The proximal stage as one scalar loop per attractor (oracle).

    Ranks with one D1 distance per pair and checks every candidate direction
    against the history one entry at a time; the stage must make the same
    decisions, draws and insertions as this loop.
    """
    if len(ctx.stack.entries) < 2:
        return ctx
    used = 0
    while used < budget:
        cycle_start = used
        for query in reversed(list(ctx.stack.entries)):
            if used >= budget:
                break
            if not any(entry is query for entry in ctx.stack.entries):
                continue
            big_d = sample_characteristic_distance(ctx.rng, ctx.dim)
            f_worst = ctx.stack.worst.value
            ranked = []
            for other in ctx.stack.entries:
                if other is query:
                    continue
                d1 = float(np.abs(query.position - other.position).sum())
                attr = attractiveness(f_worst - other.value, d1, big_d,
                                      ctx.temperature)
                ranked.append((-attr, other.value, other.eval_index, other))
            ranked.sort(key=lambda r: r[:3])
            tries = 0
            for _, _, _, attractor in ranked:
                if tries >= ATTRACTOR_RETRY_CAP or used >= budget:
                    break
                delta = attractor.position - query.position
                norm = float(np.sqrt((delta * delta).sum()))
                if norm < 1e-12:
                    continue
                direction = delta / norm
                if not direction_is_new(ctx.direction_history, direction,
                                        DIRECTION_COS_TOL):
                    continue
                tries += 1
                seg = LineSegment.through(query.position, direction)
                res = minimize_on_line(ctx.evaluate, seg,
                                       tol=ctx.options.linmin_tol,
                                       known_points=((0.0, query.value),))
                used += res.evals_used
                ctx.offer(point_on_line(seg, res.t_best), res.f_best)
                if res.f_best < query.value:
                    break
        if used == cycle_start:
            break
    return ctx


def raising_sphere(x):
    """Sphere whose right edge raises ZeroDivisionError, a bug in Python."""
    if x[0] > 0.9:
        return 1 / 0
    return float(np.dot(x, x))


def exiting_sphere(x):
    """Sphere whose right edge ends its process at once, as a crash would.
    Call it only in a trial process."""
    if x[0] > 0.9:
        os._exit(3)
    return float(np.dot(x, x))
