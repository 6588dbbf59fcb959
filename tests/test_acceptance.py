"""Acceptance gate: one test per release criterion, each printing a verdict.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL line per
criterion as it completes.  The end-to-end criteria (6, 7) run full
optimizations over ten master seeds and take a few minutes; they and the
criteria built on the full default sphere run (1, 8) are marked ``slow``, so
``pytest -m "not slow"`` skips them.
"""

import math
from collections import defaultdict

import numpy as np
import pytest
from scipy import integrate, stats

from helpers import (BruteForceStack, CountingFunction, chi_square_vs_pdf,
                     fit_bounded_exp_rate, mixture_pdf, notch_twin_peaks_pdf)
from swarmstack import distributions as D
from swarmstack import rng as R
from swarmstack import stages as S
from swarmstack import swarm as sw
from swarmstack.domain import BoundsSpec, LineSegment
from swarmstack.linmin import DEFAULT_EVAL_CAP, minimize_on_line
from swarmstack.objective import (ObjectiveHandle, make_benchmark,
                                  make_benchmark_with_bounds)
from swarmstack.scheduler import RunConfig, allocate_budget, run_optimization
from swarmstack.swarm import RatedPoint, Stack


def verdict(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def trajectory_is_monotone(diag):
    """Best value must never rise within a trial nor across temperature steps."""
    by_trial = defaultdict(list)
    step_best = {}
    for r in diag.records:
        by_trial[(r.temperature, r.trial_index)].append(r.best_value)
        prev = step_best.get(r.temperature, math.inf)
        step_best[r.temperature] = min(prev, r.best_value)
    for seq in by_trial.values():
        if any(b > a for a, b in zip(seq, seq[1:])):
            return False
    temps = sorted(step_best, reverse=True)
    bests = [step_best[t] for t in temps]
    return all(b <= a for a, b in zip(bests, bests[1:]))


@pytest.fixture(scope="module")
def default_sphere_run():
    handle = make_benchmark("sphere", 11, bounds_style="offset")
    config = RunConfig(dim=11, bounds=handle.bounds, master_seed=2026)
    calls = CountingFunction(handle.evaluate)
    stack, diag = run_optimization(
        config, ObjectiveHandle(calls, handle.bounds))
    return config, handle, stack, diag, calls


@pytest.mark.slow
def test_criterion_1_budget_arithmetic(default_sphere_run):
    config, handle, stack, diag, calls = default_sphere_run
    nominal = 5 * 10 * 10_000
    total = diag.total_evaluations
    split = allocate_budget(10_000)
    ok = (split == (2174, 2174, 2826, 2826)
          and 0.9 * nominal <= total <= 1.1 * nominal
          and calls.calls == total)
    # actual per-stage spend: nominal share, plus at most one line
    # minimization of overshoot
    cap = DEFAULT_EVAL_CAP
    per_stage = defaultdict(dict)
    for r in diag.records:
        per_stage[(r.temperature, r.trial_index)][r.stage] = r.evals_used
    for stages_ in per_stage.values():
        for name, budget in zip(("swarm_search", "genetic", "proximal",
                                 "axes"), split):
            if not budget <= stages_[name] <= budget + cap:
                ok = False
    verdict(1, ok, f"split {split}, total {total} "
                   f"(target 5e5 +-10%), wall {diag.elapsed_s:.1f}s")


def test_criterion_2_dispersion_discrimination():
    square = [math.sqrt(2)] * 4 + [2.0] * 2
    collapsed = [0.0] * 2 + [2.0] * 4
    a = sw.sqrt_mean_score(square, 4)
    b = sw.sqrt_mean_score(collapsed, 4)
    expect_a = ((4 * 2 ** 0.25 + 2 * math.sqrt(2)) / 6) ** 2
    rms = [math.sqrt(sum(d * d for d in ds) / 6) for ds in (square, collapsed)]
    ok = (abs(a - expect_a) < 1e-6 and abs(a - 1.5982251) < 1e-6
          and abs(b - 8.0 / 9.0) < 1e-6 and a > b
          and all(abs(r - math.sqrt(8.0 / 3.0)) < 1e-12 for r in rms))
    verdict(2, ok, f"square {a:.7f} > collapsed {b:.7f}, "
                   f"rms both {rms[0]:.7f}")


def test_criterion_3_distribution_laws():
    n = 100_000
    checks = []

    tp = D.TwinPeaksParams(s=0.4)
    state = R.seed(9001, 0)
    draws = np.array([D._sample_truncated_mixture(state, D._mixture(tp),
                                                  -0.6, 1.0)
                      for _ in range(n)])
    mass = integrate.quad(lambda x: mixture_pdf(x, tp), -0.6, 1.0)[0]
    checks.append(("twinPeaks", chi_square_vs_pdf(
        draws, lambda x: mixture_pdf(x, tp) / mass, -0.6, 1.0)))

    notch = D.NotchParams(tp)
    state = R.seed(9001, 1)
    draws = np.array([D.sample_notch_twin_peaks(state, notch, -1.0, 1.0)
                      for _ in range(n)])
    notch_pdf = notch_twin_peaks_pdf(notch, -1.0, 1.0)
    checks.append(("notchTwinPeaks", chi_square_vs_pdf(
        draws, notch_pdf, -1.0, 1.0)))
    notch_zero = notch_pdf(0.0)

    ft = S.AlgorithmOptions().fat_tail3_params(1.0)
    state = R.seed(9001, 2)
    draws = np.array([D.sample_fat_tail3(state, ft, 0.3, 0.0, 1.0)
                      for _ in range(n)])
    ft_mass = integrate.quad(lambda x: mixture_pdf(x - 0.3, ft), 0, 1,
                             limit=400)[0]
    checks.append(("fatTail3", chi_square_vs_pdf(
        draws, lambda x: mixture_pdf(x - 0.3, ft) / ft_mass, 0.0, 1.0)))

    rate = math.log(2)
    state = R.seed(9001, 3)
    exp_hot = np.array([R.bounded_exponential(state, rate, 0.0, 1.0)
                        for _ in range(n)])
    pdf_norm = rate / (1 - math.exp(-rate))
    checks.append(("boundedExp", chi_square_vs_pdf(
        exp_hot, lambda x: pdf_norm * math.exp(-rate * x), 0.0, 1.0)))
    ratio_hot = math.exp(fit_bounded_exp_rate(exp_hot))
    state = R.seed(9001, 4)
    exp_cold = np.array([R.bounded_exponential(state, math.log(5), 0.0, 1.0)
                         for _ in range(n)])
    ratio_cold = math.exp(fit_bounded_exp_rate(exp_cold))

    state = R.seed(9001, 5)
    draws = np.array([R.truncated_gamma(state, 2.0, 3.3, 0.55, 11.0)
                      for _ in range(n)])
    g = stats.gamma(2.0, scale=3.3)
    g_mass = g.cdf(11.0) - g.cdf(0.55)
    checks.append(("truncGamma", chi_square_vs_pdf(
        draws, lambda x: g.pdf(x) / g_mass, 0.55, 11.0)))

    ok = (all(p > 0.001 for _, p in checks)
          and notch_zero == 0.0
          and abs(ratio_hot - 2.0) <= 0.1
          and abs(ratio_cold - 5.0) <= 0.2)
    detail = ", ".join(f"{name} p={p:.3f}" for name, p in checks)
    verdict(3, ok, f"{detail}; notch(0)={notch_zero}, "
                   f"ratios {ratio_hot:.2f}/{ratio_cold:.2f}")


def test_criterion_4_attractiveness_identities():
    nrng = np.random.default_rng(4)
    worst = 0.0
    ok = True
    for _ in range(1000):
        a0, d, big_d = nrng.uniform(0.01, 10.0, size=3)
        t = float(nrng.uniform())
        errs = (
            abs(S.attractiveness(a0, 0.0, big_d, t) - a0),
            abs(S.attractiveness(a0, big_d, big_d, 1.0) - a0 / 2),
            abs(S.attractiveness(a0, big_d, big_d, 0.0) - a0 * math.exp(-1)),
            abs(S.attractiveness(a0, d, big_d, t)
                - ((1 - t) * S.attractiveness(a0, d, big_d, 0.0)
                   + t * S.attractiveness(a0, d, big_d, 1.0))),
        )
        worst = max(worst, *errs)
        ok = ok and all(e < 1e-12 for e in errs)
    verdict(4, ok, f"1000 random triples, worst identity error {worst:.2e}")


def _battery():
    """(function, t_min, t_max) triples; every domain contains t = 0."""
    return [
        (lambda t: (t - 0.3) ** 2, -1.0, 1.0),
        (lambda t: (t - 5.0) ** 2, -1.0, 1.0),            # boundary minimum
        (lambda t: abs(t - 0.2), -1.0, 1.0),
        (lambda t: math.sin(8 * t) + 0.5 * t, 0.0, 3.0),
        (lambda t: math.sin(8 * t) + 0.5 * t, -2.0, 1.0),
        (lambda t: math.cos(5 * t) + 0.2 * t, -3.0, 2.0),
        (lambda t: t ** 4 - t ** 2, -2.0, 2.0),           # double well
        (lambda t: math.exp(t) - 2 * t, -1.0, 2.0),
        (lambda t: -math.exp(-((t - 0.5) ** 2)), -2.0, 2.0),
        (lambda t: 3.0, -1.0, 1.0),                       # constant
        (lambda t: max(abs(t) - 0.3, 0.0), -1.0, 1.0),    # flat plateau
        (lambda t: math.sin(3 * t) * math.cos(7 * t), -1.5, 1.5),
        (lambda t: -(math.exp(-4 * (t + 1) ** 2)
                     + 1.5 * math.exp(-8 * (t - 0.8) ** 2)), -2.0, 2.0),
        (lambda t: 5 * t * t if t < 0 else 0.2 * t * t, -1.0, 1.0),
        (lambda t: -1.0 / (0.1 + abs(t - 0.4)), -1.0, 1.0),
        (lambda t: (t - 0.6) ** 2 - 10 * math.cos(2 * math.pi * (t - 0.6))
                   + 10, -2.0, 2.0),
        (lambda t: math.sin(25 * t) + 0.1 * t, -1.0, 1.0),
        (lambda t: 1e6 * (t - 0.123) ** 2, -1.0, 1.0),
        (lambda t: 1e-6 * (t - 0.7) ** 2, -1.0, 1.0),
        (lambda t: math.sqrt(abs(t + 0.5)) - 0.1 * t, -1.0, 1.0),
    ]


def test_criterion_5_linmin_battery():
    # precision settings: the +1e-6 slack on cusp-type minima demands
    # refinement far below the optimizer's own 1e-4 default tolerance
    eval_cap = 110
    hits = 0
    never_worse = True
    within_cap = True
    for f, a, b in _battery():
        span = max(abs(a), abs(b)) * 2 + 1.0
        origin = np.array([abs(a) / span])
        seg = LineSegment(origin, np.array([1.0 / span]), a, b)

        def objective(vec, _f=f, _o=origin[0], _s=span):
            return _f((vec[0] - _o) * _s)

        res = minimize_on_line(objective, seg, tol=1e-13, eval_cap=eval_cap,
                               k_refine=3)
        grid = np.linspace(a, b, 100_001)
        oracle = min(f(t) for t in grid)
        hits += res.f_best <= oracle + 1e-6
        never_worse &= res.f_best <= f(0.0) + 1e-12
        within_cap &= res.evals_used <= eval_cap
    ok = hits >= 19 and never_worse and within_cap
    verdict(5, ok, f"{hits}/20 hit the dense-grid optimum (need >= 19); "
                   f"never worse than origin: {never_worse}; "
                   f"caps respected: {within_cap}")


@pytest.mark.slow
def test_criterion_6_end_to_end():
    rastrigin_hits = 0
    rastrigin_errs = []
    for seed in range(10):
        handle = make_benchmark("rastrigin", 11, bounds_style="offset")
        config = RunConfig(dim=11, bounds=handle.bounds, master_seed=seed)
        stack, diag = run_optimization(config, handle)
        err = float(np.abs(stack.best.position - handle.known_optima[0]).max())
        rastrigin_errs.append(err)
        rastrigin_hits += err <= 1e-3
        assert trajectory_is_monotone(diag)

    # unit-width sphere: at the tolerance 1e-4 of the refiner the objective
    # floor is ~1e-8 per coordinate, so <= 1e-6 demands genuine quadratic
    # convergence below the nominal tolerance
    sphere_hits = 0
    sphere_best = []
    for seed in range(10):
        bounds = BoundsSpec.from_pairs([(-0.37, 0.63)] * 11)
        handle = make_benchmark_with_bounds("sphere", bounds)
        config = RunConfig(dim=11, bounds=bounds, evals_per_trial=1000,
                           master_seed=seed)
        stack, diag = run_optimization(config, handle)
        sphere_best.append(stack.best.value)
        sphere_hits += stack.best.value <= 1e-6
    ok = rastrigin_hits >= 8 and sphere_hits == 10
    verdict(6, ok,
            f"rastrigin-11 coord err <= 1e-3 in {rastrigin_hits}/10 "
            f"(worst {max(rastrigin_errs):.2e}); sphere-11 <= 1e-6 in "
            f"{sphere_hits}/10 (worst {max(sphere_best):.2e})")


@pytest.mark.slow
def test_criterion_7_multimodality():
    hits = 0
    for seed in range(10):
        handle = make_benchmark("twin_valleys", 6)
        config = RunConfig(dim=6, bounds=handle.bounds, evals_per_trial=2000,
                           master_seed=seed)
        stack, diag = run_optimization(config, handle)
        locus_a, locus_b = handle.known_optima
        da = min(float(np.abs(e.position - locus_a).sum())
                 for e in stack.entries)
        db = min(float(np.abs(e.position - locus_b).sum())
                 for e in stack.entries)
        hits += da <= 0.05 and db <= 0.05
        assert trajectory_is_monotone(diag)
    verdict(7, hits >= 9, f"both valley optima held in stack in {hits}/10 runs")


@pytest.mark.slow
def test_criterion_8_determinism_and_monotonicity(default_sphere_run):
    def run_once():
        handle = make_benchmark("rastrigin", 3, bounds_style="offset")
        config = RunConfig(dim=3, bounds=handle.bounds,
                           trials_per_temperature=3, evals_per_trial=600,
                           stack_capacity=24, master_seed=77)
        return run_optimization(config, handle)

    stack_a, diag_a = run_once()
    stack_b, diag_b = run_once()
    identical = (len(stack_a) == len(stack_b) and all(
        ea.value == eb.value and np.array_equal(ea.position, eb.position)
        and ea.eval_index == eb.eval_index
        for ea, eb in zip(stack_a.entries, stack_b.entries)))
    monotone = (trajectory_is_monotone(diag_a)
                and trajectory_is_monotone(default_sphere_run[3]))
    verdict(8, identical and monotone,
            f"bit-identical repeat: {identical}; "
            f"monotone trajectories: {monotone}")


def test_criterion_9_stack_oracle_equivalence():
    nrng = np.random.default_rng(99)
    mismatches = 0
    for _ in range(10_000):
        capacity = int(nrng.integers(1, 9))
        r_eq = float(nrng.uniform(0.0, 1.0))
        dim = int(nrng.integers(1, 4))
        stack = Stack(capacity, r_eq)
        oracle = BruteForceStack(capacity, r_eq)
        for idx in range(25):
            coords = np.round(nrng.uniform(size=dim), 2)
            value = float(np.round(nrng.normal(), 1))
            stack.try_insert(RatedPoint(coords, value, idx))
            oracle.offer(value, idx, tuple(coords))
        got = [(e.value, e.eval_index, tuple(e.position))
               for e in stack.entries]
        if got != oracle.items:
            mismatches += 1
    verdict(9, mismatches == 0,
            f"10000 randomized insert sequences, {mismatches} mismatches")
