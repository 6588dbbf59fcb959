import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swarmstack.domain import LineSegment
from swarmstack.linmin import (LinminResult, _LineProbe, _refine_bracket,
                               minimize_on_line)


def seg_1d(a, b):
    """A 1-D segment where t maps directly onto [a, b] shifted into the cube."""
    # origin at the cube point corresponding to t=0
    span = max(abs(a), abs(b)) * 2 + 1e-9
    origin = np.array([abs(a) / span])
    return LineSegment(origin, np.array([1.0 / span]), a, b), span


def on_scalar(f):
    """Wrap a scalar function of t as an objective over the 1-D cube."""
    def objective_factory(a, b):
        seg, span = seg_1d(a, b)
        origin = seg.origin[0]

        def objective(vec):
            t = (vec[0] - origin) * span
            return f(t)

        return objective, seg
    return objective_factory


class TestMinimizeOnLine:
    def test_quadratic(self):
        objective, seg = on_scalar(lambda t: (t - 0.3) ** 2)(-1.0, 1.0)
        res = minimize_on_line(objective, seg, tol=1e-4, eval_cap=80)
        assert abs(res.t_best - 0.3) <= 1e-4
        assert res.evals_used <= 80

    def test_multimodal_matches_dense_grid(self):
        f = lambda t: math.sin(8 * t) + 0.5 * t
        objective, seg = on_scalar(f)(0.0, 3.0)
        res = minimize_on_line(objective, seg, tol=1e-4, eval_cap=120)
        grid = np.linspace(0.0, 3.0, 100_001)
        vals = np.sin(8 * grid) + 0.5 * grid
        t_star = float(grid[int(np.argmin(vals))])
        assert abs(res.t_best - t_star) <= 1e-4
        assert res.f_best <= float(vals.min()) + 1e-6

    def test_monotone_lands_on_boundary(self):
        objective, seg = on_scalar(lambda t: 2.0 - t)(-0.5, 1.5)
        res = minimize_on_line(objective, seg, tol=1e-4, eval_cap=80)
        assert abs(res.t_best - 1.5) <= 1e-4
        objective, seg = on_scalar(lambda t: 2.0 + t)(-0.5, 1.5)
        res = minimize_on_line(objective, seg, tol=1e-4, eval_cap=80)
        assert abs(res.t_best - (-0.5)) <= 1e-4

    def test_constant_stays_at_origin(self):
        objective, seg = on_scalar(lambda t: 7.0)(-1.0, 1.0)
        res = minimize_on_line(objective, seg, tol=1e-4, eval_cap=60)
        assert res.t_best == 0.0
        assert res.f_best == 7.0

    def test_never_worse_than_origin(self):
        nrng = np.random.default_rng(17)
        for _ in range(200):
            coeffs = nrng.normal(size=5)

            def f(t, c=coeffs):
                return float(c[0] * t + c[1] * math.sin(5 * t + c[2])
                             + c[3] * t * t + c[4])

            objective, seg = on_scalar(f)(-1.0, 1.0)
            res = minimize_on_line(objective, seg, tol=1e-3, eval_cap=40)
            assert res.f_best <= f(0.0) + 1e-12

    def test_supplied_f0_is_trusted_and_free(self):
        calls = []
        f = lambda t: t * t
        objective, seg = on_scalar(lambda t: calls.append(1) or t * t)(-1.0, 1.0)
        res = minimize_on_line(objective, seg, tol=1e-4, eval_cap=60,
                               known_points=((0.0, 0.0),))
        assert res.f_best <= 0.0
        assert res.evals_used == len(calls)

    def test_known_points_join_scan(self):
        # a known probe in an otherwise unsampled sharp well gets refined
        def f(t):
            return min((t - 0.837) ** 2 * 100 - 1.0, 0.0) + t * t * 0.01

        objective, seg = on_scalar(f)(-1.0, 1.0)
        res_plain = minimize_on_line(objective, seg, tol=1e-4, eval_cap=50)
        res_known = minimize_on_line(objective, seg, tol=1e-4, eval_cap=50,
                                     known_points=((0.837, f(0.837)),))
        assert res_known.f_best <= f(0.837)
        assert res_known.f_best <= res_plain.f_best

    def test_eval_cap_respected_and_flagged(self):
        objective, seg = on_scalar(lambda t: math.cos(20 * t) + t)(-1.0, 1.0)
        res = minimize_on_line(objective, seg, tol=1e-12, eval_cap=25)
        assert res.evals_used <= 25
        assert res.truncated

    def test_nonfinite_probes_discarded(self):
        def f(t):
            if 0.4 < t < 0.6:
                return math.nan
            return (t - 0.1) ** 2

        objective, seg = on_scalar(f)(-1.0, 1.0)
        res = minimize_on_line(objective, seg, tol=1e-4, eval_cap=80)
        assert res.nonfinite_seen
        assert math.isfinite(res.f_best)
        assert abs(res.t_best - 0.1) <= 1e-3

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10_000), st.integers(5, 60))
    def test_budget_never_exceeded(self, seed_val, cap):
        nrng = np.random.default_rng(seed_val)
        c = nrng.normal(size=4)

        def f(t):
            return float(c[0] * t * t + c[1] * math.sin(7 * t) + c[2] * t + c[3])

        objective, seg = on_scalar(f)(-1.0, 2.0)
        res = minimize_on_line(objective, seg, tol=1e-5, eval_cap=cap)
        assert res.evals_used <= cap
        assert res.f_best <= f(0.0) + 1e-12


def refine_bracket(f, a, m, b, tol, eval_cap):
    """Bracketed refinement of a scalar f of t on [-1, 1], as linmin runs it.

    The three bracket values are probed here and count against eval_cap.
    """
    objective, seg = on_scalar(f)(-1.0, 1.0)
    probe = _LineProbe(objective, seg, eval_cap)
    fa, fm, fb = probe(a), probe(m), probe(b)
    assert fm <= fa and fm <= fb, "not a bracket"
    t, fv = _refine_bracket(probe, a, m, b, fa, fm, fb, tol)
    assert probe.used <= eval_cap
    return t, fv


class TestRefineBracket:
    def test_quadratic_few_evals(self):
        f = lambda t: (t - 0.37) ** 2 + 1.0
        t, fv = refine_bracket(f, -1.0, 0.2, 1.0, tol=1e-6, eval_cap=6)
        assert abs(t - 0.37) <= 1e-6
        assert fv == pytest.approx(1.0, abs=1e-10)

    def test_v_shape_golden_fallback(self):
        t, fv = refine_bracket(abs, -1.0, -0.1, 1.0, tol=1e-4, eval_cap=60)
        assert abs(t) <= 1e-4

    def test_tiny_bracket_returns_center(self):
        f = lambda t: (t - 2e-7) ** 2
        t, fv = refine_bracket(f, 1e-7, 2e-7, 3e-7, tol=1e-4, eval_cap=10)
        assert t == 2e-7
