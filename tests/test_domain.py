import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import normalize
from swarmstack import domain as dom
from swarmstack import rng as R


def bisect_line_domain(p0, u, iters=80):
    """The slow bisection way of finding [a, b] (oracle for the analytic clip)."""
    def inside(t):
        p = p0 + t * u
        return np.all(p >= -1e-15) and np.all(p <= 1 + 1e-15)

    def extreme(sign):
        lo_t, hi_t = 0.0, sign * 4.0 * math.sqrt(len(p0))
        if inside(hi_t):
            return hi_t
        for _ in range(iters):
            mid = 0.5 * (lo_t + hi_t)
            if inside(mid):
                lo_t = mid
            else:
                hi_t = mid
        return lo_t

    return extreme(-1.0), extreme(1.0)


class TestBoundsSpec:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            dom.BoundsSpec.from_pairs([(0.0, 1.0), (3.0, 2.0)])

    @pytest.mark.parametrize("lower, upper", [
        ([0.0, 0.0], [math.inf, 1.0]), ([0.0, -math.inf], [1.0, 1.0]),
        ([0.0, math.nan], [1.0, 1.0]), ([-math.inf, 0.0], [math.inf, 1.0]),
        ([-1e308, 0.0], [1e308, 1.0])],
        ids=["upper-inf", "lower-minus-inf", "nan", "both-inf",
             "width-overflows"])
    def test_rejects_non_finite_bounds(self, lower, upper):
        with pytest.raises(ValueError, match="finite"):
            dom.BoundsSpec(lower, upper)

    def test_dim_and_width(self):
        b = dom.BoundsSpec.from_pairs([(0, 10), (-5, 5)])
        assert b.dim == 2
        assert np.allclose(b.width, [10, 10])


class TestNormalize:
    def test_simple_midpoint(self):
        b = dom.BoundsSpec.from_pairs([(0.0, 10.0)])
        assert normalize(np.array([5.0]), b)[0] == pytest.approx(0.5)

    def test_bounds_map_to_cube_corners(self):
        b = dom.BoundsSpec.from_pairs([(-3.0, 7.0), (2.0, 4.0)])
        assert np.allclose(normalize(b.lower, b), 0.0)
        assert np.allclose(normalize(b.upper, b), 1.0)

    def test_out_of_bounds_names_parameter(self):
        b = dom.BoundsSpec.from_pairs([(0.0, 1.0), (0.0, 1.0)])
        with pytest.raises(ValueError, match="parameter 1"):
            normalize(np.array([0.5, 1.5]), b)

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        b = dom.BoundsSpec.from_pairs([(-4.0, 9.0), (0.1, 0.2), (1e3, 2e3)])
        for _ in range(1000):
            x = b.lower + rng.uniform(size=3) * b.width
            back = dom.denormalize(normalize(x, b), b)
            assert np.all(np.abs(back - x) <= np.spacing(np.abs(x)))


class TestRandomUnitDirection:
    def test_unit_norm(self):
        s = R.seed(41, 0)
        for dim in (1, 2, 5, 11):
            u = dom.random_unit_direction(s, dim)
            assert abs(float(np.linalg.norm(u)) - 1.0) < 1e-12

    def test_dim_one_is_sign(self):
        s = R.seed(41, 1)
        for _ in range(20):
            u = dom.random_unit_direction(s, 1)
            assert u[0] in (1.0, -1.0)

    def test_isotropy_mean_zero(self):
        s = R.seed(41, 2)
        acc = np.zeros(3)
        n = 100_000
        for _ in range(n):
            acc += dom.random_unit_direction(s, 3)
        assert np.all(np.abs(acc / n) < 0.02)


class TestLineDomain:
    def test_axis_direction_center(self):
        a, b = dom.line_domain(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        assert (a, b) == (-0.5, 0.5)

    def test_axis_parallel_general_point(self):
        # along axis k the admissible range is [-x_k, 1 - x_k]
        p = np.array([0.3, 0.8, 0.1])
        for k in range(3):
            u = np.zeros(3)
            u[k] = 1.0
            a, b = dom.line_domain(p, u)
            assert a == pytest.approx(-p[k])
            assert b == pytest.approx(1.0 - p[k])

    def test_diagonal(self):
        r = math.sqrt(2) / 2
        a, b = dom.line_domain(np.array([0.5, 0.5]), np.array([r, r]))
        assert a == pytest.approx(-r, abs=1e-12)
        assert b == pytest.approx(r, abs=1e-12)

    def test_origin_outside_cube_rejected(self):
        with pytest.raises(ValueError):
            dom.line_domain(np.array([1.2, 0.5]), np.array([1.0, 0.0]))

    def test_contains_zero_and_stays_in_cube(self):
        s = R.seed(43, 0)
        nrng = np.random.default_rng(5)
        for _ in range(10_000):
            dim = int(nrng.integers(1, 6))
            p0 = nrng.uniform(size=dim)
            u = dom.random_unit_direction(s, dim)
            a, b = dom.line_domain(p0, u)
            assert a <= 0.0 <= b
            for t in (a, b):
                pt = p0 + t * u
                assert np.all(pt >= -1e-12) and np.all(pt <= 1 + 1e-12)

    def test_agrees_with_bisection_oracle(self):
        s = R.seed(43, 1)
        nrng = np.random.default_rng(6)
        for _ in range(1000):
            dim = int(nrng.integers(1, 8))
            p0 = nrng.uniform(size=dim)
            u = dom.random_unit_direction(s, dim)
            a, b = dom.line_domain(p0, u)
            a_ref, b_ref = bisect_line_domain(p0, u)
            assert a == pytest.approx(a_ref, abs=1e-9)
            assert b == pytest.approx(b_ref, abs=1e-9)


class TestPointOnLine:
    def make_seg(self):
        return dom.LineSegment.through(np.array([0.25, 0.5]),
                                       np.array([1.0, 0.0]))

    def test_t_zero_is_origin(self):
        seg = self.make_seg()
        assert np.array_equal(dom.point_on_line(seg, 0.0), seg.origin)

    def test_endpoint_touches_face(self):
        seg = self.make_seg()
        pt = dom.point_on_line(seg, seg.t_max)
        assert np.any((np.abs(pt) < 1e-9) | (np.abs(pt - 1.0) < 1e-9))

    def test_affine_midpoint(self):
        seg = self.make_seg()
        t1, t2 = -0.1, 0.6
        mid = dom.point_on_line(seg, (t1 + t2) / 2)
        avg = (dom.point_on_line(seg, t1) + dom.point_on_line(seg, t2)) / 2
        assert np.allclose(mid, avg, atol=1e-14)

    def test_out_of_segment_rejected(self):
        seg = self.make_seg()
        with pytest.raises(ValueError):
            dom.point_on_line(seg, seg.t_max + 0.01)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32), st.floats(0, 1))
    def test_points_always_in_cube(self, seed_val, frac):
        s = R.seed(seed_val, 4)
        nrng = np.random.default_rng(seed_val % 2**31)
        p0 = nrng.uniform(size=4)
        seg = dom.LineSegment.through(p0, dom.random_unit_direction(s, 4))
        t = seg.t_min + frac * (seg.t_max - seg.t_min)
        t = min(max(t, seg.t_min), seg.t_max)  # frac=1.0 can overshoot by 1 ulp
        pt = dom.point_on_line(seg, t)
        assert np.all(pt >= 0.0) and np.all(pt <= 1.0)
