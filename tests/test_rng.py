import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from helpers import fit_bounded_exp_rate, ks_2samp_pvalue
from swarmstack import distributions as D
from swarmstack import rng as R

# First ten outputs of the published JKISS routine from its default seed
# words (123456789, 987654321, 43219876, 6543217), frozen from an
# independent transcription of the C reference.
JKISS_GOLDEN = [
    560241513, 2602615593, 2542353780, 3322652092, 2306311670,
    3473025722, 4103263712, 718504230, 1670074768, 3653747430,
]


def reference_jkiss(x, y, z, c, n):
    """Line-for-line transcription of the reference generator (test oracle)."""
    out = []
    for _ in range(n):
        x = (314527869 * x + 1234567) & 0xFFFFFFFF
        y ^= (y << 5) & 0xFFFFFFFF
        y ^= y >> 7
        y ^= (y << 22) & 0xFFFFFFFF
        t = 4294584393 * z + c
        c = t >> 32
        z = t & 0xFFFFFFFF
        out.append((x + y + z) & 0xFFFFFFFF)
    return out


class TestSeed:
    def test_deterministic(self):
        assert R.seed(12345, 7) == R.seed(12345, 7)

    def test_streams_differ_in_all_words(self):
        for master in (0, 1, 42, 2**64 - 1, 987654321123456789):
            a = R.seed(master, 0)
            b = R.seed(master, 1)
            assert a.x != b.x and a.y != b.y and a.z != b.z and a.c != b.c

    @given(st.integers(min_value=0, max_value=2**64 - 1),
           st.integers(min_value=0, max_value=2**20))
    def test_seeded_state_always_valid(self, master, stream):
        s = R.seed(master, stream)
        assert s.y != 0
        assert 1 <= s.c <= 698769068
        assert 0 <= s.x <= 0xFFFFFFFF and 0 <= s.z <= 0xFFFFFFFF

    def test_negative_stream_rejected(self):
        with pytest.raises(ValueError):
            R.seed(1, -1)


class TestNextU32:
    def test_golden_values(self):
        s = R.RngState(123456789, 987654321, 43219876, 6543217)
        assert [R.next_u32(s) for _ in range(10)] == JKISS_GOLDEN

    def test_matches_reference_transcription(self):
        s = R.seed(99, 4)
        expect = reference_jkiss(s.x, s.y, s.z, s.c, 1000)
        assert [R.next_u32(s) for _ in range(1000)] == expect

    def test_identical_states_identical_outputs(self):
        a = R.seed(5, 5)
        b = a.copy()
        assert [R.next_u32(a) for _ in range(100)] == \
               [R.next_u32(b) for _ in range(100)]

    def test_fill_matches_single_steps(self):
        a = R.seed(3, 1)
        b = a.copy()
        assert R.fill_u32(a, 500) == [R.next_u32(b) for _ in range(500)]
        assert a == b

    def test_mapped_mean_near_half(self):
        s = R.RngState(123456789, 987654321, 43219876, 6543217)
        vals = R.fill_u32(s, 10**6)
        mean = sum(vals) / len(vals) / 2**32
        assert abs(mean - 0.5) < 0.001


def test_bulk_statistics_serial_and_2d():
    # One 1e7-draw stream feeds the lag-1 autocorrelation check and the 2-D
    # uniformity check on consecutive (disjoint) pairs over a 64x64 grid.
    s = R.seed(20260810, 0)
    vals = np.array(R.fill_u32(s, 10**7), dtype=np.float64) / 2**32
    v = vals - vals.mean()
    lag1 = float(np.dot(v[:-1], v[1:]) / np.dot(v, v))
    assert abs(lag1) < 0.001

    xs = np.minimum((vals[0::2] * 64).astype(np.int64), 63)
    ys = np.minimum((vals[1::2] * 64).astype(np.int64), 63)
    counts = np.bincount(xs * 64 + ys, minlength=64 * 64)
    p = stats.chisquare(counts).pvalue
    assert p > 0.001


class TestUniform01:
    def test_maps_word_over_2_32(self):
        a = R.seed(8, 0)
        b = a.copy()
        for _ in range(200):
            assert R.uniform01(a) == R.next_u32(b) / 2**32

    def test_range(self):
        s = R.seed(8, 1)
        draws = [R.uniform01(s) for _ in range(10**5)]
        assert min(draws) >= 0.0
        assert max(draws) < 1.0


class TestGaussian:
    def test_rejects_bad_sd(self):
        s = R.seed(1, 0)
        with pytest.raises(ValueError):
            R.gaussian(s, 0.0, 0.0)
        with pytest.raises(ValueError):
            R.gaussian(s, 0.0, -1.0)

    def test_tiny_sd_concentrates(self):
        s = R.seed(2, 0)
        for _ in range(100):
            assert abs(R.gaussian(s, 5.0, 1e-9) - 5.0) < 1e-7

    def test_moments(self):
        s = R.seed(7, 3)
        g = np.array([R.gaussian(s, 0.0, 1.0) for _ in range(100_000)])
        assert abs(g.mean()) < 0.02
        assert abs(g.std() - 1.0) < 0.02

    def test_symmetry(self):
        s = R.seed(7, 3)
        g = np.array([R.gaussian(s, 0.0, 1.0) for _ in range(100_000)])
        assert ks_2samp_pvalue(g, -g) > 0.001


def bounded_gaussian(state, mean, sd, lo, hi):
    """Normal(mean, sd) conditioned on [lo, hi], drawn as the one-component
    truncated mixture; picking the component consumes one uniform."""
    return D._sample_truncated_mixture(state, [(1.0, mean, sd)], lo, hi)


class TestBoundedGaussian:
    def test_rejects_empty_interval(self):
        s = R.seed(1, 0)
        with pytest.raises(ValueError):
            bounded_gaussian(s, 0.0, 1.0, 1.0, 1.0)

    def test_wide_interval_matches_untruncated(self):
        # mass(-8, 8) > 0.999: truncation is invisible at KS resolution
        a = R.seed(11, 0)
        b = R.seed(12, 0)
        bg = [bounded_gaussian(a, 0.0, 1.0, -8.0, 8.0) for _ in range(50_000)]
        g = [R.gaussian(b, 0.0, 1.0) for _ in range(50_000)]
        assert ks_2samp_pvalue(bg, g) > 0.001

    def test_far_tail_monotone_toward_near_bound(self):
        s = R.seed(14, 0)
        draws = np.array([bounded_gaussian(s, 10.0, 1.0, 0.0, 1.0)
                          for _ in range(20_000)])
        assert draws.min() >= 0.0 and draws.max() <= 1.0
        # conditional density increases toward 1, so the top half dominates
        assert (draws > 0.5).mean() > 0.9

    def test_hairline_interval(self):
        s = R.seed(15, 0)
        a = 0.3
        for _ in range(50):
            x = bounded_gaussian(s, 0.0, 1.0, a, a + 1e-6)
            assert a <= x <= a + 1e-6

    def test_matches_brute_force_rejection_oracle(self):
        # narrow window via the interval-rejection branch (mass < 0.25)
        s = R.seed(13, 0)
        n = 100_000
        mine = np.array([bounded_gaussian(s, 0.7, 0.3, 0.0, 0.25)
                         for _ in range(n)])
        orng = np.random.default_rng(999)
        kept = []
        while len(kept) < n:
            cand = orng.normal(0.7, 0.3, size=200_000)
            kept.extend(cand[(cand >= 0.0) & (cand <= 0.25)].tolist())
        assert ks_2samp_pvalue(mine, np.array(kept[:n])) > 0.001

    @given(st.floats(-5, 5), st.floats(0.01, 3), st.floats(-2, 2),
           st.floats(0.001, 3), st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_always_inside_bounds(self, mean, sd, lo, width, seed_val):
        s = R.seed(seed_val, 0)
        x = bounded_gaussian(s, mean, sd, lo, lo + width)
        assert lo <= x <= lo + width


class TestBoundedExponential:
    def test_rejects_bad_params(self):
        s = R.seed(1, 0)
        with pytest.raises(ValueError):
            R.bounded_exponential(s, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            R.bounded_exponential(s, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("rate,expect_ratio,tol", [
        (math.log(2), 2.0, 0.1),
        (math.log(5), 5.0, 0.2),
    ])
    def test_endpoint_density_ratio(self, rate, expect_ratio, tol):
        s = R.seed(15 if rate < 1 else 16, 0)
        draws = [R.bounded_exponential(s, rate, 0.0, 1.0)
                 for _ in range(100_000)]
        ratio = math.exp(fit_bounded_exp_rate(draws))
        assert abs(ratio - expect_ratio) < tol

    def test_vanishing_rate_tends_uniform(self):
        s = R.seed(17, 1)
        draws = [R.bounded_exponential(s, 1e-9, 2.0, 4.0) for _ in range(20_000)]
        assert abs(np.mean(draws) - 3.0) < 0.02

    @given(st.floats(0.01, 20), st.floats(-3, 3), st.floats(0.001, 5),
           st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_always_inside_bounds(self, rate, lo, width, seed_val):
        s = R.seed(seed_val, 1)
        x = R.bounded_exponential(s, rate, lo, lo + width)
        assert lo <= x <= lo + width


class TestTruncatedGamma:
    def test_rejects_bad_params(self):
        s = R.seed(1, 0)
        with pytest.raises(ValueError):
            R.truncated_gamma(s, 0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):  # only shape >= 1 is sampled
            R.truncated_gamma(s, 0.5, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            R.truncated_gamma(s, 1.0, -1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            R.truncated_gamma(s, 1.0, 1.0, 2.0, 1.0)

    def test_shape_one_is_truncated_exponential(self):
        s = R.seed(21, 0)
        n = 20_000
        mine = np.array([R.truncated_gamma(s, 1.0, 2.0, 0.5, 6.0)
                         for _ in range(n)])
        # inverse-CDF oracle for Exp(mean 2) conditioned on [0.5, 6]
        orng = np.random.default_rng(4321)
        u = orng.uniform(size=n)
        f_lo, f_hi = 1 - math.exp(-0.5 / 2), 1 - math.exp(-6.0 / 2)
        oracle = -2.0 * np.log1p(-(f_lo + u * (f_hi - f_lo)))
        assert ks_2samp_pvalue(mine, oracle) > 0.001

    def test_unbounded_mean(self):
        s = R.seed(17, 0)
        draws = [R.truncated_gamma(s, 2.0, 1.0, 0.0, math.inf)
                 for _ in range(100_000)]
        assert abs(np.mean(draws) - 2.0) / 2.0 < 0.02

    def test_improbable_window_raises(self):
        # P(Gamma(2,1) in [25, 26]) ~ 2e-10: all 64 tries miss
        s = R.seed(19, 0)
        with pytest.raises(RuntimeError, match="missed"):
            R.truncated_gamma(s, 2.0, 1.0, 25.0, 26.0)

    def test_matches_brute_force_rejection_oracle(self):
        s = R.seed(22, 0)
        n = 100_000
        mine = np.array([R.truncated_gamma(s, 2.0, 3.3, 0.55, 11.0)
                         for _ in range(n)])
        orng = np.random.default_rng(777)
        kept = []
        while len(kept) < n:
            cand = orng.gamma(2.0, 3.3, size=200_000)
            kept.extend(cand[(cand >= 0.55) & (cand <= 11.0)].tolist())
        assert ks_2samp_pvalue(mine, np.array(kept[:n])) > 0.001

    @given(st.floats(1, 8), st.floats(0.1, 5), st.floats(0, 4),
           st.floats(0.01, 6), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_always_inside_bounds(self, shape, scale, lo, width, seed_val):
        # an improbable window may exhaust the tries, but never yields a
        # draw outside it
        s = R.seed(seed_val, 2)
        try:
            x = R.truncated_gamma(s, shape, scale, lo, lo + width)
        except RuntimeError:
            return
        assert lo <= x <= lo + width
