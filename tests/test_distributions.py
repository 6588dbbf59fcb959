import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from helpers import (chi_square_vs_pdf, ks_2samp_pvalue, mixture_pdf,
                     notch_twin_peaks_pdf)
from swarmstack import distributions as D
from swarmstack import rng as R
from swarmstack.stages import AlgorithmOptions


def scalar_gauss(x, m, s):
    """Independent scalar Gaussian density oracle."""
    return math.exp(-0.5 * ((x - m) / s) ** 2) / (s * math.sqrt(2 * math.pi))


class TestScaleForTemperature:
    def test_endpoints_and_midpoint(self):
        assert D.scale_for_temperature(1.0) == pytest.approx(0.4)
        assert D.scale_for_temperature(0.0) == pytest.approx(0.05)
        assert D.scale_for_temperature(0.5) == pytest.approx(0.225)

    @pytest.mark.parametrize("t", [-0.01, 1.01, 5.0])
    def test_rejects_outside_unit_interval(self, t):
        with pytest.raises(ValueError):
            D.scale_for_temperature(t)


class TestTwinPeaksPdf:
    def test_value_at_zero_against_scalar_oracle(self):
        p = D.TwinPeaksParams(s=1.0, kt=1.1, q=0.3, ks=2.5)
        oracle = (0.7 * (scalar_gauss(0, -1.1, 1) + scalar_gauss(0, 1.1, 1)) / 2
                  + 0.3 * scalar_gauss(0, 0, 2.5))
        assert mixture_pdf(0.0, p) == pytest.approx(oracle, rel=1e-12)
        assert mixture_pdf(0.0, p) == pytest.approx(0.2003696, abs=1e-6)

    @given(st.floats(-10, 10))
    def test_even_function(self, x):
        p = D.TwinPeaksParams(s=0.7)
        assert mixture_pdf(x, p) == pytest.approx(mixture_pdf(-x, p))

    def test_flat_top_when_kt_one_no_center(self):
        p = D.TwinPeaksParams(s=1.0, kt=1.0, q=0.0)
        h = 1e-4
        f0 = mixture_pdf(0.0, p)
        d1 = (mixture_pdf(h, p) - mixture_pdf(-h, p)) / (2 * h)
        d2 = (mixture_pdf(h, p) - 2 * f0 + mixture_pdf(-h, p)) / h**2
        assert abs(d1) < 1e-9
        assert abs(d2) < 1e-4

    @pytest.mark.parametrize("p", [
        D.TwinPeaksParams(s=1.0),
        D.TwinPeaksParams(s=0.4),
        D.TwinPeaksParams(s=0.05, kt=0.9, q=0.5, ks=2.0),
    ])
    def test_normalizes_to_one(self, p):
        total = integrate.quad(lambda x: mixture_pdf(x, p),
                               -40 * p.s * p.ks, 40 * p.s * p.ks, limit=300)[0]
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            D.TwinPeaksParams(s=0.0)
        with pytest.raises(ValueError):
            D.TwinPeaksParams(s=1.0, q=1.5)


class TestSampleTwinPeaks:
    def test_wide_bounds_match_untruncated_mixture(self):
        st_ = R.seed(32, 0)
        p = D.TwinPeaksParams(s=1.0)
        mine = np.array([
            D._sample_truncated_mixture(st_, D._mixture(p), -20.0, 20.0)
            for _ in range(100_000)])
        orng = np.random.default_rng(2024)
        comp = orng.choice(3, p=[0.35, 0.35, 0.3], size=100_000)
        oracle = orng.normal(np.array([-1.1, 1.1, 0.0])[comp],
                             np.array([1.0, 1.0, 2.5])[comp])
        assert ks_2samp_pvalue(mine, oracle) > 0.001

    def test_truncated_matches_pdf(self):
        st_ = R.seed(31, 0)
        p = D.TwinPeaksParams(s=0.4)
        lo, hi = -0.6, 1.0
        comps = D._mixture(p)
        draws = np.array([D._sample_truncated_mixture(st_, comps, lo, hi)
                          for _ in range(100_000)])
        assert draws.min() >= lo and draws.max() <= hi
        mass = integrate.quad(lambda x: mixture_pdf(x, p), lo, hi)[0]
        pv = chi_square_vs_pdf(draws, lambda x: mixture_pdf(x, p) / mass,
                               lo, hi)
        assert pv > 0.001

    def test_scale_factor_property(self):
        # the s=0.2 law equals 0.2 times the s=1 law
        a_state, b_state = R.seed(33, 0), R.seed(34, 0)
        a_comps = D._mixture(D.TwinPeaksParams(s=0.2))
        b_comps = D._mixture(D.TwinPeaksParams(s=1.0))
        a = np.array([D._sample_truncated_mixture(a_state, a_comps, -4.0, 4.0)
                      for _ in range(50_000)])
        b = 0.2 * np.array([
            D._sample_truncated_mixture(b_state, b_comps, -20.0, 20.0)
            for _ in range(50_000)])
        assert ks_2samp_pvalue(a, b) > 0.001

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            D._sample_truncated_mixture(
                R.seed(1, 0), D._mixture(D.TwinPeaksParams(s=1.0)), 1.0, 1.0)


class TestNotchTwinPeaks:
    NP = D.NotchParams(D.TwinPeaksParams(s=0.4))

    def test_pdf_zero_at_origin(self):
        assert notch_twin_peaks_pdf(self.NP, -1.0, 1.0)(0.0) == 0.0

    def test_pdf_normalizes_on_window(self):
        total = integrate.quad(notch_twin_peaks_pdf(self.NP, -1.0, 1.0),
                               -1.0, 1.0, limit=400, points=[0.0])[0]
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_tracks_rescaled_twin_peaks_away_from_origin(self):
        # away from the notch the density is twin_peaks times a slowly
        # varying factor: the ratio drifts by < 25% over [0.35, 1.0]
        xs = np.linspace(0.35, 1.0, 40)
        pdf = notch_twin_peaks_pdf(self.NP, -1.0, 1.0)
        ratio = np.array([pdf(x) / mixture_pdf(x, self.NP.base) for x in xs])
        assert ratio.max() / ratio.min() < 1.25

    def test_sampler_matches_pdf(self):
        st_ = R.seed(35, 0)
        draws = np.array([D.sample_notch_twin_peaks(st_, self.NP, -1.0, 1.0)
                          for _ in range(100_000)])
        assert draws.min() >= -1.0 and draws.max() <= 1.0
        assert not np.any(draws == 0.0)
        pv = chi_square_vs_pdf(
            draws, notch_twin_peaks_pdf(self.NP, -1.0, 1.0), -1.0, 1.0)
        assert pv > 0.001

    def test_asymmetric_window(self):
        st_ = R.seed(37, 0)
        draws = [D.sample_notch_twin_peaks(st_, self.NP, -0.05, 0.9)
                 for _ in range(5_000)]
        assert min(draws) >= -0.05 and max(draws) <= 0.9


class TestFatTail3:
    def test_even_function(self):
        p = D.FatTail3Params(s=0.02)
        for x in (0.0, 0.01, 0.3, 1.7):
            assert mixture_pdf(x, p) == pytest.approx(mixture_pdf(-x, p))

    def test_degenerate_mixture_is_gaussian(self):
        p = D.FatTail3Params(c1=1.0, c2=0.0, c3=0.0, s=0.1)
        for x in (-0.2, 0.0, 0.05, 0.4):
            assert mixture_pdf(x, p) == pytest.approx(scalar_gauss(x, 0, 0.1))

    def test_tail_dominates_core_component(self):
        p = D.FatTail3Params()
        w1 = p.c1 / (p.c1 + p.c2 + p.c3)
        x = 6.0 * p.s * p.k1
        core = w1 * scalar_gauss(x, 0.0, p.s)
        assert mixture_pdf(x, p) > 10.0 * core

    def test_normalizes_to_one(self):
        p = AlgorithmOptions().fat_tail3_params(0.5)
        total = integrate.quad(lambda x: mixture_pdf(x, p),
                               -60 * p.s * p.k2, 60 * p.s * p.k2, limit=500)[0]
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            D.FatTail3Params(c1=0.0, c2=0.0, c3=0.0)
        with pytest.raises(ValueError):
            D.FatTail3Params(k1=50.0, k2=10.0)


class TestSampleFatTail3:
    def test_mass_concentrates_near_center(self):
        # nominal core weight is 0.75; overlap of the wider components and
        # truncation to [0, 1] lift the observed +-3s fraction toward ~0.83
        ft = AlgorithmOptions().fat_tail3_params(1.0)
        st_ = R.seed(36, 0)
        draws = np.array([D.sample_fat_tail3(st_, ft, 0.3, 0.0, 1.0)
                          for _ in range(100_000)])
        assert draws.min() >= 0.0 and draws.max() <= 1.0
        frac = ((draws >= 0.3 - 3 * ft.s) & (draws <= 0.3 + 3 * ft.s)).mean()
        assert 0.65 < frac < 0.92

    def test_truncated_matches_pdf(self):
        ft = AlgorithmOptions().fat_tail3_params(1.0)
        st_ = R.seed(36, 0)
        draws = np.array([D.sample_fat_tail3(st_, ft, 0.3, 0.0, 1.0)
                          for _ in range(100_000)])

        def shifted(x):
            return mixture_pdf(x - 0.3, ft)

        mass = integrate.quad(shifted, 0.0, 1.0, limit=400)[0]
        pv = chi_square_vs_pdf(draws, lambda x: shifted(x) / mass, 0.0, 1.0)
        assert pv > 0.001

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            D.sample_fat_tail3(R.seed(1, 0), D.FatTail3Params(), 0.5, 0.7, 0.2)

    @given(st.floats(0, 1), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_always_inside_bounds(self, center, seed_val):
        st_ = R.seed(seed_val, 3)
        x = D.sample_fat_tail3(st_, AlgorithmOptions().fat_tail3_params(0.25),
                               center, 0.0, 1.0)
        assert 0.0 <= x <= 1.0
