import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import BruteForceStack, assert_stack_invariants
from swarmstack import swarm as sw
from swarmstack.stages import AlgorithmOptions
from swarmstack.swarm import InsertOutcome, RatedPoint, Stack


def rp(coords, value, idx=0):
    return RatedPoint(np.asarray(coords, dtype=float), value, idx)


class TestEquivalenceRadius:
    def test_reference_values(self):
        r_eq = AlgorithmOptions().equivalence_radius
        assert r_eq(1.0, 11) == pytest.approx(1.1)
        assert r_eq(0.0, 11) == pytest.approx(0.11)

    def test_monotone_in_temperature(self):
        radii = [AlgorithmOptions().equivalence_radius(t, 5)
                 for t in (0.0, 0.3, 0.8, 1.0)]
        assert radii == sorted(radii)
        assert radii[0] < radii[-1]


def stack_of(*points):
    s = Stack(capacity=len(points), r_eq=0.0)
    for i, p in enumerate(points):
        s.try_insert(rp(p, 0.0, i))
    return s


class TestD1Distances:
    def test_reference_values(self):
        s = stack_of([0.0, 0.0, 1.0], [1.0, 1.0, 1.0])
        assert s.d1_distances(np.zeros(3)).tolist() == [1.0, 3.0]

    def test_identity(self):
        a = np.array([0.3, 0.7])
        assert stack_of(a).d1_distances(a).tolist() == [0.0]

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            stack_of(np.zeros(2)).d1_distances(np.zeros(3))
        with pytest.raises(ValueError):
            stack_of(np.zeros(1)).d1_distances(np.zeros(3))

    def test_empty_stack(self):
        assert Stack(capacity=2, r_eq=0.1).d1_distances(np.zeros(2)).size == 0

    @given(st.lists(st.floats(-1, 1), min_size=3, max_size=3),
           st.lists(st.floats(-1, 1), min_size=3, max_size=3),
           st.lists(st.floats(-1, 1), min_size=3, max_size=3))
    def test_metric_axioms(self, a, b, c):
        a, b, c = np.array(a), np.array(b), np.array(c)
        ab, ac = stack_of(b, c).d1_distances(a).tolist()
        ba, bc = stack_of(a, c).d1_distances(b).tolist()
        assert ab >= 0.0
        assert ab == pytest.approx(ba)
        assert ac <= ab + bc + 1e-12

    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 11, 17])
    def test_rows_sum_like_one_pair(self, dim):
        # the proximal stage ranks on these; they must not move by an ulp
        gen = np.random.default_rng(dim)
        s = stack_of(*gen.random((120, dim)))
        x = gen.random(dim)
        assert s.d1_distances(x).tolist() == [
            float(np.abs(e.position - x).sum()) for e in s.entries]


class TestTryInsert:
    def test_empty_stack_accepts(self):
        s = Stack(capacity=4, r_eq=0.1)
        assert s.try_insert(rp([0.5, 0.5], 1.0)) is InsertOutcome.INSERTED
        assert len(s) == 1

    def test_full_stack_rejects_worst_candidate(self):
        s = Stack(capacity=2, r_eq=0.1)
        s.try_insert(rp([0.1, 0.1], 1.0, 0))
        s.try_insert(rp([0.9, 0.9], 2.0, 1))
        out = s.try_insert(rp([0.5, 0.5], 3.0, 2))
        assert out is InsertOutcome.REJECTED_FULL
        assert [e.value for e in s.entries] == [1.0, 2.0]

    def test_full_stack_better_in_worst_out(self):
        s = Stack(capacity=2, r_eq=0.1)
        s.try_insert(rp([0.1, 0.1], 1.0, 0))
        s.try_insert(rp([0.9, 0.9], 2.0, 1))
        out = s.try_insert(rp([0.5, 0.5], 1.5, 2))
        assert out is InsertOutcome.INSERTED
        assert [e.value for e in s.entries] == [1.0, 1.5]

    def test_equivalent_replacement_shrinks_group(self):
        s = Stack(capacity=8, r_eq=0.4)
        s.try_insert(rp([0.50, 0.50], 5.0, 0))
        s.try_insert(rp([0.95, 0.95], 6.0, 1))
        # candidate 0.2*r_eq away from the first entry, strictly better
        out = s.try_insert(rp([0.54, 0.54], 4.0, 2))
        assert out is InsertOutcome.REPLACED_EQUIVALENT
        assert len(s) == 2
        assert s.best.value == 4.0

    def test_equivalent_not_better_rejected(self):
        s = Stack(capacity=8, r_eq=0.4)
        s.try_insert(rp([0.5, 0.5], 5.0, 0))
        out = s.try_insert(rp([0.52, 0.52], 5.5, 1))
        assert out is InsertOutcome.REJECTED_EQUIVALENT
        assert len(s) == 1

    def test_replacement_takes_out_whole_group(self):
        s = Stack(capacity=8, r_eq=0.5)
        s.try_insert(rp([0.30, 0.30], 5.0, 0))
        s.try_insert(rp([0.70, 0.70], 6.0, 1))
        # D1 distance 0.4 to both entries: equivalent to both, better than both
        out = s.try_insert(rp([0.50, 0.50], 1.0, 2))
        assert out is InsertOutcome.REPLACED_EQUIVALENT
        assert len(s) == 1
        assert s.best.value == 1.0

    def test_nonfinite_never_stored(self):
        s = Stack(capacity=4, r_eq=0.1)
        assert s.try_insert(rp([0.5], math.nan)) is InsertOutcome.REJECTED_NONFINITE
        assert s.try_insert(rp([0.5], math.inf)) is InsertOutcome.REJECTED_NONFINITE
        assert len(s) == 0

    def test_best_value_non_increasing(self):
        nrng = np.random.default_rng(11)
        s = Stack(capacity=5, r_eq=0.2)
        best = math.inf
        for _ in range(500):
            s.try_insert(rp(nrng.uniform(size=2), float(nrng.normal())))
            if s.entries:
                assert s.best.value <= best
                best = s.best.value

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8), st.floats(0.0, 1.0), st.integers(0, 2**31 - 1))
    def test_matches_brute_force_oracle(self, capacity, r_eq, seed_val):
        nrng = np.random.default_rng(seed_val)
        dim = int(nrng.integers(1, 4))
        s = Stack(capacity=capacity, r_eq=r_eq)
        oracle = BruteForceStack(capacity, r_eq)
        for idx in range(60):
            coords = np.round(nrng.uniform(size=dim), 2)
            value = float(np.round(nrng.normal(), 2))
            s.try_insert(RatedPoint(coords, value, idx))
            oracle.offer(value, idx, tuple(coords))
        got = [(e.value, e.eval_index, tuple(e.position)) for e in s.entries]
        want = [(v, i, c) for v, i, c in oracle.items]
        assert got == want
        assert_stack_invariants(s)


class TestStatDist:
    def test_single_pair_value(self):
        s = Stack(capacity=4, r_eq=0.0)
        s.try_insert(rp([0, 0, 0, 0], 1.0, 0))
        s.try_insert(rp([1, 1, 1, 1], 2.0, 1))
        assert sw.stat_dist(s) == pytest.approx(4.0)

    def test_square_versus_collapsed_pairs(self):
        # four points one unit from a center: corners of a square versus two
        # coincident pairs on a line; Euclidean pair distances feed the
        # score (the stack itself uses D1, the aggregation is shared)
        square = [math.sqrt(2)] * 4 + [2.0] * 2
        collapsed = [0.0] * 2 + [2.0] * 4
        a = sw.sqrt_mean_score(square, 4)
        b = sw.sqrt_mean_score(collapsed, 4)
        assert a == pytest.approx(1.5982251, abs=1e-6)
        assert b == pytest.approx(8.0 / 9.0, abs=1e-9)
        assert a > b
        # a root-mean-square cannot tell the two configurations apart
        rms_a = math.sqrt(sum(d * d for d in square) / 6)
        rms_b = math.sqrt(sum(d * d for d in collapsed) / 6)
        assert rms_a == pytest.approx(math.sqrt(8.0 / 3.0))
        assert rms_b == pytest.approx(math.sqrt(8.0 / 3.0))

    def test_collapsed_pairs_through_stack(self):
        # r_eq = 0 permits coincident entries; cube corners put the two loci
        # at D1 distance 2, matching the collapsed-pairs configuration
        s = Stack(capacity=4, r_eq=0.0)
        for i, x in enumerate([0.0, 0.0, 1.0, 1.0]):
            s.try_insert(rp([x, x], float(i), i))
        assert sw.stat_dist(s) == pytest.approx(8.0 / 9.0)

    def test_coincident_points_zero(self):
        s = Stack(capacity=3, r_eq=0.0)
        for i in range(3):
            s.try_insert(rp([0.5, 0.5], float(i), i))
        assert sw.stat_dist(s) == 0.0

    def test_fewer_than_two_points(self):
        s = Stack(capacity=3, r_eq=0.0)
        assert sw.stat_dist(s) == 0.0
        s.try_insert(rp([0.5, 0.5], 1.0))
        assert sw.stat_dist(s) == 0.0


class TestStatParams:
    def test_constant_coordinate_degenerates(self):
        s = Stack(capacity=4, r_eq=0.0)
        s.try_insert(rp([0.2, 0.5], 1.0, 0))
        s.try_insert(rp([0.8, 0.5], 2.0, 1))
        assert sw.stat_params(s) == 0.0

    def test_equal_sds(self):
        s = Stack(capacity=4, r_eq=0.0)
        s.try_insert(rp([0.0, 0.0], 1.0, 0))
        s.try_insert(rp([1.0, 1.0], 2.0, 1))
        assert sw.stat_params(s) == pytest.approx(0.5)

    def test_harmonic_mean_of_known_sds(self):
        # per-coordinate sds (1, 1/3) give harmonic mean 0.5
        s = Stack(capacity=4, r_eq=0.0)
        s.try_insert(rp([0.0, 0.0], 1.0, 0))
        s.try_insert(rp([2.0, 2.0 / 3.0], 2.0, 1))
        assert sw.stat_params(s) == pytest.approx(0.5)


class TestScores:
    def make(self, values):
        s = Stack(capacity=len(values), r_eq=0.0)
        for i, v in enumerate(values):
            s.try_insert(rp([0.1 * i, 0.2], v, i))
        return s

    def test_fmt_score_hand_ema(self):
        s = self.make([1.0, 2.0, 3.0])
        assert sw.fmt_score(s, alpha=0.5) == pytest.approx(-1.75)

    def test_fmt_score_single_entry(self):
        assert sw.fmt_score(self.make([4.2]), alpha=0.3) == pytest.approx(-4.2)

    def test_fmt_score_alpha_one_is_best_merit(self):
        s = self.make([1.0, 2.0, 3.0])
        assert sw.fmt_score(s, alpha=1.0) == pytest.approx(-1.0)

    def test_fmt_score_empty_raises(self):
        with pytest.raises(ValueError):
            sw.fmt_score(Stack(capacity=2, r_eq=0.0), alpha=0.5)

    def test_stack_score_combines(self):
        s = self.make([1.0, 2.0, 3.0])
        m = sw.stack_score(s, alpha=0.5)
        assert m.stack_score == pytest.approx(m.fmt_score * (1 + m.disp_score))
        assert m.disp_score == pytest.approx(
            (math.sqrt(m.stat_dist) + math.sqrt(m.stat_params)) / 2)

    def test_stack_score_zero_dispersion(self):
        s = Stack(capacity=3, r_eq=0.0)
        s.try_insert(rp([0.5, 0.5], 2.0, 0))
        m = sw.stack_score(s, alpha=0.5)
        assert m.disp_score == 0.0
        assert m.stack_score == m.fmt_score

    def test_metrics_permutation_invariant(self):
        values = [3.0, 1.0, 2.0, 5.0]
        a = self.make(values)
        b = self.make(list(reversed(values)))
        # positions differ with insertion order here, so compare value-only
        # metrics through a common geometry
        sa = Stack(capacity=4, r_eq=0.0)
        sb = Stack(capacity=4, r_eq=0.0)
        pts = [([0.1, 0.1], 3.0), ([0.9, 0.2], 1.0),
               ([0.4, 0.8], 2.0), ([0.6, 0.6], 5.0)]
        for i, (c, v) in enumerate(pts):
            sa.try_insert(rp(c, v, i))
        for i, (c, v) in enumerate(reversed(pts)):
            sb.try_insert(rp(c, v, i))
        ma, mb = sw.stack_score(sa, 0.5), sw.stack_score(sb, 0.5)
        assert ma.stat_dist == pytest.approx(mb.stat_dist)
        assert ma.stat_params == pytest.approx(mb.stat_params)
        assert ma.fmt_score == pytest.approx(mb.fmt_score)


class TestMergeStacks:
    def test_self_merge_is_identity(self):
        s = Stack(capacity=4, r_eq=0.1)
        s.try_insert(rp([0.1, 0.1], 1.0, 0))
        s.try_insert(rp([0.9, 0.9], 2.0, 1))
        merged = sw.merge_stacks([s, s], capacity=4, r_eq=0.1)
        assert [e.value for e in merged.entries] == [1.0, 2.0]
        assert all(np.array_equal(a.position, b.position)
                   for a, b in zip(merged.entries, s.entries))

    def test_two_disjoint_singletons(self):
        a = Stack(capacity=2, r_eq=0.1)
        a.try_insert(rp([0.1, 0.1], 2.0, 0))
        b = Stack(capacity=2, r_eq=0.1)
        b.try_insert(rp([0.9, 0.9], 1.0, 1))
        merged = sw.merge_stacks([a, b], capacity=2, r_eq=0.1)
        assert [e.value for e in merged.entries] == [1.0, 2.0]

    def test_capacity_and_global_best_kept(self):
        nrng = np.random.default_rng(3)
        stacks = []
        for k in range(10):
            s = Stack(capacity=120, r_eq=0.05)
            for i in range(200):
                s.try_insert(RatedPoint(nrng.uniform(size=3),
                                        float(nrng.normal()), k * 1000 + i))
            stacks.append(s)
        merged = sw.merge_stacks(stacks, capacity=120, r_eq=0.05)
        assert len(merged) <= 120
        global_best = min(s.best.value for s in stacks)
        assert merged.best.value == global_best
        assert_stack_invariants(merged)
