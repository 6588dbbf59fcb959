import math
from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from helpers import assert_stack_invariants, reference_run_proximal
from swarmstack import rng as R
from swarmstack import stages as S
from swarmstack.domain import BoundsSpec
from swarmstack.linmin import DEFAULT_EVAL_CAP
from swarmstack.objective import ObjectiveHandle, make_benchmark
from swarmstack.swarm import RatedPoint, Stack


def unit_sphere(center, dim, name="sphere_unit"):
    """Sphere objective directly over the normalized cube."""
    c = np.full(dim, center) if np.isscalar(center) else np.asarray(center)

    def f(x):
        d = x - c
        return float(d @ d)

    return ObjectiveHandle(f, BoundsSpec.unit(dim), name=name)


def make_ctx(handle, seed_val, temperature, capacity=8, guesses=(),
             options=S.AlgorithmOptions()):
    stack = Stack(capacity, options.equivalence_radius(temperature, handle.dim))
    ctx = S.TrialContext(stack=stack, rng=R.seed(seed_val, 0),
                         temperature=temperature, dim=handle.dim,
                         objective=handle, options=options)
    for g in guesses:
        g = np.asarray(g, dtype=float)
        ctx.offer(g, ctx.evaluate(g))
    return ctx


DIAGONAL = [(0.25, 0.25), (0.5, 0.5), (0.75, 0.75)]


class TestSwarmSearch:
    def test_improves_over_seeds_on_sphere(self):
        h = unit_sphere(0.37, 2)
        ctx = make_ctx(h, 100, 1.0, capacity=16, guesses=DIAGONAL)
        best_seed = ctx.stack.best.value
        S.run_swarm_search(ctx, 300)
        assert ctx.stack.best.value < best_seed

    def test_zero_budget_no_op(self):
        h = unit_sphere(0.5, 2)
        ctx = make_ctx(h, 101, 1.0, guesses=DIAGONAL)
        evals = ctx.eval_count
        entries = list(ctx.stack.entries)
        S.run_swarm_search(ctx, 0)
        assert ctx.eval_count == evals
        assert ctx.stack.entries == entries

    def test_all_worse_candidates_leave_full_stack_unchanged(self):
        h = unit_sphere(0.37, 2)
        ctx = make_ctx(h, 102, 1.0, capacity=2)
        # two unbeatable sentinel entries: every real candidate is worse
        ctx.stack.try_insert(RatedPoint(np.array([0.2, 0.2]), -1e9, 0))
        ctx.stack.try_insert(RatedPoint(np.array([0.8, 0.8]), -1e8, 1))
        before = [(e.value, tuple(e.position)) for e in ctx.stack.entries]
        S.run_swarm_search(ctx, 50)
        after = [(e.value, tuple(e.position)) for e in ctx.stack.entries]
        assert before == after
        assert ctx.eval_count >= 50

    def test_empty_stack_rejected(self):
        h = unit_sphere(0.5, 2)
        ctx = make_ctx(h, 103, 1.0)
        with pytest.raises(ValueError):
            S.run_swarm_search(ctx, 10)

    def test_population_grows_early(self):
        # raw candidates are offered whether or not they improve, so the
        # swarm multiplies sweep by sweep until capacity or dedup bites
        h = unit_sphere(0.37, 6)
        opts = S.AlgorithmOptions(linmin_on_improvement=False)
        ctx = make_ctx(h, 104, 1.0, capacity=64, options=opts,
                       guesses=[(0.25,) * 6, (0.5,) * 6, (0.75,) * 6])
        S.run_swarm_search(ctx, 120)
        assert len(ctx.stack) > 30

    def test_budget_overshoot_bounded_by_linmin_cap(self):
        h = unit_sphere(0.37, 2)
        opts = S.AlgorithmOptions()
        ctx = make_ctx(h, 105, 1.0, capacity=16, guesses=DIAGONAL,
                       options=opts)
        seeds = ctx.eval_count
        budget = 100
        S.run_swarm_search(ctx, budget)
        assert ctx.eval_count - seeds <= budget + DEFAULT_EVAL_CAP


class TestRecombineRate:
    def test_reference_values(self):
        assert S.recombine_rate(1.0) == pytest.approx(math.log(2))
        assert S.recombine_rate(0.0) == pytest.approx(math.log(5))
        assert math.exp(S.recombine_rate(0.5)) == pytest.approx(math.sqrt(10))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            S.recombine_rate(1.5)


class TestChooseNRecombine:
    def test_degenerate_two(self):
        state = R.seed(50, 1)
        rate = S.recombine_rate(0.7)
        assert all(S.choose_n_recombine(state, rate, 2) == 2 for _ in range(50))

    def test_cold_prefers_few_parents_five_to_one(self):
        state = R.seed(50, 0)
        rate = S.recombine_rate(0.0)
        draws = [S.choose_n_recombine(state, rate, 120) for _ in range(100_000)]
        counts = Counter(draws)
        ratio = counts[2] / counts[120]
        assert 3.5 < ratio < 6.5

    @given(st.floats(0, 1), st.integers(2, 50), st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_always_in_range(self, t, n_stack, seed_val):
        state = R.seed(seed_val, 5)
        n = S.choose_n_recombine(state, S.recombine_rate(t), n_stack)
        assert 2 <= n <= n_stack


def recombine(ctx):
    """One child drawn with the laws run_genetic builds for the trial."""
    opts = ctx.options
    rate = S.recombine_rate(ctx.temperature, opts.recombine_ratio_high_t,
                            opts.recombine_ratio_low_t)
    return S.recombine(ctx, rate, opts.fat_tail3_params(ctx.temperature))


class TestRecombine:
    def two_identical_parent_ctx(self, seed_val, dim=10, mutation_prob=0.25):
        h = unit_sphere(0.37, dim)
        opts = S.AlgorithmOptions(mutation_prob=mutation_prob)
        ctx = make_ctx(h, seed_val, 0.5, capacity=2, options=opts)
        ctx.stack = Stack(2, r_eq=0.0)
        ctx.stack.try_insert(RatedPoint(np.full(dim, 0.42), 1.0, 0))
        ctx.stack.try_insert(RatedPoint(np.full(dim, 0.42), 2.0, 1))
        return ctx

    def test_identical_parents_no_mutation_copies(self):
        ctx = self.two_identical_parent_ctx(110, mutation_prob=0.0)
        for _ in range(20):
            child = recombine(ctx)
            assert np.array_equal(child, np.full(10, 0.42))

    def test_no_mutation_selects_from_parent_coordinates(self):
        h = unit_sphere(0.37, 3)
        opts = S.AlgorithmOptions(mutation_prob=0.0)
        ctx = make_ctx(h, 111, 0.5, capacity=4, options=opts)
        ctx.stack = Stack(4, r_eq=0.0)
        pos = [np.array([0.1, 0.2, 0.3]), np.array([0.7, 0.8, 0.9]),
               np.array([0.4, 0.5, 0.6])]
        for i, p in enumerate(pos):
            ctx.stack.try_insert(RatedPoint(p, float(i), i))
        for _ in range(50):
            child = recombine(ctx)
            for j in range(3):
                assert child[j] in {p[j] for p in pos}

    def test_mutated_fraction_near_quarter(self):
        ctx = self.two_identical_parent_ctx(112)
        total = mutated = 0
        for _ in range(10_000):
            child = recombine(ctx)
            mutated += int(np.sum(child != 0.42))
            total += 10
        assert abs(mutated / total - 0.25) < 0.01


class TestRunGenetic:
    def test_improves_on_sphere(self):
        h = unit_sphere(0.37, 2)
        ctx = make_ctx(h, 60, 1.0, guesses=[(0.2, 0.2), (0.8, 0.8)])
        best0 = ctx.stack.best.value
        S.run_genetic(ctx, 200)
        assert ctx.stack.best.value < best0

    def test_eval_count_equals_children(self):
        h = unit_sphere(0.37, 2)
        ctx = make_ctx(h, 61, 0.5, guesses=[(0.2, 0.2), (0.8, 0.8)])
        before = ctx.eval_count
        S.run_genetic(ctx, 137)
        assert ctx.eval_count - before == 137

    def test_builds_its_laws_once(self, monkeypatch):
        built = []
        make = S.AlgorithmOptions.fat_tail3_params
        monkeypatch.setattr(S.AlgorithmOptions, "fat_tail3_params",
                            lambda opts, t: built.append(t) or make(opts, t))
        h = unit_sphere(0.37, 2)
        ctx = make_ctx(h, 61, 0.5, guesses=[(0.2, 0.2), (0.8, 0.8)])
        S.run_genetic(ctx, 137)
        assert built == [0.5]

    def test_zero_budget_no_op(self):
        h = unit_sphere(0.37, 2)
        ctx = make_ctx(h, 62, 0.5, guesses=[(0.2, 0.2), (0.8, 0.8)])
        before = ctx.eval_count
        S.run_genetic(ctx, 0)
        assert ctx.eval_count == before

    def test_best_non_increasing_through_stage(self):
        h = unit_sphere(0.42, 3)
        ctx = make_ctx(h, 63, 0.75,
                       guesses=[(0.25,) * 3, (0.5,) * 3, (0.75,) * 3])
        history = [ctx.stack.best.value]
        for _ in range(10):
            S.run_genetic(ctx, 30)
            history.append(ctx.stack.best.value)
        assert all(b <= a + 1e-15 for a, b in zip(history, history[1:]))


class TestAttractiveness:
    def test_zero_distance_full_brightness(self):
        for t in (0.0, 0.3, 1.0):
            assert S.attractiveness(3.5, 0.0, 2.0, t) == pytest.approx(3.5)

    def test_clear_sky_half_at_characteristic_distance(self):
        assert S.attractiveness(1.0, 2.0, 2.0, 1.0) == pytest.approx(0.5)

    def test_foggy_inverse_e_at_characteristic_distance(self):
        assert S.attractiveness(1.0, 2.0, 2.0, 0.0) == pytest.approx(
            math.exp(-1.0))

    def test_linear_in_temperature(self):
        nrng = np.random.default_rng(8)
        for _ in range(1000):
            a0, d, big_d = nrng.uniform(0.1, 10, size=3)
            t = float(nrng.uniform())
            lhs = S.attractiveness(a0, d, big_d, t)
            rhs = ((1 - t) * S.attractiveness(a0, d, big_d, 0.0)
                   + t * S.attractiveness(a0, d, big_d, 1.0))
            assert abs(lhs - rhs) < 1e-12

    def test_kernel_ordering_flips_with_weather(self):
        # far bright point versus near dim point, same geometry
        far_bright = dict(a0=10.0, d=2.0, big_d=1.0)
        near_dim = dict(a0=1.0, d=0.3, big_d=1.0)
        clear_far = S.attractiveness(t=1.0, **far_bright)
        clear_near = S.attractiveness(t=1.0, **near_dim)
        foggy_far = S.attractiveness(t=0.0, **far_bright)
        foggy_near = S.attractiveness(t=0.0, **near_dim)
        assert clear_far > clear_near
        assert foggy_far < foggy_near

    def test_rejects_bad_characteristic_distance(self):
        with pytest.raises(ValueError):
            S.attractiveness(1.0, 1.0, 0.0, 0.5)


class TestCharacteristicDistance:
    def test_bounds(self):
        state = R.seed(51, 1)
        for dim in (1, 5, 11):
            for _ in range(200):
                d = S.sample_characteristic_distance(state, dim)
                assert 0.05 * dim <= d <= dim

    def test_mode_near_untruncated_gamma_mode(self):
        state = R.seed(51, 0)
        draws = np.array([S.sample_characteristic_distance(state, 11)
                          for _ in range(100_000)])
        hist, edges = np.histogram(draws, bins=15, range=(0.55, 11.0))
        peak_center = 0.5 * (edges[np.argmax(hist)] + edges[np.argmax(hist) + 1])
        # untruncated mode = scale * (shape - 1) = 3.3, bin width ~0.7
        assert abs(peak_center - 3.3) <= 0.75

    @pytest.mark.parametrize("dim", [1, 2, 11, 130])
    def test_window_holds_most_of_the_mass(self, dim, monkeypatch):
        # truncated_gamma gives up after 64 misses, so its window must hold
        # a fair share of the law: with 80% the cap trips with p < 0.2**64
        seen = []
        monkeypatch.setattr(S, "truncated_gamma",
                            lambda rng, *args: seen.append(args) or 1.0)
        S.sample_characteristic_distance(R.seed(51, 3), dim)
        (shape, scale, lo, hi), = seen
        mass = stats.gamma.cdf([lo, hi], shape, scale=scale)
        assert mass[1] - mass[0] >= 0.8

    def test_varies(self):
        state = R.seed(51, 2)
        draws = {round(S.sample_characteristic_distance(state, 4), 6)
                 for _ in range(100)}
        assert len(draws) > 1


class TestDirectionIsNew:
    def test_empty_history_accepts(self):
        h = deque(maxlen=4)
        assert S.direction_is_new(h, np.array([1.0, 0.0]), 0.999)
        assert len(h) == 1

    def test_repeat_rejected(self):
        h = deque(maxlen=4)
        u = np.array([0.6, 0.8])
        assert S.direction_is_new(h, u, 0.999)
        assert not S.direction_is_new(h, u, 0.999)

    def test_sign_insensitive(self):
        h = deque(maxlen=4)
        u = np.array([0.6, 0.8])
        assert S.direction_is_new(h, u, 0.999)
        assert not S.direction_is_new(h, -u, 0.999)

    def test_bounded_history_forgets(self):
        h = deque(maxlen=2)
        e1, e2, e3 = np.eye(3)
        assert S.direction_is_new(h, e1, 0.999)
        assert S.direction_is_new(h, e2, 0.999)
        assert S.direction_is_new(h, e3, 0.999)  # evicts e1
        assert S.direction_is_new(h, e1, 0.999)


class TestRunProximal:
    def test_two_point_stack_improves_along_joining_line(self):
        # the line from (0.9, 0.9) toward (0.1, 0.1) passes through the
        # optimum of a sphere centered on the diagonal
        h = unit_sphere(0.37, 2)
        ctx = make_ctx(h, 120, 0.5, capacity=4,
                       guesses=[(0.1, 0.1), (0.9, 0.9)])
        f_q = max(e.value for e in ctx.stack.entries)
        S.run_proximal(ctx, 80)
        assert ctx.stack.best.value < f_q
        assert ctx.stack.best.value < 1e-6

    def test_zero_budget_no_op(self):
        h = unit_sphere(0.37, 2)
        ctx = make_ctx(h, 121, 0.5, guesses=[(0.1, 0.1), (0.9, 0.9)])
        before = ctx.eval_count
        S.run_proximal(ctx, 0)
        assert ctx.eval_count == before

    def test_stale_directions_skip_linmin(self):
        h = unit_sphere(0.37, 2)
        ctx = make_ctx(h, 122, 0.5, capacity=2,
                       guesses=[(0.1, 0.1), (0.9, 0.9)])
        # pre-poison the history with the only available direction
        diag = np.array([1.0, 1.0]) / math.sqrt(2)
        ctx.direction_history.append(diag)
        before = ctx.eval_count
        S.run_proximal(ctx, 80)
        assert ctx.eval_count == before  # nothing to try: stage exits cleanly

    def test_single_entry_stack_no_op(self):
        h = unit_sphere(0.37, 2)
        ctx = make_ctx(h, 123, 0.5, guesses=[(0.3, 0.3)])
        before = ctx.eval_count
        S.run_proximal(ctx, 50)
        assert ctx.eval_count == before


def full_proximal_ctx(dim, temperature, history_kind):
    """A trial context with a full 120-entry stack on offset Rastrigin and
    a direction history that is empty, full of random directions, or full
    of directions whose |cos| to the first query's candidates lies within
    about 1e-13 of the tolerance."""
    handle = make_benchmark("rastrigin", dim, bounds_style="offset")
    ctx = S.TrialContext(stack=Stack(120, 1e-3 * dim),
                         rng=R.seed(150 + dim, 0), temperature=temperature,
                         dim=dim, objective=handle)
    gen = np.random.default_rng(dim)
    while len(ctx.stack) < 120:
        x = gen.random(dim)
        ctx.offer(x, ctx.evaluate(x))
    if history_kind == "full":
        for v in gen.standard_normal((S.DIRECTION_HISTORY_CAPACITY, dim)):
            ctx.direction_history.append(v / math.sqrt(v @ v))
    elif history_kind == "near":
        query = ctx.stack.worst
        targets = ctx.stack.entries[:S.DIRECTION_HISTORY_CAPACITY]
        for k, entry in enumerate(targets):
            delta = entry.position - query.position
            u = delta / math.sqrt(delta @ delta)
            c = 1.0
            w = np.zeros(dim)
            if dim > 1:
                c = S.DIRECTION_COS_TOL + (-1e-13, 0.0, 1e-13)[k % 3]
                w = gen.standard_normal(dim)
                w -= (w @ u) * u
                w /= math.sqrt(w @ w)
            ctx.direction_history.append(c * u + math.sqrt(1.0 - c * c) * w)
    return ctx


class TestProximalMatchesScalarReference:
    @pytest.mark.parametrize("history_kind", ["empty", "full", "near"])
    @pytest.mark.parametrize("temperature", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("dim", [1, 2, 3, 11])
    def test_same_decisions(self, dim, temperature, history_kind):
        def outcome(stage):
            ctx = full_proximal_ctx(dim, temperature, history_kind)
            stage(ctx, 400)
            return (ctx.eval_count, ctx.rng,
                    [(e.value, e.position.tobytes(), e.eval_index)
                     for e in ctx.stack.entries],
                    [h.tobytes() for h in ctx.direction_history])

        assert outcome(S.run_proximal) == outcome(reference_run_proximal)


def in_order_cos(u, h):
    """|cos| summed coordinate by coordinate in Python floats."""
    total = 0.0
    for a, b in zip(u.tolist(), h.tolist()):
        total += a * b
    return abs(total)


class TestStaleFilter:
    def test_marks_only_rows_clear_of_the_tolerance(self):
        u = np.array([0.6, 0.8])
        rows = np.array([u, -u, [0.8, -0.6]])
        tol = S.DIRECTION_COS_TOL
        assert S._collinear_rows(rows, deque(), tol).tolist() == [False] * 3
        assert S._collinear_rows(rows, deque([u]), tol).tolist() == [
            True, True, False]

    @pytest.mark.parametrize("dim", [1, 2, 3, 11])
    def test_mask_is_the_in_order_scalar_sum(self, dim):
        # rows whose |cos| to the history lies within 1e-13 of the
        # tolerance are marked exactly when the in-order sum reaches it
        gen = np.random.default_rng(dim)
        rows = gen.standard_normal((30, dim))
        rows /= np.sqrt((rows * rows).sum(axis=1))[:, None]
        history = deque(maxlen=S.DIRECTION_HISTORY_CAPACITY)
        for k, u in enumerate(rows[:20]):
            c = S.DIRECTION_COS_TOL + (-1e-13, 0.0, 1e-13)[k % 3]
            w = np.zeros(dim)
            if dim > 1:
                w = gen.standard_normal(dim)
                w -= (w * u).sum() * u
                w /= math.sqrt((w * w).sum())
            else:
                c = 1.0
            history.append(c * u + math.sqrt(1.0 - c * c) * w)
        expected = [any(in_order_cos(u, h) >= S.DIRECTION_COS_TOL
                        for h in history) for u in rows]
        assert S._collinear_rows(rows, history,
                                 S.DIRECTION_COS_TOL).tolist() == expected
        for u, stale in zip(rows, expected):
            assert S.direction_is_new(deque(history), u,
                                      S.DIRECTION_COS_TOL) == (not stale)

    def test_history_eviction_frees_a_stale_attractor(self):
        # A flat objective ranks attractors by eval_index and never
        # improves, so the first query tries both attractors in turn.  Its
        # second attractor is stale only through the oldest remembered
        # direction, which accepting the first attractor evicts.
        def outcome(stage):
            h = ObjectiveHandle(lambda x: 1.0, BoundsSpec.unit(2))
            ctx = make_ctx(h, 125, 0.5, capacity=3,
                           guesses=[(0.2, 0.3), (0.8, 0.4), (0.5, 0.9)])
            query, second = ctx.stack.entries[2], ctx.stack.entries[1]
            delta = second.position - query.position
            ctx.direction_history.append(delta / math.sqrt(delta @ delta))
            ctx.direction_history.extend(
                [np.array([1.0, 1.0]) / math.sqrt(2.0)]
                * (S.DIRECTION_HISTORY_CAPACITY - 1))
            stage(ctx, 200)
            return ctx.eval_count, [h.tobytes() for h in ctx.direction_history]

        assert outcome(S.run_proximal) == outcome(reference_run_proximal)

    @pytest.mark.parametrize("offset,accepted",
                             [(-5e-13, True), (5e-13, False)])
    def test_cos_within_1e_12_of_tolerance_is_decided_by_scalar_check(
            self, offset, accepted):
        h = unit_sphere(0.37, 2)
        ctx = make_ctx(h, 124, 0.5, capacity=2,
                       guesses=[(0.1, 0.2), (0.9, 0.7)])
        delta = ctx.stack.best.position - ctx.stack.worst.position
        u = delta / float(np.sqrt((delta * delta).sum()))
        c = S.DIRECTION_COS_TOL + offset
        remembered = c * u + math.sqrt(1.0 - c * c) * np.array([-u[1], u[0]])
        cos = in_order_cos(u, remembered)
        assert abs(cos - S.DIRECTION_COS_TOL) <= 1e-12
        assert (cos < S.DIRECTION_COS_TOL) == accepted
        assert S._collinear_rows(u[None, :], deque([remembered]),
                                 S.DIRECTION_COS_TOL)[0] == (not accepted)
        ctx.direction_history.append(remembered)
        before = ctx.eval_count
        S.run_proximal(ctx, 80)
        assert (ctx.eval_count > before) == accepted


class TestRunAxes:
    def test_separable_sphere_lands_on_axis_optimum(self):
        h = unit_sphere(0.3, 2)
        ctx = make_ctx(h, 130, 0.25, capacity=2, guesses=[(0.55, 0.72)])
        S.run_axes(ctx, 600)
        best = ctx.stack.best
        assert abs(best.position[0] - 0.3) <= 1e-4
        assert abs(best.position[1] - 0.3) <= 1e-4

    def test_probes_move_one_axis_only_inside_cube(self):
        seen = []
        base = unit_sphere(0.37, 3)

        def recording(x):
            seen.append(x.copy())
            return base._func(x)

        h = ObjectiveHandle(recording, BoundsSpec.unit(3))
        ctx = make_ctx(h, 131, 0.5, capacity=1, guesses=[(0.3, 0.6, 0.9)])
        origin = ctx.stack.best.position.copy()
        S.run_axes(ctx, 12)
        probes = seen[1:]  # skip the seed evaluation
        assert probes
        for p in probes:
            assert np.all(p >= 0.0) and np.all(p <= 1.0)
        # the first probe differs from the seed point in exactly one axis
        first = probes[0]
        assert int(np.sum(first != origin)) == 1

    def test_permutations_vary_and_are_permutations(self):
        state = R.seed(132, 0)
        perms = [tuple(S._random_permutation(state, 11)) for _ in range(100)]
        assert all(sorted(p) == list(range(11)) for p in perms)
        assert len(set(perms)) > 1

    def test_empty_stack_rejected(self):
        h = unit_sphere(0.5, 2)
        ctx = make_ctx(h, 133, 0.5)
        with pytest.raises(ValueError):
            S.run_axes(ctx, 10)


class TestProbeRuleWithoutLinmin:
    """With line minimization off, stage one offers every finite probe and
    stage four only the probes that improve their origin."""

    @staticmethod
    def probes_and_offers(stage):
        """(value, origin value) of every probe and every offer on a stack
        that cannot grow, so the origin is always its one entry."""
        probes, offers = [], []
        ctx = None

        def f(x):
            value = math.nan if x[0] > 0.8 else float((x - 0.37) @ (x - 0.37))
            if ctx is not None:
                probes.append((value, ctx.stack.best.value))
            return value

        h = ObjectiveHandle(f, BoundsSpec.unit(2))
        opts = S.AlgorithmOptions(linmin_on_improvement=False)
        ctx = make_ctx(h, 150, 1.0, capacity=1, options=opts,
                       guesses=[(0.6, 0.9)])
        offer = ctx.offer

        def logged(position, value):
            offers.append((value, ctx.stack.best.value))
            return offer(position, value)

        ctx.offer = logged
        stage(ctx, 200)
        assert len(probes) == 200
        assert any(math.isnan(value) for value, _ in probes)
        return probes, offers

    def test_axes_offer_only_improving_probes(self):
        probes, offers = self.probes_and_offers(S.run_axes)
        assert offers == [(v, o) for v, o in probes if v < o]
        assert 0 < len(offers) < len(probes)

    def test_swarm_search_offers_every_finite_probe(self):
        probes, offers = self.probes_and_offers(S.run_swarm_search)
        finite = [(v, o) for v, o in probes if math.isfinite(v)]
        assert [(v, o) for v, o in offers if math.isfinite(v)] == finite
        assert any(v >= o for v, o in offers)


class TestStageDeterminism:
    @pytest.mark.parametrize("stage,budget", [
        (S.run_swarm_search, 150), (S.run_genetic, 150),
        (S.run_proximal, 150), (S.run_axes, 150)])
    def test_fixed_state_fixed_outcome(self, stage, budget):
        def run_once():
            h = unit_sphere(0.37, 3)
            ctx = make_ctx(h, 140, 0.75, capacity=16,
                           guesses=[(0.25,) * 3, (0.5,) * 3, (0.75,) * 3])
            stage(ctx, budget)
            return [(e.value, tuple(e.position)) for e in ctx.stack.entries]

        assert run_once() == run_once()


class TestStageContracts:
    @pytest.mark.parametrize("stage", list(S.STAGES))
    def test_invariants_and_budget(self, stage):
        opts = S.AlgorithmOptions()
        h = unit_sphere(0.42, 3)
        ctx = make_ctx(h, 141, 0.5, capacity=12, options=opts,
                       guesses=[(0.25,) * 3, (0.5,) * 3, (0.75,) * 3])
        best_before = ctx.stack.best.value
        before = ctx.eval_count
        budget = 120
        stage(ctx, budget)
        assert ctx.eval_count - before <= budget + DEFAULT_EVAL_CAP
        assert ctx.stack.best.value <= best_before
        assert_stack_invariants(ctx.stack)
        for e in ctx.stack.entries:
            assert np.all(e.position >= 0.0) and np.all(e.position <= 1.0)
