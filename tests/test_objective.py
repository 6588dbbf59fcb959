import math
import pickle
import sys
import textwrap

import numpy as np
import pytest

from swarmstack import objective as obj
from swarmstack.domain import BoundsSpec, denormalize


def scalar_rastrigin(xs):
    return 10 * len(xs) + sum(x * x - 10 * math.cos(2 * math.pi * x) for x in xs)


def scalar_sphere(xs):
    return sum(x * x for x in xs)


def scalar_ackley(xs):
    d = len(xs)
    s1 = sum(x * x for x in xs) / d
    s2 = sum(math.cos(2 * math.pi * x) for x in xs) / d
    return -20 * math.exp(-0.2 * math.sqrt(s1)) - math.exp(s2) + 20 + math.e


def scalar_griewank(xs):
    s = sum(x * x for x in xs) / 4000
    p = 1.0
    for i, x in enumerate(xs):
        p *= math.cos(x / math.sqrt(i + 1))
    return 1 + s - p


def scalar_rosenbrock(xs):
    return sum(100 * (xs[i + 1] - xs[i] ** 2) ** 2 + (1 - xs[i]) ** 2
               for i in range(len(xs) - 1))


def scalar_schwefel(xs):
    return 418.9828872724339 * len(xs) - sum(
        x * math.sin(math.sqrt(abs(x))) for x in xs)


SCALAR_ORACLES = {
    "sphere": scalar_sphere,
    "rastrigin": scalar_rastrigin,
    "ackley": scalar_ackley,
    "griewank": scalar_griewank,
    "rosenbrock": scalar_rosenbrock,
    "schwefel": scalar_schwefel,
}


class TestEvalCounting:
    def test_exact_count_and_flags(self):
        h = obj.make_benchmark("sphere", 3)
        for _ in range(17):
            h.evaluate(np.full(3, 0.5))
        assert h.eval_count == 17
        assert h.flagged_count == 0

    def test_nonfinite_flagged(self):
        h = obj.ObjectiveHandle(2, lambda x: math.nan, BoundsSpec.unit(2))
        assert math.isnan(h.evaluate(np.array([0.5, 0.5])))
        assert h.flagged_count == 1
        assert h.eval_count == 1


class TestBenchmarks:
    def test_sphere_center_is_zero(self):
        h = obj.make_benchmark("sphere", 4)
        assert h.evaluate(np.full(4, 0.5)) == pytest.approx(0.0, abs=1e-12)

    def test_rastrigin_optimum_is_zero(self):
        h = obj.make_benchmark("rastrigin", 5)
        assert h.evaluate(h.known_optima[0]) == pytest.approx(0.0, abs=1e-9)

    def test_offset_optimum_is_zero_and_off_center(self):
        for name in ("sphere", "rastrigin", "ackley", "griewank"):
            h = obj.make_benchmark(name, 3, bounds_style="offset")
            assert np.allclose(h.known_optima[0], 0.37)
            assert h.evaluate(h.known_optima[0]) == pytest.approx(0.0, abs=1e-7)

    @pytest.mark.parametrize("name", sorted(SCALAR_ORACLES))
    def test_matches_scalar_oracle(self, name):
        dim = 4
        h = obj.make_benchmark(name, dim)
        oracle = SCALAR_ORACLES[name]
        nrng = np.random.default_rng(hash(name) % 2**32)
        for _ in range(100):
            x_norm = nrng.uniform(size=dim)
            x_user = denormalize(x_norm, h.bounds)
            assert h.evaluate(x_norm) == pytest.approx(
                oracle(list(x_user)), rel=1e-9, abs=1e-9)

    def test_twin_valleys_equal_optima(self):
        h = obj.make_benchmark("twin_valleys", 7)
        fa = h.evaluate(h.known_optima[0])
        fb = h.evaluate(h.known_optima[1])
        assert abs(fa - fb) < 1e-12
        assert fa == pytest.approx(0.0, abs=1e-15)

    def test_noisy_rastrigin_bounded_noise_and_seeded(self):
        a = obj.make_benchmark("noisy_rastrigin", 3, noise_seed=5)
        b = obj.make_benchmark("noisy_rastrigin", 3, noise_seed=5)
        clean = obj.make_benchmark("rastrigin", 3)
        nrng = np.random.default_rng(0)
        pts = [nrng.uniform(size=3) for _ in range(50)]
        va = [a.evaluate(p) for p in pts]
        vb = [b.evaluate(p) for p in pts]
        vc = [clean.evaluate(p) for p in pts]
        assert va == vb
        assert all(abs(x - y) <= 0.1 for x, y in zip(va, vc))
        assert any(x != y for x, y in zip(va, vc))

    @pytest.mark.parametrize("name", obj.BENCHMARK_NAMES)
    def test_pickle_round_trip_evaluates_identically(self, name):
        dim = 4
        bounds = BoundsSpec.from_pairs([(-3.0, 4.0)] * dim)
        nrng = np.random.default_rng(3)
        pts = [nrng.uniform(size=dim) for _ in range(20)]
        for h in (obj.make_benchmark(name, dim, bounds_style="offset",
                                     noise_seed=7),
                  obj.make_benchmark_with_bounds(name, dim, bounds,
                                                 noise_seed=7)):
            copy = pickle.loads(pickle.dumps(h))
            assert [copy.evaluate(p) for p in pts] == \
                   [h.evaluate(p) for p in pts]
            assert copy.eval_count == h.eval_count == len(pts)
            for a, b in zip(copy.known_optima, h.known_optima):
                assert np.array_equal(a, b)

    def test_noisy_rastrigin_noise_is_a_function_of_the_point(self):
        h = obj.make_benchmark("noisy_rastrigin", 3, noise_seed=5)
        pts = [np.full(3, 0.1 * i) for i in range(1, 8)]
        forward = [h.evaluate(p) for p in pts]
        backward = [h.evaluate(p) for p in reversed(pts)]
        assert forward == backward[::-1]
        other = obj.make_benchmark("noisy_rastrigin", 3, noise_seed=6)
        assert [other.evaluate(p) for p in pts] != forward

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            obj.make_benchmark("nope", 3)
        with pytest.raises(ValueError):
            obj.make_benchmark("rosenbrock", 1)


WORKER_SPHERE = textwrap.dedent("""\
    import sys
    for line in sys.stdin:
        xs = [float(v) for v in line.split()]
        print(sum(x * x for x in xs), flush=True)
    """)


class TestExternalObjective:
    def test_constant_echo_worker(self, tmp_path):
        script = tmp_path / "w.py"
        script.write_text("import sys\n"
                          "for _ in sys.stdin: print(0.0, flush=True)\n")
        h = obj.external_objective(f"{sys.executable} {script}",
                                   BoundsSpec.unit(2), timeout=10.0)
        try:
            assert h.evaluate(np.array([0.3, 0.6])) == 0.0
            assert h.eval_count == 1
            assert h.concurrency_class == obj.SERIAL_ONLY
        finally:
            h.close()

    def test_sphere_worker_matches_internal(self, tmp_path):
        script = tmp_path / "w.py"
        script.write_text(WORKER_SPHERE)
        bounds = BoundsSpec.from_pairs([(-5.0, 5.0)] * 3)
        h = obj.external_objective(f"{sys.executable} {script}", bounds,
                                   timeout=10.0)
        internal = obj.make_benchmark("sphere", 3)
        try:
            nrng = np.random.default_rng(12)
            for _ in range(100):
                x = nrng.uniform(size=3)
                assert h.evaluate(x) == pytest.approx(internal.evaluate(x),
                                                      abs=1e-9)
        finally:
            h.close()

    def test_malformed_reply_flagged_not_fatal(self, tmp_path):
        script = tmp_path / "w.py"
        script.write_text("import sys\n"
                          "lines = iter(sys.stdin)\n"
                          "next(lines); print('garbage', flush=True)\n"
                          "for _ in lines: print(1.5, flush=True)\n")
        h = obj.external_objective(f"{sys.executable} {script}",
                                   BoundsSpec.unit(1), timeout=10.0)
        try:
            assert math.isnan(h.evaluate(np.array([0.5])))
            assert h.flagged_count == 1
            assert h.evaluate(np.array([0.5])) == 1.5
        finally:
            h.close()

    def test_dead_worker_yields_nan(self, tmp_path):
        script = tmp_path / "w.py"
        script.write_text("raise SystemExit(1)\n")
        h = obj.external_objective(f"{sys.executable} {script}",
                                   BoundsSpec.unit(1), timeout=5.0)
        try:
            assert math.isnan(h.evaluate(np.array([0.5])))
        finally:
            h.close()

    def test_worker_pool_is_concurrent_safe(self, tmp_path):
        script = tmp_path / "w.py"
        script.write_text(WORKER_SPHERE)
        bounds = BoundsSpec.from_pairs([(-1.0, 1.0)] * 2)
        h = obj.external_objective(f"{sys.executable} {script}", bounds,
                                   timeout=10.0, workers=3)
        try:
            assert h.concurrency_class == obj.CONCURRENT_SAFE
            import concurrent.futures as cf
            pts = [np.array([0.5 + 0.01 * i, 0.5]) for i in range(40)]
            with cf.ThreadPoolExecutor(max_workers=6) as ex:
                vals = list(ex.map(h.evaluate, pts))
            expect = [float((p[0] * 2 - 1) ** 2) for p in pts]
            assert vals == pytest.approx(expect, abs=1e-12)
            assert h.eval_count == 40
        finally:
            h.close()
