import math
import os
import pickle
import signal
import sys
import textwrap
import time

import numpy as np
import pytest

from helpers import CountingFunction, running
from swarmstack import objective as obj
from swarmstack.domain import BoundsSpec, denormalize
from swarmstack.rng import seed
from swarmstack.stages import TrialContext
from swarmstack.swarm import Stack


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


def trial_context(handle):
    """A trial over ``handle``: the trial, not the handle, counts."""
    return TrialContext(stack=Stack(8, 0.01), rng=seed(0, 0), temperature=0.5,
                        dim=handle.dim, objective=handle)


class TestEvalCounting:
    def test_exact_count_and_flags(self):
        sphere = obj.make_benchmark("sphere", 3)
        func = CountingFunction(sphere.evaluate)
        ctx = trial_context(obj.ObjectiveHandle(func, sphere.bounds))
        for _ in range(17):
            ctx.evaluate(np.full(3, 0.5))
        assert ctx.eval_count == func.calls == 17
        assert ctx.flagged_count == func.nonfinite == 0

    def test_nonfinite_flagged(self):
        replies = iter([math.nan, "not a number", None, math.inf, 2.5])
        h = obj.ObjectiveHandle(lambda x: next(replies), BoundsSpec.unit(2))
        ctx = trial_context(h)
        values = [ctx.evaluate(np.array([0.5, 0.5])) for _ in range(5)]
        assert [math.isnan(v) for v in values] == [True, True, True, False,
                                                   False]
        assert values[3:] == [math.inf, 2.5]
        assert ctx.flagged_count == 4
        assert ctx.eval_count == 5


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

    def test_schwefel_has_no_offset_bounds(self):
        # a shifted box leaves Schwefel's published domain, where it falls
        # below the optimum value 0 that known_optima names
        with pytest.raises(ValueError, match="schwefel.*published domain"):
            obj.make_benchmark("schwefel", 5, bounds_style="offset")

    def test_twin_valleys_equal_optima(self):
        h = obj.make_benchmark("twin_valleys", 7)
        fa = h.evaluate(h.known_optima[0])
        fb = h.evaluate(h.known_optima[1])
        assert abs(fa - fb) < 1e-12
        assert fa == pytest.approx(0.0, abs=1e-15)

    def test_twin_valleys_keeps_custom_bounds(self):
        bounds = BoundsSpec.from_pairs([(0.0, 10.0), (-5.0, 5.0)])
        h = obj.make_benchmark_with_bounds("twin_valleys", bounds)
        assert np.array_equal(h.bounds.lower, bounds.lower)
        assert np.array_equal(h.bounds.upper, bounds.upper)
        unit = obj.make_benchmark("twin_valleys", 2)
        nrng = np.random.default_rng(2)
        for p in [nrng.uniform(size=2) for _ in range(10)]:
            assert h.evaluate(p) == unit.evaluate(p)
        for a, b in zip(h.known_optima, unit.known_optima):
            assert np.array_equal(a, b)

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
        style = "conventional" if name == "schwefel" else "offset"
        for h in (obj.make_benchmark(name, dim, bounds_style=style,
                                     noise_seed=7),
                  obj.make_benchmark_with_bounds(name, bounds,
                                                 noise_seed=7)):
            state = pickle.dumps(h)
            copy = pickle.loads(state)
            assert [copy.evaluate(p) for p in pts] == \
                   [h.evaluate(p) for p in pts]
            # evaluating leaves the handle as it was, so a copy sent to a
            # worker process never differs from the original
            assert pickle.dumps(h) == pickle.dumps(copy) == state
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
        with pytest.raises(ValueError, match="too small"):
            obj.make_benchmark_with_bounds(
                "rosenbrock", BoundsSpec.from_pairs([(-2.0, 2.0)]))


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
            assert h.evaluate(np.array([0.9, 0.1])) == 0.0
            assert h.dim == 2
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
            ctx = trial_context(h)
            assert math.isnan(ctx.evaluate(np.array([0.5])))
            assert ctx.flagged_count == 1
            assert ctx.evaluate(np.array([0.5])) == 1.5
            assert (ctx.eval_count, ctx.flagged_count) == (2, 1)
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

    def test_slow_reply_never_answers_a_later_request(self, tmp_path):
        script = tmp_path / "w.py"
        script.write_text(textwrap.dedent("""\
            import sys, time
            for i, line in enumerate(sys.stdin):
                if i == 0:
                    time.sleep(1.0)
                xs = [float(v) for v in line.split()]
                print(sum(x * x for x in xs), flush=True)
            """))
        h = obj.external_objective(f"{sys.executable} {script}",
                                   BoundsSpec.unit(1), timeout=0.3)
        try:
            assert math.isnan(h.evaluate(np.array([0.1])))
            time.sleep(1.5)  # the late reply to 0.1 is due by now
            # a timed-out worker is ended: NaN, never 0.1's value 0.01
            assert math.isnan(h.evaluate(np.array([0.7])))
            assert math.isnan(h.evaluate(np.array([0.9])))
        finally:
            h.close()

    def test_worker_that_exits_is_restarted(self, tmp_path):
        script = tmp_path / "w.py"
        script.write_text(textwrap.dedent("""\
            import sys
            xs = [float(v) for v in sys.stdin.readline().split()]
            print(sum(x * x for x in xs), flush=True)
            """))
        h = obj.external_objective(f"{sys.executable} {script}",
                                   BoundsSpec.unit(1), timeout=10.0)
        try:
            assert h.evaluate(np.array([0.5])) == 0.25
            time.sleep(0.5)  # the worker has exited after its one reply
            assert h.evaluate(np.array([0.7])) == 0.7 * 0.7
        finally:
            h.close()

    def test_timed_out_worker_is_restarted(self, tmp_path):
        script = tmp_path / "w.py"
        marker = tmp_path / "slept"
        script.write_text(textwrap.dedent(f"""\
            import os, sys, time
            for line in sys.stdin:
                if not os.path.exists({str(marker)!r}):
                    open({str(marker)!r}, "w").close()
                    time.sleep(5.0)
                xs = [float(v) for v in line.split()]
                print(sum(x * x for x in xs), flush=True)
            """))
        h = obj.external_objective(f"{sys.executable} {script}",
                                   BoundsSpec.unit(1), timeout=1.0)
        try:
            assert math.isnan(h.evaluate(np.array([0.1])))
            # a fresh worker answers, never with 0.1's value 0.01
            assert h.evaluate(np.array([0.7])) == 0.7 * 0.7
        finally:
            h.close()

    def test_timeout_bounds_the_whole_reply(self, tmp_path):
        # a worker that writes its first reply a byte at a time never goes
        # silent for a whole timeout, but misses it by far in total
        script = tmp_path / "w.py"
        marker = tmp_path / "dribbled"
        script.write_text(textwrap.dedent(f"""\
            import os, sys, time
            for line in sys.stdin:
                xs = [float(v) for v in line.split()]
                reply = repr(sum(x * x for x in xs)) + "\\n"
                if not os.path.exists({str(marker)!r}):
                    open({str(marker)!r}, "w").close()
                    for ch in reply.rjust(12, "0"):
                        sys.stdout.write(ch)
                        sys.stdout.flush()
                        time.sleep(0.2)
                else:
                    sys.stdout.write(reply)
                    sys.stdout.flush()
            """))
        h = obj.external_objective(f"{sys.executable} {script}",
                                   BoundsSpec.unit(1), timeout=0.5)
        try:
            started = time.monotonic()
            assert math.isnan(h.evaluate(np.array([0.5])))
            assert time.monotonic() - started < 1.5
            # a restarted worker answers the next request
            assert h.evaluate(np.array([0.7])) == 0.7 * 0.7
        finally:
            h.close()

    def test_close_releases_both_pipes(self, tmp_path):
        script = tmp_path / "w.py"
        script.write_text(textwrap.dedent("""\
            import sys
            xs = [float(v) for v in sys.stdin.readline().split()]
            print(sum(x * x for x in xs), flush=True)
            if xs[0] < 0.5:
                sys.stdin.read()  # runs until its input ends
            """))
        for point, running in ((0.25, True), (0.75, False)):
            h = obj.external_objective(f"{sys.executable} {script}",
                                       BoundsSpec.unit(1), timeout=10.0)
            assert h.evaluate(np.array([point])) == point * point
            proc = h._func.proc
            if not running:
                proc.wait(timeout=10.0)
            assert (proc.poll() is None) == running
            h.close()
            assert proc.returncode is not None
            assert proc.stdin.closed and proc.stdout.closed

    def test_stop_ends_a_worker_the_shell_did_not_exec(self, tmp_path):
        # the shell has more to run after the worker, so it cannot exec it:
        # the worker is the shell's child, and ending the shell alone
        # would leave it running
        script = tmp_path / "w.py"
        pid_file = tmp_path / "pid"
        script.write_text(textwrap.dedent(f"""\
            import os, sys, time
            with open({str(pid_file)!r}, "w") as fh:
                fh.write(str(os.getpid()))
            sys.stdin.readline()
            time.sleep(30)
            """))
        h = obj.external_objective(f"{sys.executable} {script}; exit 0",
                                   BoundsSpec.unit(1), timeout=2.0)
        try:
            assert math.isnan(h.evaluate(np.array([0.5])))
        finally:
            h.close()
        pid = int(pid_file.read_text())
        deadline = time.monotonic() + 3.0
        while running(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        orphaned = running(pid)
        if orphaned:  # end it here, so that a failing run leaves no process
            os.kill(pid, signal.SIGKILL)
        assert not orphaned

    def test_restarts_are_bounded(self, tmp_path):
        script = tmp_path / "w.py"
        starts = tmp_path / "starts.log"
        script.write_text(f"with open({str(starts)!r}, 'a') as fh:\n"
                          "    fh.write('start\\n')\n"
                          "raise SystemExit(1)\n")
        h = obj.external_objective(f"{sys.executable} {script}",
                                   BoundsSpec.unit(1), timeout=5.0)
        try:
            for _ in range(obj.WORKER_RESTARTS + 3):
                assert math.isnan(h.evaluate(np.array([0.5])))
        finally:
            h.close()
        assert starts.read_text() == "start\n" * (1 + obj.WORKER_RESTARTS)

    def test_worker_pool_is_concurrent_safe(self, tmp_path):
        script = tmp_path / "w.py"
        log = tmp_path / "requests.log"
        script.write_text(textwrap.dedent(f"""\
            import sys
            for line in sys.stdin:
                with open({str(log)!r}, "a") as fh:
                    fh.write(line)
                xs = [float(v) for v in line.split()]
                print(sum(x * x for x in xs), flush=True)
            """))
        bounds = BoundsSpec.from_pairs([(-1.0, 1.0)] * 2)
        h = obj.external_objective(f"{sys.executable} {script}", bounds,
                                   timeout=10.0)
        try:
            import concurrent.futures as cf
            pts = [np.array([0.5 + 0.01 * i, 0.5]) for i in range(40)]
            with cf.ThreadPoolExecutor(max_workers=6) as ex:
                vals = list(ex.map(h.evaluate, pts))
            expect = [float((p[0] * 2 - 1) ** 2) for p in pts]
            assert vals == pytest.approx(expect, abs=1e-12)
            # the worker saw each point exactly once
            logged = [[float(v) for v in line.split()]
                      for line in log.read_text().splitlines()]
            assert sorted(logged) == sorted(denormalize(p, bounds).tolist()
                                            for p in pts)
        finally:
            h.close()
