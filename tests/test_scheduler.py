import math
import os
import subprocess
import sys
import textwrap
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import (CountingFunction, assert_stack_invariants,
                     exiting_sphere, raising_sphere, running)
from swarmstack import scheduler as sch
from swarmstack.domain import BoundsSpec
from swarmstack.linmin import DEFAULT_EVAL_CAP
from swarmstack.objective import (ObjectiveHandle, external_objective,
                                  make_benchmark)
from swarmstack.stages import AlgorithmOptions

ROOT = Path(__file__).resolve().parent.parent


def nan_on_left_sphere(x):
    """Sphere that is undefined on the left fifth of the cube."""
    return math.nan if x[0] < 0.2 else float(np.dot(x, x))


def counted(handle):
    """``handle`` behind a function that counts the calls itself."""
    func = CountingFunction(handle.evaluate)
    return ObjectiveHandle(func, handle.bounds), func


def rated(points):
    return [(p.value, p.position.tobytes(), p.eval_index) for p in points]


def small_config(handle, **overrides):
    defaults = dict(dim=handle.dim, bounds=handle.bounds,
                    trials_per_temperature=3, evals_per_trial=400,
                    stack_capacity=20, master_seed=11)
    defaults.update(overrides)
    return sch.RunConfig(**defaults)


def pid_logging_worker(tmp_path, log):
    """Command of a sphere worker that logs its pid and parent pid when it
    starts and with each request.  The shell execs it, so the parent is the
    process that started the worker."""
    script = tmp_path / "pid_worker.py"
    script.write_text(textwrap.dedent("""\
        import os, sys
        log = open(sys.argv[1], "a", buffering=1)
        pids = f"{os.getpid()} {os.getppid()}\\n"
        log.write("start " + pids)
        for line in sys.stdin:
            log.write("request " + pids)
            xs = [float(v) for v in line.split()]
            print(repr(sum(x * x for x in xs)), flush=True)
        """))
    return f"exec {sys.executable} {script} {log}"


def read_pid_log(log):
    """(pid, parent pid) of every start line and every request line."""
    entries = {"start": [], "request": []}
    for line in log.read_text().splitlines():
        kind, pid, ppid = line.split()
        entries[kind].append((int(pid), int(ppid)))
    return entries["start"], entries["request"]


SPAWNED_RUNS = textwrap.dedent("""\
    import hashlib, multiprocessing, shlex, sys
    from swarmstack import scheduler as sch
    from swarmstack.objective import external_objective, make_benchmark

    SPHERE = ("import sys; [print(repr(sum(float(v) ** 2 for v in line.split()"
              ")), flush=True) for line in sys.stdin]")

    def digest(handle, threads):
        cfg = sch.RunConfig(dim=handle.dim, bounds=handle.bounds,
                            trials_per_temperature=2, evals_per_trial=300,
                            stack_capacity=12, master_seed=4,
                            temperatures=(1.0, 0.0), threads=threads,
                            collect_history=True)
        stack, diag = sch.run_optimization(cfg, handle)
        h = hashlib.sha256()
        for p in stack.entries + diag.swarm_history:
            h.update(repr((p.value, p.eval_index)).encode())
            h.update(p.position.tobytes())
        for r in diag.records:
            h.update(repr((r.stage, r.trial_index, r.evals_used,
                           r.flagged_evals, r.best_value,
                           r.metrics)).encode())
        return h.hexdigest()

    if __name__ == "__main__":
        multiprocessing.set_start_method("spawn")
        print(multiprocessing.get_start_method())
        for threads in (1, 2):
            print(digest(make_benchmark("ackley", 2, bounds_style="offset"),
                         threads))
        command = f"{shlex.quote(sys.executable)} -c {shlex.quote(SPHERE)}"
        bounds = make_benchmark("sphere", 2).bounds
        for threads in (1, 2):
            handle = external_objective(command, bounds, timeout=30.0)
            try:
                print(digest(handle, threads))
            finally:
                handle.close()
    """)


LEAK_CHECKED_RUNS = textwrap.dedent("""\
    import math, os, shlex, sys
    import numpy as np
    from swarmstack import scheduler as sch
    from swarmstack.domain import BoundsSpec
    from swarmstack.objective import external_objective

    # sphere whose first reply ever comes too late
    WORKER = ("import os, sys, time\\n"
              "for line in sys.stdin:\\n"
              "    if not os.path.exists(sys.argv[1]):\\n"
              "        open(sys.argv[1], 'w').close()\\n"
              "        time.sleep(10)\\n"
              "    print(repr(sum(float(v) ** 2 for v in line.split())),"
              " flush=True)\\n")

    if __name__ == "__main__":
        marker = os.path.join(sys.argv[1], "slept")
        command = " ".join(map(shlex.quote,
                               (sys.executable, "-c", WORKER, marker)))
        bounds = BoundsSpec.unit(2)
        h = external_objective(command, bounds, timeout=2.0)
        try:
            assert math.isnan(h.evaluate(np.array([0.5, 0.5])))
            assert h.evaluate(np.array([0.5, 0.5])) == 0.5  # restarted
            for threads in (1, 2):
                cfg = sch.RunConfig(dim=2, bounds=bounds,
                                    trials_per_temperature=2,
                                    evals_per_trial=200, stack_capacity=8,
                                    master_seed=2, temperatures=(1.0, 0.0),
                                    threads=threads)
                sch.run_optimization(cfg, h)
        finally:
            h.close()
        print("done")
    """)


class TestInitialGuesses:
    def test_dim_two(self):
        g = sch.initial_guesses(2)
        assert [tuple(v) for v in g] == [(0.25, 0.25), (0.5, 0.5), (0.75, 0.75)]

    def test_dim_one(self):
        assert [v[0] for v in sch.initial_guesses(1)] == [0.25, 0.5, 0.75]

    def test_diagonal(self):
        for v in sch.initial_guesses(7):
            assert np.all(v == v[0])


class TestAllocateBudget:
    def test_default_budget(self):
        assert sch.allocate_budget(10_000) == (2174, 2174, 2826, 2826)

    def test_exact_division(self):
        assert sch.allocate_budget(4600) == (1000, 1000, 1300, 1300)

    @pytest.mark.parametrize("total", [100, 999, 4600, 10_000, 123_457])
    def test_parts_sum_to_total(self, total):
        assert sum(sch.allocate_budget(total)) == total

    def test_late_stages_get_thirty_percent_more(self):
        s1, s2, s3, s4 = sch.allocate_budget(46_000)
        assert s1 == s2
        assert s3 == pytest.approx(1.3 * s1, rel=0.01)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            sch.allocate_budget(99)


class TestRunConfigValidation:
    def test_non_descending_temperatures_rejected(self):
        h = make_benchmark("sphere", 2)
        with pytest.raises(ValueError):
            small_config(h, temperatures=(0.5, 0.5))
        with pytest.raises(ValueError):
            small_config(h, temperatures=(0.25, 0.75))

    def test_dim_mismatch_rejected(self):
        h = make_benchmark("sphere", 2)
        with pytest.raises(ValueError):
            sch.RunConfig(dim=3, bounds=h.bounds)

    @pytest.mark.parametrize("bad", [
        {"fat_tail3_k1": 0.5}, {"fat_tail3_s_divisor": 0.0},
        {"notch_exponent": 0.0}, {"recombine_ratio_high_t": 0.9},
        {"r_eq_base": -0.01}, {"r_eq_base": 0.01, "r_eq_slope": -0.02},
        {"linmin_tol": 0.0}, {"mutation_prob": 1.5},
        # non-finite values, which the range checks alone let through
        {"fat_tail3_c1": math.nan}, {"fat_tail3_c1": math.inf},
        {"fat_tail3_c2": math.nan}, {"notch_exponent": math.nan}])
    def test_bad_options_rejected(self, bad):
        h = make_benchmark("sphere", 2)
        with pytest.raises(ValueError):
            small_config(h, options=AlgorithmOptions(**bad))


class TestRunTrial:
    def test_deterministic(self):
        def once():
            h = make_benchmark("sphere", 3, bounds_style="offset")
            cfg = small_config(h)
            stack, _, _ = sch.run_trial(cfg, h, 0.5, sch.initial_guesses(3), 4)
            return [(e.value, tuple(e.position)) for e in stack.entries]

        assert once() == once()

    def test_budget_within_overshoot_bound(self):
        h, func = counted(make_benchmark("sphere", 3, bounds_style="offset"))
        cfg = small_config(h)
        stack, records, _ = sch.run_trial(cfg, h, 1.0, sch.initial_guesses(3), 0)
        cap = DEFAULT_EVAL_CAP
        for rec, budget in zip(records, sch.allocate_budget(cfg.evals_per_trial)):
            assert budget <= rec.evals_used <= budget + cap
        assert func.calls == sum(r.evals_used for r in records)
        assert func.calls <= cfg.evals_per_trial + 4 * cap

    def test_best_not_worse_than_guesses(self):
        h = make_benchmark("rastrigin", 3, bounds_style="offset")
        cfg = small_config(h)
        guesses = sch.initial_guesses(3)
        guess_values = [h.evaluate(g) for g in guesses]
        stack, _, _ = sch.run_trial(cfg, h, 0.75, guesses, 2)
        assert stack.best.value <= min(guess_values)

    def test_no_finite_guess_value_is_named(self):
        h = ObjectiveHandle(lambda x: math.nan, BoundsSpec.unit(2))
        cfg = small_config(h)
        message = (r"no guess point had a finite value "
                   r"\(3 guesses at temperature {}\)")
        with pytest.raises(ValueError, match=message.format("0.5")):
            sch.run_trial(cfg, h, 0.5, sch.initial_guesses(2), 0)
        with pytest.raises(ValueError, match=message.format("1.0")):
            sch.run_optimization(cfg, h)

    def test_stage_records_cover_all_stages(self):
        h = make_benchmark("sphere", 2, bounds_style="offset")
        cfg = small_config(h)
        _, records, _ = sch.run_trial(cfg, h, 0.5, sch.initial_guesses(2), 1)
        assert [r.stage for r in records] == list(
            ("swarm_search", "genetic", "proximal", "axes"))
        assert all(r.trial_index == 1 and r.temperature == 0.5
                   for r in records)


class TestRunTemperatureStep:
    def test_single_trial_merge_is_identity(self):
        h1 = make_benchmark("sphere", 2, bounds_style="offset")
        cfg = small_config(h1, trials_per_temperature=1)
        trial_stack, _, _ = sch.run_trial(cfg, h1, 0.5,
                                          sch.initial_guesses(2), 0)
        h2 = make_benchmark("sphere", 2, bounds_style="offset")
        merged, _, _ = sch.run_temperature_step(cfg, h2, 0.5,
                                                sch.initial_guesses(2), 0)
        assert [(e.value, tuple(e.position)) for e in merged.entries] == \
               [(e.value, tuple(e.position)) for e in trial_stack.entries]

    def test_merged_best_is_min_over_trials(self):
        h = make_benchmark("rastrigin", 2, bounds_style="offset")
        cfg = small_config(h)
        stacks = []
        for i in range(cfg.trials_per_temperature):
            hi = make_benchmark("rastrigin", 2, bounds_style="offset")
            s, _, _ = sch.run_trial(cfg, hi, 1.0, sch.initial_guesses(2), i)
            stacks.append(s)
        h2 = make_benchmark("rastrigin", 2, bounds_style="offset")
        merged, _, _ = sch.run_temperature_step(cfg, h2, 1.0,
                                                sch.initial_guesses(2), 0)
        assert merged.best.value == min(s.best.value for s in stacks)


class TestRunOptimization:
    def test_total_evaluations_accounted(self):
        h, func = counted(make_benchmark("sphere", 3, bounds_style="offset"))
        cfg = small_config(h)
        stack, diag = sch.run_optimization(cfg, h)
        assert diag.total_evaluations == func.calls
        assert diag.flagged_evaluations == func.nonfinite == 0
        nominal = (len(cfg.temperatures) * cfg.trials_per_temperature
                   * cfg.evals_per_trial)
        overshoot = (len(cfg.temperatures) * cfg.trials_per_temperature
                     * 4 * DEFAULT_EVAL_CAP)
        assert nominal <= diag.total_evaluations <= nominal + overshoot

    def test_best_trajectory_non_increasing_across_steps(self):
        h = make_benchmark("rastrigin", 3, bounds_style="offset")
        cfg = small_config(h)
        stack, diag = sch.run_optimization(cfg, h)
        # within one trial the best never worsens; across temperature steps
        # the merged best seeds the next step, so step bests are monotone
        step_best = {}
        for r in diag.records:
            step_best.setdefault(r.temperature, math.inf)
            step_best[r.temperature] = min(step_best[r.temperature],
                                           r.best_value)
        temps = sorted(step_best, reverse=True)
        bests = [step_best[t] for t in temps]
        assert bests == sorted(bests, reverse=True)[::-1] or \
               all(b <= a + 1e-15 for a, b in zip(bests, bests[1:]))

    def test_repeat_run_bit_identical(self):
        def once():
            h = make_benchmark("griewank", 2, bounds_style="offset")
            cfg = small_config(h)
            stack, _ = sch.run_optimization(cfg, h)
            return [(e.value, tuple(e.position)) for e in stack.entries]

        assert once() == once()

    def test_repeat_runs_on_one_handle_report_equal_totals(self):
        h, func = counted(make_benchmark("sphere", 2, bounds_style="offset"))
        cfg = small_config(h, temperatures=(1.0, 0.0))
        _, first = sch.run_optimization(cfg, h)
        _, second = sch.run_optimization(cfg, h)
        assert first.total_evaluations == second.total_evaluations
        assert func.calls == 2 * first.total_evaluations

    def test_threaded_matches_sequential_content(self):
        def run(name, threads):
            h = make_benchmark(name, 2, bounds_style="offset")
            cfg = small_config(h, threads=threads, collect_history=True)
            stack, diag = sch.run_optimization(cfg, h)
            return (rated(stack.entries), rated(diag.swarm_history),
                    [(r.evals_used, r.flagged_evals) for r in diag.records])

        for name in ("ackley", "noisy_rastrigin"):
            serial = run(name, 1)
            assert run(name, 2) == serial, name
            assert run(name, 4) == serial, name

    def test_worker_processes_run_while_run_trial_is_rebound(self,
                                                              monkeypatch):
        # a tracer or spy may rebind run_trial to a closure, which cannot
        # pickle: the pool must still send the trials to its processes
        def run(threads):
            h = make_benchmark("ackley", 2, bounds_style="offset")
            cfg = small_config(h, threads=threads, collect_history=True)
            stack, diag = sch.run_optimization(cfg, h)
            return (rated(stack.entries), rated(diag.swarm_history),
                    [(r.evals_used, r.flagged_evals) for r in diag.records])

        serial = run(1)
        original = sch.run_trial

        def traced(*args):
            return original(*args)

        monkeypatch.setattr(sch, "run_trial", traced)
        assert run(2) == serial

    def test_threaded_counts_flagged_evaluations_of_workers(self):
        bounds = BoundsSpec.unit(2)

        def run(threads, func):
            h = ObjectiveHandle(func, bounds)
            cfg = sch.RunConfig(dim=2, bounds=bounds, trials_per_temperature=2,
                                evals_per_trial=400, stack_capacity=12,
                                master_seed=5, temperatures=(1.0, 0.0),
                                threads=threads)
            _, diag = sch.run_optimization(cfg, h)
            return diag

        oracle = CountingFunction(nan_on_left_sphere)
        serial = run(1, oracle)
        threaded = run(2, nan_on_left_sphere)
        assert serial.flagged_evaluations == oracle.nonfinite > 0
        assert serial.total_evaluations == oracle.calls
        assert ([(r.evals_used, r.flagged_evals) for r in threaded.records]
                == [(r.evals_used, r.flagged_evals) for r in serial.records])

    def test_nonfinite_objective_raises_no_runtime_warnings(self):
        bounds = BoundsSpec.unit(2)
        h = ObjectiveHandle(nan_on_left_sphere, bounds)
        cfg = sch.RunConfig(dim=2, bounds=bounds, trials_per_temperature=2,
                            evals_per_trial=400, stack_capacity=12,
                            master_seed=5, temperatures=(1.0, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, diag = sch.run_optimization(cfg, h)
        assert diag.flagged_evaluations > 0

    def test_threads_with_unpicklable_objective_fail_fast(self):
        bounds = BoundsSpec.unit(2)
        calls = []
        h = ObjectiveHandle(lambda x: calls.append(x) or float(np.dot(x, x)),
                            bounds)
        cfg = small_config(h, threads=2)
        with pytest.raises(ValueError, match="picklable"):
            sch.run_optimization(cfg, h)
        assert calls == []

    @pytest.mark.parametrize("threads", [1, 2])
    def test_objective_error_ends_the_run(self, threads):
        # fail fast: a Python error is a bug, not a flagged evaluation
        h = ObjectiveHandle(raising_sphere, BoundsSpec.unit(2))
        with pytest.raises(ZeroDivisionError):
            sch.run_optimization(small_config(h, threads=threads), h)

    def test_dead_trial_process_ends_the_run(self):
        from concurrent.futures.process import BrokenProcessPool
        h = ObjectiveHandle(exiting_sphere, BoundsSpec.unit(2))
        started = time.monotonic()
        with pytest.raises(BrokenProcessPool):
            sch.run_optimization(small_config(h, threads=2), h)
        assert time.monotonic() - started < 30.0

    def test_external_trials_run_in_worker_processes(self, tmp_path):
        bounds = BoundsSpec.from_pairs([(-2.0, 3.0)] * 2)

        def run(threads):
            log = tmp_path / f"requests-{threads}.log"
            h = external_objective(pid_logging_worker(tmp_path, log), bounds)
            try:
                cfg = sch.RunConfig(dim=2, bounds=bounds,
                                    trials_per_temperature=4,
                                    evals_per_trial=200, stack_capacity=12,
                                    master_seed=8, temperatures=(1.0, 0.0),
                                    threads=threads, collect_history=True)
                stack, diag = sch.run_optimization(cfg, h)
                starts, requests = read_pid_log(log)
                # no external process outlives the run's trial processes
                if threads > 1:
                    assert not [pid for pid, _ in starts if running(pid)]
            finally:
                h.close()
            # the workers saw as many requests as the trials counted
            assert len(requests) == diag.total_evaluations
            assert set(requests) == set(starts)
            outcome = (rated(stack.entries), rated(diag.swarm_history),
                       diag.total_evaluations)
            return outcome, starts

        # trials in turn start one process in this one
        serial, serial_starts = run(1)
        assert [ppid for _, ppid in serial_starts] == [os.getpid()]
        threaded, threaded_starts = run(2)
        assert threaded == serial
        # `threads` alone sizes the pool: at most 2 processes, each started
        # by a trial process
        assert 1 <= len(threaded_starts) <= 2
        assert os.getpid() not in {ppid for _, ppid in threaded_starts}

    def test_spawned_trial_processes_reproduce_the_serial_run(self):
        # a pool started by spawn re-imports the package and unpickles the
        # objective in each process, as Python 3.14's default forkserver does
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
        out = subprocess.run([sys.executable, "-c", SPAWNED_RUNS], env=env,
                             capture_output=True, text=True, timeout=300,
                             check=True).stdout.splitlines()
        assert out[0] == "spawn"
        assert len(out) == 5
        for serial, threaded in (out[1:3], out[3:5]):
            assert threaded == serial

    def test_external_runs_leave_no_pipe_open(self, tmp_path):
        # development mode warns of every file or pipe never closed, and the
        # filter turns each warning into an error that stderr names
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
        done = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
             "-c", LEAK_CHECKED_RUNS, str(tmp_path)], env=env,
            capture_output=True, text=True, timeout=300)
        assert "ResourceWarning" not in done.stderr
        assert (done.returncode, done.stdout) == (0, "done\n"), done.stderr

    def test_constant_objective_fills_stack_distinctly(self):
        bounds = BoundsSpec.unit(2)
        h = ObjectiveHandle(lambda x: 0.0, bounds, name="zero")
        cfg = sch.RunConfig(dim=2, bounds=bounds, trials_per_temperature=2,
                            evals_per_trial=400, stack_capacity=12,
                            master_seed=3)
        stack, diag = sch.run_optimization(cfg, h)
        assert len(stack) == 12
        assert all(e.value == 0.0 for e in stack.entries)
        final_r_eq = cfg.options.equivalence_radius(cfg.temperatures[-1], 2)
        assert_stack_invariants(stack)
        pos = stack.positions_matrix()
        for i in range(len(stack)):
            for j in range(i + 1, len(stack)):
                assert np.abs(pos[i] - pos[j]).sum() >= final_r_eq

    def test_stream_indices_never_repeat(self, monkeypatch):
        seen = []
        original = sch.run_trial

        def spy(config, objective, temperature, guesses, stream_index):
            seen.append(stream_index)
            return original(config, objective, temperature, guesses,
                            stream_index)

        monkeypatch.setattr(sch, "run_trial", spy)
        h = make_benchmark("sphere", 2, bounds_style="offset")
        cfg = small_config(h, trials_per_temperature=2)
        sch.run_optimization(cfg, h)
        assert len(seen) == len(set(seen)) == len(cfg.temperatures) * 2

    def test_history_collection_toggle(self):
        h = make_benchmark("sphere", 2, bounds_style="offset")
        cfg = small_config(h, collect_history=True)
        stack, diag = sch.run_optimization(cfg, h)
        assert diag.swarm_history
        assert all(p.position.shape == (2,) for p in diag.swarm_history)
        h2 = make_benchmark("sphere", 2, bounds_style="offset")
        cfg2 = small_config(h2, collect_history=False)
        _, diag2 = sch.run_optimization(cfg2, h2)
        assert diag2.swarm_history == []
