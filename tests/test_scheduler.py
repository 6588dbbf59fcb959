import math
import sys
import threading

import numpy as np
import pytest

from swarmstack import scheduler as sch
from swarmstack.domain import BoundsSpec
from swarmstack.objective import (ObjectiveHandle, external_objective,
                                  make_benchmark)
from swarmstack.stages import AlgorithmOptions


def nan_on_left_sphere(x):
    """Sphere that is undefined on the left fifth of the cube."""
    return math.nan if x[0] < 0.2 else float(np.dot(x, x))


def rated(points):
    return [(p.value, p.position.tobytes(), p.eval_index) for p in points]


def small_config(handle, **overrides):
    defaults = dict(dim=handle.dim, bounds=handle.bounds,
                    trials_per_temperature=3, evals_per_trial=400,
                    stack_capacity=20, master_seed=11)
    defaults.update(overrides)
    return sch.RunConfig(**defaults)


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


class TestRunTrial:
    def test_deterministic(self):
        def once():
            h = make_benchmark("sphere", 3, bounds_style="offset")
            cfg = small_config(h)
            stack, _, _ = sch.run_trial(cfg, h, 0.5, sch.initial_guesses(3), 4)
            return [(e.value, tuple(e.position)) for e in stack.entries]

        assert once() == once()

    def test_budget_within_overshoot_bound(self):
        h = make_benchmark("sphere", 3, bounds_style="offset")
        cfg = small_config(h)
        stack, records, _ = sch.run_trial(cfg, h, 1.0, sch.initial_guesses(3), 0)
        cap = cfg.options.linmin_eval_cap
        for rec, budget in zip(records, sch.allocate_budget(cfg.evals_per_trial)):
            assert budget <= rec.evals_used <= budget + cap
        assert h.eval_count <= cfg.evals_per_trial + 4 * cap

    def test_best_not_worse_than_guesses(self):
        h = make_benchmark("rastrigin", 3, bounds_style="offset")
        cfg = small_config(h)
        guesses = sch.initial_guesses(3)
        guess_values = [h.evaluate(g) for g in guesses]
        stack, _, _ = sch.run_trial(cfg, h, 0.75, guesses, 2)
        assert stack.best.value <= min(guess_values)

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
        h = make_benchmark("sphere", 3, bounds_style="offset")
        cfg = small_config(h)
        stack, diag = sch.run_optimization(cfg, h)
        assert diag.total_evaluations == h.eval_count
        assert diag.recorded_evaluations() == diag.total_evaluations
        nominal = (len(cfg.temperatures) * cfg.trials_per_temperature
                   * cfg.evals_per_trial)
        overshoot = (len(cfg.temperatures) * cfg.trials_per_temperature
                     * 4 * cfg.options.linmin_eval_cap)
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
        h = make_benchmark("sphere", 2, bounds_style="offset")
        cfg = small_config(h, temperatures=(1.0, 0.0))
        _, first = sch.run_optimization(cfg, h)
        _, second = sch.run_optimization(cfg, h)
        assert first.total_evaluations == second.total_evaluations
        assert first.total_evaluations == second.recorded_evaluations()
        assert h.eval_count == 2 * first.total_evaluations

    def test_threaded_matches_sequential_content(self):
        def run(name, threads):
            h = make_benchmark(name, 2, bounds_style="offset")
            cfg = small_config(h, threads=threads, collect_history=True)
            stack, diag = sch.run_optimization(cfg, h)
            return (rated(stack.entries), rated(diag.swarm_history),
                    diag.total_evaluations, h.eval_count)

        for name in ("ackley", "noisy_rastrigin"):
            serial = run(name, 1)
            assert run(name, 2) == serial, name
            assert run(name, 4) == serial, name

    def test_threaded_counts_flagged_evaluations_of_workers(self):
        def run(threads):
            bounds = BoundsSpec.unit(2)
            h = ObjectiveHandle(2, nan_on_left_sphere, bounds)
            cfg = sch.RunConfig(dim=2, bounds=bounds, trials_per_temperature=2,
                                evals_per_trial=400, stack_capacity=12,
                                master_seed=5, temperatures=(1.0, 0.0),
                                threads=threads)
            _, diag = sch.run_optimization(cfg, h)
            return h.eval_count, h.flagged_count, diag.total_evaluations

        serial = run(1)
        assert serial[1] > 0
        assert run(2) == serial

    def test_threads_with_unpicklable_objective_fail_fast(self):
        bounds = BoundsSpec.unit(2)
        h = ObjectiveHandle(2, lambda x: float(np.dot(x, x)), bounds)
        cfg = small_config(h, threads=2)
        with pytest.raises(ValueError, match="picklable"):
            sch.run_optimization(cfg, h)
        assert h.eval_count == 0

    def test_external_worker_pool_runs_trials_in_threads(self, tmp_path,
                                                         monkeypatch):
        script = tmp_path / "w.py"
        script.write_text("import sys\n"
                          "for line in sys.stdin:\n"
                          "    xs = [float(v) for v in line.split()]\n"
                          "    print(repr(sum(x * x for x in xs)), flush=True)\n")
        bounds = BoundsSpec.from_pairs([(-2.0, 3.0)] * 2)
        threads_seen = []
        original = sch.run_trial

        def spy(*args):
            threads_seen.append(threading.current_thread()
                                is not threading.main_thread())
            return original(*args)

        monkeypatch.setattr(sch, "run_trial", spy)

        def run(threads):
            h = external_objective(f"{sys.executable} {script}", bounds,
                                   timeout=10.0, workers=2)
            try:
                cfg = sch.RunConfig(dim=2, bounds=bounds,
                                    trials_per_temperature=2,
                                    evals_per_trial=200, stack_capacity=12,
                                    master_seed=8, temperatures=(1.0, 0.0),
                                    threads=threads, collect_history=True)
                stack, diag = sch.run_optimization(cfg, h)
                return (rated(stack.entries), rated(diag.swarm_history),
                        h.eval_count)
            finally:
                h.close()

        serial = run(1)
        assert not any(threads_seen)
        threads_seen.clear()
        assert run(2) == serial
        assert threads_seen and all(threads_seen)

    def test_constant_objective_fills_stack_distinctly(self):
        bounds = BoundsSpec.unit(2)
        h = ObjectiveHandle(2, lambda x: 0.0, bounds, name="zero")
        cfg = sch.RunConfig(dim=2, bounds=bounds, trials_per_temperature=2,
                            evals_per_trial=400, stack_capacity=12,
                            master_seed=3)
        stack, diag = sch.run_optimization(cfg, h)
        assert len(stack) == 12
        assert all(e.value == 0.0 for e in stack.entries)
        final_r_eq = cfg.options.equivalence_radius(cfg.temperatures[-1], 2)
        stack.check_invariants()
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
