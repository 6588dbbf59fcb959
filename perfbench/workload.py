"""One workload in its own process: whole rounds of checked optimisation runs.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S \
        --trace 0|1

``run.py`` starts this script.  It puts ``src/`` on the import path itself,
so the package need not be installed.  Rounds repeat until ``--seconds`` have
passed; every round runs the same operations, on master seeds derived from
``--seed``.  The last line of standard output is one JSON object with the
attempted and failed run counts, the problems the checks found and the
metrics, each as [value, unit].
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT / "src"))

from swarmstack import (RunConfig, cli, make_benchmark,  # noqa: E402
                        run_optimization)
from swarmstack.scheduler import DEFAULT_TEMPERATURES  # noqa: E402
from swarmstack.stages import STAGE_NAMES  # noqa: E402

import checks  # noqa: E402

WORKLOADS = ("rastrigin11", "rastrigin11-threads2", "twin2-cli")

# rastrigin-11 with 2 trials x 5k evaluations misses the global basin on some
# seeds; at 2 x 10k all but one of about 250 seeds tried reached it by
# T=0.25, a step before the ladder ends.
RASTRIGIN_DIM = 11
TRIALS = 2
EVALS_PER_TRIAL = 10_000
CAPACITY = 120
PLANE_SPEC = "-".join(map(str, checks.PLANE))
T_LAST = DEFAULT_TEMPERATURES[-1]
# Each threaded run is checked against a serial run of the same seed, so the
# threaded workload reuses a few seeds rather than paying a serial run per
# round.  Every round runs all of them, so evals_to_target is always the
# median of equal shares of each seed.
THREADS2_SEEDS = 2


def master_seed(seed: int, round_index: int) -> int:
    return seed * 1000 + round_index


def library_run(seed: int, threads: int):
    """One ``run_optimization`` call with a fresh handle, timed."""
    handle = make_benchmark("rastrigin", RASTRIGIN_DIM, bounds_style="offset")
    config = RunConfig(dim=RASTRIGIN_DIM, bounds=handle.bounds,
                       trials_per_temperature=TRIALS,
                       evals_per_trial=EVALS_PER_TRIAL,
                       stack_capacity=CAPACITY, master_seed=seed,
                       threads=threads)
    started = time.perf_counter()
    stack, diag = run_optimization(config, handle)
    run_s = time.perf_counter() - started
    problems = checks.check_library_run(stack, diag.records,
                                        diag.total_evaluations, RASTRIGIN_DIM,
                                        CAPACITY, T_LAST)
    return {"run_s": run_s, "evals": diag.total_evaluations,
            "to_target": checks.evals_to_target(
                ((r.evals_used, r.best_value) for r in diag.records),
                checks.RASTRIGIN_TARGET),
            "stages": [(r.stage, r.evals_used, r.elapsed_s)
                       for r in diag.records],
            "problems": problems,
            "stack": stack}


def cli_run(seed: int, out_dir: Path):
    """``swarmstack.cli.main`` in-process on twin_valleys-2, timed."""
    argv = ["--function", "twin_valleys", "--dim", str(checks.TWIN_DIM),
            "--trials", str(TRIALS), "--evals_per_trial", str(EVALS_PER_TRIAL),
            "--stack_capacity", str(CAPACITY), "--seed", str(seed),
            "--emit_projections", "true",
            "--projection_planes", PLANE_SPEC,
            "--out_dir", str(out_dir)]
    printed = io.StringIO()
    started = time.perf_counter()
    with redirect_stdout(printed):
        code = cli.main(argv)
    run_s = time.perf_counter() - started
    if code != 0:
        raise RuntimeError(f"swarmstack exited with {code}")
    stdout = printed.getvalue()
    problems = checks.check_cli_run(out_dir, stdout, CAPACITY, T_LAST)
    rows = checks.diagnostics_rows(out_dir)
    to_target = checks.evals_to_target(
        ((r["evals"], r["best_value"]) for r in rows), checks.TWIN_TARGET)
    return {"run_s": run_s, "evals": checks.printed_total(stdout),
            "to_target": to_target, "problems": problems,
            "stages": [(r["stage"], r["evals"], r["elapsed_s"]) for r in rows],
            "output_bytes": _tree_bytes(out_dir)}


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def one_run(workload: str, seed: int, tracer=None):
    """The workload's operation on one master seed, traced if ``tracer``."""
    with tracer.installed() if tracer is not None else nullcontext():
        if workload == "rastrigin11":
            return library_run(seed, threads=1)
        if workload == "rastrigin11-threads2":
            return library_run(seed, threads=2)
        out_dir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
        try:
            return cli_run(seed, out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)


def run_seed(workload: str, seed: int, tracer=None,
             reference=None) -> list[dict]:
    """The timed run of one seed and, when tracing, a traced run after it.

    A ``reference`` stack (from a serial run on the same seed) must equal
    each run's final stack.
    """
    runs = [one_run(workload, seed)]
    if tracer is not None:
        traced = one_run(workload, seed, tracer)
        traced["traced"] = True
        runs.append(traced)
    if reference is not None:
        for r in runs:
            r["problems"] += checks.check_same_stack(r["stack"], reference)
    return runs


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Rounds until ``seconds`` have passed, then the metrics of the runs.

    A round of ``rastrigin11-threads2`` runs the same ``THREADS2_SEEDS``
    master seeds, so a few serial runs, made before the clock starts, are
    the references that every threaded run must reproduce.  A round of the
    other workloads runs one new master seed.
    """
    OUT.mkdir(exist_ok=True)
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
    references = {}
    if workload == "rastrigin11-threads2":
        for i in range(THREADS2_SEEDS):
            s = master_seed(seed, i)
            references[s] = library_run(s, threads=1)["stack"]
    runs, problems = [], []
    attempted = failed = 0
    started = time.perf_counter()
    round_index = 0
    size = 2 if trace else 1  # runs per seed
    while round_index == 0 or time.perf_counter() - started < seconds:
        for s in references or [master_seed(seed, round_index)]:
            attempted += size
            try:
                done = run_seed(workload, s, tracer, references.get(s))
            except Exception as exc:  # a run that raises fails its checks
                traceback.print_exc(file=sys.stderr)
                failed += size
                problems.append(f"seed {s}: run raised {exc!r}")
                done = []
            for r in done:
                if r["problems"]:
                    failed += 1
                    problems += [f"seed {s}: {p}" for p in r["problems"]]
            runs += [r for r in done if not r["problems"]]
        round_index += 1

    metrics = (layer_metrics(workload, runs, tracer) if trace
               else end_to_end_metrics(runs))
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "metrics": metrics}


def end_to_end_metrics(runs: list[dict]) -> dict:
    if not runs:
        return {}
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "run_s": [statistics.median(r["run_s"] for r in runs), "s"],
        "evals_per_s": [statistics.median(r["evals"] / r["run_s"]
                                          for r in runs), "1/s"],
        "evals_to_target": [statistics.median(r["to_target"] for r in runs),
                            "count"],
        "peak_rss_mb": [peak_kb / 1024.0, "MB"],
    }


def layer_metrics(workload: str, runs: list[dict], tracer) -> dict:
    """Per-layer figures: stage records, spans and microbenchmarks.

    Stage figures come from the untraced runs' stage records; span figures
    from the traced runs, averaged per run.
    """
    import micro

    plain = [r for r in runs if not r.get("traced")]
    traced = [r for r in runs if r.get("traced")]
    if not plain or not traced:
        return {}
    m = {}
    for name in STAGE_NAMES:
        rows = [(e, s) for r in plain for st, e, s in r["stages"]
                if st == name]
        evals = sum(e for e, _ in rows)
        secs = sum(s for _, s in rows)
        m[f"stages.{name}.s"] = [secs / len(plain), "s"]
        m[f"stages.{name}.evals"] = [evals / len(plain), "count"]
        m[f"stages.{name}.us_per_eval"] = [1e6 * secs / max(evals, 1), "us"]

    n = len(traced)
    spans = tracer.summary()
    empty = {"calls": 0.0, "s": 0.0, "self_s": 0.0, "a": 0.0, "b": 0.0}

    def span(name):
        return spans.get(name, empty)

    def calls_and_s(name):
        m[f"{name}.calls"] = [span(name)["calls"] / n, "count"]
        m[f"{name}.s"] = [span(name)["s"] / n, "s"]

    d = span("stages.direction_is_new")
    calls_and_s("stages.direction_is_new")
    m["stages.direction_is_new.accepted"] = [d["a"] / max(d["calls"], 1),
                                             "fraction"]
    calls_and_s("stages.recombine")

    lm = span("linmin.minimize_on_line")
    m["linmin.minimize_on_line.calls"] = [lm["calls"] / n, "count"]
    m["linmin.minimize_on_line.evals"] = [lm["a"] / n, "count"]
    m["linmin.minimize_on_line.self_s"] = [lm["self_s"] / n, "s"]
    m["linmin.minimize_on_line.truncated"] = [lm["b"] / n, "count"]

    ti = span("swarm.try_insert")
    calls_and_s("swarm.try_insert")
    m["swarm.try_insert.useful"] = [ti["a"] / max(ti["calls"], 1), "fraction"]
    m["swarm.merge_stacks.s"] = [span("swarm.merge_stacks")["s"] / n, "s"]
    m["swarm.stack_score.s"] = [span("swarm.stack_score")["s"] / n, "s"]

    traced_s = sum(r["run_s"] for r in traced)
    calls_and_s("objective.evaluate")
    m["objective.evaluate.share"] = [span("objective.evaluate")["s"] / traced_s,
                                     "fraction"]
    for name in ("domain.denormalize", "domain.line_domain",
                 "domain.random_unit_direction", "domain.point_on_line",
                 "rng.bounded_exponential", "rng.truncated_gamma",
                 "distributions.sample_notch_twin_peaks",
                 "distributions.sample_fat_tail3", "scheduler.run_trial"):
        calls_and_s(name)
    m["rng.next_u32.calls"] = [tracer.u32_calls() / n, "count"]
    m["scheduler.trial_overlap"] = [
        span("scheduler.run_trial")["s"]
        / span("scheduler.run_temperature_step")["s"], "ratio"]

    for name in ("cli.write_stack_csv", "cli.write_diagnostics_jsonl",
                 "cli.export_projections"):
        m[f"{name}.s"] = [span(name)["s"] / n, "s"]
    # the library workloads write no files, so their cli figures read 0
    m["cli.output_bytes"] = [sum(r.get("output_bytes", 0) for r in traced) / n,
                             "B"]

    untraced_s = statistics.median(r["run_s"] for r in plain)
    m["trace.run_s_untraced"] = [untraced_s, "s"]
    m["trace.run_s_traced"] = [statistics.median(r["run_s"] for r in traced),
                               "s"]
    m["trace.overhead"] = [m["trace.run_s_traced"][0] / untraced_s - 1.0,
                           "fraction"]

    for name, (value, unit) in micro.run().items():
        m[name] = [value, unit]
    tracer.dump(OUT / f"trace-{workload}.npz")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
