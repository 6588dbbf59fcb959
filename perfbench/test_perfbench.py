"""Fast tests of the benchmark's own checks.

    python3 -m pytest perfbench -q

Each checker must accept a real run's output and reject a corrupted copy of
it; the benchmark's formulas must agree with the program's objectives.
"""

import dataclasses
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from swarmstack import (RatedPoint, RunConfig, Stack, cli,  # noqa: E402
                        make_benchmark, run_optimization)

import checks  # noqa: E402

DIM = 2
CAPACITY = 120


@pytest.mark.parametrize("dim", [1, 2, 11])
def test_rastrigin_formula_matches_program(dim):
    handle = make_benchmark("rastrigin", dim, bounds_style="offset")
    lower, upper = checks.rastrigin_offset_bounds(dim)
    np.testing.assert_array_equal(handle.bounds.lower, lower)
    np.testing.assert_array_equal(handle.bounds.upper, upper)
    for p in np.random.default_rng(dim).random((50, dim)):
        assert checks._same(handle.evaluate(p),
                            checks.rastrigin(lower + p * (upper - lower)))
    optimum = lower + 0.37 * (upper - lower)
    assert checks.rastrigin(optimum) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("dim", [2, 3])
def test_twin_formula_matches_program(dim):
    handle = make_benchmark("twin_valleys", dim)
    for p in np.random.default_rng(dim).random((50, dim)):
        assert checks._same(handle.evaluate(p), checks.twin_valleys(p))
    for locus in checks.twin_loci(dim):
        assert checks.twin_valleys(locus) == 0.0


def test_evals_to_target_counts_through_first_stage_meeting_it():
    rows = [(100, 5.0), (200, 0.6), (300, 0.4), (400, 0.1)]
    assert checks.evals_to_target(rows, 0.5) == 600
    assert checks.evals_to_target(rows, 0.01) == 1000


@pytest.fixture(scope="module")
def library_output():
    handle = make_benchmark("rastrigin", DIM, bounds_style="offset")
    config = RunConfig(dim=DIM, bounds=handle.bounds, trials_per_temperature=2,
                       evals_per_trial=1000, stack_capacity=CAPACITY,
                       master_seed=3)
    stack, diag = run_optimization(config, handle)
    return stack, diag


def _check(stack, records, evaluations):
    return checks.check_library_run(stack, records, evaluations, DIM,
                                    CAPACITY, 0.0)


def _restacked(entries):
    stack = Stack(CAPACITY, DIM * checks.R_EQ_BASE)
    stack.entries = list(entries)
    return stack


def test_library_check_accepts_real_run(library_output):
    stack, diag = library_output
    assert _check(stack, diag.records, diag.total_evaluations) == []


def test_library_check_rejects_wrong_value(library_output):
    stack, diag = library_output
    best = stack.entries[0]
    bad = [RatedPoint(best.position, best.value - 1e-3, best.eval_index)]
    problems = _check(_restacked(bad + stack.entries[1:]), diag.records,
                      diag.total_evaluations)
    assert any("Rastrigin at the best point" in p for p in problems)


def test_library_check_rejects_unsorted_stack(library_output):
    stack, diag = library_output
    e = stack.entries
    problems = _check(_restacked([e[0], e[2], e[1]] + e[3:]), diag.records,
                      diag.total_evaluations)
    assert "stack values are not sorted ascending" in problems


def test_library_check_rejects_entries_closer_than_radius(library_output):
    stack, diag = library_output
    e = stack.entries
    twin = RatedPoint(e[1].position + 0.001, e[1].value, e[1].eval_index)
    problems = _check(_restacked([e[0], e[1], twin] + e[2:]), diag.records,
                      diag.total_evaluations)
    assert any("under the radius" in p for p in problems)


def test_library_check_rejects_overfull_stack(library_output):
    stack, diag = library_output
    problems = checks.check_library_run(stack, diag.records,
                                        diag.total_evaluations, DIM,
                                        len(stack.entries) - 1, 0.0)
    assert any("capacity" in p for p in problems)


def test_library_check_rejects_evaluation_total_mismatch(library_output):
    stack, diag = library_output
    problems = _check(stack, diag.records, diag.total_evaluations + 1)
    assert any("stage records sum" in p for p in problems)


def test_library_check_rejects_rising_best(library_output):
    stack, diag = library_output
    records = list(diag.records)
    records[1] = dataclasses.replace(records[1],
                                     best_value=records[0].best_value + 1.0)
    assert any("rises within trial" in p
               for p in _check(stack, records, diag.total_evaluations))
    records = list(diag.records)
    first_cold = next(i for i, r in enumerate(records)
                      if r.temperature != records[0].temperature)
    records[first_cold] = dataclasses.replace(records[first_cold],
                                              best_value=1e9)
    assert any("starts worse" in p
               for p in _check(stack, records, diag.total_evaluations))


def test_same_stack_check(library_output):
    stack, _ = library_output
    assert checks.check_same_stack(stack, stack) == []
    e = stack.entries
    moved = RatedPoint(e[-1].position + 1e-12, e[-1].value, e[-1].eval_index)
    assert checks.check_same_stack(_restacked(e[:-1] + [moved]), stack)
    assert checks.check_same_stack(_restacked(e[:-1]), stack)


@pytest.fixture
def cli_output(tmp_path):
    printed = io.StringIO()
    with redirect_stdout(printed):
        code = cli.main(["--function", "twin_valleys", "--dim", "2",
                         "--trials", "1", "--evals_per_trial", "1000",
                         "--seed", "5", "--emit_projections", "true",
                         "--projection_planes", "0-1",
                         "--out_dir", str(tmp_path)])
    assert code == 0
    return tmp_path, printed.getvalue()


def _check_cli(out_dir, stdout):
    return checks.check_cli_run(out_dir, stdout, CAPACITY, 0.0)


def _edit_lines(path, edit):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")


def test_cli_check_accepts_real_run(cli_output):
    assert _check_cli(*cli_output) == []


def test_cli_check_rejects_wrong_value(cli_output):
    out_dir, stdout = cli_output

    def edit(lines):
        cells = lines[2].split(",")
        cells[1] = repr(float(cells[1]) + 1e-3)
        return lines[:2] + [",".join(cells)] + lines[3:]

    _edit_lines(out_dir / "stack.csv", edit)
    assert any("twin-valley formula" in p for p in _check_cli(out_dir, stdout))


def test_cli_check_rejects_missing_valley(cli_output):
    out_dir, stdout = cli_output
    _, locus_b = checks.twin_loci(DIM)

    def edit(lines):
        keep = [lines[0]]
        for line in lines[1:]:
            x = np.array([float(v) for v in line.split(",")[2:4]])
            if np.abs(x - locus_b).sum() > 0.3:
                keep.append(line)
        return keep

    _edit_lines(out_dir / "stack.csv", edit)
    assert "no stack entry within D1 0.05 of locus b" in _check_cli(out_dir,
                                                                    stdout)


def test_cli_check_rejects_unsorted_stack(cli_output):
    out_dir, stdout = cli_output
    # the best row moves to the end; the two loci both read 0, so a swap of
    # the first two rows could leave the values sorted
    _edit_lines(out_dir / "stack.csv",
                lambda lines: [lines[0]] + lines[2:] + [lines[1]])
    assert "stack values are not sorted ascending" in _check_cli(out_dir,
                                                                 stdout)


def test_cli_check_rejects_wrong_projection_value(cli_output):
    out_dir, stdout = cli_output

    def edit(lines):
        cells = lines[-1].split("\t")
        cells[2] = repr(float(cells[2]) + 0.5)
        return lines[:-1] + ["\t".join(cells)]

    _edit_lines(out_dir / "projections" / "e0-e1.tsv", edit)
    assert any("e0-e1.tsv" in p for p in _check_cli(out_dir, stdout))


def test_cli_check_rejects_evaluation_total_mismatch(cli_output):
    out_dir, stdout = cli_output

    def edit(lines):
        row = json.loads(lines[0])
        row["evals"] += 1
        return [json.dumps(row)] + lines[1:]

    _edit_lines(out_dir / "diagnostics.jsonl", edit)
    assert any("printed total" in p for p in _check_cli(out_dir, stdout))


def test_run_that_raises_is_a_failed_check(monkeypatch):
    import workload

    def crash(*args, **kwargs):
        raise RuntimeError("swarmstack exited with 1")

    monkeypatch.setattr(workload, "run_seed", crash)
    result = workload.measure("twin2-cli", 7, 0.0, trace=False)
    assert result["attempted"] == result["failed"] == 1
    assert result["problems"] == [
        "seed 7000: run raised RuntimeError('swarmstack exited with 1')"]
    assert result["metrics"] == {}
