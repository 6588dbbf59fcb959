"""The command-line scripts under scripts/ run end to end on tiny inputs."""

import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=300, check=True)


def test_run_benchmark_writes_summary(tmp_path):
    # schwefel has no offset box, so it runs on its conventional one
    out = tmp_path / "results.csv"
    run_script("run_benchmark.py", "--functions", "sphere", "schwefel",
               "--dim", "2", "--seeds", "0", "--trials", "1",
               "--evals-per-trial", "100", "--out", str(out), cwd=tmp_path)
    with out.open() as fh:
        sphere, schwefel = list(csv.DictReader(fh))
    assert sphere["function"] == "sphere" and sphere["dim"] == "2"
    assert sphere["bounds_style"] == "offset"
    assert schwefel["function"] == "schwefel"
    assert schwefel["bounds_style"] == "conventional"
    for row in (sphere, schwefel):
        assert int(row["evaluations"]) >= 5 * 100
        assert float(row["best_value"]) >= 0.0


def test_export_distribution_tables_writes_tsvs(tmp_path):
    out = tmp_path / "tables"
    run_script("export_distribution_tables.py", "--out-dir", str(out),
               "--n", "2000", cwd=tmp_path)
    names = {"twin_peaks.tsv", "notch_twin_peaks.tsv", "fat_tail3.tsv",
             "bounded_exponential.tsv"}
    assert {p.name for p in out.iterdir()} == names
    for name in names:
        lines = (out / name).read_text().splitlines()
        assert lines[0] == "x\tpdf\thist_density"
        assert len(lines) == 121
        assert all(len(line.split("\t")) == 3 for line in lines[1:])


def test_stack_digest_is_repeatable_and_thread_independent(tmp_path):
    # the cases run two trials, so --threads 2 runs them in a process pool
    args = ("--evals_per_trial", "300")
    first = run_script("stack_digest.py", *args, cwd=tmp_path).stdout
    again = run_script("stack_digest.py", *args, cwd=tmp_path).stdout
    threads1 = run_script("stack_digest.py", *args, "--threads", "1",
                          cwd=tmp_path).stdout
    threads2 = run_script("stack_digest.py", *args, "--threads", "2",
                          cwd=tmp_path).stdout
    lines = first.splitlines()
    assert len(lines) == 7
    assert all(len(line.split()[1]) == 64 for line in lines)
    assert first == again == threads1 == threads2
