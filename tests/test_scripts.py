"""The command-line scripts under scripts/ run end to end on tiny inputs."""

import csv
import hashlib
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


# SHA-256 of the x and hist_density columns that
# `export_distribution_tables.py --n 2000` writes, with the numpy build these
# were recorded on.  Those columns depend only on the sampler draws and on
# numpy's histogram; the pdf column comes from scipy's quad and is not pinned.
TABLE_DRAWS_SHA256 = {
    "twin_peaks.tsv":
    "c493b746ffae4935c8fe50666ce160a69ea6e48973e341699e62dc7d05dd64a4",
    "notch_twin_peaks.tsv":
    "2c43a2dfca8b1e58553a6359adb034a05cdef25b93328091ff47b8ab2ada2ed1",
    "fat_tail3.tsv":
    "e30f5ff80a6fb4afbabc00ea37f9420e2536b449b1dd466bc5d9b914b5037c1d",
    "bounded_exponential.tsv":
    "b94acc5b1b2bf27fe5fbd84f097b3aa4f9b3d4ec6cac56a7173700d97f248144",
}


def test_export_distribution_tables_writes_tsvs(tmp_path):
    out = tmp_path / "tables"
    run_script("export_distribution_tables.py", "--out-dir", str(out),
               "--n", "2000", cwd=tmp_path)
    assert {p.name for p in out.iterdir()} == set(TABLE_DRAWS_SHA256)
    for name, digest in TABLE_DRAWS_SHA256.items():
        rows = [line.split("\t")
                for line in (out / name).read_text().splitlines()]
        assert rows[0] == ["x", "pdf", "hist_density"]
        assert len(rows) == 121
        assert all(len(row) == 3 for row in rows)
        draws = "\n".join(f"{row[0]}\t{row[2]}" for row in rows)
        assert hashlib.sha256(draws.encode()).hexdigest() == digest, name


# what `stack_digest.py --evals_per_trial 300` prints with the numpy build
# these were recorded on; a change that alters the output on purpose
# (ROADMAP items 4 and 7) updates them here
DIGESTS_300 = [
    "twin_valleys-2-seed1 "
    "49fa0e19acb193369d4f3df55f2467ea93f911d800a40d2e223521efdd71e337",
    "twin_valleys-2-seed7 "
    "b65cedff0da4a1f6f8fc61c361058055e004ecb9579589cb30346024a2afc80d",
    "rastrigin-11-offset "
    "98438e2d9a1d6addbb9756e60adc9cf33f5052017537c9c0c921ea0059227db1",
    "ackley-3-threads2 "
    "b879b9b75179ddf9d04adbdc40e93c291081a9bdc15ebd590c16cfa43a69ea60",
    "noisy_rastrigin-4 "
    "de9c35f4688e920302384ab40e4e0030b568b77b66406bbbfa4ddc6b1dde2bb1",
    "twin_valleys-2-linmin-off "
    "8c06316c5200a22b2ace62186ed8f566187356f665bd4899c59bc168af7808ec",
    "sphere-3-external "
    "bc979bd0e9f95bc19531e6eff70da6b7af1361cba210631a241f7e621e8b4b23",
]


def test_stack_digest_is_repeatable_and_thread_independent(tmp_path):
    # the cases run two trials, so --threads 2 runs them in a process pool
    args = ("--evals_per_trial", "300")
    first = run_script("stack_digest.py", *args, cwd=tmp_path).stdout
    again = run_script("stack_digest.py", *args, cwd=tmp_path).stdout
    threads1 = run_script("stack_digest.py", *args, "--threads", "1",
                          cwd=tmp_path).stdout
    threads2 = run_script("stack_digest.py", *args, "--threads", "2",
                          cwd=tmp_path).stdout
    assert first.splitlines() == DIGESTS_300
    assert first == again == threads1 == threads2
