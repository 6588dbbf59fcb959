"""The command-line scripts under scripts/ run end to end on tiny inputs."""

import csv
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy
import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd, env=None):
    env = dict(os.environ, **(env or {}))
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
    "879f50a76f04e7c22cdc3704781a5b916aa853f00a31a33128dc9f276a579e24",
    "twin_valleys-2-seed7 "
    "4fcf44277be034f815ca8c396fea5274e71d7b6d37209e37fdd32000ba3b8fa7",
    "rastrigin-11-offset "
    "ae6345e8c4382bb37b7880af6b1f9813e960687c7e82736faa353136ed3accaf",
    "ackley-3-threads2 "
    "1613f1ea0d1542e151ab1046555fed6649d13d61da6d913f9289dbc6d8ec9785",
    "noisy_rastrigin-4 "
    "cf2d64a10af99f8a357f26134539050255695f03478a945d5d91a26fe79dede9",
    "twin_valleys-2-linmin-off "
    "5feeb606264939c1da31c9f71aa343988d5db2d9210d796ab45f81661ecbd2cc",
    "sphere-3-external "
    "1cd86b5591cbe01ff0ef6d77b50cd538ff5825f825a49a755e425cbe41e27073",
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


# numpy's dispatched SIMD levels that this host has; disabling them all
# leaves numpy on its baseline
_SIMD = numpy._core._multiarray_umath
SIMD_LEVELS = " ".join(f for f in _SIMD.__cpu_dispatch__
                       if _SIMD.__cpu_features__.get(f))


@pytest.mark.parametrize("setting", [
    ("OPENBLAS_CORETYPE", "Haswell"),
    ("OPENBLAS_CORETYPE", "Nehalem"),
    ("NPY_DISABLE_CPU_FEATURES", SIMD_LEVELS),
], ids=["blas-haswell", "blas-nehalem", "numpy-baseline-simd"])
def test_stack_digest_does_not_depend_on_the_cpu_kernels(setting, tmp_path):
    # on a host where a setting changes nothing, this proves less
    name, value = setting
    out = run_script("stack_digest.py", "--evals_per_trial", "300",
                     cwd=tmp_path, env={name: value}).stdout
    assert out.splitlines() == DIGESTS_300
