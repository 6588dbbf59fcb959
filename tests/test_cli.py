import json
import math

import numpy as np
import pytest

from swarmstack import cli
from swarmstack.stages import AlgorithmOptions
from swarmstack.swarm import RatedPoint

README_KEYS = {
    "dim", "bounds", "function", "bounds_style", "external_cmd", "timeout",
    "temperatures", "trials", "evals_per_trial", "stack_capacity", "seed",
    "tol", "threads", "out_dir", "emit_projections",
    "projection_planes", "linmin_on_improvement", "mutation_prob",
    "notch_exponent", "fatTail3.c1", "fatTail3.c2", "fatTail3.c3",
    "fatTail3.k1", "fatTail3.k2", "fatTail3.s_divisor", "r_eq.base",
    "r_eq.slope", "recombine.ratio_high_t", "recombine.ratio_low_t"}


class TestParseConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        f = tmp_path / "empty.cfg"
        f.write_text("# just a comment\n\n")
        c = cli.parse_config(str(f))
        assert c.temperatures == (1.0, 0.75, 0.5, 0.25, 0.0)
        assert c.trials == 10
        assert c.evals_per_trial == 10_000
        assert c.stack_capacity == 120
        assert c.options.linmin_tol == 1e-4

    def test_values_and_overrides(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("dim = 3\nseed = 42\nfunction = rastrigin\n"
                     "temperatures = 1, 0.5, 0\nbounds = -1:1, 0:2, 3:9\n")
        c = cli.parse_config(str(f), {"seed": "99", "trials": "4"})
        assert c.dim == 3
        assert c.seed == 99  # flag beats file
        assert c.trials == 4
        assert c.temperatures == (1.0, 0.5, 0.0)
        assert c.bounds == [(-1.0, 1.0), (0.0, 2.0), (3.0, 9.0)]

    def test_unknown_key_named_with_line(self, tmp_path):
        f = tmp_path / "bad.cfg"
        f.write_text("dim = 2\nfoo = 1\n")
        with pytest.raises(ValueError, match=r"bad.cfg:2.*'foo'"):
            cli.parse_config(str(f))

    def test_type_error_named_with_line(self, tmp_path):
        f = tmp_path / "bad.cfg"
        f.write_text("evals_per_trial = soon\n")
        with pytest.raises(ValueError, match=r"bad.cfg:1.*evals_per_trial"):
            cli.parse_config(str(f))

    def test_workers_is_not_a_key(self, tmp_path, capsys):
        # `threads` sizes the trial pool, external objectives included
        with pytest.raises(ValueError, match="unknown key 'workers'"):
            cli.parse_config(None, {"workers": "2"})
        f = tmp_path / "run.cfg"
        f.write_text("workers = 2\n")
        assert cli.main(["--config", str(f)]) == 2
        assert "unknown key 'workers'" in capsys.readouterr().err

    def test_missing_file(self):
        with pytest.raises(ValueError, match="not found"):
            cli.parse_config("/nonexistent/path.cfg")

    def test_dotted_keys(self, tmp_path):
        f = tmp_path / "k.cfg"
        f.write_text("fatTail3.c1 = 12\nr_eq.slope = 0.08\n"
                     "recombine.ratio_low_t = 4\n")
        c = cli.parse_config(str(f))
        assert c.options.fat_tail3_c1 == 12.0
        assert c.options.r_eq_slope == 0.08
        assert c.options.recombine_ratio_low_t == 4.0

    def test_recognized_keys_match_readme(self):
        assert len(cli.CONFIG_KEYS) == 29
        assert set(cli.CONFIG_KEYS) == README_KEYS

    def test_every_option_is_a_key(self):
        import dataclasses
        fields = {cli.config_key(f.name)
                  for f in dataclasses.fields(AlgorithmOptions)}
        assert fields <= set(cli.CONFIG_KEYS)
        assert cli.config_key("linmin_tol") == "tol"
        assert cli.config_key("fat_tail3_s_divisor") == "fatTail3.s_divisor"

    def test_flags_convert_by_field_type(self):
        c = cli.parse_config(None, {
            "linmin_on_improvement": "off", "tol": "1e-6", "dim": "3",
            "fatTail3.k2": "40", "temperatures": "1 0.5 0",
            "bounds": "0:1, 2:3", "external_cmd": "cat"})
        assert c.options.linmin_on_improvement is False
        assert c.options.linmin_tol == 1e-6
        assert c.options.fat_tail3_k2 == 40.0
        assert c.dim == 3
        assert c.temperatures == (1.0, 0.5, 0.0)
        assert c.bounds == [(0.0, 1.0), (2.0, 3.0)]
        assert c.external_cmd == "cat"
        assert c.options.notch_exponent == AlgorithmOptions().notch_exponent


class TestBuildRun:
    def test_defaults_reach_run_config(self):
        run_config, handle = cli.build_run(cli.parse_config(None, {}))
        assert run_config.options == AlgorithmOptions()
        assert run_config.temperatures == (1.0, 0.75, 0.5, 0.25, 0.0)
        assert run_config.trials_per_temperature == 10
        assert run_config.evals_per_trial == 10_000
        assert run_config.stack_capacity == 120
        assert run_config.threads == 1
        assert run_config.dim == handle.dim == 2

    def test_options_pass_through(self):
        run_config, _ = cli.build_run(cli.parse_config(
            None, {"fatTail3.c1": "12", "tol": "1e-5"}))
        assert run_config.options == AlgorithmOptions(fat_tail3_c1=12.0,
                                                      linmin_tol=1e-5)

    def test_one_bounds_pair_broadcasts(self):
        run_config, handle = cli.build_run(cli.parse_config(
            None, {"dim": "3", "bounds": "-2:5"}))
        assert run_config.dim == handle.dim == 3
        assert np.array_equal(handle.bounds.lower, [-2.0] * 3)
        assert np.array_equal(handle.bounds.upper, [5.0] * 3)

    @pytest.mark.parametrize("extra", [{}, {"external_cmd": "cat"}])
    def test_bounds_count_must_be_one_or_dim(self, extra):
        cfg = cli.parse_config(None, dict(extra, dim="2",
                                          bounds="0:1, 0:1, 0:1"))
        with pytest.raises(ValueError, match="bounds"):
            cli.build_run(cfg)


TINY = {"dim": "2", "function": "sphere", "bounds_style": "offset",
        "trials": "2", "evals_per_trial": "150", "stack_capacity": "10",
        "seed": "5"}


class TestRunCommand:
    def test_sphere_tiny_budget_writes_outputs(self, tmp_path, capsys):
        cfg = cli.parse_config(None, dict(TINY, out_dir=str(tmp_path / "o")))
        assert cli.run_command(cfg) == 0
        stack_file = tmp_path / "o" / "stack.csv"
        assert stack_file.is_file()
        assert len(stack_file.read_text().splitlines()) >= 2
        diag_file = tmp_path / "o" / "diagnostics.jsonl"
        records = [json.loads(line)
                   for line in diag_file.read_text().splitlines()]
        # one record per stage per trial per temperature
        assert len(records) == 5 * 2 * 4
        assert sum(r["evals"] for r in records) >= 5 * 2 * 150
        # diagnostics reconcile with the printed summary total
        out = capsys.readouterr().out
        summary_total = int(out.split("total evaluations:")[1].split()[0])
        assert sum(r["evals"] for r in records) == summary_total

    def test_same_seed_byte_identical_outputs(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg_a = cli.parse_config(None, dict(TINY, out_dir=str(out_a)))
        cfg_b = cli.parse_config(None, dict(TINY, out_dir=str(out_b)))
        assert cli.run_command(cfg_a) == 0
        assert cli.run_command(cfg_b) == 0
        assert (out_a / "stack.csv").read_bytes() == \
               (out_b / "stack.csv").read_bytes()

    def test_invalid_function_nonzero_exit(self, tmp_path, capsys):
        cfg = cli.parse_config(None, dict(TINY, function="not_a_function",
                                          out_dir=str(tmp_path)))
        assert cli.run_command(cfg) != 0
        assert "not_a_function" in capsys.readouterr().err

    def test_stack_csv_round_trip(self, tmp_path):
        out = tmp_path / "o"
        cfg = cli.parse_config(None, dict(TINY, out_dir=str(out)))
        run_config, handle = cli.build_run(cfg)
        from swarmstack.scheduler import run_optimization
        stack, diag = run_optimization(run_config, handle)
        cli.write_stack_csv(stack, handle.bounds, out.mkdir(parents=True)
                            or out / "stack.csv")
        lines = (out / "stack.csv").read_text().splitlines()
        dim = run_config.dim
        assert lines[0].split(",") == (["rank", "value"]
                                       + [f"x{i}" for i in range(dim)]
                                       + [f"u{i}" for i in range(dim)])
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == list(range(len(stack.entries)))
        assert [float(r[1]) for r in rows] == \
               [e.value for e in stack.entries]
        for r, e in zip(rows, stack.entries):
            assert np.array_equal([float(v) for v in r[2:2 + dim]],
                                  e.position)

    def test_twin_valleys_honours_custom_bounds(self, tmp_path):
        out = tmp_path / "o"
        cfg = cli.parse_config(None, dict(
            TINY, function="twin_valleys", bounds="0:10", out_dir=str(out)))
        assert cli.run_command(cfg) == 0
        lines = (out / "stack.csv").read_text().splitlines()
        for line in lines[1:]:
            cells = [float(v) for v in line.split(",")]
            x, u = cells[2:4], cells[4:6]
            assert all(0.0 <= v <= 10.0 for v in u)
            assert u == pytest.approx([10.0 * v for v in x])

    def test_main_with_config_file_and_flags(self, tmp_path, capsys):
        f = tmp_path / "run.cfg"
        f.write_text("dim = 2\nfunction = sphere\ntrials = 2\n"
                     "evals_per_trial = 150\nstack_capacity = 8\n")
        rc = cli.main(["--config", str(f), "--seed", "3",
                       "--out_dir", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "best value" in out
        assert (tmp_path / "out" / "stack.csv").is_file()

    def test_rosenbrock_dim_1_with_bounds_fails(self, tmp_path, capsys):
        # its sum over coordinate pairs is empty at dim 1: a flat zero
        rc = cli.main(["--function", "rosenbrock", "--dim", "1",
                       "--bounds=-2:2", "--trials", "1",
                       "--evals_per_trial", "150",
                       "--out_dir", str(tmp_path / "out")])
        assert rc != 0
        err = capsys.readouterr().err
        assert "too small for benchmark 'rosenbrock'" in err
        assert not (tmp_path / "out").exists()

    def test_schwefel_offset_bounds_fail(self, tmp_path, capsys):
        rc = cli.main(["--function", "schwefel", "--bounds_style", "offset",
                       "--trials", "1", "--evals_per_trial", "150",
                       "--out_dir", str(tmp_path / "out")])
        assert rc == 2
        assert "schwefel" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("fatTail3.k1", "0.5"), ("notch_exponent", "-1"),
        ("fatTail3.s_divisor", "-2"), ("recombine.ratio_low_t", "0.5"),
        ("recombine.ratio_high_t", "1"), ("r_eq.base", "-5"),
        ("r_eq.slope", "-0.5"), ("tol", "0"), ("fatTail3.c1", "-1"),
        ("mutation_prob", "3"), ("mutation_prob", "-0.1")])
    def test_bad_option_fails_before_the_run(self, key, value, tmp_path,
                                             capsys):
        out = tmp_path / "out"
        rc = cli.main(["--trials", "1", "--evals_per_trial", "150",
                       f"--{key}", value, "--out_dir", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("lines", [
        # k1 = 60 > k2 = 50 holds only until the next line
        "fatTail3.k1 = 60\nfatTail3.k2 = 100\n",
        "mutation_prob = 0\n", "mutation_prob = 1\n",
        "r_eq.base = 0\nr_eq.slope = 0\n"])
    def test_boundary_options_run(self, lines, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text(lines)
        out = tmp_path / "out"
        rc = cli.main(["--config", str(f), "--trials", "1",
                       "--evals_per_trial", "150", "--out_dir", str(out)])
        assert rc == 0
        assert (out / "stack.csv").is_file()

    def test_main_unknown_key_fails(self, tmp_path, capsys):
        f = tmp_path / "run.cfg"
        f.write_text("nonsense = 4\n")
        assert cli.main(["--config", str(f)]) == 2
        assert "nonsense" in capsys.readouterr().err


def rated(coords, value, idx=0):
    return RatedPoint(np.asarray(coords, dtype=float), value, idx)


class TestProjections:
    def test_coordinate_plane_identity(self, tmp_path):
        history = [rated([0.1, 0.2, 0.9], 1.0, 3),
                   rated([0.5, 0.6, 0.0], 2.0, 7)]
        planes = cli.parse_planes("0-1", 3)
        (path,) = cli.export_projections(history, planes, tmp_path)
        rows = path.read_text().splitlines()[1:]
        assert len(rows) == 2
        u0, v0, val0, idx0 = rows[0].split("\t")
        assert float(u0) == 0.1 and float(v0) == 0.2
        assert float(val0) == 1.0 and int(idx0) == 3

    def test_center_projects_to_plane_center(self, tmp_path):
        dim = 5
        center = rated([0.5] * dim, 0.0)
        u = np.zeros(dim)
        u[0] = 1.0
        v = np.full(dim, 0.0)
        v[1:3] = 1.0 / math.sqrt(2)
        planes = [("oblique", u, v)]
        (path,) = cli.export_projections([center], planes, tmp_path)
        _, row = path.read_text().splitlines()
        pu, pv, _, _ = row.split("\t")
        assert float(pu) == pytest.approx(0.5)
        assert float(pv) == pytest.approx(0.5)

    def test_oblique_rescaled_into_unit_square(self, tmp_path):
        dim = 2
        r = 1.0 / math.sqrt(2)
        planes = [("diag", np.array([r, r]), np.array([r, -r]))]
        history = [rated([0.0, 0.0], 0.0), rated([1.0, 1.0], 1.0),
                   rated([1.0, 0.0], 2.0), rated([0.3, 0.8], 3.0)]
        (path,) = cli.export_projections(history, planes, tmp_path)
        for row in path.read_text().splitlines()[1:]:
            pu, pv = (float(x) for x in row.split("\t")[:2])
            assert -1e-12 <= pu <= 1 + 1e-12
            assert -1e-12 <= pv <= 1 + 1e-12

    def test_non_orthonormal_plane_rejected(self, tmp_path):
        history = [rated([0.5, 0.5], 0.0)]
        bad = [("bad", np.array([1.0, 0.0]), np.array([0.7, 0.7]))]
        with pytest.raises(ValueError, match="unit length"):
            cli.export_projections(history, bad, tmp_path)
        bad2 = [("bad2", np.array([1.0, 0.0]),
                 np.array([math.sqrt(0.5), math.sqrt(0.5)]))]
        with pytest.raises(ValueError, match="orthogonal"):
            cli.export_projections(history, bad2, tmp_path)

    def test_empty_history_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            cli.export_projections([], cli.parse_planes("0-1", 2), tmp_path)

    def test_emit_projections_through_run(self, tmp_path):
        cfg = cli.parse_config(None, dict(
            TINY, out_dir=str(tmp_path / "o"), emit_projections="true",
            projection_planes="0-1"))
        assert cli.run_command(cfg) == 0
        proj = tmp_path / "o" / "projections" / "e0-e1.tsv"
        assert proj.is_file()
        assert len(proj.read_text().splitlines()) > 1

    def test_bad_plane_specs(self):
        with pytest.raises(ValueError):
            cli.parse_planes("0-0", 3)
        with pytest.raises(ValueError):
            cli.parse_planes("0-9", 3)
        with pytest.raises(ValueError):
            cli.parse_planes("1 0/0 1", 3)  # wrong dimension


class TestExternalThroughCli:
    def test_external_worker_run(self, tmp_path):
        import sys as _sys
        worker = tmp_path / "w.py"
        worker.write_text(
            "import sys\n"
            "for line in sys.stdin:\n"
            "    xs = [float(v) for v in line.split()]\n"
            "    print(sum((x - 0.2) ** 2 for x in xs), flush=True)\n")
        cfg = cli.parse_config(None, {
            "external_cmd": f"{_sys.executable} {worker}",
            "dim": "2", "bounds": "-1:1", "trials": "2",
            "evals_per_trial": "120", "stack_capacity": "8",
            "seed": "1", "out_dir": str(tmp_path / "o")})
        assert cli.run_command(cfg) == 0
        lines = (tmp_path / "o" / "stack.csv").read_text().splitlines()
        best = lines[1].split(",")
        # optimum at user (0.2, 0.2)
        assert float(best[1]) < 1e-4
        assert abs(float(best[4]) - 0.2) < 0.05

    @pytest.mark.parametrize("threads", [1, 2])
    def test_flagged_total_printed(self, tmp_path, capsys, threads):
        import sys as _sys
        log = tmp_path / "replies.log"
        worker = tmp_path / "w.py"
        worker.write_text(
            "import sys\n"
            f"log = open({str(log)!r}, 'a', buffering=1)\n"
            "for line in sys.stdin:\n"
            "    xs = [float(v) for v in line.split()]\n"
            "    reply = 'nan' if xs[0] < -1 else repr(sum(x * x for x in xs))\n"
            "    log.write(reply + '\\n')\n"
            "    print(reply, flush=True)\n")
        cfg = cli.parse_config(None, {
            "external_cmd": f"{_sys.executable} {worker}",
            "dim": "2", "bounds": "-2:3", "trials": "2",
            "threads": str(threads), "temperatures": "1, 0",
            "evals_per_trial": "200", "stack_capacity": "8",
            "seed": "3", "out_dir": str(tmp_path / "o")})
        assert cli.run_command(cfg) == 0
        replies = log.read_text().splitlines()
        flagged = replies.count("nan")
        assert flagged > 0
        out = capsys.readouterr().out
        assert (f"total evaluations: {len(replies)} ({flagged} flagged)\n"
                in out)
        diagnostics = tmp_path / "o" / "diagnostics.jsonl"
        records = [json.loads(line)
                   for line in diagnostics.read_text().splitlines()]
        assert sum(r["flagged_evals"] for r in records) == flagged

    def test_external_requires_bounds(self):
        cfg = cli.parse_config(None, {"external_cmd": "cat", "dim": "2"})
        with pytest.raises(ValueError, match="bounds"):
            cli.build_run(cfg)
