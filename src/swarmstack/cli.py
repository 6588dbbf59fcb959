"""Command-line front end: config parsing, run execution, result export.

Configuration is a flat key-value text file (``key = value`` per line, ``#``
comments) whose keys are mirrored one-to-one by command-line flags; flags win
over the file.  A run writes the final stack as CSV, per-stage diagnostics as
JSON lines and, optionally, plane projections of every point that ever
entered a swarm (data tables for external plotting, not images).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from types import UnionType
from typing import get_args, get_type_hints

import numpy as np

from .domain import BoundsSpec, denormalize
from .objective import (BENCHMARK_NAMES, ObjectiveHandle, external_objective,
                        make_benchmark, make_benchmark_with_bounds)
from .scheduler import (DEFAULT_TEMPERATURES, RunConfig, RunDiagnostics,
                        run_optimization)
from .stages import AlgorithmOptions
from .swarm import RatedPoint, Stack


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.replace(",", " ").split())


def _parse_bounds(text: str) -> list[tuple[float, float]]:
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        lo, _, hi = chunk.partition(":")
        pairs.append((float(lo), float(hi)))
    if not pairs:
        raise ValueError("empty bounds list")
    return pairs


@dataclass
class CliConfig:
    """Everything the command layer needs to build and run one optimization.

    The search stages' knobs live in ``options``; each of its fields is a key
    too (see :func:`config_key`).
    """

    dim: int = 2
    bounds: list[tuple[float, float]] | None = None
    function: str = "sphere"
    bounds_style: str = "conventional"
    external_cmd: str | None = None
    timeout: float = 30.0
    temperatures: tuple[float, ...] = DEFAULT_TEMPERATURES
    trials: int = 10
    evals_per_trial: int = 10_000
    stack_capacity: int = 120
    seed: int = 0
    threads: int = 1
    out_dir: str = "swarmstack_out"
    emit_projections: bool = False
    projection_planes: str = "0-1"
    options: AlgorithmOptions = AlgorithmOptions()


_CONVERTERS = {int: int, float: float, str: str, bool: _parse_bool,
               tuple[float, ...]: _parse_floats,
               list[tuple[float, float]]: _parse_bounds}
_DOTTED_PREFIXES = {"fat_tail3_": "fatTail3.", "r_eq_": "r_eq.",
                    "recombine_": "recombine."}


def config_key(field_name: str) -> str:
    """Config-file key and flag name of a ``CliConfig`` or options field."""
    if field_name == "linmin_tol":
        return "tol"
    for prefix, dotted in _DOTTED_PREFIXES.items():
        if field_name.startswith(prefix):
            return dotted + field_name[len(prefix):]
    return field_name


def _key_table() -> dict:
    table = {}
    for cls, in_options in ((CliConfig, False), (AlgorithmOptions, True)):
        for name, hint in get_type_hints(cls).items():
            if name == "options":
                continue
            if isinstance(hint, UnionType):  # "X | None": convert to X
                hint, = (a for a in get_args(hint) if a is not type(None))
            table[config_key(name)] = (name, _CONVERTERS[hint], in_options)
    return table


# config-file / flag key -> (field, converter, whether the field is an option)
CONFIG_KEYS = _key_table()


def _with_value(config: CliConfig, key: str, value) -> CliConfig:
    attr, convert, in_options = CONFIG_KEYS[key]
    if isinstance(value, str):
        value = convert(value)
    if in_options:
        return replace(config,
                       options=replace(config.options, **{attr: value}))
    return replace(config, **{attr: value})


def parse_config(file_path: str | None,
                 flag_overrides: dict[str, str] | None = None) -> CliConfig:
    """Read the flat key-value file, then apply flag overrides on top."""
    config = CliConfig()
    if file_path is not None:
        path = Path(file_path)
        if not path.is_file():
            raise ValueError(f"config file not found: {file_path}")
        for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, value = line.partition("=")
            if not eq:
                raise ValueError(
                    f"{file_path}:{lineno}: expected 'key = value', got {raw!r}")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ValueError(f"{file_path}:{lineno}: unknown key {key!r}")
            try:
                config = _with_value(config, key, value.strip())
            except ValueError as exc:
                raise ValueError(f"{file_path}:{lineno}: bad value for "
                                 f"{key!r}: {exc}") from exc
    for key, value in (flag_overrides or {}).items():
        if key not in CONFIG_KEYS:
            raise ValueError(f"unknown key {key!r}")
        config = _with_value(config, key, value)
    return config


def build_run(config: CliConfig) -> tuple[RunConfig, ObjectiveHandle]:
    """Materialize the objective handle and the run configuration."""
    bounds = None
    if config.bounds is not None:
        pairs = config.bounds
        if len(pairs) == 1:
            pairs = pairs * config.dim
        if len(pairs) != config.dim:
            raise ValueError(f"bounds lists {len(config.bounds)} pairs; "
                             f"need 1 or dim = {config.dim}")
        bounds = BoundsSpec.from_pairs(pairs)
    if config.external_cmd:
        if bounds is None:
            raise ValueError("external_cmd requires explicit bounds")
        handle = external_objective(config.external_cmd, bounds,
                                    timeout=config.timeout)
    elif bounds is not None:
        handle = make_benchmark_with_bounds(config.function, bounds,
                                            noise_seed=config.seed)
    else:
        handle = make_benchmark(config.function, config.dim,
                                bounds_style=config.bounds_style,
                                noise_seed=config.seed)
    run_config = RunConfig(
        dim=handle.dim, bounds=handle.bounds,
        temperatures=config.temperatures,
        trials_per_temperature=config.trials,
        evals_per_trial=config.evals_per_trial,
        stack_capacity=config.stack_capacity,
        master_seed=config.seed, threads=config.threads,
        options=config.options, collect_history=config.emit_projections)
    return run_config, handle


def write_stack_csv(stack: Stack, bounds: BoundsSpec, path: Path) -> None:
    """CSV rows (rank, value, normalized coords, user coords), best first.

    Floats are written with repr so reading the table back reproduces the
    in-memory stack exactly.
    """
    dim = bounds.dim
    header = (["rank", "value"]
              + [f"x{i}" for i in range(dim)]
              + [f"u{i}" for i in range(dim)])
    lines = [",".join(header)]
    for rank, entry in enumerate(stack.entries):
        user = denormalize(entry.position, bounds)
        cells = ([str(rank), repr(float(entry.value))]
                 + [repr(float(v)) for v in entry.position]
                 + [repr(float(v)) for v in user])
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def write_diagnostics_jsonl(diag: RunDiagnostics, path: Path) -> None:
    with path.open("w") as fh:
        for r in diag.records:
            fh.write(json.dumps({
                "temperature": r.temperature,
                "trial": r.trial_index,
                "stage": r.stage,
                "evals": r.evals_used,
                "flagged_evals": r.flagged_evals,
                "best_value": r.best_value,
                "stat_dist": r.metrics.stat_dist,
                "stat_params": r.metrics.stat_params,
                "disp_score": r.metrics.disp_score,
                "fmt_score": r.metrics.fmt_score,
                "stack_score": r.metrics.stack_score,
                "elapsed_s": r.elapsed_s,
            }) + "\n")


def parse_planes(spec: str, dim: int) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """Parse plane specs: "0-1;2-3" axis pairs or "u.../v..." vector pairs."""
    planes = []
    for idx, chunk in enumerate(spec.split(";")):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "/" in chunk:
            u_txt, v_txt = chunk.split("/", 1)
            u = np.array([float(x) for x in u_txt.split()])
            v = np.array([float(x) for x in v_txt.split()])
            if u.size != dim or v.size != dim:
                raise ValueError(f"plane {chunk!r} has wrong dimension")
            planes.append((f"plane{idx}", u, v))
        else:
            i_txt, _, j_txt = chunk.partition("-")
            i, j = int(i_txt), int(j_txt)
            if not (0 <= i < dim and 0 <= j < dim) or i == j:
                raise ValueError(f"bad axis pair {chunk!r} for dim {dim}")
            u = np.zeros(dim)
            v = np.zeros(dim)
            u[i] = 1.0
            v[j] = 1.0
            planes.append((f"e{i}-e{j}", u, v))
    return planes


def export_projections(history: list[RatedPoint],
                       planes: list[tuple[str, np.ndarray, np.ndarray]],
                       out_dir: Path) -> list[Path]:
    """Write one TSV per plane: (u, v, value, eval_index) rows.

    Cube projections onto oblique directions span more than one unit; each
    axis is rescaled by its own extent so every table lives in the unit
    square, matching the cube-face view on coordinate planes.
    """
    if not history:
        raise ValueError("empty swarm history: nothing to project")
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, u, v in planes:
        for d in (u, v):
            if abs(float(np.sqrt(d @ d)) - 1.0) > 1e-9:
                raise ValueError(f"plane {name!r}: direction not unit length")
        if abs(float(u @ v)) > 1e-9:
            raise ValueError(f"plane {name!r}: directions not orthogonal")
        u_min = float(np.minimum(u, 0.0).sum())
        v_min = float(np.minimum(v, 0.0).sum())
        u_len = float(np.abs(u).sum())
        v_len = float(np.abs(v).sum())
        path = out_dir / f"{name}.tsv"
        lines = ["u\tv\tvalue\teval_index"]
        for p in history:
            pu = (float(p.position @ u) - u_min) / u_len
            pv = (float(p.position @ v) - v_min) / v_len
            lines.append(f"{pu!r}\t{pv!r}\t{float(p.value)!r}\t{p.eval_index}")
        path.write_text("\n".join(lines) + "\n")
        written.append(path)
    return written


def run_command(config: CliConfig) -> int:
    """Execute one optimization run and write all requested artifacts."""
    try:
        run_config, handle = build_run(config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    try:
        stack, diag = run_optimization(run_config, handle)
    finally:
        handle.close()
    elapsed = time.perf_counter() - started

    write_stack_csv(stack, handle.bounds, out_dir / "stack.csv")
    write_diagnostics_jsonl(diag, out_dir / "diagnostics.jsonl")
    if config.emit_projections:
        planes = parse_planes(config.projection_planes, run_config.dim)
        export_projections(diag.swarm_history, planes, out_dir / "projections")

    best = stack.best
    best_user = denormalize(best.position, handle.bounds)
    print(f"best value: {best.value:.10g}")
    print("best point (user units): "
          + " ".join(f"{v:.10g}" for v in best_user))
    flagged = diag.flagged_evaluations
    print(f"total evaluations: {diag.total_evaluations}"
          + (f" ({flagged} flagged)" if flagged else ""))
    print(f"elapsed: {elapsed:.2f}s")
    print(f"outputs in: {out_dir}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="swarmstack",
        description="Derivative-free global minimizer over box domains.")
    parser.add_argument("--config", help="flat key=value config file")
    for key in CONFIG_KEYS:
        parser.add_argument(f"--{key}", dest=f"opt_{key}", default=None,
                            metavar="V")
    args = parser.parse_args(argv)
    overrides = {}
    for key in CONFIG_KEYS:
        value = getattr(args, f"opt_{key}")
        if value is not None:
            overrides[key] = value
    try:
        config = parse_config(args.config, overrides)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run_command(config)


if __name__ == "__main__":
    sys.exit(main())
