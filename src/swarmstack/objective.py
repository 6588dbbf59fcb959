"""Objective evaluation contract, benchmark functions and external workers.

An :class:`ObjectiveHandle` owns the mapping from normalized points to
objective values, counts every evaluation (the cost unit of the optimizer)
and declares whether it may be called from concurrent trials.

The benchmark factory builds classic test functions composed with the
denormalization from the unit cube.  ``bounds_style="offset"`` shifts each
domain so the optimum does not sit at the cube center, where it would collide
with the default initial guesses and make runs look artificially easy.
"""

from __future__ import annotations

import hashlib
import math
import os
import select
import subprocess
import threading
from typing import Callable, Sequence

import numpy as np

from .domain import BoundsSpec, denormalize
from .rng import seed, uniform01

CONCURRENT_SAFE = "concurrent_safe"
SERIAL_ONLY = "serial_only"

# Normalized position of the optimum under "offset" bounds: away from the
# diagonal guess coordinates 0.25 / 0.5 / 0.75.
_OFFSET_FRACTION = 0.37


class ObjectiveHandle:
    """Callable objective over normalized space with exact evaluation counting."""

    def __init__(self, dim: int, func: Callable[[np.ndarray], float],
                 bounds: BoundsSpec, concurrency_class: str = CONCURRENT_SAFE,
                 name: str = "objective", known_optima: Sequence[np.ndarray] = ()):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if concurrency_class not in (CONCURRENT_SAFE, SERIAL_ONLY):
            raise ValueError(f"unknown concurrency class {concurrency_class}")
        self.dim = dim
        self.bounds = bounds
        self.concurrency_class = concurrency_class
        self.name = name
        self.known_optima = [np.asarray(o, dtype=float) for o in known_optima]
        self._func = func
        self._count = 0
        self._flagged = 0
        self._lock = threading.Lock()

    @property
    def eval_count(self) -> int:
        return self._count

    @property
    def flagged_count(self) -> int:
        return self._flagged

    def evaluate(self, point: np.ndarray) -> float:
        value = self._func(point)
        try:
            value = float(value)
        except (TypeError, ValueError):
            value = math.nan
        with self._lock:
            self._count += 1
            if not math.isfinite(value):
                self._flagged += 1
        return value

    def add_counts(self, evals: int, flagged: int) -> None:
        """Count evaluations that a copy of this handle made elsewhere.

        Worker processes evaluate on pickled copies; adding their counts
        here keeps ``eval_count`` and ``flagged_count`` whole-run totals.
        """
        with self._lock:
            self._count += evals
            self._flagged += flagged

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_lock"]  # locks cannot be pickled; each copy gets its own
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def close(self) -> None:  # overridden by worker-backed objectives
        pass


def _sphere(x):
    return float(np.dot(x, x))


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2
                        + (1.0 - x[:-1]) ** 2))


def _rastrigin(x):
    return float(10.0 * x.size + np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x)))


def _ackley(x):
    return float(-20.0 * np.exp(-0.2 * np.sqrt(np.mean(x * x)))
                 - np.exp(np.mean(np.cos(2.0 * np.pi * x))) + 20.0 + math.e)


def _griewank(x):
    idx = np.sqrt(np.arange(1, x.size + 1))
    return float(1.0 + np.sum(x * x) / 4000.0 - np.prod(np.cos(x / idx)))


_SCHWEFEL_OPT = 420.968746359982
_SCHWEFEL_OFFSET = 418.9828872724339


def _schwefel(x):
    return float(_SCHWEFEL_OFFSET * x.size - np.sum(x * np.sin(np.sqrt(np.abs(x)))))


# (function, conventional half-width or (lo, hi), optimum coordinate)
_BENCHMARKS = {
    "sphere": (_sphere, 5.0, 0.0),
    "rosenbrock": (_rosenbrock, 2.048, 1.0),
    "rastrigin": (_rastrigin, 5.12, 0.0),
    "ackley": (_ackley, 32.768, 0.0),
    "griewank": (_griewank, 600.0, 0.0),
    "schwefel": (_schwefel, 500.0, _SCHWEFEL_OPT),
}

BENCHMARK_NAMES = tuple(_BENCHMARKS) + ("noisy_rastrigin", "twin_valleys")


def _twin_valley_loci(dim: int) -> tuple[np.ndarray, np.ndarray]:
    a = np.array([0.18 if i % 2 == 0 else 0.26 for i in range(dim)])
    b = np.array([0.82 if i % 2 == 0 else 0.74 for i in range(dim)])
    return a, b


def _point_noise(noise_key: int, x_norm: np.ndarray) -> float:
    """Noise in [-0.1, 0.1) drawn from a stream keyed by the point's bytes.

    The same point always gets the same noise, whatever order the trials
    evaluate points in and in whichever process.
    """
    digest = hashlib.blake2b(np.ascontiguousarray(x_norm, dtype=float).tobytes(),
                             digest_size=8).digest()
    state = seed(noise_key, int.from_bytes(digest, "little"))
    return 0.1 * (2.0 * uniform01(state) - 1.0)


class BenchmarkFunction:
    """A named benchmark over the unit cube, composed with denormalization.

    Picklable (it holds only module-level functions and arrays), so handles
    built on it can be sent to worker processes.  twin_valleys is defined
    directly in normalized space; noisy_rastrigin adds a deterministic
    per-point noise keyed by ``noise_seed``.
    """

    def __init__(self, name: str, bounds: BoundsSpec, noise_seed: int = 0):
        self.bounds = bounds
        self.loci = None
        self.noise_key = None
        if name == "twin_valleys":
            self.loci = _twin_valley_loci(bounds.dim)
            self.func = None
            return
        self.func, _, self.opt = _base_benchmark(name)
        if name == "noisy_rastrigin":
            self.noise_key = noise_seed ^ 0x6E6F6973

    def known_optima(self) -> list[np.ndarray]:
        """Normalized global minimizers that lie inside the bounds."""
        if self.loci is not None:
            return list(self.loci)
        opt_user = np.full(self.bounds.dim, self.opt)
        if np.all(opt_user >= self.bounds.lower) and np.all(
                opt_user <= self.bounds.upper):
            return [(opt_user - self.bounds.lower) / self.bounds.width]
        return []

    def __call__(self, x_norm: np.ndarray) -> float:
        if self.loci is not None:
            da = x_norm - self.loci[0]
            db = x_norm - self.loci[1]
            return float(min(np.dot(da, da), np.dot(db, db)))
        value = self.func(denormalize(x_norm, self.bounds))
        if self.noise_key is not None:
            value += _point_noise(self.noise_key, x_norm)
        return value


def _base_benchmark(name: str) -> tuple:
    """(function, half-width, optimum coordinate) behind a benchmark name."""
    entry = _BENCHMARKS.get("rastrigin" if name == "noisy_rastrigin" else name)
    if entry is None:
        raise ValueError(f"unknown benchmark {name!r}; "
                         f"choose from {BENCHMARK_NAMES}")
    return entry


def _benchmark_handle(name: str, bounds: BoundsSpec,
                      noise_seed: int) -> ObjectiveHandle:
    func = BenchmarkFunction(name, bounds, noise_seed)
    return ObjectiveHandle(bounds.dim, func, bounds, name=name,
                           known_optima=func.known_optima())


def make_benchmark(name: str, dim: int, bounds_style: str = "conventional",
                   noise_seed: int = 0) -> ObjectiveHandle:
    """Build a named benchmark objective over the unit cube.

    ``bounds_style``: "conventional" uses the published domain; "offset"
    keeps the domain width but shifts it so the optimum lands at normalized
    coordinate 0.37 on every axis.
    """
    if dim < 1 or (name == "rosenbrock" and dim < 2):
        raise ValueError(f"dim {dim} too small for benchmark {name!r}")
    if bounds_style not in ("conventional", "offset"):
        raise ValueError(f"unknown bounds_style {bounds_style!r}")
    if name == "twin_valleys":
        return _benchmark_handle(name, BoundsSpec.unit(dim), noise_seed)
    _, half_width, opt = _base_benchmark(name)
    if bounds_style == "conventional":
        lower = np.full(dim, -half_width)
        upper = np.full(dim, half_width)
    else:
        width = 2.0 * half_width
        lower = np.full(dim, opt - _OFFSET_FRACTION * width)
        upper = lower + width
    return _benchmark_handle(name, BoundsSpec(lower, upper), noise_seed)


def make_benchmark_with_bounds(name: str, dim: int, bounds: BoundsSpec,
                               noise_seed: int = 0) -> ObjectiveHandle:
    """Benchmark objective over caller-supplied user-unit bounds.

    twin_valleys is defined directly in normalized space, so custom bounds
    only relabel its user units; the other functions are composed with the
    denormalization onto the given hyper-block.
    """
    if bounds.dim != dim:
        raise ValueError(f"bounds dim {bounds.dim} != dim {dim}")
    if name == "twin_valleys":
        return make_benchmark(name, dim)
    return _benchmark_handle(name, bounds, noise_seed)


class _Worker:
    """One external evaluation process speaking the line protocol."""

    def __init__(self, command: str, timeout: float):
        self.proc = subprocess.Popen(
            command, shell=True, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=False)
        self.timeout = timeout
        self._buffer = b""

    def _read_line(self) -> bytes | None:
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            ready, _, _ = select.select([fd], [], [], self.timeout)
            if not ready:
                return None
            chunk = os.read(fd, 65536)
            if not chunk:
                return None
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line

    def evaluate(self, user_point: np.ndarray) -> float:
        if self.proc.poll() is not None:
            return math.nan
        request = " ".join(repr(float(v)) for v in user_point) + "\n"
        try:
            self.proc.stdin.write(request.encode())
            self.proc.stdin.flush()
        except (BrokenPipeError, OSError):
            return math.nan
        line = self._read_line()
        if line is None:
            return math.nan
        try:
            return float(line.strip())
        except ValueError:
            return math.nan

    def close(self):
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            self.proc.terminate()
            try:
                self.proc.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()


class ExternalObjective(ObjectiveHandle):
    """Objective evaluated by worker subprocesses over pipes.

    Protocol: one request line of space-separated decimal user-unit
    coordinates; one reply line holding a single decimal value.  A dead,
    silent or unparsable worker yields NaN (flagged), never an exception,
    so the optimizer keeps running.
    """

    def __init__(self, command: str, bounds: BoundsSpec,
                 timeout: float = 30.0, workers: int = 1):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._workers = [_Worker(command, timeout) for _ in range(workers)]
        self._free: list[_Worker] = list(self._workers)
        self._cond = threading.Condition()
        concurrency = CONCURRENT_SAFE if workers > 1 else SERIAL_ONLY

        def call(x_norm):
            user = denormalize(x_norm, bounds)
            with self._cond:
                while not self._free:
                    self._cond.wait()
                worker = self._free.pop()
            try:
                return worker.evaluate(user)
            finally:
                with self._cond:
                    self._free.append(worker)
                    self._cond.notify()

        super().__init__(bounds.dim, call, bounds,
                         concurrency_class=concurrency, name=f"external:{command}")

    def close(self):
        for w in self._workers:
            w.close()


def external_objective(command: str, bounds: BoundsSpec,
                       timeout: float = 30.0, workers: int = 1) -> ExternalObjective:
    return ExternalObjective(command, bounds, timeout=timeout, workers=workers)
