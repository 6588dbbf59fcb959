"""Objective evaluation contract, benchmark functions and external workers.

An :class:`ObjectiveHandle` owns the mapping from normalized points to
objective values and turns a result that is not a number into NaN.  It
keeps no state between calls: the trial that calls it counts evaluations,
the cost unit of the optimizer, and the non-finite ones among them.

The benchmark factory builds classic test functions composed with the
denormalization from the unit cube.  ``bounds_style="offset"`` shifts each
domain so the optimum does not sit at the cube center, where it would collide
with the default initial guesses and make runs look artificially easy.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import select
import signal
import subprocess
import threading
import time
from contextlib import suppress
from typing import Callable, Sequence

import numpy as np

from .domain import BoundsSpec, denormalize
from .rng import seed, uniform01

# Normalized position of the optimum under "offset" bounds: away from the
# diagonal guess coordinates 0.25 / 0.5 / 0.75.
_OFFSET_FRACTION = 0.37
# fresh processes an external worker may start after its first one died,
# timed out or broke its pipe
WORKER_RESTARTS = 3


class ObjectiveHandle:
    """Callable objective over normalized space; a non-number becomes NaN.
    ``func`` gets the cube point itself (wrap a user-unit ``f`` as
    ``lambda x: f(denormalize(x, bounds))``); ``bounds`` give the dimension."""

    def __init__(self, func: Callable[[np.ndarray], float],
                 bounds: BoundsSpec, name: str = "objective",
                 known_optima: Sequence[np.ndarray] = ()):
        self.dim = bounds.dim
        self.bounds = bounds
        self.name = name
        self.known_optima = [np.asarray(o, dtype=float) for o in known_optima]
        self._func = func

    def evaluate(self, point: np.ndarray) -> float:
        value = self._func(point)
        try:
            return float(value)
        except (TypeError, ValueError):
            return math.nan

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
        if name == "rosenbrock" and bounds.dim < 2:
            # its sum runs over coordinate pairs: at dim 1 it is a flat zero
            raise ValueError(
                f"dim {bounds.dim} too small for benchmark {name!r}")
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


def make_benchmark(name: str, dim: int, bounds_style: str = "conventional",
                   noise_seed: int = 0) -> ObjectiveHandle:
    """Build a named benchmark objective over the unit cube.

    ``bounds_style``: "conventional" uses the published domain; "offset"
    keeps the domain width but shifts it so the optimum lands at normalized
    coordinate 0.37 on every axis.  Schwefel has no offset style.
    """
    if dim < 1:
        raise ValueError(f"dim {dim} too small for benchmark {name!r}")
    if bounds_style not in ("conventional", "offset"):
        raise ValueError(f"unknown bounds_style {bounds_style!r}")
    if name == "twin_valleys":
        return make_benchmark_with_bounds(name, BoundsSpec.unit(dim),
                                          noise_seed)
    _, half_width, opt = _base_benchmark(name)
    if bounds_style == "conventional":
        lower = np.full(dim, -half_width)
        upper = np.full(dim, half_width)
    elif name == "schwefel":
        raise ValueError(
            "schwefel has no offset bounds: a shifted box leaves its "
            "published domain [-500, 500], where it falls below its optimum "
            "value 0; use the conventional bounds, whose optimum already "
            "sits at normalized 0.92, away from the initial guesses")
    else:
        width = 2.0 * half_width
        lower = np.full(dim, opt - _OFFSET_FRACTION * width)
        upper = lower + width
    return make_benchmark_with_bounds(name, BoundsSpec(lower, upper),
                                      noise_seed)


def make_benchmark_with_bounds(name: str, bounds: BoundsSpec,
                               noise_seed: int = 0) -> ObjectiveHandle:
    """Benchmark objective over caller-supplied user-unit bounds.

    twin_valleys is defined directly in normalized space, so custom bounds
    only relabel its user units; the other functions are composed with the
    denormalization onto the given hyper-block.
    """
    func = BenchmarkFunction(name, bounds, noise_seed)
    return ObjectiveHandle(func, bounds, name=name,
                           known_optima=func.known_optima())


class _Worker:
    """The function of an :class:`ExternalObjective`: one process speaking
    the line protocol, started on first use in whichever process calls it.
    A lock guards its pipe, so threads never mix up replies.  A pickled
    worker unpickles to the one worker its process keeps, closed when that
    process exits: a pool starts one external process per pool process,
    not one per trial.
    """

    def __init__(self, command: str, bounds: BoundsSpec, timeout: float,
                 token: tuple = ()):
        self.command, self.bounds, self.timeout = command, bounds, timeout
        self.token = token or (os.getpid(), next(_worker_ids))
        self.starts_left = 1 + WORKER_RESTARTS
        self.proc = None
        self._lock = threading.Lock()

    def __reduce__(self):
        return _process_worker, (self.command, self.bounds, self.timeout,
                                 self.token)

    def _stop(self) -> None:
        """End the process group (SIGTERM, SIGKILL after 2 s); close both
        pipes.  The group holds the worker itself when a shell runs it as a
        child instead of exec-ing it."""
        proc, self.proc = self.proc, None
        with suppress(OSError):  # unflushed bytes for a process that is gone
            proc.stdin.close()
        with suppress(ProcessLookupError):  # the whole group has ended
            os.killpg(proc.pid, signal.SIGTERM)
        with suppress(subprocess.TimeoutExpired):
            proc.wait(timeout=2.0)
        with suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()  # gone, so its late reply can never answer a later request
        proc.stdout.close()

    def _read_line(self) -> bytes | None:
        """The next reply line, or None if it is not complete in time."""
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + self.timeout
        while b"\n" not in self._buffer:
            wait = max(deadline - time.monotonic(), 0.0)
            ready = select.select([fd], [], [], wait)[0]
            chunk = os.read(fd, 65536) if ready else b""
            if not chunk:
                return None
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line

    def __call__(self, x_norm: np.ndarray) -> bytes | None:
        """The reply line, which the handle parses, or None on failure."""
        user = denormalize(x_norm, self.bounds).tolist()
        request = (" ".join(map(repr, user)) + "\n").encode()
        with self._lock:
            if self.proc is None or self.proc.poll() is not None:
                if not self.starts_left:
                    return None
                self.starts_left -= 1
                if self.proc is not None:
                    self._stop()  # releases the dead process's pipes
                self.proc = subprocess.Popen(
                    self.command, shell=True, stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                    start_new_session=True)  # its own group, for _stop
                self._buffer = b""
            try:
                self.proc.stdin.write(request)
                self.proc.stdin.flush()
                line = self._read_line()
            except OSError:
                line = None
            if line is None:
                self._stop()
            return line

    def close(self) -> None:
        with self._lock:
            if self.proc is not None:
                self._stop()


_worker_ids = itertools.count()
_PROCESS_WORKERS: dict[tuple, _Worker] = {}  # by (process id, token)


def _process_worker(command, bounds, timeout, token) -> _Worker:
    """The worker this process keeps for ``token``; keyed by process id too,
    so a forked process never shares its parent's external process."""
    key = (os.getpid(), token)
    if key not in _PROCESS_WORKERS:
        from multiprocessing.util import Finalize
        worker = _PROCESS_WORKERS[key] = _Worker(command, bounds, timeout,
                                                 token)
        Finalize(worker, worker.close, exitpriority=0)
    return _PROCESS_WORKERS[key]


class ExternalObjective(ObjectiveHandle):
    """Objective evaluated by an external worker process over pipes.

    Protocol: one request line of space-separated decimal user-unit
    coordinates; one reply line holding a single decimal value.  A dead,
    silent or unparsable worker yields NaN (flagged), never an exception.
    A worker that dies or misses ``timeout`` is killed and restarted on its
    next request, at most ``WORKER_RESTARTS`` times; after that its
    evaluations are NaN.  The handle pickles, so each trial process starts
    its own worker; :meth:`close` ends the worker of the calling process.
    """

    def __init__(self, command: str, bounds: BoundsSpec,
                 timeout: float = 30.0):
        if not (0.0 < timeout < math.inf):
            raise ValueError(f"timeout must be finite and > 0, got {timeout}")
        super().__init__(_Worker(command, bounds, timeout), bounds,
                         name=f"external:{command}")

    def close(self):
        self._func.close()


def external_objective(command: str, bounds: BoundsSpec,
                       timeout: float = 30.0) -> ExternalObjective:
    return ExternalObjective(command, bounds, timeout=timeout)
