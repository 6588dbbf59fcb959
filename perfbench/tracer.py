"""Span tracing from outside the program, by rebinding names.

``stages``, ``scheduler``, ``linmin`` and ``objective`` import the functions
they call into their own namespaces, and ``scheduler`` iterates the
``STAGES`` tuple, so a span is recorded by replacing the name in the
namespace that calls it (methods are replaced on their class).  Each span
keeps its name, start, end, parent span and trial; spans live in per-thread
buffers in memory and are merged when the run ends.  ``rng.next_u32`` is
counted only: timing each call would cost more than the call.
"""

from __future__ import annotations

import itertools
import threading
import time
from array import array
from contextlib import contextmanager

import numpy as np

from swarmstack import (cli, domain, linmin, objective, rng, scheduler, stages,
                        swarm)

_FIELDS = 8  # name, span id, parent id, trial, start, end, note a, note b
_USEFUL = (swarm.InsertOutcome.INSERTED,
           swarm.InsertOutcome.REPLACED_EQUIVALENT)


def _accepted(result):
    return float(result), 0.0


def _linmin_note(result):
    return float(result.evals_used), float(result.truncated)


def _insert_note(result):
    return float(result in _USEFUL), 0.0


# (namespace that calls it, attribute, span name, note on the result)
BINDINGS = (
    (scheduler, "run_temperature_step", "scheduler.run_temperature_step", None),
    (scheduler, "merge_stacks", "swarm.merge_stacks", None),
    (scheduler, "stack_score", "swarm.stack_score", None),
    (swarm.Stack, "try_insert", "swarm.try_insert", _insert_note),
    (stages, "recombine", "stages.recombine", None),
    (stages, "direction_is_new", "stages.direction_is_new", _accepted),
    (stages, "minimize_on_line", "linmin.minimize_on_line", _linmin_note),
    (objective.ObjectiveHandle, "evaluate", "objective.evaluate", None),
    (objective, "denormalize", "domain.denormalize", None),
    (cli, "denormalize", "domain.denormalize", None),
    (stages, "line_domain", "domain.line_domain", None),
    (domain, "line_domain", "domain.line_domain", None),
    (stages, "random_unit_direction", "domain.random_unit_direction", None),
    (stages, "point_on_line", "domain.point_on_line", None),
    (linmin, "point_on_line", "domain.point_on_line", None),
    (stages, "bounded_exponential", "rng.bounded_exponential", None),
    (stages, "truncated_gamma", "rng.truncated_gamma", None),
    (stages, "sample_notch_twin_peaks", "distributions.sample_notch_twin_peaks",
     None),
    (stages, "sample_fat_tail3", "distributions.sample_fat_tail3", None),
    (cli, "write_stack_csv", "cli.write_stack_csv", None),
    (cli, "write_diagnostics_jsonl", "cli.write_diagnostics_jsonl", None),
    (cli, "export_projections", "cli.export_projections", None),
)


class Tracer:
    """Collects spans while :meth:`installed` holds the rebindings."""

    def __init__(self):
        self.names: list[str] = []
        self._ids = itertools.count()
        self._u32 = itertools.count()
        self._local = threading.local()
        self._buffers: list[array] = []
        self._lock = threading.Lock()

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _thread_buffer(self) -> array:
        local = self._local
        local.buf = array("d")
        local.current = -1
        local.trial = -1
        with self._lock:
            self._buffers.append(local.buf)
        return local.buf

    def wrap(self, name: str, fn, note=None, trial_arg: int | None = None):
        """``fn`` with a span around every call.

        ``note`` maps the result to two numbers kept on the span;
        ``trial_arg`` names the positional argument holding the trial index,
        which then tags every span the call opens.
        """
        nid = self._name_id(name)
        local = self._local
        next_id = self._ids.__next__
        new_buffer = self._thread_buffer
        clock = time.perf_counter

        def traced(*args, **kwargs):
            try:
                buf = local.buf
            except AttributeError:
                buf = new_buffer()
            sid = next_id()
            parent = local.current
            outer_trial = trial = local.trial
            if trial_arg is not None:
                trial = local.trial = args[trial_arg]
            local.current = sid
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                local.current = parent
                local.trial = outer_trial
            a, b = note(result) if note is not None else (0.0, 0.0)
            buf.extend((nid, sid, parent, trial, start, end, a, b))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Rebind every traced name; restore the originals on exit."""
        saved = [(owner, attr, getattr(owner, attr))
                 for owner, attr, _, _ in BINDINGS]
        saved += [(scheduler, "run_trial", scheduler.run_trial),
                  (scheduler, "STAGES", scheduler.STAGES),
                  (rng, "next_u32", rng.next_u32)]
        try:
            for owner, attr, name, note in BINDINGS:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), note))
            scheduler.run_trial = self.wrap("scheduler.run_trial",
                                            scheduler.run_trial, trial_arg=4)
            scheduler.STAGES = tuple(
                self.wrap(f"stages.{name}", fn)
                for fn, name in zip(scheduler.STAGES, stages.STAGE_NAMES))
            count = self._u32.__next__
            next_u32 = rng.next_u32

            def counted(state):
                count()
                return next_u32(state)

            rng.next_u32 = counted
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def spans(self) -> np.ndarray:
        """All finished spans, one row each, ordered by span id."""
        with self._lock:
            rows = np.concatenate([np.frombuffer(b, dtype=float)
                                   for b in self._buffers] or [np.empty(0)])
        rows = rows.reshape(-1, _FIELDS)
        return rows[np.argsort(rows[:, 1], kind="stable")]

    def u32_calls(self) -> int:
        return next(self._u32)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive s, self s and the summed notes.

        Self time is a span's duration minus the durations of its children;
        children run on their parent's thread, so they never overlap.
        """
        rows = self.spans()
        dur = rows[:, 5] - rows[:, 4]
        parent = rows[:, 2].astype(np.int64)
        has_parent = parent >= 0
        where = np.searchsorted(rows[:, 1], parent[has_parent])
        child_s = np.bincount(where, weights=dur[has_parent],
                              minlength=len(rows))
        self_s = dur - child_s
        nid = rows[:, 0].astype(np.int64)
        out = {}
        for i, name in enumerate(self.names):
            mine = nid == i
            out[name] = {"calls": float(mine.sum()),
                         "s": float(dur[mine].sum()),
                         "self_s": float(self_s[mine].sum()),
                         "a": float(rows[mine, 6].sum()),
                         "b": float(rows[mine, 7].sum())}
        return out

    def dump(self, path) -> None:
        """Write the spans and their name table to ``path`` (``.npz``)."""
        np.savez_compressed(path, spans=self.spans(), names=np.array(self.names),
                 fields=np.array(["name", "id", "parent", "trial", "start",
                                  "end", "note_a", "note_b"]))
