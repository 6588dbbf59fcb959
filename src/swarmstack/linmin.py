"""Global minimization of the objective restricted to one line segment.

The segment lives inside the unit cube, so the restriction is a 1-D function
on a finite interval that may carry several local minima and may be minimized
at a boundary.  The search has two phases: a coarse scan over a fixed grid
(plus the origin, the endpoints and any caller-supplied known values) locates
candidate minima, then the few best candidates are polished by golden-section
steps accelerated with parabolic interpolation.

The returned point is never worse than the segment origin, because t = 0 is
always part of the scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .domain import LineSegment, point_on_line

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # 0.618...
_SHRINK_FACTOR = 0.9  # parabolic steps must beat golden by shrinking >= 10%
_N_SCAN = 12  # interior grid points of the scan

DEFAULT_K_REFINE = 2
DEFAULT_TOL = 1e-4
DEFAULT_EVAL_CAP = 60


@dataclass
class LinminResult:
    t_best: float
    f_best: float
    evals_used: int
    truncated: bool = False
    nonfinite_seen: bool = False


class _LineProbe:
    """Budgeted evaluator of the objective along a segment with best tracking."""

    def __init__(self, objective, seg: LineSegment, eval_cap: int):
        self.objective = objective
        self.seg = seg
        self.cap = eval_cap
        self.used = 0
        self.t_best = None
        self.f_best = math.inf
        self.nonfinite = False

    def remaining(self) -> int:
        return self.cap - self.used

    def note(self, t: float, f: float) -> None:
        if not math.isfinite(f):
            self.nonfinite = True
            return
        if f < self.f_best or (f == self.f_best and
                               (self.t_best is None or abs(t) < abs(self.t_best))):
            self.t_best, self.f_best = t, f

    def __call__(self, t: float) -> float:
        self.used += 1
        f = float(self.objective(point_on_line(self.seg, t)))
        self.note(t, f)
        return f if math.isfinite(f) else math.inf


def _parabola_vertex(a, fa, m, fm, b, fb):
    """Vertex abscissa of the parabola through three points, or None.

    None also when a value is infinite (the probe's stand-in for a
    non-finite objective): the vertex is then undefined.
    """
    d1 = (m - a) * (fm - fb)
    d2 = (m - b) * (fm - fa)
    denom = 2.0 * (d1 - d2)
    if denom == 0.0 or not math.isfinite(denom):
        return None
    num = (m - a) * d1 - (m - b) * d2
    return m - num / denom


def _predicted_minimum(a, fa, m, fm, b, fb):
    """Estimated depth of the bracket's minimum from its fitted parabola.

    Deep basins whose center probe landed off-bottom still rank ahead of
    shallow basins probed dead center.  Falls back to the center value when
    the triple is not convex or the vertex escapes the bracket.
    """
    v = _parabola_vertex(a, fa, m, fm, b, fb)
    if v is None or not a < v < b:
        return fm
    la = (v - m) * (v - b) / ((a - m) * (a - b))
    lm = (v - a) * (v - b) / ((m - a) * (m - b))
    lb = (v - a) * (v - m) / ((b - a) * (b - m))
    predicted = fa * la + fm * lm + fb * lb
    return min(fm, predicted) if math.isfinite(predicted) else fm


def _refine_bracket(probe: _LineProbe, a, m, b, fa, fm, fb, tol):
    """Shrink a valid bracket until its width drops below tol.

    Each iteration tries a parabolic-interpolation step and falls back to a
    golden-section probe of the larger subinterval whenever the fitted vertex
    is outside, too close to the current center, or would not shrink the
    bracket by at least 10%.
    """
    while (b - a) > tol and probe.remaining() > 0:
        v = _parabola_vertex(a, fa, m, fm, b, fb)
        use_parabola = False
        if v is not None and a < v < b and v != m:
            worst_new = max(m - a, b - v) if v > m else max(b - m, v - a)
            use_parabola = worst_new <= _SHRINK_FACTOR * (b - a)
        if not use_parabola:
            if (m - a) > (b - m):
                v = m - (1.0 - _GOLDEN) * (m - a)
            else:
                v = m + (1.0 - _GOLDEN) * (b - m)
        if abs(v - m) < 1e-15 * (1.0 + abs(m)):
            break
        fv = probe(v)
        if fv <= fm:
            if v < m:
                b, fb, m, fm = m, fm, v, fv
            else:
                a, fa, m, fm = m, fm, v, fv
        else:
            if v < m:
                a, fa = v, fv
            else:
                b, fb = v, fv
    return m, fm


def _golden_interval(probe: _LineProbe, lo, hi, tol):
    """Golden-section search on [lo, hi]; converges to boundary minima too."""
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    if probe.remaining() <= 0:
        return
    fc = probe(c)
    if probe.remaining() <= 0:
        return
    fd = probe(d)
    while (hi - lo) > tol and probe.remaining() > 0:
        if fc <= fd:
            hi = d
            d, fd = c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = probe(c)
        else:
            lo = c
            c, fc = d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = probe(d)


def minimize_on_line(objective, seg: LineSegment, tol: float = DEFAULT_TOL,
                     eval_cap: int = DEFAULT_EVAL_CAP, f0: float | None = None,
                     known_points: tuple = (),
                     k_refine: int = DEFAULT_K_REFINE) -> LinminResult:
    """Find the best point of the objective restricted to a segment.

    ``f0`` may carry the already-known value at t = 0 (no evaluation is
    spent on it); ``known_points`` are further free (t, f) pairs, typically
    the probe that triggered this call.  The result is never worse than the
    value at t = 0 and evaluation spend never exceeds ``eval_cap``.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if eval_cap < 3:
        raise ValueError(f"eval_cap must be >= 3, got {eval_cap}")
    a, b = seg.t_min, seg.t_max
    probe = _LineProbe(objective, seg, eval_cap)

    # --- scan phase: origin, endpoints, interior grid, free known values
    scan: dict[float, float] = {}
    if f0 is not None:
        probe.note(0.0, f0)
        scan[0.0] = f0 if math.isfinite(f0) else math.inf
    for t, f in known_points:
        if a <= t <= b:
            probe.note(t, f)
            scan[t] = f if math.isfinite(f) else math.inf
    if 0.0 not in scan:
        scan[0.0] = probe(0.0)
    width = b - a
    if width <= 0.0:
        return LinminResult(probe.t_best, probe.f_best, probe.used,
                            truncated=False, nonfinite_seen=probe.nonfinite)
    targets = [a, b] + [a + width * i / (_N_SCAN + 1)
                        for i in range(1, _N_SCAN + 1)]
    min_gap = width / (4.0 * (_N_SCAN + 1))
    for t in targets:
        if probe.remaining() <= 0:
            break
        if any(abs(t - s) < min_gap for s in scan):
            continue
        scan[t] = probe(t)

    ts = sorted(scan)
    fs = [scan[t] for t in ts]

    # --- collect candidate minima: interior triples and interval endpoints,
    # ranked by the depth their fitted parabola predicts
    candidates = []  # (predicted_f, kind, payload)
    for i in range(1, len(ts) - 1):
        if fs[i] <= fs[i - 1] and fs[i] <= fs[i + 1] and math.isfinite(fs[i]):
            rank = _predicted_minimum(ts[i - 1], fs[i - 1], ts[i], fs[i],
                                      ts[i + 1], fs[i + 1])
            candidates.append((rank, "bracket",
                               (ts[i - 1], ts[i], ts[i + 1],
                                fs[i - 1], fs[i], fs[i + 1])))
    if len(ts) >= 2:
        if fs[0] <= fs[1] and math.isfinite(fs[0]):
            candidates.append((fs[0], "edge", (ts[0], ts[1])))
        if fs[-1] <= fs[-2] and math.isfinite(fs[-1]):
            candidates.append((fs[-1], "edge", (ts[-2], ts[-1])))
    candidates.sort(key=lambda c: c[0])

    # --- refine the best few candidates within the remaining budget
    for f_center, kind, payload in candidates[:k_refine]:
        if probe.remaining() <= 0:
            break
        if kind == "bracket":
            ca, cm, cb, fa, fm, fb = payload
            if (cb - ca) > tol:
                _refine_bracket(probe, ca, cm, cb, fa, fm, fb, tol)
        else:
            lo, hi = payload
            if (hi - lo) > tol:
                _golden_interval(probe, lo, hi, tol)

    return LinminResult(probe.t_best, probe.f_best, probe.used,
                        truncated=probe.remaining() <= 0,
                        nonfinite_seen=probe.nonfinite)
