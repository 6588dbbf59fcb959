"""Parameter-space geometry: unit cube, random directions, line segments.

The optimizer works exclusively in the normalized unit hypercube; points are
mapped to the user-unit hyper-block at the objective boundary.  Distances
between candidate solutions use the D1 (Manhattan) norm, which favors keeping
points that differ in many coordinates over points that differ in one; the
stack computes them (``Stack.d1_distances``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .rng import RngState, gaussian

_EPS_CUBE = 1e-12
_EPS_DIR = 1e-15


@dataclass(frozen=True)
class BoundsSpec:
    """Per-parameter finite (lower, upper) bounds in user units."""

    lower: np.ndarray
    upper: np.ndarray

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[float, float]]) -> "BoundsSpec":
        lower = np.asarray([p[0] for p in pairs], dtype=float)
        upper = np.asarray([p[1] for p in pairs], dtype=float)
        return cls(lower, upper)

    @classmethod
    def unit(cls, dim: int) -> "BoundsSpec":
        return cls(np.zeros(dim), np.ones(dim))

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.ndim != 1 or lower.shape != upper.shape or lower.size < 1:
            raise ValueError("bounds must be two equal-length 1-D arrays")
        bad = np.nonzero(~(lower < upper))[0]
        if bad.size:
            raise ValueError(f"lower >= upper for parameter {bad[0]}")

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower


def denormalize(point: np.ndarray, bounds: BoundsSpec) -> np.ndarray:
    """Map a normalized point back to user units."""
    x = np.asarray(point, dtype=float)
    if x.shape != bounds.lower.shape:
        raise ValueError(f"point has dim {x.size}, bounds have dim {bounds.dim}")
    bad = np.nonzero((x < -_EPS_CUBE) | (x > 1.0 + _EPS_CUBE))[0]
    if bad.size:
        raise ValueError(f"parameter {bad[0]} value {x[bad[0]]} outside [0, 1]")
    return bounds.lower + x * bounds.width


def random_unit_direction(state: RngState, dim: int) -> np.ndarray:
    """Isotropic unit vector from dim independent standard Gaussians."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    while True:
        v = np.array([gaussian(state, 0.0, 1.0) for _ in range(dim)])
        norm = float(np.sqrt(v @ v))
        if norm > 1e-12:
            return v / norm


def line_domain(p0: np.ndarray, u: np.ndarray) -> tuple[float, float]:
    """Parameter range [a, b] keeping p0 + t*u inside the unit cube.

    Analytic per-coordinate clipping of the hyper-block; a <= 0 <= b always
    holds because p0 itself lies in the cube.
    """
    if np.any(p0 < -_EPS_CUBE) or np.any(p0 > 1.0 + _EPS_CUBE):
        raise ValueError("line origin lies outside the unit cube")
    a, b = -np.inf, np.inf
    for i in range(p0.size):
        ui = u[i]
        if abs(ui) < _EPS_DIR:
            continue
        t0 = (0.0 - p0[i]) / ui
        t1 = (1.0 - p0[i]) / ui
        if t0 > t1:
            t0, t1 = t1, t0
        if t0 > a:
            a = t0
        if t1 < b:
            b = t1
    if not np.isfinite(a) or not np.isfinite(b):
        raise ValueError("direction has no nonzero component")
    # p0 is inside the cube, so 0 is always admissible up to rounding
    return min(a, 0.0), max(b, 0.0)


@dataclass(frozen=True)
class LineSegment:
    """A clipped line p0 + t*u, t in [t_min, t_max], inside the unit cube."""

    origin: np.ndarray
    direction: np.ndarray
    t_min: float
    t_max: float

    @classmethod
    def through(cls, p0: np.ndarray, u: np.ndarray) -> "LineSegment":
        a, b = line_domain(p0, u)
        return cls(p0, u, a, b)


def point_on_line(seg: LineSegment, t: float) -> np.ndarray:
    """Point at parameter t, clamped into the cube to absorb fp residue."""
    if t < seg.t_min or t > seg.t_max:
        raise ValueError(f"t={t} outside [{seg.t_min}, {seg.t_max}]")
    return np.clip(seg.origin + t * seg.direction, 0.0, 1.0)
