"""Step-length and mutation distributions used by the search stages.

Two laws live here, both built from Gaussian components:

* ``notch_twin_peaks`` -- the twin_peaks mixture (two symmetric off-center
  Gaussians plus a wider central one, quasi-flat near zero and fat-tailed)
  multiplied by |x|**p, which carves a notch at zero so near-null steps
  (that would re-evaluate an already known neighborhood) become rare.
* ``fat_tail3`` -- three concentric zero-mean Gaussians of widening spread,
  used for gene mutation: mostly small perturbations around the inherited
  value with a heavy-tailed chance of a large move.

Each parameter bundle computes its (weight, mean, sd) components once.  One
function draws every truncated mixture exactly: it reweights each component
by its mass inside the interval, picks one, and draws that component's
conditional law with the mass it already has.  The module holds only the
samplers the stages call; the reference densities the tests check them
against live with the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .rng import RngState, gaussian, normal_cdf, uniform01

# twin_peaks shape: side peaks at +-KT*s, central weight Q and sd KS*s
KT = 1.1
Q = 0.3
KS = 2.5

# Below this acceptance mass the draw-and-discard loop is expected to need
# more than four tries, so sampling switches to interval rejection.
_MASS_SWITCH = 0.25


def scale_for_temperature(t: float) -> float:
    """Base step standard deviation in normalized space: 0.05 + 0.35*T."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"temperature must be in [0, 1], got {t}")
    return 0.05 + 0.35 * t


@dataclass(frozen=True)
class NotchParams:
    """twin_peaks of base sd ``s`` times a |x|**notch_exponent factor."""

    s: float
    notch_exponent: float

    def __post_init__(self):
        if not (self.s > 0.0):
            raise ValueError(f"s must be > 0, got {self.s}")
        if not (self.notch_exponent > 0.0):
            raise ValueError("notch_exponent must be > 0")

    @cached_property
    def components(self) -> list[tuple[float, float, float]]:
        """(weight, mean, sd) of the twin_peaks mixture under the notch."""
        side = (1.0 - Q) / 2.0
        return [(side, -KT * self.s, self.s),
                (side, KT * self.s, self.s),
                (Q, 0.0, KS * self.s)]


@dataclass(frozen=True)
class FatTail3Params:
    """Mixture weights c1..c3 and widening factors 1 < k1 < k2 over core sd s."""

    c1: float
    c2: float
    c3: float
    k1: float
    k2: float
    s: float

    def __post_init__(self):
        # a NaN weight makes the sum NaN, which fails the second test
        if not (min(self.c1, self.c2, self.c3) >= 0.0
                and self.c1 + self.c2 + self.c3 > 0.0):
            raise ValueError("weights must be nonnegative with positive sum")
        if not 1.0 < self.k1 < self.k2:
            raise ValueError("need 1 < k1 < k2")
        if not self.s > 0.0:
            raise ValueError(f"s must be > 0, got {self.s}")

    @cached_property
    def components(self) -> list[tuple[float, float, float]]:
        """(weight, mean, sd) of the three zero-mean components."""
        total = self.c1 + self.c2 + self.c3
        return [(self.c1 / total, 0.0, self.s),
                (self.c2 / total, 0.0, self.s * self.k1),
                (self.c3 / total, 0.0, self.s * self.k2)]


def _sample_truncated_mixture(state: RngState, components, lo: float,
                              hi: float) -> float:
    """Exact draw from a Gaussian mixture conditioned on [lo, hi].

    Component weights are multiplied by each component's mass inside the
    interval; the chosen component is then drawn conditioned on [lo, hi],
    which together reproduces the truncated mixture law exactly.  Each
    caller's interval holds the mean of a component of positive weight, so
    the weighted masses never all vanish.
    """
    if lo >= hi:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    weighted = []
    total = 0.0
    for w, m, sd in components:
        if w <= 0.0:
            continue
        mass = normal_cdf((hi - m) / sd) - normal_cdf((lo - m) / sd)
        weighted.append((w * mass, mass, m, sd))
        total += w * mass
    pick = uniform01(state) * total
    acc = 0.0
    for wm, mass, m, sd in weighted:
        acc += wm
        if pick <= acc:
            break
    # a loop that runs out leaves the last component, which takes the residue
    if mass >= _MASS_SWITCH:
        # the interval holds at least a quarter of the component: discard
        # plain draws until one lands inside
        while True:
            g = gaussian(state, m, sd)
            if lo <= g <= hi:
                return g
    # Interval rejection: the density maximum over [lo, hi] sits at the mean
    # clamped into the interval; log-space comparison avoids underflow.
    peak = min(max(m, lo), hi)
    log_peak = -0.5 * ((peak - m) / sd) ** 2
    while True:
        x = lo + (hi - lo) * uniform01(state)
        log_ratio = -0.5 * ((x - m) / sd) ** 2 - log_peak
        if math.log(max(uniform01(state), 1e-300)) < log_ratio:
            return x


def sample_fat_tail3(state: RngState, p: FatTail3Params, center: float,
                     lo: float, hi: float) -> float:
    comps = [(w, m + center, sd) for w, m, sd in p.components]
    return _sample_truncated_mixture(state, comps, lo, hi)


_NOTCH_REJECT_CAP = 1_000_000


def sample_notch_twin_peaks(state: RngState, np_: NotchParams,
                            lo: float, hi: float) -> float:
    """Draw from the notched law on [lo, hi] by rejection.

    Proposals come from the truncated twin_peaks law and are accepted with
    probability |x|**p / B, where B bounds |x|**p on the interval, which is
    exactly the extra factor the notch introduces.
    """
    if lo >= hi:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    p = np_.notch_exponent
    bound = max(abs(lo), abs(hi)) ** p
    comps = np_.components
    for _ in range(_NOTCH_REJECT_CAP):
        x = _sample_truncated_mixture(state, comps, lo, hi)
        if x == 0.0:
            continue
        if uniform01(state) * bound < abs(x) ** p:
            return x
    raise RuntimeError("notch rejection sampler failed to accept "
                       f"within {_NOTCH_REJECT_CAP} iterations")
