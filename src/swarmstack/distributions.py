"""Step-length and mutation distributions used by the search stages.

Three bespoke families live here, all built from Gaussian components:

* ``twin_peaks`` -- two symmetric off-center Gaussians plus a wider central
  one.  Tuned so the density is quasi-flat near zero and fat-tailed, which
  keeps most steps local while still allowing occasional long jumps.
* ``notch_twin_peaks`` -- twin_peaks multiplied by |x|**p, which carves a
  notch at zero so near-null steps (that would re-evaluate an already known
  neighborhood) become rare.
* ``fat_tail3`` -- three concentric zero-mean Gaussians of widening spread,
  used for gene mutation: mostly small perturbations around the inherited
  value with a heavy-tailed chance of a large move.

All samplers draw through an explicit RngState and support truncation to a
finite interval; truncated mixtures are sampled exactly by reweighting each
component by its mass inside the interval and then drawing that component's
conditional law.  The module holds only the samplers the stages call; the
reference densities the tests check them against live with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rng import RngState, bounded_gaussian, normal_cdf, uniform01


def scale_for_temperature(t: float) -> float:
    """Base step standard deviation in normalized space: 0.05 + 0.35*T."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"temperature must be in [0, 1], got {t}")
    return 0.05 + 0.35 * t


@dataclass(frozen=True)
class TwinPeaksParams:
    """Shape parameters of the three-Gaussian step distribution.

    ``s`` is the base standard deviation, ``kt`` the offset of the side
    peaks in units of s, ``q`` the weight of the central component and
    ``ks`` its widening factor.
    """

    s: float
    kt: float = 1.1
    q: float = 0.3
    ks: float = 2.5

    def __post_init__(self):
        if not self.s > 0.0:
            raise ValueError(f"s must be > 0, got {self.s}")
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {self.q}")
        if not (self.kt >= 0.0 and self.ks > 0.0):
            raise ValueError("kt must be >= 0 and ks > 0")


@dataclass(frozen=True)
class NotchParams:
    """twin_peaks corrected by a |x|**notch_exponent factor at the origin."""

    base: TwinPeaksParams
    notch_exponent: float = 1.0 / 6.0

    def __post_init__(self):
        if not self.notch_exponent > 0.0:
            raise ValueError("notch_exponent must be > 0")


@dataclass(frozen=True)
class FatTail3Params:
    """Mixture weights c1..c3 and widening factors 1 < k1 < k2 over core sd s."""

    c1: float = 15.0
    c2: float = 4.0
    c3: float = 1.0
    k1: float = 10.0
    k2: float = 50.0
    s: float = 0.02

    def __post_init__(self):
        # a NaN weight makes the sum NaN, which fails the second test
        if not (min(self.c1, self.c2, self.c3) >= 0.0
                and self.c1 + self.c2 + self.c3 > 0.0):
            raise ValueError("weights must be nonnegative with positive sum")
        if not 1.0 < self.k1 < self.k2:
            raise ValueError("need 1 < k1 < k2")
        if not self.s > 0.0:
            raise ValueError(f"s must be > 0, got {self.s}")


def _mixture(p) -> list[tuple[float, float, float]]:
    """(weight, mean, sd) triples of a parameter bundle's components."""
    if isinstance(p, TwinPeaksParams):
        side = (1.0 - p.q) / 2.0
        return [(side, -p.kt * p.s, p.s),
                (side, p.kt * p.s, p.s),
                (p.q, 0.0, p.ks * p.s)]
    total = p.c1 + p.c2 + p.c3
    return [(p.c1 / total, 0.0, p.s),
            (p.c2 / total, 0.0, p.s * p.k1),
            (p.c3 / total, 0.0, p.s * p.k2)]


def _sample_truncated_mixture(state: RngState, components, lo: float,
                              hi: float) -> float:
    """Exact draw from a Gaussian mixture conditioned on [lo, hi].

    Component weights are multiplied by each component's mass inside the
    interval; the chosen component is then drawn by bounded_gaussian, which
    together reproduces the truncated mixture law exactly.  Each caller's
    interval holds the mean of a component of positive weight, so the
    weighted masses never all vanish.
    """
    if lo >= hi:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    weighted = []
    total = 0.0
    for w, m, sd in components:
        if w <= 0.0:
            continue
        mass = normal_cdf((hi - m) / sd) - normal_cdf((lo - m) / sd)
        weighted.append((w * mass, m, sd))
        total += w * mass
    pick = uniform01(state) * total
    acc = 0.0
    for wm, m, sd in weighted:
        acc += wm
        if pick <= acc:
            break
    # a loop that runs out leaves the last component, which takes the residue
    return bounded_gaussian(state, m, sd, lo, hi)


def sample_fat_tail3(state: RngState, p: FatTail3Params, center: float,
                     lo: float, hi: float) -> float:
    comps = [(w, m + center, sd) for w, m, sd in _mixture(p)]
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
    comps = _mixture(np_.base)
    for _ in range(_NOTCH_REJECT_CAP):
        x = _sample_truncated_mixture(state, comps, lo, hi)
        if x == 0.0:
            continue
        if uniform01(state) * bound < abs(x) ** p:
            return x
    raise RuntimeError("notch rejection sampler failed to accept "
                       f"within {_NOTCH_REJECT_CAP} iterations")
