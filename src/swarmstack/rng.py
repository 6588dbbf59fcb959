"""Deterministic pseudo-random core: JKISS generator plus primitive samplers.

Every stochastic component of the optimizer draws from an explicit
:class:`RngState`, one per trial, so runs are reproducible bit for bit and
trials can execute concurrently without sharing generator state.

The base generator is David Jones's JKISS (a KISS variant combining a linear
congruential step, a 5/7/22 xorshift and a multiply-with-carry step), chosen
for its long period and good statistical behavior at a tiny state size.

The primitives here are the uniform, Gaussian, bounded exponential and
truncated gamma draws, plus the normal CDF; truncated Gaussian mixtures are
drawn in :mod:`swarmstack.distributions`.  The truncated gamma is rejection
only, for windows that hold a fair share of the mass, so no sampler needs a
special function beyond ``math.erf``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN64 = 0x9E3779B97F4A7C15

# Fallback words used when a seeding draw hits a forbidden value.
_DEFAULT_Y = 987654321
# The multiply-with-carry step locks up when (z, c) = (0, 0) and when the pair
# sits at its other fixed point near the modulus, so c is confined to
# [1, 698769068] exactly as the generator's published seeding procedure does.
_C_RANGE = 698769068


@dataclass
class RngState:
    """JKISS state: four 32-bit words. ``y`` must stay nonzero."""

    x: int
    y: int
    z: int
    c: int

    def copy(self) -> "RngState":
        return RngState(self.x, self.y, self.z, self.c)


def _mix64(v: int) -> int:
    """64-bit avalanche finalizer (splitmix64 style)."""
    v &= _M64
    v = ((v ^ (v >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    v = ((v ^ (v >> 27)) * 0x94D049BB133111EB) & _M64
    return v ^ (v >> 31)


def seed(master_seed: int, stream_index: int) -> RngState:
    """Derive an independent generator state for one trial stream.

    Distinct (master_seed, stream_index) pairs are decorrelated by a 64-bit
    avalanche mix; words that would break the generator (y = 0, degenerate
    multiply-with-carry pairs) are remapped to safe values.
    """
    if stream_index < 0:
        raise ValueError(f"stream_index must be >= 0, got {stream_index}")
    h = (int(master_seed) + _GOLDEN64 * (int(stream_index) + 1)) & _M64
    a = _mix64(h)
    b = _mix64(h ^ 0xD1B54A32D192ED03)
    x = a >> 32
    y = a & _M32
    z = b >> 32
    c = (b & _M32) % _C_RANGE + 1
    if y == 0:
        y = _DEFAULT_Y
    return RngState(x, y, z, c)


def next_u32(state: RngState) -> int:
    """Advance JKISS by one step and return a 32-bit unsigned value."""
    x = (314527869 * state.x + 1234567) & _M32
    y = state.y
    y ^= (y << 5) & _M32
    y ^= y >> 7
    y ^= (y << 22) & _M32
    t = 4294584393 * state.z + state.c
    state.x = x
    state.y = y
    state.c = t >> 32
    state.z = t & _M32
    return (x + y + state.z) & _M32


def fill_u32(state: RngState, n: int) -> list[int]:
    """Return ``n`` consecutive raw outputs.

    Bit-identical to ``n`` calls of :func:`next_u32`; the loop keeps the state
    words in locals, which matters when tests stream tens of millions of draws.
    """
    x, y, z, c = state.x, state.y, state.z, state.c
    out = []
    append = out.append
    for _ in range(n):
        x = (314527869 * x + 1234567) & _M32
        y ^= (y << 5) & _M32
        y ^= y >> 7
        y ^= (y << 22) & _M32
        t = 4294584393 * z + c
        c = t >> 32
        z = t & _M32
        append((x + y + z) & _M32)
    state.x, state.y, state.z, state.c = x, y, z, c
    return out


_INV_2_32 = 1.0 / 4294967296.0


def uniform01(state: RngState) -> float:
    """Uniform draw in [0, 1)."""
    return next_u32(state) * _INV_2_32


def randint_below(state: RngState, n: int) -> int:
    """Uniform integer in [0, n) via the multiply-shift reduction."""
    return (next_u32(state) * n) >> 32


def gaussian(state: RngState, mean: float, sd: float) -> float:
    """Normal draw via the Marsaglia polar method.

    Uniforms are consumed in pairs until a point lands in the unit disk; the
    second variate of each accepted pair is discarded so no state beyond
    ``state`` survives the call.
    """
    if sd <= 0.0:
        raise ValueError(f"sd must be > 0, got {sd}")
    while True:
        u = 2.0 * uniform01(state) - 1.0
        v = 2.0 * uniform01(state) - 1.0
        s = u * u + v * v
        if 0.0 < s < 1.0:
            return mean + sd * u * math.sqrt(-2.0 * math.log(s) / s)


_SQRT1_2 = math.sqrt(0.5)


def normal_cdf(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * (1.0 + math.erf(x * _SQRT1_2))


def bounded_exponential(state: RngState, rate: float,
                        lo: float, hi: float) -> float:
    """Truncated, rescaled exponential on [lo, hi], sampled by inverse CDF.

    Density is proportional to exp(-rate * (x - lo) / (hi - lo)), so the
    endpoint density ratio pdf(lo)/pdf(hi) equals e**rate.
    """
    if rate <= 0.0:
        raise ValueError(f"rate must be > 0, got {rate}")
    if lo >= hi:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    u = uniform01(state)
    y = -math.log1p(-u * (1.0 - math.exp(-rate))) / rate
    return lo + y * (hi - lo)


def _gamma_unbounded(state: RngState, shape: float) -> float:
    """Gamma(shape, 1) for shape >= 1 via the Marsaglia-Tsang squeeze."""
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        g = gaussian(state, 0.0, 1.0)
        v = (1.0 + c * g) ** 3
        if v <= 0.0:
            continue
        u = max(uniform01(state), 1e-300)
        if math.log(u) < 0.5 * g * g + d - d * v + d * math.log(v):
            return d * v


_GAMMA_RETRY_CAP = 64


def truncated_gamma(state: RngState, shape: float, scale: float,
                    lo: float, hi: float) -> float:
    """Gamma(shape, scale) conditioned on [lo, hi], for shape >= 1.

    Plain rejection against the unconditional sampler, meant for windows
    that hold a fair share of the mass: after 64 misses it raises
    RuntimeError rather than fall back on another method.
    """
    if not (shape >= 1.0 and scale > 0.0):
        raise ValueError(f"need shape >= 1 and scale > 0, got {shape}, {scale}")
    if lo < 0.0 or hi <= lo:
        raise ValueError(f"invalid interval [{lo}, {hi}]")
    for _ in range(_GAMMA_RETRY_CAP):
        g = scale * _gamma_unbounded(state, shape)
        if lo <= g <= hi:
            return g
    raise RuntimeError(f"truncated gamma rejection missed [{lo}, {hi}] "
                       f"{_GAMMA_RETRY_CAP} times")
