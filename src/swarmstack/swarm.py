"""The swarm stack: a bounded, value-sorted set of best distinct points.

"Distinct" is governed by the equivalence radius: candidates closer than
``r_eq`` (D1 norm) to an existing entry count as the same solution, and only
the best instance of an equivalent group is kept.  When the stack is full the
worst entry makes room for a better candidate ("better in worst out").  The
radius shrinks with temperature so the swarm stays spread out early and may
concentrate around the surviving optima late.
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True, eq=False)
class RatedPoint:
    """A normalized-space position with its objective value.

    Equality stays identity-based: positions are numpy arrays and two
    distinct evaluations are distinct events even at equal coordinates.
    """

    position: np.ndarray
    value: float
    eval_index: int = 0

    def sort_key(self) -> tuple[float, int]:
        return (self.value, self.eval_index)


class InsertOutcome(enum.Enum):
    INSERTED = "inserted"
    REPLACED_EQUIVALENT = "replaced_equivalent"
    REJECTED_EQUIVALENT = "rejected_equivalent"
    REJECTED_FULL = "rejected_full"
    REJECTED_NONFINITE = "rejected_nonfinite"


class Stack:
    """Ascending-sorted bounded stack of distinct rated points."""

    def __init__(self, capacity: int, r_eq: float):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if r_eq < 0.0:
            raise ValueError(f"r_eq must be >= 0, got {r_eq}")
        self.capacity = capacity
        self.r_eq = r_eq
        self.entries: list[RatedPoint] = []
        self._positions = None  # lazily rebuilt (len(entries), dim) matrix

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def best(self) -> RatedPoint:
        return self.entries[0]

    @property
    def worst(self) -> RatedPoint:
        return self.entries[-1]

    def positions_matrix(self) -> np.ndarray:
        """Entry positions as rows, in stack order.

        A change to the stack replaces this array instead of writing into
        it, so a caller may keep a returned matrix as a snapshot.
        """
        if self._positions is None:
            self._positions = np.array([e.position for e in self.entries])
        return self._positions

    def d1_distances(self, position: np.ndarray) -> np.ndarray:
        """D1 (Manhattan) distance from ``position`` to every entry, in order.

        Each row sums exactly as ``np.abs(a - b).sum()`` does for one pair.
        """
        if not self.entries:
            return np.empty(0)
        positions = self.positions_matrix()
        if position.shape != positions.shape[1:]:
            raise ValueError(f"dim mismatch: {position.shape} vs "
                             f"{positions.shape[1:]}")
        return np.abs(positions - position).sum(axis=1)

    def _equivalent_indices(self, position: np.ndarray) -> list[int]:
        return np.nonzero(self.d1_distances(position) < self.r_eq)[0].tolist()

    def _insert_sorted(self, candidate: RatedPoint) -> None:
        bisect.insort(self.entries, candidate, key=RatedPoint.sort_key)
        self._positions = None

    def try_insert(self, candidate: RatedPoint) -> InsertOutcome:
        """Offer a candidate; the stack keeps its invariants either way.

        Within the equivalence radius the candidate must strictly beat the
        best of its equivalent group, in which case the whole group is
        replaced.  Otherwise it is placed by value; a full stack drops its
        worst entry, which is the candidate itself when nothing is worse.
        """
        if not math.isfinite(candidate.value):
            return InsertOutcome.REJECTED_NONFINITE
        eq = self._equivalent_indices(candidate.position)
        if eq:
            group_best = min(self.entries[i].value for i in eq)
            if candidate.value < group_best:
                for i in sorted(eq, reverse=True):
                    del self.entries[i]
                self._positions = None
                self._insert_sorted(candidate)
                return InsertOutcome.REPLACED_EQUIVALENT
            return InsertOutcome.REJECTED_EQUIVALENT
        if len(self.entries) >= self.capacity:
            if candidate.sort_key() >= self.worst.sort_key():
                return InsertOutcome.REJECTED_FULL
            self.entries.pop()
            self._insert_sorted(candidate)
            return InsertOutcome.INSERTED
        self._insert_sorted(candidate)
        return InsertOutcome.INSERTED

    def check_invariants(self) -> None:
        """Assert sortedness, capacity and pairwise distinctness (test aid)."""
        assert len(self.entries) <= self.capacity
        keys = [e.sort_key() for e in self.entries]
        assert keys == sorted(keys)
        for i in range(len(self.entries)):
            for j in range(i + 1, len(self.entries)):
                d = float(np.abs(self.entries[i].position
                                 - self.entries[j].position).sum())
                assert d >= self.r_eq


@dataclass(frozen=True)
class StackMetrics:
    """Dispersion and fitness diagnostics of one stack."""

    stat_dist: float
    stat_params: float
    disp_score: float
    fmt_score: float
    stack_score: float


def sqrt_mean_score(pair_distances: Sequence[float], n_points: int) -> float:
    """Square of the mean square root over all ordered point pairs.

    ``pair_distances`` holds each unordered pair once; doubling both the sum
    and the count leaves the mean unchanged, so the unordered form is used.
    A generalized mean with exponent 1/2 penalizes point sets that collapse
    into few loci, which the quadratic mean cannot see.
    """
    n_pairs = n_points * (n_points - 1) / 2
    if n_pairs < 1:
        return 0.0
    mean_root = sum(math.sqrt(d) for d in pair_distances) / n_pairs
    return mean_root * mean_root


def stat_dist(stack: Stack) -> float:
    """Dispersion of the stack under the D1 norm (0 for fewer than 2 points)."""
    n = len(stack.entries)
    if n < 2:
        return 0.0
    pos = stack.positions_matrix()
    dists = []
    for i in range(n - 1):
        dists.extend(np.abs(pos[i + 1:] - pos[i]).sum(axis=1).tolist())
    return sqrt_mean_score(dists, n)


def stat_params(stack: Stack) -> float:
    """Harmonic mean of per-coordinate standard deviations; 0 if any is 0."""
    n = len(stack.entries)
    if n < 2:
        return 0.0
    sds = stack.positions_matrix().std(axis=0)
    if np.any(sds == 0.0):
        return 0.0
    return sds.size / float((1.0 / sds).sum())


def fmt_score(stack: Stack, alpha: float) -> float:
    """Exponential moving average of entry merits, worst to best.

    Merit is the negated objective value (the stack minimizes), so a healthy
    stack pushes this score upward.  The EMA walks from the worst entry to
    the best, leaving the best entries with the largest weight.
    """
    if not stack.entries:
        raise ValueError("fmt_score of an empty stack")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    ema = -stack.entries[-1].value
    for entry in reversed(stack.entries[:-1]):
        ema = alpha * (-entry.value) + (1.0 - alpha) * ema
    return ema


def stack_score(stack: Stack, alpha: float) -> StackMetrics:
    """All five stack metrics; the overall score couples fitness and spread."""
    sd = stat_dist(stack)
    sp = stat_params(stack)
    disp = (math.sqrt(sd) + math.sqrt(sp)) / 2.0
    fmt = fmt_score(stack, alpha)
    return StackMetrics(stat_dist=sd, stat_params=sp, disp_score=disp,
                        fmt_score=fmt, stack_score=fmt * (1.0 + disp))


def default_ema_alpha(capacity: int) -> float:
    """EMA coefficient with span equal to the stack length."""
    return 2.0 / (capacity + 1)


def merge_stacks(stacks: Iterable[Stack], capacity: int, r_eq: float) -> Stack:
    """Merge trial stacks into one, keeping the best distinct solutions.

    Every entry is offered to a fresh stack in ascending (value, eval_index)
    order, so the result is independent of trial completion order.
    """
    merged = Stack(capacity, r_eq)
    entries = sorted((e for s in stacks for e in s.entries),
                     key=RatedPoint.sort_key)
    for entry in entries:
        merged.try_insert(entry)
    return merged

