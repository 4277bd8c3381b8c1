"""Axis-aligned boxes under the max norm: Helly intersection and the
null-sequence counterexample.

Closed max-norm balls in dimension k are products of closed intervals, so a
family of balls has a common point as soon as every pair does (intervals on
each coordinate intersect pairwise, hence globally).  That one-dimensional
argument is the entire mechanism behind hyperconvexity of finite-dimensional
max-norm spaces.

The same machinery demonstrates, at truncation scale, why the space of null
sequences fails hyperconvexity: the balls ``B(e_n, 1/2)`` around the first N
standard basis vectors intersect pairwise (all distances equal 1) yet their
unique common point is ``(1/2, ..., 1/2)``, whose coordinates never decay —
so no null sequence can witness the intersection as N grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DimensionMismatch, TooLarge
from .rational import as_rational

C0_MAX_DIMENSION = 500

Interval = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class Box:
    """A product of closed rational intervals, one per coordinate."""

    intervals: tuple[Interval, ...]

    def __init__(self, intervals: Sequence):
        parsed = tuple((as_rational(lo), as_rational(hi)) for lo, hi in intervals)
        if not parsed:
            raise ValueError("boxes must have dimension >= 1")
        for k, (lo, hi) in enumerate(parsed):
            if lo > hi:
                raise ValueError(f"coordinate {k}: lower bound {lo} exceeds upper {hi}")
        object.__setattr__(self, "intervals", parsed)

    @property
    def dimension(self) -> int:
        return len(self.intervals)

    @property
    def lower_corner(self) -> tuple[Fraction, ...]:
        return tuple(lo for lo, _ in self.intervals)

    def contains(self, point: Sequence) -> bool:
        values = [as_rational(v) for v in point]
        return len(values) == self.dimension and all(
            lo <= v <= hi for v, (lo, hi) in zip(values, self.intervals)
        )

    def is_single_point(self) -> bool:
        return all(lo == hi for lo, hi in self.intervals)


def max_norm_ball(center: Sequence, radius) -> Box:
    """The closed max-norm ball as a box: [c_k - r, c_k + r] per coordinate."""
    r = as_rational(radius)
    if r <= 0:
        raise ValueError("radius must be positive")
    return Box([(as_rational(c) - r, as_rational(c) + r) for c in center])


def max_norm_distance(p: Sequence, q: Sequence) -> Fraction:
    a = [as_rational(v) for v in p]
    b = [as_rational(v) for v in q]
    if len(a) != len(b):
        raise DimensionMismatch(f"points of dimension {len(a)} and {len(b)}")
    return max(abs(x - y) for x, y in zip(a, b))


@dataclass(frozen=True)
class BoxIntersection:
    """Result of intersecting a family: the box (or None) and its witness.

    The witness is the lower corner of the intersection — deterministic and
    canonical.  When empty, ``first_empty_coordinate`` names a coordinate
    whose intervals cross.
    """

    box: Box | None
    witness: tuple[Fraction, ...] | None
    first_empty_coordinate: int | None


def box_intersection(boxes: Sequence[Box]) -> BoxIntersection:
    """Coordinatewise [max of lows, min of highs] over a nonempty family."""
    if not boxes:
        raise ValueError("at least one box is required")
    dim = boxes[0].dimension
    if any(b.dimension != dim for b in boxes):
        raise DimensionMismatch("all boxes must share a dimension")
    intervals = []
    for k in range(dim):
        lo = max(b.intervals[k][0] for b in boxes)
        hi = min(b.intervals[k][1] for b in boxes)
        if lo > hi:
            return BoxIntersection(None, None, k)
        intervals.append((lo, hi))
    box = Box(intervals)
    return BoxIntersection(box, box.lower_corner, None)


@dataclass(frozen=True)
class C0Report:
    """Outcome of the truncated null-sequence demonstration.

    ``conclusion`` is ``"unique-linf-witness"`` exactly when the family
    meets in a single point; ``"none"`` otherwise (empty intersection, or a
    perturbed radius that leaves slack).  ``witness_tail_value`` is the
    smallest witness coordinate — the quantity that refuses to decay.
    """

    N: int
    pairwise_distance: Fraction
    pairwise_feasible: bool
    witness: tuple[Fraction, ...] | None
    witness_tail_value: Fraction | None
    conclusion: str
    intersection: Box | None


def c0_counterexample(N: int, radius=Fraction(1, 2)) -> C0Report:
    """Intersect the balls ``B(e_n, radius)``, n = 1..N, in dimension N.

    At the critical radius 1/2 the intersection is the single point with
    every coordinate 1/2.  All basis pairs are at distance 1.  The report
    is built in closed form, in O(N): for N >= 2 every coordinate k meets
    the interval [1 - r, 1 + r] of ``B(e_k, r)`` and [-r, r] of every other
    ball, so the intersection is [1 - r, r] on each coordinate, empty when
    r < 1/2.  N above :data:`C0_MAX_DIMENSION` raises :class:`TooLarge`.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    if N > C0_MAX_DIMENSION:
        raise TooLarge(f"the null-sequence demo is limited to N <= {C0_MAX_DIMENSION}")
    radius = as_rational(radius)
    if radius <= 0:
        raise ValueError("radius must be positive")
    pairwise = Fraction(1)
    lo = 1 - radius
    box = Box([(lo, radius)] * N) if lo <= radius else None
    return C0Report(
        N=N,
        pairwise_distance=pairwise,
        pairwise_feasible=pairwise <= radius + radius,
        witness=box.lower_corner if box is not None else None,
        witness_tail_value=lo if box is not None else None,
        conclusion="unique-linf-witness" if lo == radius else "none",
        intersection=box,
    )
