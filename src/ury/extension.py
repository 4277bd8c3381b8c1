"""One-point metric extensions and finite ball intersection witnesses.

Given points ``x_1..x_k`` of a finite metric space and positive radii
``a_1..a_k`` satisfying the two-sided condition

    |a_i - a_j| <= d(x_i, x_j) <= a_i + a_j,

a new point ``y`` with ``d(y, x_i) = a_i`` always exists; distances from
``y`` to points off the support use the largest 1-Lipschitz-consistent
choice ``d(y, z) = min_i (a_i + d(x_i, z))``.  On top of that, a family of
closed balls whose centers are pairwise within radius-sum reach admits a
common point, found by first discarding every ball that strictly contains
another (such balls are redundant) and then placing ``y`` on the spheres of
all the survivors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import NamedTuple, Sequence

from .errors import (
    EmptyFamily,
    EmptySupport,
    Inadmissible,
    PairwiseInfeasible,
)
from .metric import (
    FiniteMetricSpace,
    common_scale,
    katetov_failure,
    katetov_row,
    point_index,
)
from .rational import as_rational


@dataclass(frozen=True)
class ExtensionRequest:
    """A base space, distinct support indices, and matching positive radii."""

    base: FiniteMetricSpace
    support: tuple[int, ...]
    radii: tuple[Fraction, ...]

    def __init__(self, base: FiniteMetricSpace, support: Sequence[int], radii: Sequence):
        support = tuple(point_index(x) for x in support)
        radii = tuple(as_rational(r) for r in radii)
        if not support:
            raise EmptySupport("extension support must be nonempty")
        if len(support) != len(radii):
            raise ValueError(f"{len(support)} support points but {len(radii)} radii")
        if len(set(support)) != len(support):
            raise ValueError("support indices must be distinct")
        if any(not 0 <= x < base.n for x in support):
            raise ValueError("support index out of range")
        if any(r.numerator <= 0 for r in radii):
            raise ValueError("radii must be positive")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "radii", radii)


@dataclass(frozen=True)
class AdmissibilityResult:
    """Outcome of the two-sided radii check.

    When ``ok`` is false, ``pair`` gives the first failing pair of support
    positions (0-based, lexicographic) and ``side`` says which inequality
    broke: ``"lower"`` for |a_i - a_j| > d, ``"upper"`` for d > a_i + a_j.
    """

    ok: bool
    pair: tuple[int, int] | None = None
    side: str | None = None


def admissible(req: ExtensionRequest) -> AdmissibilityResult:
    """Check |a_i - a_j| <= d(x_i, x_j) <= a_i + a_j on every support pair."""
    base = req.base
    d, radii, _ = common_scale(base.lower, base.scale, req.support, req.radii)
    failure = katetov_failure(d, req.support, radii, two_sided=True)
    if failure is None:
        return AdmissibilityResult(True)
    return AdmissibilityResult(False, *failure)


def _extend(base, d, support, radii, scale: int, canonical: int) -> FiniteMetricSpace:
    """``base`` and, last, the point at ``radii`` from ``support`` (rows ``d``
    and radii in ints over ``scale``), on its ``canonical`` scale, which
    divides ``scale``; or :class:`Inadmissible`.  The base rows are reused
    as they are unless ``canonical`` is not the base's scale."""
    failure = katetov_failure(d, support, radii, two_sided=True)
    if failure is not None:
        raise Inadmissible(*failure)
    new, t = katetov_row(d, support, radii), scale // canonical
    if t > 1:
        new = [v // t for v in new]
    k = canonical // base.scale
    lower = base.lower if k == 1 else tuple(tuple([v * k for v in row]) for row in base.lower)
    return FiniteMetricSpace._trusted(lower + (tuple(new),), canonical)


def extend_one_point(req: ExtensionRequest) -> FiniteMetricSpace:
    """Adjoin a point at exactly the requested distances from the support.

    Raises :class:`Inadmissible` when the radii fail the two-sided check.
    Admissible radii always give a metric (Katetov), so the result is not
    re-validated: the cost is O(n·k) for k support points, and O(n^2) only
    when the radii change the scale, not the O(n^3) triangle scan.  The
    result's scale is the lcm of the base's and the radii's denominators,
    which is canonical, since every radius is an entry of the new row.
    """
    base = req.base
    d, radii, scale = common_scale(base.lower, base.scale, req.support, req.radii)
    return _extend(base, d, req.support, radii, scale, scale)


class Ball(NamedTuple):
    center: int
    radius: Fraction


@dataclass(frozen=True)
class BallFamily:
    """Closed balls ``B(x_i, r_i)`` over one base space.

    Pairwise feasibility (d <= r_i + r_j) is *not* an invariant here; the
    operations check it and report the witness pair.
    """

    base: FiniteMetricSpace
    balls: tuple[Ball, ...]

    def __init__(self, base: FiniteMetricSpace, balls: Sequence):
        normalized = tuple(Ball(point_index(c), as_rational(r)) for c, r in balls)
        if not normalized:
            raise EmptyFamily("a ball family must contain at least one ball")
        if any(not 0 <= b.center < base.n for b in normalized):
            raise ValueError("ball center out of range")
        if any(b.radius.numerator <= 0 for b in normalized):
            raise ValueError("ball radii must be positive")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "balls", normalized)


class RemovalRecord(NamedTuple):
    """Ball ``removed`` contains ball ``dominating``: lhs = r_removed is
    strictly greater than rhs = d(centers) + r_dominating."""

    removed: int
    dominating: int
    lhs: Fraction
    rhs: Fraction


@dataclass(frozen=True)
class ReductionTrace:
    survivors: tuple[int, ...]
    removals: tuple[RemovalRecord, ...]


def reduce_ball_family(family: BallFamily) -> ReductionTrace:
    """Discard containing balls until the two-sided condition holds pairwise.

    Ball ``j`` lies strictly inside ball ``i`` when ``r_i > d(x_i, x_j) +
    r_j``; then ``i`` is redundant.  This is a strict partial order
    (transitive by the triangle inequality), so the rescan that removes the
    lowest-index ball with a surviving ball inside it, which makes the trace
    deterministic, removes exactly the non-minimal balls in index order,
    each dominated by the lowest-index ball inside it not removed before it.
    That trace is computed here in O(k^2) for k balls, not O(k^3).
    """
    return _reduce_balls(family)[0]


def _reduce_balls(family: BallFamily) -> tuple:
    """``(trace, d, r, scale)``: the trace of :func:`reduce_ball_family`, the
    rows ``d`` at the centers and the radii ``r`` in ints over ``scale``."""
    centers, radii = zip(*family.balls)
    d, r, scale = common_scale(family.base.lower, family.base.scale, centers, radii)
    failure = katetov_failure(d, centers, r, two_sided=False)
    if failure is not None:
        (i, j), _ = failure
        lhs = family.base.distance(centers[i], centers[j])
        raise PairwiseInfeasible((i, j), lhs, radii[i] + radii[j])
    # first[i]: the lowest j with ball j inside ball i, or None.  A ball of
    # the least radius has none inside it: r_i > d(x_i, x_j) + r_j >= r_j.
    balls, low = list(zip(centers, r)), min(r)
    first: list[int | None] = []
    for c, r_i in balls:
        row, j = d[c], None
        if r_i > low:
            for j, (x, r_j) in enumerate(balls):
                if r_i > row[x] + r_j:
                    break
            else:
                j = None
        first.append(j)
    survivors, removals = [], []
    for i, j in enumerate(first):
        if j is None:
            survivors.append(i)
            continue
        # Pass the balls inside i removed before it; a minimal one follows.
        row, r_i = d[centers[i]], r[i]
        while j < i and first[j] is not None:
            j += 1
            while not r_i > row[centers[j]] + r[j]:
                j += 1
        removals.append(RemovalRecord(i, j, radii[i], Fraction(row[centers[j]] + r[j], scale)))
    return ReductionTrace(tuple(survivors), tuple(removals)), d, r, scale


class CertificateEntry(NamedTuple):
    """Exact distance from the witness to one input ball's center."""

    ball: int
    center: int
    radius: Fraction
    distance: Fraction
    on_sphere: bool


@dataclass(frozen=True)
class WitnessResult:
    """A common point of the family, realized in a one-point extension.

    ``space`` is the base enlarged by the witness (index ``witness``); the
    certificate records, exactly, ``distance == radius`` for every surviving
    ball (sphere membership) and ``distance <= radius`` for removed ones.
    """

    space: FiniteMetricSpace
    witness: int
    trace: ReductionTrace
    certificate: tuple[CertificateEntry, ...]


def ball_intersection_witness(family: BallFamily) -> WitnessResult:
    """Produce a point lying on the sphere of every non-redundant ball.

    Reduces the family, then extends the base by one point whose distances
    to the surviving centers equal their radii exactly, in one integer pass
    on the reduction's rows and scale; the two-sided check stays as a guard
    that survivors always pass.  The certificate is read from the new row.
    It holds by construction: ``katetov_row`` pins each survivor's center to
    its radius, and each removed ball contains the ball that removed it,
    which is removed in turn or survives, so it contains a survivor's ball
    and the witness.
    """
    trace, d, r, scale = _reduce_balls(family)
    base, balls = family.base, family.balls
    # Surviving duplicates share center and radius (differing radii at one
    # center cannot both survive), so collapse them for the support.
    at = {balls[i].center: i for i in trace.survivors}
    canonical = lcm(base.scale, *(balls[i].radius.denominator for i in at.values()))
    ext = _extend(base, d, list(at), [r[i] for i in at.values()], scale, canonical)
    row, survivors = ext.lower[-1], set(trace.survivors)
    certificate = tuple(
        CertificateEntry(k, b.center, b.radius, Fraction(row[b.center], canonical), k in survivors)
        for k, b in enumerate(balls)
    )
    return WitnessResult(ext, base.n, trace, certificate)
