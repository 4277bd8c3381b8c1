"""Extremal (Katetov) functions and the tight span of a finite metric space.

A function ``f >= 0`` on a metric space is *admissible* when
``d(x,y) <= f(x) + f(y)`` for all pairs, and *extremal* when it is also
pointwise minimal among admissible functions.  The extremal functions,
carrying the sup-metric ``rho(f,g) = max |f - g|``, form the tight span
(injective hull) of the space; the map ``a -> f_a = d(a, .)`` embeds the
space isometrically into it.  At finite scale the interesting skeleton is
the vertex set of the admissibility polyhedron
``{f >= 0 : f(x) + f(y) >= d(x,y)}``, which this module enumerates exactly.

The vertices with a zero coordinate are the Kuratowski functions; the others
come from the sets of n tight pair constraints ``f(x) + f(y) = d(x,y)`` whose
graph is odd unicyclic in every component, each solved by integer
propagation on the scale ``2 * space.scale``; no float is used.

Extremality is decided by single-coordinate pinning: ``f`` admissible is
extremal iff every coordinate is either 0 or tight in some pair constraint.
Lowering one free coordinate keeps all other constraints intact, and any
``g <= f`` that differs somewhere must break the first pinned pair it
undercuts, so pinning and pointwise minimality coincide (the test suite
keeps this honest against a brute-force oracle).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, lcm
from typing import Sequence

from .errors import (
    DegeneratePath,
    NotAdmissible,
    NotAdmissibleOnSubset,
    SpaceMismatch,
    TooLarge,
)
from .metric import (
    FiniteMetricSpace,
    common_scale,
    katetov_failure,
    katetov_row,
    point_index,
    square_rows,
    symmetric_row,
)
from .rational import as_rational

TIGHT_SPAN_MAX_POINTS = 7


@dataclass(frozen=True)
class KatetovFunction:
    """A nonnegative rational function on the points of a space.

    ``f(x) == Fraction(ints[x], scale)``, with ``scale`` the lcm of
    ``space.scale`` and the values' denominators; so two functions are
    equal, and hash equal, iff their spaces and values are.
    """

    space: FiniteMetricSpace
    ints: tuple[int, ...]
    scale: int

    def __init__(self, space: FiniteMetricSpace, values: Sequence):
        values = tuple(as_rational(v) for v in values)
        if len(values) != space.n:
            raise ValueError(f"{len(values)} values for a {space.n}-point space")
        if any(v < 0 for v in values):
            raise ValueError("values must be nonnegative")
        scale = lcm(space.scale, *(v.denominator for v in values))
        self._set(space, [v.numerator * (scale // v.denominator) for v in values], scale)

    def _set(self, space: FiniteMetricSpace, ints: Sequence[int], scale: int) -> None:
        # ints / scale, over a multiple of space.scale, put on the canonical scale.
        t = gcd(scale // space.scale, *ints)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "ints", tuple([v // t for v in ints] if t > 1 else ints))
        object.__setattr__(self, "scale", scale // t)

    @classmethod
    def _trusted(cls, space: FiniteMetricSpace, ints: Sequence[int], scale: int) -> KatetovFunction:
        """The function ``ints / scale`` that the library computed: one
        nonnegative value per point, over a multiple of ``space.scale``.
        Not validated."""
        f = object.__new__(cls)
        f._set(space, ints, scale)
        return f

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        """The values as Fractions.  Not a field."""
        return tuple(Fraction(v, self.scale) for v in self.ints)

    def _rows(self) -> dict[int, list[int]]:
        """Every row ``d(x, .)`` of the space over ``scale``, the kernels' input."""
        return square_rows(self.space.lower, self.space.points(), self.scale // self.space.scale)


def is_admissible_function(f: KatetovFunction) -> tuple[bool, tuple[int, int] | None]:
    """True iff d(x,y) <= f(x) + f(y) everywhere; else the first bad pair."""
    failure = katetov_failure(f._rows(), f.space.points(), f.ints, two_sided=False)
    return (True, None) if failure is None else (False, failure[0])


def is_extremal(f: KatetovFunction) -> bool:
    """Admissible and pointwise minimal (single-coordinate pinning test)."""
    d, values = f._rows(), f.ints
    if katetov_failure(d, f.space.points(), values, two_sided=False) is not None:
        return False
    n = f.space.n
    for x in range(n):
        if values[x] == 0:
            continue
        if not any(values[x] + values[y] == d[x][y] for y in range(n) if y != x):
            return False
    return True


def extremal_below(g: KatetovFunction) -> KatetovFunction:
    """An extremal function below ``g``, by one sweep of coordinate descent.

    The sweep replaces each f(x) in turn with max(0, max_y (d(x,y) - f(y))),
    the least value admissible against the current others.  Values never
    increase and admissibility is kept.  One sweep suffices: the new f(x)
    is 0 or tight with some z, and a later step can lower z only to
    d(z,x) - f(x) = f(z), so z keeps its value and x stays pinned.  After
    the sweep every coordinate is pinned, which is extremality, and a
    further sweep would change nothing; extremal inputs are returned
    unchanged.
    """
    d, values = g._rows(), list(g.ints)
    failure = katetov_failure(d, g.space.points(), values, two_sided=False)
    if failure is not None:
        raise NotAdmissible(failure[0])
    n = g.space.n
    for x in range(n):
        values[x] = max(0, max((d[x][y] - values[y] for y in range(n) if y != x), default=0))
    return KatetovFunction._trusted(g.space, values, g.scale)


def kuratowski(space: FiniteMetricSpace, a: int) -> KatetovFunction:
    """The distance function ``f_a = d(a, .)``; always extremal.  Raises
    :class:`ValueError` when ``a`` is not a point of ``space``."""
    a = point_index(a)
    if not 0 <= a < space.n:
        raise ValueError(f"point index {a} out of range")
    return KatetovFunction._trusted(space, symmetric_row(space.lower, a), space.scale)


def sup_distance(f: KatetovFunction, g: KatetovFunction) -> Fraction:
    """Sup-metric ``max_x |f(x) - g(x)|`` between functions on one space."""
    if f.space != g.space:
        raise SpaceMismatch("functions live on different spaces")
    return max(abs(a - b) for a, b in zip(f.values, g.values))


def extend_radius_function(
    space: FiniteMetricSpace, subset: Sequence[int], r: Sequence
) -> KatetovFunction:
    """Extend admissible radius data from a subset to the whole space.

    Off the subset the extension is ``R(z) = min_a (r(a) + d(z, a))``; the
    result satisfies d(x,y) <= R(x) + R(y) everywhere and restricts to ``r``.
    """
    subset = tuple(point_index(a) for a in subset)
    r = tuple(as_rational(v) for v in r)
    if len(subset) != len(r):
        raise ValueError(f"{len(subset)} subset points but {len(r)} radii")
    if not subset:
        raise ValueError("subset must be nonempty")
    if len(set(subset)) != len(subset):
        raise ValueError("subset indices must be distinct")
    if any(not 0 <= a < space.n for a in subset):
        raise ValueError("subset index out of range")
    if any(v <= 0 for v in r):
        raise ValueError("radii must be positive")
    d, radii, scale = common_scale(space.lower, space.scale, subset, r)
    failure = katetov_failure(d, subset, radii, two_sided=False)
    if failure is not None:
        raise NotAdmissibleOnSubset(failure[0])
    return KatetovFunction._trusted(space, katetov_row(d, subset, radii), scale)


# ---------------------------------------------------------------------------
# Vertex enumeration of the admissibility polyhedron
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TightSpanVertexSet:
    """All polyhedron vertices, each admissible and extremal, sorted
    lexicographically by values and duplicate-free."""

    space: FiniteMetricSpace
    vertices: tuple[KatetovFunction, ...]


def check_vertex_limit(n: int) -> None:
    """Raise :class:`TooLarge` when an n-point space is over the limit of
    :func:`tight_span_vertices`."""
    if n > TIGHT_SPAN_MAX_POINTS:
        raise TooLarge(f"vertex enumeration is limited to {TIGHT_SPAN_MAX_POINTS} points")


def tight_span_vertices(space: FiniteMetricSpace) -> TightSpanVertexSet:
    """Enumerate the vertices of {f >= 0 : f(x) + f(y) >= d(x,y)} exactly.

    A vertex is the unique solution of n tight constraints, each a loop
    ``f_i = 0`` or an edge ``f_i + f_j = d_ij``.  Such a set has a unique
    solution iff every connected component of its graph has exactly one
    cycle and that cycle is odd (a loop counts as odd): the signless
    incidence matrix of an odd unicyclic component has determinant +-2, and
    every other structure is singular.  The vertices with a zero coordinate
    are the Kuratowski functions ``f_a`` (``f(a) = 0`` gives ``f >= f_a``),
    taken as they are; a depth-first search over the pair constraints finds
    the others, skipping any that would close an even cycle or give a
    component a second cycle.  Point t holds ``x_t = sign_t * x + off_t``,
    x the value at its component's root.  The search prunes a branch by two
    necessary conditions, so the vertex set is that of the unpruned search:

    - closing an odd cycle anchors its component; the branch is dropped if
      a newly anchored point is below 1 or inadmissible against an
      anchored point (pairs of earlier anchored points were checked when
      those were anchored);
    - merging two free components bounds ``2 * x`` of the merged one from
      below and above, by ``x_t >= 1`` and every pair constraint inside the
      component or against an anchored point; the branch is dropped when
      the bounds cross, since every leaf below it would meet them all.

    Both conditions are checked against bounds the search keeps, not
    re-derived: each free component keeps its members and the interval
    for ``2 * x`` that ``x_t >= 1``, its same-sign pairs and the anchored
    points set.  An anchoring checks its root value against that interval;
    a merge maps the moved component's interval onto the kept root's and
    adds only the pairs across the two; pushing an anchoring narrows every
    free component's interval by the newly anchored points.

    All arithmetic is in Python ints on the scale ``W = 2 * D * d``, D the
    space's common denominator ``space.scale``: every coordinate is half an
    alternating sum of distances, so ``2 * D * f`` is an integer, at least 1
    where positive.  Each vertex keeps these integers, reduced to its
    canonical scale and not re-checked, and becomes Fractions only when its
    ``values`` are read; no float is used.  Every vertex is extremal,
    because the tight span is the union of the bounded faces of this
    polyhedron (Dress 1984).  Enforced limit: n <= 7; larger spaces are
    rejected, never approximated.
    """
    check_vertex_limit(space.n)
    found, _ = _vertex_search(square_rows(space.lower, space.points(), 2))
    scale = 2 * space.scale
    vertices = tuple(KatetovFunction._trusted(space, v, scale) for v in sorted(found))
    return TightSpanVertexSet(space, vertices)


def _vertex_search(w: dict[int, list[int]]) -> tuple[set[tuple[int, ...]], int]:
    """The vertices of :func:`tight_span_vertices` on the even integer
    matrix ``w`` (its rows by point), and the number of constraint sets the search visits.

    The search keeps an explicit stack, not a recursive closure: a closure
    that refers to itself is a reference cycle, which outlives the call
    until the cycle collector runs.  A child's lists are copied only when
    it is pushed, and a list it does not change is shared with its parent.
    """
    n = len(w)
    points = range(n)
    # (u, v, b) is x_u + x_v = b; the rows of w are the Kuratowski vertices.
    constraints = [(i, j, w[i][j]) for i, j in combinations(points, 2)]
    found = {tuple(w[t]) for t in points}
    visited = 0
    # Each entry is (next constraint, constraints taken, root, sign, off,
    # members, interval).  Point t holds x_t = sign[t] * x + off[t], x the
    # value at its component's root; sign[t] == 0 marks an anchored point,
    # where x_t == off[t].  A free component's root r has sign 1 and keeps
    # its members[r] and interval[r] = (lo, hi), the bounds lo <= 2x <= hi
    # that x_t >= 1, every same-sign pair inside it and every anchored point
    # set (hi is None without a point of sign -1).  Its opposite-sign pairs
    # do not involve x and were checked at the merges that built it.
    stack = [(0, 0, list(points), [1] * n, [0] * n, [(t,) for t in points], [(2, None)] * n)]
    while stack:
        start, depth, root, sign, off, members, interval = stack.pop()
        visited += 1
        for k in range(start, len(constraints) - n + depth + 1):
            u, v, b = constraints[k]
            rest = b - off[u] - off[v]
            if root[u] == root[v]:
                if sign[u] == 0 or sign[u] != sign[v]:
                    continue  # a second cycle, or an even one
                # Exact: a free component's offsets are sums of the even W entries.
                factor, shift = 0, sign[u] * rest // 2
            else:
                if sign[v] == 0:
                    u, v = v, u
                if sign[v] == 0:
                    continue  # two anchored components
                factor, shift = -sign[u] * sign[v], sign[v] * rest
            # v's component M joins u's, K: M's root value becomes
            # factor * x + shift, x the value at K's root.
            group, keep = root[v], root[u]
            moved = members[group]
            lo, hi = interval[group]
            if factor == 0:
                # M is anchored at x = shift.
                if 2 * shift < lo or hi is not None and 2 * shift > hi:
                    continue
                off2 = off[:]
                for t in moved:
                    off2[t] += sign[t] * shift
                if depth + 1 == n:
                    # A leaf, counted here and not pushed.  Each constraint
                    # taken leaves one free component fewer (a merge joins
                    # two, an anchoring fixes one), so the n-th anchors the
                    # last, and off2 is a vertex.
                    visited += 1
                    found.add(tuple(off2))
                    continue
                sign2 = sign[:]
                for t in moved:
                    sign2[t] = 0
                # x_t >= w_ta - x_a for each newly anchored a, and w is
                # symmetric: row a holds each w_ta.
                rows = [[wa - off2[a] for wa in w[a]] for a in moved]
                least = rows[0] if len(rows) == 1 else list(map(max, *rows))
                interval2 = interval[:]
                for t in points:
                    if sign2[t]:
                        # s * 2x >= c, from x_t = s * x + off_t >= least[t].
                        r, c = root[t], 2 * (least[t] - off[t])
                        rlo, rhi = interval2[r]
                        if sign[t] > 0:
                            if c > rlo:
                                interval2[r] = (c, rhi)
                        elif rhi is None or -c < rhi:
                            interval2[r] = (rlo, -c)
                stack.append((k + 1, depth + 1, root, sign2, off2, members, interval2))
                continue
            # M's interval through 2x_M = factor * 2x + 2 * shift, and K's.
            if factor > 0:
                lo, hi = lo - 2 * shift, None if hi is None else hi - 2 * shift
            else:
                lo, hi = None if hi is None else 2 * shift - hi, 2 * shift - lo
            klo, khi = interval[keep]
            if lo is None or klo > lo:
                lo = klo
            if hi is None or khi is not None and khi < hi:
                hi = khi
            if hi is not None and lo > hi:
                continue
            kept = members[keep]
            shifted = [(t, sign[t] * factor, off[t] + sign[t] * shift) for t in moved]
            # A pair of K x M of one sign s reads s * 2x >= c; one of
            # opposite signs holds for every x, or for none.
            fits = True
            for t in kept:
                s, x, row = sign[t], off[t], w[t]
                for t2, s2, x2 in shifted:
                    c = row[t2] - x - x2
                    if s != s2:
                        if c > 0:
                            fits = False
                            break
                    elif s > 0:
                        if c > lo:
                            lo = c
                    elif hi is None or -c < hi:
                        hi = -c
                if not fits:
                    break
            if not fits or hi is not None and lo > hi:
                continue
            root2, sign2, off2 = root[:], sign[:], off[:]
            for t, s, x in shifted:
                root2[t], sign2[t], off2[t] = keep, s, x
            members2, interval2 = members[:], interval[:]
            members2[keep] = kept + moved
            interval2[keep] = (lo, hi)
            stack.append((k + 1, depth + 1, root2, sign2, off2, members2, interval2))
    return found, visited


def tripod_center(space: FiniteMetricSpace) -> KatetovFunction:
    """Closed-form Steiner point of a 3-point space: leg lengths
    ((d_ab + d_ac - d_bc)/2, ...)."""
    if space.n != 3:
        raise ValueError("tripod center is defined for 3-point spaces")
    (ab,), (ac, bc) = space.lower[1:]
    legs = [ab + ac - bc, ab + bc - ac, ac + bc - ab]
    return KatetovFunction._trusted(space, legs, 2 * space.scale)


# ---------------------------------------------------------------------------
# Max-norm polyline verification (two-point hull candidates in the plane)
# ---------------------------------------------------------------------------

Point2 = tuple[Fraction, Fraction]


def chebyshev(p: Point2, q: Point2) -> Fraction:
    return max(abs(p[0] - q[0]), abs(p[1] - q[1]))


@dataclass(frozen=True)
class PathHullCandidate:
    """A polyline in the max-norm plane proposed as a hull of a 2-point set.

    ``breakpoints`` trace the polyline; its first and last points are the
    designated endpoints standing in for the embedded copy of ``a_points``.
    """

    breakpoints: tuple[Point2, ...]
    a_points: tuple[Point2, Point2]

    def __init__(self, breakpoints: Sequence, a_points: Sequence):
        bps = tuple((as_rational(x), as_rational(y)) for x, y in breakpoints)
        a = tuple((as_rational(x), as_rational(y)) for x, y in a_points)
        if len(a) != 2:
            raise ValueError("exactly two reference points are required")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "a_points", (a[0], a[1]))


@dataclass(frozen=True)
class IsometryViolation:
    param_a: Fraction
    param_b: Fraction
    expected: Fraction
    actual: Fraction


@dataclass(frozen=True)
class HullCheckReport:
    ok: bool
    endpoint_ok: bool
    endpoint_distance: Fraction
    reference_distance: Fraction
    isometry_ok: bool
    first_violation: IsometryViolation | None
    sample_count: int


def verify_hull_candidate(candidate: PathHullCandidate, step) -> HullCheckReport:
    """Verify exactly that an arclength-sampled polyline is a segment.

    Checks (i) that the polyline endpoints realize the max-norm distance of
    the reference pair and (ii) that max-norm distances between sampled
    points equal their arclength parameter differences.  ``step`` must be a
    rational of the form 1/k.  By the triangle inequality, (ii) holds iff
    the endpoints lie ``total`` apart (Burago-Burago-Ivanov, *A Course in
    Metric Geometry*); otherwise the pair (0, total) fails, and the first
    violation is the first sample ``t`` with ``d(start, sample) != t``.

    That sample has a closed form.  Each piece has max-norm speed 1, so
    ``d(start, p(t)) <= t``, and once below ``t`` it stays below.  Along a
    piece the distance is convex, so equality holds on all of it or only at
    its start: it continues iff some coordinate of the offset from the
    start has absolute value ``t`` and moves away from the start at full
    speed, which the first piece always does.  So equality holds exactly
    on ``[0, c]`` for a breakpoint parameter ``c``, found in one walk over
    the pieces, and the first failing sample is at
    ``min((c // step + 1) * step, total)``.
    """
    step = as_rational(step)
    if step <= 0 or (1 / step).denominator != 1:
        raise ValueError(f"step must be 1/k for a positive integer k, got {step}")
    bps = candidate.breakpoints
    if len(bps) < 2:
        raise DegeneratePath("a polyline needs at least two breakpoints")
    if any(bps[s] == bps[s + 1] for s in range(len(bps) - 1)):
        raise DegeneratePath("consecutive breakpoints must be distinct")

    lengths = [chebyshev(bps[s], bps[s + 1]) for s in range(len(bps) - 1)]
    total = sum(lengths, Fraction(0))
    steps = total / step
    sample_count = int(steps) + 1 + (steps.denominator != 1)

    endpoint_distance = chebyshev(bps[0], bps[-1])
    isometry_ok = endpoint_distance == total
    first_violation = None
    if not isometry_ok:
        start = bps[0]
        c, s = lengths[0], 1
        # Equality continues along piece s, which starts at parameter c: an
        # offset of absolute value c whose coordinate moves by +-lengths[s]
        # away from the start.  The endpoints lie less than total apart, so
        # equality stops at some piece.
        while any(abs(bps[s][i] - start[i]) == c
                  and (bps[s][i] - start[i]) * (bps[s + 1][i] - bps[s][i]) == c * lengths[s]
                  for i in (0, 1)):
            c += lengths[s]
            s += 1
        t = min((c // step + 1) * step, total)
        # Walk on to the piece that holds t.
        while c + lengths[s] < t:
            c += lengths[s]
            s += 1
        (ax, ay), (bx, by) = bps[s], bps[s + 1]
        frac = (t - c) / lengths[s]
        actual = chebyshev(start, (ax + frac * (bx - ax), ay + frac * (by - ay)))
        first_violation = IsometryViolation(Fraction(0), t, t, actual)

    reference_distance = chebyshev(*candidate.a_points)
    endpoint_ok = endpoint_distance == reference_distance
    return HullCheckReport(
        ok=endpoint_ok and isometry_ok,
        endpoint_ok=endpoint_ok,
        endpoint_distance=endpoint_distance,
        reference_distance=reference_distance,
        isometry_ok=isometry_ok,
        first_violation=first_violation,
        sample_count=sample_count,
    )
