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
are grown from odd cycles of tight pair constraints ``f(x) + f(y) = d(x,y)``,
each further point taking the one value admissibility forces, in integers
on the scale ``2 * space.scale``; no float is used.

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
from functools import cache, cached_property
from itertools import combinations, permutations
from math import gcd, lcm
from operator import itemgetter, sub
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
        if any(v.numerator < 0 for v in values):
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
    # The diagonal adds -f(x) <= 0 to each maximum, which changes nothing.
    for x in g.space.points():
        values[x] = max(0, *map(sub, d[x], values))
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
    if any(v.numerator <= 0 for v in r):
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

    A vertex with ``f(a) = 0`` lies above the Kuratowski function ``f_a``,
    and both are extremal, so it is ``f_a``; these n are taken as they are.
    Every other vertex is the unique solution of n tight pair constraints
    ``f_i + f_j = d_ij``, and a set of them has one exactly when every
    component of its graph is one odd cycle with trees attached.  The search
    grows such vertices point by point:

    - an odd cycle fixes its own values: ``f(c0)`` is half the alternating
      sum of its edges, and each next value is the edge minus the last;
    - a point t joined by a tree edge to a set point takes the value
      admissibility forces, ``max_a (d_ta - f(a))`` over the set points;
    - a further component starts with an odd cycle among the unset points.

    A branch is kept while every value is positive and every pair of set
    points admissible; every complete state is then a vertex, every vertex
    is reached by growing along its constraints, and a state reached twice
    is grown once.

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


@cache
def _odd_cycles(n: int) -> tuple[tuple, ...]:
    """Every odd cycle on 3 to n of the points ``range(n)``, once: from its
    least point, in the direction whose second point is below its last; with
    its mask, an ``itemgetter`` of its edges then its chords on the n·n
    matrix flattened by rows, and its chords (non-adjacent position pairs)."""
    table = []
    for k in range(3, n + 1, 2):
        chords = [(i, j) for i in range(k) for j in range(i + 2, k - (i == 0))]
        pairs = [(i, (i + 1) % k) for i in range(k)] + chords
        for first, *rest in combinations(range(n), k):
            mask = sum(1 << a for a in (first, *rest))
            for order in permutations(rest):
                if order[0] < order[-1]:
                    c = (first, *order)
                    table.append((c, mask, itemgetter(*[c[i] * n + c[j] for i, j in pairs]), chords))
    return tuple(table)


def _vertex_search(w: dict[int, list[int]]) -> tuple[set[tuple[int, ...]], int]:
    """The vertices of :func:`tight_span_vertices` on the even integer
    matrix ``w`` (its rows by point), and the number of states the growth
    keeps.

    A cycle's values are checked on its chords only (:func:`_odd_cycles`),
    as each adjacent pair is tight by construction.  A state is its values
    by point, 0 where a point is unset, with the set points' mask and
    ``need[t]``, the larger of 0 and ``max_a (w_ta - f(a))`` over the set
    points a: the least value admissible at t.  The search keeps an explicit
    stack, not a recursive closure: a closure that refers to itself is a
    reference cycle, which outlives the call until the cycle collector runs.
    """
    n = len(w)
    points = range(n)
    found = {tuple(w[t]) for t in points}
    flat = [v for t in points for v in w[t]]
    # Each odd cycle whose values are at least 1 and admissible among
    # themselves, as (mask, (point, value) pairs, the need they set).
    starts = []
    for cycle, cycle_mask, weights, chords in _odd_cycles(n):
        k, got = len(cycle), weights(flat)
        edges = got[:k]
        x = (sum(edges[::2]) - sum(edges[1::2])) // 2
        values = []
        for e in edges:
            values.append(x)
            x = e - x
        if min(values) < 1 or any(values[i] + values[j] < d for (i, j), d in zip(chords, got[k:])):
            continue
        pairs = tuple(zip(cycle, values))
        need = list(map(max, *([wa - x for wa in w[a]] for a, x in pairs)))
        starts.append((cycle_mask, pairs, need))
    full = (1 << n) - 1
    seen = set()
    # From the empty state, whose need of 0 grows no point, only a cycle starts.
    stack = [(0, [0] * n, [0] * n)]
    while stack:
        mask, values, need = stack.pop()
        if mask == full:
            found.add(tuple(values))
            continue
        for t in points:
            x = need[t]
            if x >= 1 and not mask >> t & 1:
                child = values[:]
                child[t] = x
                key = tuple(child)
                if key not in seen:
                    seen.add(key)
                    grown = list(map(max, need, [wt - x for wt in w[t]]))
                    stack.append((mask | 1 << t, child, grown))
        if n - mask.bit_count() < 3:
            continue
        for cycle_mask, pairs, cycle_need in starts:
            if cycle_mask & mask or any(need[a] > x for a, x in pairs):
                continue
            child = values[:]
            for a, x in pairs:
                child[a] = x
            key = tuple(child)
            if key not in seen:
                seen.add(key)
                stack.append((mask | cycle_mask, child, list(map(max, need, cycle_need))))
    return found, len(seen)


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
