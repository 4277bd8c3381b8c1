"""Shared random generators and deliberately naive oracles.

The oracles here re-derive expected answers by the dumbest route available
(plain loops, closed forms, full enumeration) so they stay independent of
the library code paths they check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from math import lcm
from types import SimpleNamespace

from ury import FiniteMetricSpace, ParseError, Violation, as_rational
from ury.construct import ALL_PRIOR, DEFAULT_MODE, ConstructionMode, PrefixState, StepRecord
from ury.tightspan import KatetovFunction

DENOMINATORS = (1, 2, 3, 4, 5, 6, 8, 12, 16)


def rand_rational(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    """A rational in [lo, hi] with a small denominator."""
    den = rng.choice(DENOMINATORS)
    lo_num = int(lo * den) + (0 if lo * den == int(lo * den) else 1)
    hi_num = int(hi * den)
    if hi_num < lo_num:
        return Fraction(lo)
    return Fraction(rng.randint(lo_num, hi_num), den)


def random_metric_space(
    rng: random.Random, n: int, closure: bool | None = None
) -> FiniteMetricSpace:
    """A random n-point rational metric space.

    Mixes two shapes: entries confined to [1, 2] (triangle inequality is
    automatic) and shortest-path closures of random positive weights (these
    produce plenty of exactly tight triangles).  ``closure`` picks the shape;
    by default it is drawn at random.
    """
    if closure is None:
        closure = n > 1 and rng.random() >= 0.5
    if n == 1 or not closure:
        matrix = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                matrix[i][j] = matrix[j][i] = rand_rational(rng, Fraction(1), Fraction(2))
        return FiniteMetricSpace(matrix)
    weights = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            weights[i][j] = weights[j][i] = rand_rational(rng, Fraction(1, 4), Fraction(3))
    # Floyd-Warshall closure, exact.
    dist = [row[:] for row in weights]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if i != j:
                    via = dist[i][k] + dist[k][j] if i != k and j != k else dist[i][j]
                    if via < dist[i][j]:
                        dist[i][j] = via
    return FiniteMetricSpace(dist)


def random_tripod_space(rng: random.Random) -> tuple[FiniteMetricSpace, list[Fraction]]:
    """A 3-point space built from strictly positive tripod legs.

    Returns the space and its legs; d(i,j) = leg_i + leg_j, so all triangle
    inequalities are strict and the tight span has exactly 4 vertices.
    """
    legs = [rand_rational(rng, Fraction(1, 4), Fraction(3)) for _ in range(3)]
    matrix = [[Fraction(0)] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            matrix[i][j] = matrix[j][i] = legs[i] + legs[j]
    return FiniteMetricSpace(matrix), legs


def random_feasible_family(rng: random.Random, space: FiniteMetricSpace, k: int):
    """A pairwise-feasible ball family; mixes guaranteed-feasible radii
    (with occasional giant balls, to exercise containment removal) and
    rejection-sampled arbitrary radii."""
    from ury import BallFamily

    dmax = max(
        (space.distance(i, j) for i in space.points() for j in range(i)),
        default=Fraction(1),
    )
    while True:
        centers = [rng.randrange(space.n) for _ in range(k)]
        if rng.random() < 0.5:
            radii = [dmax / 2 + rand_rational(rng, Fraction(0), dmax) for _ in range(k)]
            if rng.random() < 0.4:
                radii[rng.randrange(k)] = 3 * dmax + 1
        else:
            radii = [rand_rational(rng, Fraction(1, 4), 2 * dmax) for _ in range(k)]
        balls = list(zip(centers, radii))
        feasible = all(
            space.distance(c1, c2) <= r1 + r2
            for i, (c1, r1) in enumerate(balls)
            for c2, r2 in balls[i + 1 :]
        )
        if feasible:
            return BallFamily(space, balls)


def random_pairwise_family(rng: random.Random, dim: int, count: int):
    """Boxes built around a shared core point: pairwise intersection is
    guaranteed (and, by the interval Helly property, so is the total one —
    which is exactly what the assertions re-derive through the library)."""
    from ury import Box

    core = [rand_rational(rng, Fraction(-2), Fraction(2)) for _ in range(dim)]
    boxes = []
    for _ in range(count):
        intervals = []
        for k in range(dim):
            lo = core[k] - rand_rational(rng, Fraction(0), Fraction(2))
            hi = core[k] + rand_rational(rng, Fraction(0), Fraction(2))
            intervals.append((lo, hi))
        boxes.append(Box(intervals))
    return boxes


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def record_calls(monkeypatch, module, names) -> list[str]:
    """Wrap each ``module.<name>`` so that every call appends its name to
    the returned list (in call order) before running the original."""
    calls: list[str] = []
    for name in names:
        original = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args)
        )
    return calls


def prefix_stand_in(matrix) -> SimpleNamespace:
    """A stand-in for a :class:`PrefixState` over a Fraction matrix that no
    construction log produces, with only ``m``, ``scale`` (the lcm of the
    entries' denominators) and ``row``: all that
    :func:`ury.construct.is_correctly_defined` reads."""
    scale = lcm(*{v.denominator for row in matrix for v in row})
    lower = tuple(
        tuple(v.numerator * (scale // v.denominator) for v in row[:i]) for i, row in enumerate(matrix)
    )
    return SimpleNamespace(m=len(lower), scale=scale, row=lower.__getitem__)


@dataclass(frozen=True)
class OracleBuild:
    rho: tuple[tuple[Fraction, ...], ...]
    log: tuple[StepRecord, ...]
    running_max: tuple[Fraction, ...]


def oracle_build_prefix(m: int, mode: ConstructionMode = DEFAULT_MODE) -> OracleBuild:
    """The m-point prefix built cold in Fractions with plain loops: the
    two-sided label check through :func:`oracle_katetov_failure`, the
    min-plus row written out, and each running maximum by a scan of the new
    row.  Only the label enumeration comes from the library."""
    rho = [[Fraction(0)]]
    log = []
    maxima = [Fraction(0)]
    for step in range(1, m):
        radii = mode.label_for_step(step)
        p = len(radii)
        assert p <= step, "label wider than the prefix"
        ok = oracle_katetov_failure(rho, range(p), radii, two_sided=True) is None
        if ok:
            new_row = [min(radii[l] + rho[l][z] for l in range(p)) for z in range(step)]
        elif mode.case1_scope == ALL_PRIOR:
            new_row = [maxima[-1]] * step
        else:
            new_row = [max(rho[i][k] for i in range(p) for k in range(p))] * step
        for z in range(step):
            rho[z].append(new_row[z])
        rho.append(new_row + [Fraction(0)])
        maxima.append(max([maxima[-1]] + new_row))
        log.append(StepRecord(step=step, label=radii, correctly_defined=ok))
    return OracleBuild(tuple(map(tuple, rho)), tuple(log), tuple(maxima))


def oracle_is_metric(matrix) -> bool:
    """Plain-loop metric check over all ordered triples; no staging, no
    rescaling — independent of ury.metric.validate_metric."""
    n = len(matrix)
    for i in range(n):
        if matrix[i][i] != 0:
            return False
        for j in range(n):
            if matrix[i][j] != matrix[j][i]:
                return False
            if i != j and matrix[i][j] <= 0:
                return False
            for k in range(n):
                if matrix[i][k] > matrix[i][j] + matrix[j][k]:
                    return False
    return True


def oracle_violations(matrix) -> tuple[Violation, ...]:
    """The report ``validate_metric`` owes, by plain Fraction loops with no
    rescaling: diagonal then symmetry failures; else positivity failures;
    else every ``(a, mid, b)`` with ``a < b`` and ``d(a,b) > d(a,mid) +
    d(mid,b)``, in ``(a, b, mid)`` order."""
    d = [[Fraction(v) for v in row] for row in matrix]
    n = len(d)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    found = [Violation("diagonal", (i,), d[i][i], Fraction(0)) for i in range(n) if d[i][i] != 0]
    found += [Violation("symmetry", (i, j), d[i][j], d[j][i]) for i, j in pairs if d[i][j] != d[j][i]]
    if not found:
        found = [Violation("positivity", (i, j), d[i][j], Fraction(0)) for i, j in pairs if d[i][j] <= 0]
    if not found:
        found = [
            Violation("triangle", (a, mid, b), d[a][b], d[a][mid] + d[mid][b])
            for a, b in pairs
            for mid in range(n)
            if mid not in (a, b) and d[a][b] > d[a][mid] + d[mid][b]
        ]
    return tuple(found)


def oracle_is_extremal(f: KatetovFunction) -> bool:
    """Pointwise-minimality oracle: reduce each coordinate to the least
    value admissible against the others; f is extremal iff nothing drops."""
    d = f.space.matrix
    n = f.space.n
    for x in range(n):
        for y in range(x + 1, n):
            if d[x][y] > f.values[x] + f.values[y]:
                return False
    for x in range(n):
        least = max(
            [d[x][y] - f.values[y] for y in range(n) if y != x] + [Fraction(0)]
        )
        if f.values[x] != least:
            return False
    return True


def oracle_embedding(target: FiniteMetricSpace, prefix: PrefixState):
    """First exact injective mapping in lexicographic order, by systematic
    enumeration of image tuples (plain nested scans, no candidate buckets)."""
    t = target.n
    rho = prefix.rho
    d = target.matrix

    def extend(mapping: list[int]):
        k = len(mapping)
        if k == t:
            return tuple(mapping)
        for c in range(prefix.m):
            if c in mapping:
                continue
            if all(rho[c][mapping[i]] == d[k][i] for i in range(k)):
                result = extend(mapping + [c])
                if result is not None:
                    return result
        return None

    return extend([])


def oracle_first_embedding(wanted, buckets, m: int) -> tuple[int, ...] | None:
    """The reference index search: ``embed._first_embedding`` as it was
    before the look-ahead filter, one level checked at a time.  ``wanted``
    is the target's lower triangle over the prefix's scale and ``buckets``
    the prefix's index; it reads ``buckets[c]`` for every candidate c of
    every point but the last."""
    t = len(wanted)
    mapping: list[int] = []
    stack = [iter(range(m))]
    while stack:
        c = next(stack[-1], None)
        if c is None:
            stack.pop()
            if mapping:
                mapping.pop()
            continue
        mapping.append(c)
        depth = len(mapping)
        if depth == t:
            return tuple(mapping)
        needed = [buckets[mapping[i]].get(wanted[depth][i]) for i in range(depth)]
        if all(needed):
            first, rest = needed[0], needed[1:]
            stack.append(iter([v for v in first if all(v in bucket for bucket in rest)]))
        else:
            mapping.pop()
    return None


def oracle_distance_buckets(rho, scale: int) -> tuple[dict[int, dict[int, None]], ...]:
    """The whole embed index at once, from a full Fraction matrix ``rho``
    (an oracle's, not the code under test's): for each point u, every
    distance from u (an int over ``scale``) mapped to the points at that
    distance in ascending index order (a dict used as an ordered set), keyed
    in the order the points v < u, then v > u, first reach each distance."""
    buckets = []
    for u, row in enumerate(rho):
        by_value: dict[int, dict[int, None]] = {}
        for v, d in enumerate(row):
            if v != u:
                by_value.setdefault(int(d * scale), {})[v] = None
        buckets.append(by_value)
    return tuple(buckets)


def oracle_katetov_failure(d, points, radii, two_sided: bool):
    """First failing pair of the Katetov condition, by listing every failure
    and taking the least ``(i, j, side)`` with ``"lower"`` ranked first.

    Returns ``((i, j), side)`` over positions in ``points``, or None.
    """
    failures = []
    for i in range(len(points)):
        for j in range(len(points)):
            if i >= j:
                continue
            dist = d[points[i]][points[j]]
            if two_sided and dist < max(radii[i], radii[j]) - min(radii[i], radii[j]):
                failures.append((i, j, 0))
            if radii[i] + radii[j] < dist:
                failures.append((i, j, 1))
    if not failures:
        return None
    i, j, side = min(failures)
    return (i, j), ("lower", "upper")[side]


def oracle_hull_isometry(breakpoints, step: Fraction):
    """Naive pairwise isometry check of an arclength-sampled polyline.

    Samples every multiple of ``step`` (plus the total length), then compares
    max-norm distance and parameter difference for every pair of samples in
    lexicographic order.  Returns ``(isometry_ok, first_violation,
    sample_count)`` with the violation as ``(param_a, param_b, expected,
    actual)`` or None.
    """
    def cheb(p, q):
        return max(abs(p[0] - q[0]), abs(p[1] - q[1]))

    segments = list(zip(breakpoints, breakpoints[1:]))
    total = sum((cheb(a, b) for a, b in segments), Fraction(0))

    def point_at(t):
        start = Fraction(0)
        for a, b in segments:
            length = cheb(a, b)
            if t <= start + length:
                u = (t - start) / length
                return (a[0] + u * (b[0] - a[0]), a[1] + u * (b[1] - a[1]))
            start += length
        raise AssertionError("parameter beyond the polyline")

    params = []
    t = Fraction(0)
    while t < total:
        params.append(t)
        t += step
    params.append(total)
    samples = [point_at(t) for t in params]
    for i in range(len(params)):
        for j in range(i + 1, len(params)):
            actual = cheb(samples[i], samples[j])
            expected = params[j] - params[i]
            if actual != expected:
                return False, (params[i], params[j], expected, actual), len(params)
    return True, None, len(params)


def _solve_fraction_free(a: list[list[int]], b: list[int]) -> tuple[list[int], int] | None:
    """Solve the square integer system a x = b by fraction-free (Bareiss)
    elimination: ``(X, det)`` with ``det > 0`` and ``x = X / det``, or None
    if a is singular.

    The forward pass divides each update by the previous pivot exactly, and
    leaves ``+-det(a)`` as the last pivot.  By Cramer's rule ``det * x`` is
    an integer vector, so each back substitution step divides exactly too.
    """
    n = len(a)
    m = [row + [v] for row, v in zip(a, b)]
    prev = 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k]), None)
        if pivot is None:
            return None
        m[k], m[pivot] = m[pivot], m[k]
        top = m[k]
        p = top[k]
        for i in range(k + 1, n):
            f = m[i][k]
            m[i] = [(p * v - f * u) // prev for v, u in zip(m[i], top)]
        prev = p
    xs = [0] * n
    for i in reversed(range(n)):
        row = m[i]
        xs[i] = (row[n] * prev - sum(row[j] * xs[j] for j in range(i + 1, n))) // row[i]
    return (xs, prev) if prev > 0 else ([-v for v in xs], -prev)


def fraction_rank(rows: list[list[Fraction]]) -> int:
    """The rank of a rational matrix, by Fraction Gaussian elimination."""
    m = [list(map(Fraction, row)) for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, len(m)):
            factor = m[r][col] / m[rank][col]
            m[r] = [v - factor * p for v, p in zip(m[r], m[rank])]
        rank += 1
    return rank


def oracle_tight_span_vertices(space: FiniteMetricSpace) -> list[tuple[Fraction, ...]]:
    """Vertices of {f >= 0 : f(x) + f(y) >= d(x,y)} by brute force.

    Every n-subset of the constraints (coordinate zero or pair tightness)
    that touches every coordinate goes through fraction-free elimination in
    Python ints, on the system scaled by the common denominator D of the
    Fraction matrix; nonnegative, feasible solutions are kept, and only they
    become Fractions.  Returns the sorted, duplicate-free value tuples.
    C(n(n+1)/2, n) systems: a few seconds at n = 6.
    """
    n = space.n
    scale = lcm(*(v.denominator for row in space.matrix for v in row))
    d = [[int(v * scale) for v in row] for row in space.matrix]
    constraints = []
    for i in range(n):
        row = [0] * n
        row[i] = 1
        constraints.append((row, 0, 1 << i))
    for i in range(n):
        for j in range(i + 1, n):
            row = [0] * n
            row[i] = row[j] = 1
            constraints.append((row, d[i][j], (1 << i) | (1 << j)))

    found = set()
    for chosen in combinations(constraints, n):
        mask = 0
        for _, _, m in chosen:
            mask |= m
        if mask != (1 << n) - 1:
            continue
        solved = _solve_fraction_free([c[0] for c in chosen], [c[1] for c in chosen])
        if solved is None:
            continue
        xs, det = solved
        if min(xs) < 0:
            continue
        if all(xs[x] + xs[y] >= det * d[x][y] for x in range(n) for y in range(x + 1, n)):
            found.add(tuple(Fraction(v, det * scale) for v in xs))
    return sorted(found)


def oracle_vertex_search(w: list[list[int]]) -> tuple[set[tuple[int, ...]], int]:
    """The constraint-set search: the vertices of {x >= 0 : x_u + x_v >= w_uv}
    and the number of constraint sets visited.  A depth-first search takes
    the pair constraints in order, keeps each component's root, signs and
    offsets, and drops a set that closes an even cycle, gives a component a
    second cycle, or whose component has no root value meeting ``x_t >= 1``
    and the pair constraints, bounds it re-derives for every candidate.  It
    shares no step with the library's growth from odd cycles, and is the
    fast oracle at n = 7, where ``oracle_tight_span_vertices`` takes too long.

    The search keeps an explicit stack, not a recursive closure: a closure
    that refers to itself is a reference cycle, which outlives the call
    until the cycle collector runs.
    """
    n = len(w)
    points = range(n)
    # (u, v, b) is x_u + x_v = b.  The rows of w, the Kuratowski functions,
    # are the vertices with a zero coordinate; at every other vertex each
    # x_t is a positive integer, so the search keeps x_t >= 1.
    constraints = [(i, j, w[i][j]) for i, j in combinations(points, 2)]
    found = {tuple(row) for row in w}
    visited = 0
    # Each entry is (next constraint, constraints taken, root, sign, off);
    # sign[t] == 0 marks an anchored component: there x_t == off[t].
    stack = [(0, 0, list(points), [1] * n, [0] * n)]
    while stack:
        start, depth, root, sign, off = stack.pop()
        visited += 1
        if depth == n:
            found.add(tuple(off))
            continue
        anchored = [a for a in points if sign[a] == 0]
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
            group, keep = root[v], root[u]
            root2, sign2, off2 = root[:], sign[:], off[:]
            moved = [t for t in points if root[t] == group]
            for t in moved:
                root2[t] = keep
                sign2[t] = sign[t] * factor
                off2[t] += sign[t] * shift
            if factor == 0:
                if not _anchoring_fits(w, moved, anchored + moved, off2):
                    continue
            else:
                members = [t for t in points if root[t] == keep] + moved
                if not _merge_fits(w, members, anchored, sign2, off2):
                    continue
            stack.append((k + 1, depth + 1, root2, sign2, off2))
    return found, visited


def _anchoring_fits(w, moved: list[int], anchored: list[int], off: list[int]) -> bool:
    """Whether the newly anchored points ``moved`` are at least 1 and
    admissible against every anchored point."""
    for t in moved:
        x, row = off[t], w[t]
        if x < 1 or any(row[a] > x + off[a] for a in anchored):
            return False
    return True


def _merge_fits(
    w, members: list[int], anchored: list[int], sign: list[int], off: list[int]
) -> bool:
    """Whether some root value x keeps every point of a free component
    at least 1 and admissible inside it and against every anchored point.

    Each constraint reads ``s * 2x >= c``: from a pair t, t' of one sign s,
    ``c = w_tt' - off_t - off_t'``, and from t' = t, ``x_t >= 1``, it is
    ``c = 2 - 2 * off_t``; from a point t and an anchored a,
    ``c = 2 * (w_ta - off_t - off_a)``.  A pair of opposite signs does not
    involve x.  Without a point of sign -1 nothing bounds x from above.
    """
    if all(sign[t] > 0 for t in members):
        return True
    bounds = {1: [], -1: []}  # the c of each sign's constraints
    for i, t in enumerate(members):
        s, x, row = sign[t], off[t], w[t]
        bounds[s].append(2 - 2 * x)
        for t2 in members[i + 1:]:
            if sign[t2] == s:
                bounds[s].append(row[t2] - x - off[t2])
            elif row[t2] > x + off[t2]:
                return False
        if anchored:
            bounds[s].append(2 * (max([row[a] - off[a] for a in anchored]) - x))
    return max(bounds[1]) <= -max(bounds[-1])


# ---------------------------------------------------------------------------
# Fraction oracles for the integer Katetov layer (extension, tightspan).
# Each reads the Fraction view ``space.matrix``, which the library never does.
# ---------------------------------------------------------------------------

def oracle_katetov_row(d, points, radii) -> list:
    """The min-plus row ``min_l (r_l + d(x_l, z))``, one ``z`` at a time, with
    each ``points[l]`` pinned to ``radii[l]``; over ints or Fractions."""
    row = [min(r + d[x][z] for x, r in zip(points, radii)) for z in range(len(d))]
    for x, r in zip(points, radii):
        row[x] = r
    return row


def oracle_extended_matrix(space: FiniteMetricSpace, support, radii) -> list[list[Fraction]]:
    """The one-point extension's (n+1)x(n+1) Fraction matrix, new point last."""
    d = space.matrix
    new_row = oracle_katetov_row(d, support, radii)
    return [list(row) + [new_row[i]] for i, row in enumerate(d)] + [new_row + [Fraction(0)]]


def oracle_admissible(space: FiniteMetricSpace, support, radii):
    """``((i, j), side)`` for the first two-sided failure of the radii, or None."""
    return oracle_katetov_failure(space.matrix, support, radii, two_sided=True)


def oracle_reduce_ball_family(family):
    """``("infeasible", pair, d, radius sum)`` for the first pair of balls
    that cannot meet, else ``("reduced", survivors, removals)`` with each
    removal ``(removed, dominating, lhs, rhs)`` by the lowest-index rescan."""
    d = family.base.matrix
    centers, radii = zip(*family.balls)
    failure = oracle_katetov_failure(d, centers, radii, two_sided=False)
    if failure is not None:
        (i, j), _ = failure
        return "infeasible", (i, j), d[centers[i]][centers[j]], radii[i] + radii[j]
    survivors = list(range(len(radii)))
    removals = []
    while True:
        removal = next(
            (
                (i, j, radii[i], d[centers[i]][centers[j]] + radii[j])
                for i in survivors
                for j in survivors
                if j != i and radii[i] > d[centers[i]][centers[j]] + radii[j]
            ),
            None,
        )
        if removal is None:
            return "reduced", tuple(survivors), tuple(removals)
        survivors.remove(removal[0])
        removals.append(removal)


def oracle_extremal_below(space: FiniteMetricSpace, values) -> tuple[Fraction, ...] | None:
    """Cyclic coordinate descent in Fractions to an extremal function below
    ``values``; None when ``values`` is not admissible."""
    d = space.matrix
    n = space.n
    if oracle_katetov_failure(d, range(n), values, two_sided=False) is not None:
        return None
    values = list(values)
    changed = True
    while changed:
        changed = False
        for x in range(n):
            target = max([Fraction(0)] + [d[x][y] - values[y] for y in range(n) if y != x])
            if target != values[x]:
                values[x] = target
                changed = True
    return tuple(values)


def oracle_extend_radius_function(space: FiniteMetricSpace, subset, r):
    """``(values, None)`` with ``R(z) = min_a (r(a) + d(z, a))`` in Fractions,
    pinned to ``r`` on the subset; or ``(None, pair)`` for the first pair
    where the data break d <= r_a + r_b."""
    failure = oracle_katetov_failure(space.matrix, subset, r, two_sided=False)
    if failure is not None:
        return None, failure[0]
    return tuple(oracle_katetov_row(space.matrix, subset, r)), None


def oracle_tripod_center(space: FiniteMetricSpace) -> tuple[Fraction, ...]:
    """The three leg lengths ``(d_ab + d_ac - d_bc) / 2`` in Fractions."""
    d = space.matrix
    return (
        (d[0][1] + d[0][2] - d[1][2]) / 2,
        (d[0][1] + d[1][2] - d[0][2]) / 2,
        (d[0][2] + d[1][2] - d[0][1]) / 2,
    )


def prime_denominator_dmat(n: int) -> str:
    """The n-point ``.dmat`` whose entries are ``(p + 1)/p`` for
    distinct primes p above 2^20, row by row: every entry lies in (1, 2), so
    it is a metric, and its scale, the product of the primes, has about 20
    bits per pair."""
    primes = (q for q in range(2**20, 2**21) if all(q % f for f in range(2, 1449)))
    rows = [" ".join(f"{p + 1}/{p}" for p in islice(primes, i)) for i in range(1, n)]
    return "".join(f"{line}\n" for line in [str(n), *rows])


def oracle_dmat_text(matrix) -> str:
    """The ``.dmat`` text of a square Fraction matrix, each entry of its lower
    triangle rendered by ``str``, independent of ``metric.dmat_lines``."""
    rows = [" ".join(str(v) for v in row[:i]) for i, row in enumerate(matrix)][1:]
    return "".join(f"{line}\n" for line in [str(len(matrix)), *rows])


def oracle_parse_matrix(text: str) -> list[list[Fraction]]:
    """The ``.dmat`` text as a symmetric Fraction matrix, one Fraction per
    entry, with the library's ParseError (line, column, reason) for each fault."""
    lines = text.splitlines()
    if not lines:
        raise ParseError(1, 1, "empty input")
    head = lines[0]
    if not (head.isascii() and head.isdigit()):
        # Quoted up to 40 characters, then "...", as every piece of input is.
        cut = "..." if len(head) > 40 else ""
        raise ParseError(1, 1, f"invalid point count {head[:40]!r}{cut}")
    n = int(head)
    if n < 1:
        raise ParseError(1, 1, "point count must be at least 1")
    if len(lines) > n:
        raise ParseError(n + 1, 1, "unexpected extra line")
    if len(lines) < n:
        raise ParseError(len(lines) + 1, 1, f"expected {n - 1} distance rows, got {len(lines) - 1}")

    matrix = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n):
        line = lines[i]
        lineno = i + 1
        if line != line.rstrip():
            raise ParseError(lineno, len(line.rstrip()) + 1, "trailing whitespace")
        tokens = line.split(" ")
        if tokens != [t for t in tokens if t]:
            raise ParseError(lineno, 1, "empty field (double space?)")
        if len(tokens) != i:
            raise ParseError(lineno, 1, f"expected {i} entries, got {len(tokens)}")
        col = 1
        for j, token in enumerate(tokens):
            if token.startswith("-"):
                raise ParseError(lineno, col, "negative distance")
            try:
                value = as_rational(token)
            except ValueError as exc:
                raise ParseError(lineno, col, str(exc)) from None
            matrix[i][j] = matrix[j][i] = value
            col += len(token) + 1
    return matrix
