"""Independent output checks for the benchmark, run outside the timed region.

Everything here is plain loops over ``fractions.Fraction`` and imports
nothing from ``ury``: a check must not share code with what it checks.
A failed check raises :class:`CheckFailed`, which the benchmark counts as a
failed operation.
"""

from __future__ import annotations

import random
from fractions import Fraction


class CheckFailed(Exception):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- .dmat text, written and read without the library -------------------------

def dmat_text(matrix) -> str:
    n = len(matrix)
    lines = [str(n)] + [" ".join(str(matrix[i][j]) for j in range(i)) for i in range(1, n)]
    return "\n".join(lines) + "\n"


def parse_dmat(text: str) -> list[list[Fraction]]:
    lines = text.split("\n")
    n = int(lines[0])
    check(len(lines) == n + 1 and lines[n] == "", "dmat: wrong line count")
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n):
        tokens = lines[i].split(" ")
        check(len(tokens) == i, f"dmat: row {i + 1} has {len(tokens)} entries")
        for j, token in enumerate(tokens):
            m[i][j] = m[j][i] = Fraction(token)
    return m


# -- metric spaces -------------------------------------------------------------

def check_metric(m, what: str) -> None:
    n = len(m)
    for i in range(n):
        check(m[i][i] == 0, f"{what}: nonzero diagonal at {i}")
        for j in range(i + 1, n):
            check(m[i][j] == m[j][i], f"{what}: asymmetric at {i},{j}")
            check(m[i][j] > 0, f"{what}: nonpositive distance at {i},{j}")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                check(m[i][j] <= m[i][k] + m[k][j], f"{what}: triangle {i},{k},{j}")


def check_sampled_triangles(m, rng: random.Random, count: int, what: str) -> None:
    """The triangle inequality on ``count`` seeded random triples (a full
    scan of a few hundred points is minutes of plain-loop work)."""
    n = len(m)
    for _ in range(count):
        a, b, c = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        check(m[a][b] <= m[a][c] + m[c][b], f"{what}: triangle {a},{c},{b}")


def submatrix(m, points) -> list[list[Fraction]]:
    return [[m[a][b] for b in points] for a in points]


# -- embeddings and partial isometries ----------------------------------------

def check_embedding(target, rows, mapping, limit: int) -> None:
    """``mapping`` is injective, stays below ``limit`` and realizes every
    target distance exactly."""
    t = len(target)
    check(len(mapping) == t, "embedding: wrong mapping length")
    check(len(set(mapping)) == t, "embedding: mapping is not injective")
    check(all(0 <= c < limit for c in mapping), "embedding: image out of range")
    for i in range(t):
        for j in range(i):
            check(rows[mapping[i]][mapping[j]] == target[i][j],
                  f"embedding: distance {i},{j} not preserved")


def smallest_embedding(target, rows, limit: int) -> tuple[int, ...] | None:
    """Lexicographically smallest embedding by plain depth-first search."""
    t = len(target)
    mapping: list[int] = []

    def extend(depth: int) -> bool:
        if depth == t:
            return True
        want = target[depth]
        candidates = range(limit)
        for i in range(depth):
            candidates = [c for c in candidates if rows[c][mapping[i]] == want[i]]
        for c in candidates:
            if c in mapping:
                continue
            mapping.append(c)
            if extend(depth + 1):
                return True
            mapping.pop()
        return False

    return tuple(mapping) if extend(0) else None


def smallest_image(rows, pairs, source: int, limit: int) -> int | None:
    """Smallest unused image compatible with every pair, by a plain scan."""
    images = {t for _, t in pairs}
    for c in range(limit):
        if c not in images and all(rows[source][s] == rows[c][t] for s, t in pairs):
            return c
    return None


# -- Katetov functions and tight spans ----------------------------------------

def check_extremal(values, d, what: str) -> None:
    """Nonnegative, admissible (d <= f + f) and pinned: every nonzero
    coordinate is tight against some other point."""
    n = len(d)
    check(len(values) == n, f"{what}: wrong length")
    check(all(v >= 0 for v in values), f"{what}: negative value")
    for x in range(n):
        for y in range(x + 1, n):
            check(d[x][y] <= values[x] + values[y], f"{what}: inadmissible at {x},{y}")
    for x in range(n):
        if values[x] != 0:
            check(any(values[x] + values[y] == d[x][y] for y in range(n) if y != x),
                  f"{what}: coordinate {x} is not pinned")


def check_vertices(vertex_values, d, what: str) -> None:
    check(list(vertex_values) == sorted(set(vertex_values)), f"{what}: not sorted and unique")
    for k, values in enumerate(vertex_values):
        check_extremal(values, d, f"{what} vertex {k}")
    # Each Kuratowski function f_a = d(a, .) is a vertex: f(a) = 0 and the n-1
    # pairs (a, y) are tight, which fixes every coordinate.
    present = set(vertex_values)
    for a in range(len(d)):
        check(tuple(d[a]) in present, f"{what}: Kuratowski function of {a} missing")


def check_one_point_extension(base, ext, support, radii, what: str) -> None:
    n = len(base)
    check(len(ext) == n + 1, f"{what}: wrong size")
    check(all(ext[i][j] == base[i][j] for i in range(n) for j in range(n)),
          f"{what}: base distances changed")
    for x, r in zip(support, radii):
        check(ext[n][x] == r, f"{what}: radius at {x} not hit")
    check_metric(ext, what)


def check_ball_witness(base, balls, ext, witness: int, certificate, survivors,
                       what: str) -> None:
    n = len(base)
    check(witness == n and len(ext) == n + 1, f"{what}: witness is not the new point")
    check(all(ext[i][j] == base[i][j] for i in range(n) for j in range(n)),
          f"{what}: base distances changed")
    check(len(certificate) == len(balls), f"{what}: certificate length")
    for k, (entry, (center, radius)) in enumerate(zip(certificate, balls)):
        ball, c, r, dist, on_sphere = entry
        check((ball, c, r) == (k, center, radius), f"{what}: certificate entry {k}")
        check(dist == ext[witness][center], f"{what}: certificate distance {k}")
        check(on_sphere == (k in survivors), f"{what}: sphere flag {k}")
        check(dist == radius if on_sphere else dist <= radius, f"{what}: ball {k} missed")
    check_metric(ext, what)


# -- max-norm plane -------------------------------------------------------------

def chebyshev(p, q) -> Fraction:
    return max(abs(p[0] - q[0]), abs(p[1] - q[1]))


def check_hull(report, breakpoints, reference, step: Fraction, what: str) -> None:
    """A polyline parametrized by max-norm arclength is isometric to a segment
    exactly when its endpoints are as far apart as it is long (triangle
    inequality), so the verdict has a closed form independent of sampling."""
    lengths = [chebyshev(a, b) for a, b in zip(breakpoints, breakpoints[1:])]
    total = sum(lengths, Fraction(0))
    span = chebyshev(breakpoints[0], breakpoints[-1])
    endpoint_ok = span == chebyshev(*reference)
    isometric = span == total
    check(report.endpoint_ok == endpoint_ok, f"{what}: endpoint verdict")
    check(report.isometry_ok == isometric, f"{what}: isometry verdict")
    check(report.ok == (endpoint_ok and isometric), f"{what}: overall verdict")
    k = total / step
    expected_samples = int(k) + 1 + (k.denominator != 1)
    check(report.sample_count == expected_samples, f"{what}: sample count")


def check_c0(report, n: int, what: str) -> None:
    check(report.N == n, f"{what}: dimension")
    check(report.pairwise_distance == 1 and report.pairwise_feasible, f"{what}: pairwise")
    check(report.conclusion == "unique-linf-witness", f"{what}: conclusion")
    check(report.witness is not None and len(report.witness) == n, f"{what}: witness length")
    half = Fraction(1, 2)
    check(all(v == half for v in report.witness), f"{what}: witness coordinate is not 1/2")
    check(report.witness_tail_value == half, f"{what}: tail value")
