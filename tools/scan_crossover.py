"""Per-call time of the triangle scan's two finishes, the Python finish and
the numpy scan, by candidate pairs per point: the measurement that sets
``metric._PAIRS_PER_POINT``.

    python3 tools/scan_crossover.py

Five kinds of space, each kept only if its largest distance is more than
twice its smallest, so that the scan does not end before the prefilter:

- ``path``: the path metric ``d(i, j) = |i - j|``, whose pairs the
  prefilter cannot prune, at 8 to 40 points;
- ``closure``: 20 shortest-path closures of random integer weights in
  [1, 30], seeded by the size (many exactly tight triangles), at 8 to 40
  points;
- ``strict``: 20 more closures drawn the same way, each with 1 added to
  every distance, so that every triangle is strict;
- ``prefix``: the prefix of ``construct.build_prefix`` at 100 to 450 points,
  whose Katetov rows leave about one candidate pair per point;
- ``adversarial``: a star of n - 1 leaves around a centre, every leaf pair
  on the bound ``d(a, b) = m_a + m_b`` but for k x n of them, each moved
  one unit past it (and so broken through the centre), their first points
  spread over all the leaves, at 100 and 400 points and k from 3 to 27:
  as many pairs as a budget of k lets the Python finish check, each point
  the first of at most about k of them, so that few pairs share a row.

numpy is imported before any timing.  ``metric._triangle_scan`` runs with
the budget at no pair (the numpy scan) and at n pairs per point (the
Python finish, with no hand-over to numpy), in alternating blocks of one
call per space (20 calls of the one space of a path, prefix or star, 3
from 200 points on), nine blocks each; a line gives the candidate pairs per point and the median
per-call time of each finish in ms.  Both finishes must find the same
violations.  The last line gives, per kind, the fewest pairs per point at
which the Python finish was slower.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def closure(rng: random.Random, n: int) -> list[list[int]]:
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            d[i][j] = d[j][i] = rng.randint(1, 30)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return [row[:i] for i, row in enumerate(d)]


def strict(rng: random.Random, n: int) -> list[list[int]]:
    return [[v + 1 for v in row] for row in closure(rng, n)]


def path(n: int) -> list[list[int]]:
    return [[i - j for j in range(i)] for i in range(n)]


def prefix(n: int) -> list[list[int]]:
    from ury import construct

    state = construct.build_prefix(n)
    return [state.row(i) for i in range(n)]


def adversarial(rng: random.Random, n: int, per_point: int) -> list[list[int]]:
    # Leaves 0..k-1 at radii drawn from [2, 9], the centre k.  Leaf i is the
    # first point of the pairs (i, i + 1), then of (i, i + 2), and so on
    # over all the leaves, until per_point x n pairs are moved.
    k = n - 1
    radii = [rng.randint(2, 9) for _ in range(k)]
    lower = [[radii[i] + radii[j] for j in range(i)] for i in range(k)] + [radii]
    count = per_point * n
    for step in range(1, k):
        for i in range(k - step):
            if count == 0:
                return lower
            lower[i + step][i] += 1
            count -= 1
    raise ValueError(f"a star of {n} points has too few leaf pairs")


def spread(make, count: int) -> list[list[list[int]]]:
    """``count`` lower triangles made by ``make``, drawing until each has a
    largest distance more than twice its smallest."""
    out = []
    while len(out) < count:
        lower = make()
        flat = [v for row in lower for v in row]
        if max(flat) > 2 * min(flat):
            out.append(lower)
    return out


def cases():
    """Every (kind, points, spaces) timed, in order."""
    for n in range(8, 41, 4):
        rng = random.Random(n)
        yield "path", n, spread(lambda: path(n), 1) * 20
        yield "closure", n, spread(lambda: closure(rng, n), 20)
        yield "strict", n, spread(lambda: strict(rng, n), 20)
    for n in (100, 200, 350, 450):
        yield "prefix", n, spread(lambda: prefix(n), 1) * (20 if n <= 100 else 3)
    for per_point in (3, 6, 9, 12, 18, 27):
        for n in (100, 400):
            rng = random.Random(n)
            yield "adversarial", n, spread(lambda: adversarial(rng, n, per_point), 1) * (20 if n <= 100 else 3)


def main() -> int:
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (loaded before any timing)
    from ury import metric

    def run(lowers, per_point):
        saved = metric._PAIRS_PER_POINT
        metric._PAIRS_PER_POINT = per_point
        try:
            return [metric._triangle_scan(lower) for lower in lowers]
        finally:
            metric._PAIRS_PER_POINT = saved

    crossover = {}
    for kind, n, lowers in cases():
        pairs = statistics.mean(
            len(metric._prefilter(lower, max(map(max, lower[1:])), n * n)[1]) for lower in lowers)
        # A budget of no pair sends every space to numpy, one of n pairs per
        # point every space to the Python finish.
        finishes = {"numpy_ms": 0, "python_ms": n}
        if run(lowers, 0) != run(lowers, n):
            raise AssertionError(f"the two finishes differ on {kind} spaces of {n} points")
        times = {name: [] for name in finishes}
        for _ in range(9):
            for name, per_point in finishes.items():
                start = time.perf_counter()
                run(lowers, per_point)
                times[name].append((time.perf_counter() - start) / len(lowers) * 1e3)
        line = {name: round(statistics.median(t), 4) for name, t in times.items()}
        per_point = round(pairs / n, 2)
        if line["python_ms"] > line["numpy_ms"]:
            crossover[kind] = min(crossover.get(kind, per_point), per_point)
        print(json.dumps({"space": kind, "points": n, "pairs_per_point": per_point, **line}), flush=True)
    print(json.dumps({"python_slower_from_pairs_per_point": crossover}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
