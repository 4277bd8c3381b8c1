"""Per-call time of the triangle scan's two paths, the Python loop and the
numpy scan, on spaces of 4 to 32 points: the measurement that sets
``metric._NUMPY_MIN_N``.

    python3 tools/scan_crossover.py

Three kinds of space, each kept only if its largest distance is more than
twice its smallest, so that the scan does not end before either path:

- ``closure``: 20 shortest-path closures of random integer weights in
  [1, 30], seeded by the size (many exactly tight triangles);
- ``strict``: 20 more closures drawn the same way, each with 1 added to
  every distance, so that every triangle is strict;
- ``path``: the path metric ``d(i, j) = |i - j|``, whose pairs the
  prefilter cannot prune, 20 calls on one space.

numpy is imported before any timing.  For each kind and size the two paths
run in alternating blocks of one call per space, nine blocks each; a line
gives the median per-call time of each path in ms.  Both paths must find
the same violations.  The last line gives, per kind, the least size at
which the Python loop is slower.
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
    return d


def strict(rng: random.Random, n: int) -> list[list[int]]:
    return [[v + (i != j) for j, v in enumerate(row)] for i, row in enumerate(closure(rng, n))]


def path(rng: random.Random, n: int) -> list[list[int]]:
    return [[abs(i - j) for j in range(n)] for i in range(n)]


KINDS = {"closure": closure, "strict": strict, "path": path}


def spaces(kind: str, n: int, count: int = 20) -> list[tuple[tuple[int, ...], ...]]:
    """``count`` lower triangles of the kind at n points (one, repeated, for
    the path) whose largest distance is more than twice the smallest."""
    rng = random.Random(1000 * n + len(kind))
    out = []
    while len(out) < (1 if kind == "path" else count):
        lower = tuple(tuple(row[:i]) for i, row in enumerate(KINDS[kind](rng, n)))
        flat = [v for row in lower for v in row]
        if max(flat) > 2 * min(flat):
            out.append(lower)
    return out * (count if kind == "path" else 1)


def main() -> int:
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (loaded before any timing)
    from ury import metric

    def run(lowers, threshold):
        metric._NUMPY_MIN_N = threshold
        return [metric._triangle_scan(lower) for lower in lowers]

    # A threshold of 0 sends every space to numpy, one above its size to Python.
    crossover = {}
    for kind in KINDS:
        for n in range(4, 33):
            lowers = spaces(kind, n)
            paths = {"numpy_ms": 0, "python_ms": n + 1}
            if run(lowers, 0) != run(lowers, n + 1):
                raise AssertionError(f"the two paths differ on {kind} spaces of {n} points")
            times = {name: [] for name in paths}
            for _ in range(9):
                for name, threshold in paths.items():
                    start = time.perf_counter()
                    run(lowers, threshold)
                    times[name].append((time.perf_counter() - start) / len(lowers) * 1e3)
            line = {name: round(statistics.median(t), 4) for name, t in times.items()}
            if line["python_ms"] > line["numpy_ms"]:
                crossover.setdefault(kind, n)
            print(json.dumps({"space": kind, "points": n, **line}), flush=True)
    print(json.dumps({"python_slower_from": crossover}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
