"""Time and peak memory of ``ury tightspan --vertices`` on fixed 4- to
7-point spaces.

    python3 tools/tightspan_sizes.py                     # 4, 5 and 6 points
    python3 tools/tightspan_sizes.py --points 4,5,6,7
    python3 tools/tightspan_sizes.py --src ../other/src  # another checkout's library

For each size n, three integer spaces are written as ``.dmat`` files:

- ``generic``: every distance drawn from [11, 20] by ``random.Random(n)``,
  so every triangle is strict;
- ``path``: n points of a line at 0, 1, 3, 6, ... (gaps 1, 2, 3, ...);
- ``equilateral``: every distance 1, the degenerate case where the centre
  vertex makes every pair tight.

``ury tightspan --dmat <file> --vertices`` runs on each in a fresh child
process, which times the command (``command_s``); ``wall_s`` adds the
interpreter's start.  All times are raw wall clock.  ``maxrss_mib`` is the
child's ``ru_maxrss``.  One JSON line is printed per space; the exit status
is 1 unless every command exits 0 and prints every Kuratowski function
(each row of the matrix) among its vertices, the equilateral space has
n + 1 vertices and the path n.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import tempfile
import time
from pathlib import Path

from verify_sizes import COMMAND, DEFAULT_SRC, measured


def spaces(n: int) -> dict[str, list[list[int]]]:
    """The generic, path and equilateral n-point spaces as integer matrices."""
    rng = random.Random(n)
    generic = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            generic[i][j] = generic[j][i] = rng.randint(11, 20)
    positions = [k * (k + 1) // 2 for k in range(n)]
    return {
        "generic": generic,
        "path": [[abs(p - q) for q in positions] for p in positions],
        "equilateral": [[int(i != j) for j in range(n)] for i in range(n)],
    }


# The vertex count each space must have, if it is fixed by n.
EXPECTED = {"path": lambda n: n, "equilateral": lambda n: n + 1}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--points", default="4,5,6",
                        help="comma-separated space sizes, each 2 to 7 (default: %(default)s)")
    parser.add_argument("--src", type=Path, default=DEFAULT_SRC,
                        help="the library to enumerate with (default: this checkout's)")
    args = parser.parse_args()
    sizes = sorted({int(p) for p in args.points.split(",")})
    if sizes[0] < 2 or sizes[-1] > 7:
        parser.error("every size must be 2 to 7")

    env = {**os.environ, "PYTHONPATH": str(args.src)}
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for n in sizes:
            for name, matrix in spaces(n).items():
                dmat = Path(tmp, f"{name}{n}.dmat")
                dmat.write_text("".join(
                    " ".join(map(str, row[:i])) + "\n" if i else f"{n}\n"
                    for i, row in enumerate(matrix)))
                start = time.perf_counter()
                result = measured(env, COMMAND, "tightspan", "--dmat", str(dmat), "--vertices")
                result["wall_s"] = time.perf_counter() - start
                vertices = result.pop("stdout").splitlines()
                count = EXPECTED.get(name)
                good = (result["exit"] == 0
                        and all(" ".join(map(str, row)) in vertices for row in matrix)
                        and (count is None or len(vertices) == count(n)))
                ok &= good
                print(json.dumps({"points": n, "space": name, "ok": good,
                                  "vertices": len(vertices), **result}), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
