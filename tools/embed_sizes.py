"""Time and peak memory of ``ury embed`` on prefixes of several sizes.

    python3 tools/embed_sizes.py                     # 1000 and 2000 points
    python3 tools/embed_sizes.py --points 500,1000
    python3 tools/embed_sizes.py --src ../other/src  # another checkout's library

A child process builds one prefix of the largest size and saves it as a
``.ury`` file.  For each size, ``ury embed --limit <size>`` then runs in a
fresh child process on two 3-point targets:

- ``early``: the subspace on points 3, 6 and 10 of the prefix, found among
  its first points (the search stops after a few of them);
- ``never``: the equilateral space of side 10000, a distance no pair of a
  prefix of these sizes has, so the search reads every point's index entry
  and finds nothing.

The child times the calls the command makes: ``load_s`` inside
``construct.load_prefix`` (the replay of the ``.ury`` file), ``find_s``
inside ``embed.find_isometric_embedding``, ``embed_s`` the whole command;
``wall_s`` adds the interpreter's start.  All times are raw wall clock.
``maxrss_mib`` is the child's ``ru_maxrss``.  One JSON line is printed per
size and target; the exit status is 1 unless the ``early`` target is found
at points 3, 6, 10 and the ``never`` target is not found.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from verify_sizes import DEFAULT_SRC, measured

# Run in a child: build the largest prefix, save it and write both targets.
BUILD = """
import sys
from pathlib import Path
from ury import construct
from ury.rational import format_ratio

state = construct.build_prefix(int(sys.argv[2]))
construct.save_prefix(state, Path(sys.argv[1], "p.ury"))
d = lambda i, j: format_ratio(state.entry(i, j), state.scale)
Path(sys.argv[1], "early.dmat").write_text(f"3\\n{d(5, 2)}\\n{d(9, 2)} {d(9, 5)}\\n")
Path(sys.argv[1], "never.dmat").write_text("3\\n10000\\n10000 10000\\n")
"""

# Run in the child: wrap the prefix load and the search, then run the embed
# command itself.
CHILD = """
import json, sys, time
from ury import cli, construct, embed

spent = {"load": 0.0, "find": 0.0}

def timed(kind, f):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return f(*args, **kwargs)
        finally:
            spent[kind] += time.perf_counter() - start
    return wrapper

construct.load_prefix = timed("load", construct.load_prefix)
embed.find_isometric_embedding = timed("find", embed.find_isometric_embedding)
start = time.perf_counter()
code = cli.main(["embed", "--target", sys.argv[1], "--prefix", sys.argv[2], "--limit", sys.argv[3]])
total = time.perf_counter() - start
sys.stdout.flush()
print(json.dumps({"exit": code, "embed_s": total, "load_s": spent["load"],
                  "find_s": spent["find"]}))
"""

EXPECTED = {
    "early": (0, {"status": "found", "mapping": [3, 6, 10]}),
    "never": (1, {"status": "not-found-up-to", "mapping": None}),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--points", default="1000,2000",
                        help="comma-separated prefix sizes, each at least 10 (default: %(default)s)")
    parser.add_argument("--src", type=Path, default=DEFAULT_SRC,
                        help="the library to build and search with (default: this checkout's)")
    args = parser.parse_args()
    sizes = sorted({int(p) for p in args.points.split(",")})
    if sizes[0] < 10:
        parser.error("every size must be at least 10")

    env = {**os.environ, "PYTHONPATH": str(args.src)}
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run([sys.executable, "-c", BUILD, tmp, str(sizes[-1])], env=env, check=True)
        for n in sizes:
            for target, (code, payload) in EXPECTED.items():
                start = time.perf_counter()
                result = measured(env, CHILD, str(Path(tmp, f"{target}.dmat")),
                                  str(Path(tmp, "p.ury")), str(n))
                result["wall_s"] = time.perf_counter() - start
                good = result["exit"] == code and result["stdout"] == json.dumps(
                    {**payload, "searched": n})
                ok &= good
                print(json.dumps({"points": n, "target": target, "ok": good, **result}), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
