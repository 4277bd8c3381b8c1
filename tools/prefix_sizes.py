"""Time and peak memory of ``ury build`` and ``ury isom-extend`` on prefixes
of several sizes.

    python3 tools/prefix_sizes.py                     # 1000, 2000 and 4000 points
    python3 tools/prefix_sizes.py --points 1000 --runs 7
    python3 tools/prefix_sizes.py --src ../other/src  # another checkout's library

For each size N a child process builds the N-point prefix once and saves it
as a ``.ury`` file, and saves its first 0.9·N points as a build cache.  Each
run then starts three commands, each in a fresh child process:

- ``build-cold``: ``ury build --points N`` with an empty cache directory;
- ``build-resumed``: ``ury build --points N`` with the 0.9·N-point cache,
  which it replays and extends;
- ``isom-extend``: ``ury isom-extend`` on the N-point ``.ury`` file, the
  identity on points 1 and 2 extended to point N (the image is the first
  point at the same distances from points 1 and 2 as point N).

The runs alternate which build goes first.  ``command_s`` is the time inside
``cli.main``, ``wall_s`` adds the interpreter's start; both are raw wall
clock.  ``maxrss_mib`` is the child's ``ru_maxrss``.  One JSON line is
printed per size and command, with the median of each over the runs and
every run's value.  The exit status is 1 unless every command exits 0 and
every resumed build prints the same line and writes the same cache file,
byte for byte, as the cold build.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

from verify_sizes import DEFAULT_SRC, measured

# Run in a child: build the prefix, save it and save the cache of 0.9·N points.
SETUP = """
import sys
from pathlib import Path
from ury import construct

n, resumed = int(sys.argv[2]), int(sys.argv[3])
state = construct.build_prefix(n)
construct.save_prefix(state, Path(sys.argv[1], "p.ury"))
cache = Path(sys.argv[1], "cache")
cache.mkdir()
construct.save_prefix(construct.truncate_prefix(state, resumed), cache / f"{state.mode_tag}.ury")
"""

# Run in the child: one ury command, timed inside the process.
CHILD = """
import json, sys, time
from ury import cli

start = time.perf_counter()
code = cli.main(sys.argv[1:])
total = time.perf_counter() - start
sys.stdout.flush()
print(json.dumps({"exit": code, "command_s": total}))
"""

METRICS = ("command_s", "wall_s", "maxrss_mib")


def run_command(env: dict, argv: list[str]) -> dict:
    start = time.perf_counter()
    result = measured(env, CHILD, *argv)
    result["wall_s"] = time.perf_counter() - start
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--points", default="1000,2000,4000",
                        help="comma-separated prefix sizes, each at least 10 (default: %(default)s)")
    parser.add_argument("--runs", type=int, default=5,
                        help="runs of each command per size (default: %(default)s)")
    parser.add_argument("--src", type=Path, default=DEFAULT_SRC,
                        help="the library to run (default: this checkout's)")
    args = parser.parse_args()
    sizes = sorted({int(p) for p in args.points.split(",")})
    if sizes[0] < 10:
        parser.error("every size must be at least 10")

    ok = True
    for n in sizes:
        with tempfile.TemporaryDirectory() as tmp:
            env = {**os.environ, "PYTHONPATH": str(args.src)}
            subprocess.run([sys.executable, "-c", SETUP, tmp, str(n), str(n * 9 // 10)],
                           env=env, check=True)
            cache = Path(tmp, "cache")
            results: dict[str, list[dict]] = {"build-cold": [], "build-resumed": [], "isom-extend": []}
            for run in range(args.runs):
                builds = ["build-cold", "build-resumed"]
                for name in builds if run % 2 == 0 else builds[::-1]:
                    work = Path(tmp, name)
                    shutil.rmtree(work, ignore_errors=True)
                    if name == "build-resumed":
                        shutil.copytree(cache, work)
                    else:
                        work.mkdir()
                    result = run_command({**env, "URY_CACHE_DIR": str(work)},
                                         ["build", "--points", str(n)])
                    result["cache"] = b"".join(f.read_bytes() for f in sorted(work.glob("*.ury")))
                    results[name].append(result)
                results["isom-extend"].append(run_command(
                    env, ["isom-extend", "--prefix", str(Path(tmp, "p.ury")),
                          "--pairs", "1:1,2:2", "--source", str(n)]))

            cold = results["build-cold"][0]
            for name, runs in results.items():
                good = all(r["exit"] == 0 and "stderr" not in r for r in runs)
                if name.startswith("build"):
                    good &= all((r["stdout"], r["cache"]) == (cold["stdout"], cold["cache"])
                                for r in runs)
                ok &= good
                line = {"points": n, "command": name, "ok": good, "runs": len(runs)}
                line.update({k: median(r[k] for r in runs) for k in METRICS})
                line.update({f"{k}_runs": [r[k] for r in runs] for k in METRICS})
                line["stdout"] = runs[0]["stdout"]
                print(json.dumps(line), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
