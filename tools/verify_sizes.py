"""Time and peak memory of ``ury export``, ``ury verify`` and the two other
``.dmat`` commands on prefixes of several sizes.

    python3 tools/verify_sizes.py                     # 350, 450, 1000, 2000 points
    python3 tools/verify_sizes.py --points 350,450
    python3 tools/verify_sizes.py --src ../other/src  # another checkout's library

A child process runs ``ury build`` once, at the largest size, into a
temporary cache.  For each size, ``ury export --points N`` writes the
``.dmat`` in a fresh child (``export_s`` is the command, ``export_maxrss_mib``
the child's peak), and ``ury verify`` checks it in another fresh child,
which also times the calls that the command makes into ``ury.metric``:
``parse_s`` is the time inside its ``parse_*`` functions and
``validate_s`` the time inside its ``validate_*`` functions (outermost
calls only), ``verify_s`` the whole command; ``wall_s`` adds the
interpreter's start.  Then ``ury tightspan --kuratowski 1`` and ``ury extend
--support 1 --radii 1`` each read the same file in a fresh child:
``kuratowski_s`` and ``extend_s`` are the commands, ``kuratowski_maxrss_mib``
and ``extend_maxrss_mib`` the children's peaks.  All times are raw wall
clock.  ``maxrss_mib`` is the verify child's ``ru_maxrss``, read with
``os.wait4``.  One JSON line is printed per size; the exit status is 1
unless every export succeeded, verified as a metric, and both other
commands exited 0.
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

DEFAULT_SRC = Path(__file__).resolve().parents[1] / "src"

# Run in a child: one CLI command, timed inside the process.
COMMAND = """
import json, sys, time
from ury import cli

start = time.perf_counter()
code = cli.main(sys.argv[1:])
total = time.perf_counter() - start
sys.stdout.flush()
print(json.dumps({"exit": code, "command_s": total}))
"""

# Run in the child: wrap the parse and validate functions of ury.metric,
# then run the verify command itself.
CHILD = """
import json, sys, time
from ury import cli, metric

spent = {"parse": 0.0, "validate": 0.0}
depth = [0]

def timed(kind, f):
    def wrapper(*args, **kwargs):
        depth[0] += 1
        start = time.perf_counter()
        try:
            return f(*args, **kwargs)
        finally:
            depth[0] -= 1
            if not depth[0]:
                spent[kind] += time.perf_counter() - start
    return wrapper

for name in dir(metric):
    kind = name.split("_", 1)[0]
    if kind in spent and callable(getattr(metric, name)):
        setattr(metric, name, timed(kind, getattr(metric, name)))

start = time.perf_counter()
code = cli.main(["verify", "--dmat", sys.argv[1]])
total = time.perf_counter() - start
sys.stdout.flush()
print(json.dumps({"exit": code, "verify_s": total, "parse_s": spent["parse"],
                  "validate_s": spent["validate"]}))
"""


def measured(env: dict, child: str, *args: str) -> dict:
    """``child`` run as a script with ``args`` in a child process: the JSON
    report on its last stdout line, the lines before it as ``stdout``, any
    stderr, and ``maxrss_mib``."""
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        proc = subprocess.Popen([sys.executable, "-c", child, *args], env=env,
                                stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        lines = out.read().splitlines()
        stderr = err.read()
    result = json.loads(lines[-1]) if lines else {"exit": proc.returncode}
    result["stdout"] = "\n".join(lines[:-1])
    if stderr:
        result["stderr"] = stderr
    result["maxrss_mib"] = round(usage.ru_maxrss / 1024, 1)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--points", default="350,450,1000,2000",
                        help="comma-separated prefix sizes (default: %(default)s)")
    parser.add_argument("--src", type=Path, default=DEFAULT_SRC,
                        help="the library to build and verify with (default: this checkout's)")
    args = parser.parse_args()
    sizes = sorted({int(p) for p in args.points.split(",")})

    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "PYTHONPATH": str(args.src), "URY_CACHE_DIR": tmp}
        cache = str(Path(tmp) / "prefix.ury")
        built = measured(env, COMMAND, "build", "--points", str(sizes[-1]), "--out", cache)
        if built["exit"] != 0:
            print(json.dumps({"build": built}), flush=True)
            return 1
        for n in sizes:
            dmat = Path(tmp) / f"p{n}.dmat"
            export = measured(env, COMMAND, "export", "--cache", cache, "--points", str(n),
                              "--out", str(dmat))
            if export["exit"] != 0:
                ok = False
                print(json.dumps({"points": n, "ok": False, "export": export}), flush=True)
                continue
            start = time.perf_counter()
            result = measured(env, CHILD, str(dmat))
            result["wall_s"] = time.perf_counter() - start
            good = result["exit"] == 0 and result["stdout"] == f"OK: metric on {n} points"
            for name, flags in (("kuratowski", ["tightspan", "--kuratowski", "1"]),
                                ("extend", ["extend", "--support", "1", "--radii", "1"])):
                other = measured(env, COMMAND, *flags, "--dmat", str(dmat))
                good &= other["exit"] == 0
                result[f"{name}_s"] = other.get("command_s")
                result[f"{name}_maxrss_mib"] = other["maxrss_mib"]
                if other["exit"] != 0:
                    result[f"{name}_stderr"] = other.get("stderr", "")
            ok &= good
            print(json.dumps({"points": n, "bytes": dmat.stat().st_size, "ok": good,
                              "export_s": export["command_s"],
                              "export_maxrss_mib": export["maxrss_mib"], **result}), flush=True)
            dmat.unlink()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
