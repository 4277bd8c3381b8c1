"""Time and peak memory of every ``ury`` subcommand, each in a fresh child
process, with a check of each command's output.

    python3 tools/command_sizes.py                         # 1000, 2000 and 4000 points
    python3 tools/command_sizes.py --points 350,450,1000 --runs 1
    python3 tools/command_sizes.py --src ../other/src      # another checkout's library

A set-up child builds the prefix of the largest size once.  For each size N
it writes the N-point prefix as ``pN.ury``, its first 0.9·N points as a
build cache, its ``.dmat`` (each row written from ``PrefixState.row`` with
``format_ratio``, not by ``ury export``) and ``ballsN.json``: N balls, ball
i at point i with radius i·δ, where δ is the least integer above the
prefix's largest distance, so that each ball lies strictly inside every
later one.  It also writes the three embed targets.  Then each run starts
these commands at each size N, every one in a fresh child, and checks:

- ``build-cold`` and ``build-resumed``, in alternating order:
  ``ury build --points N`` with an empty cache directory and with the
  0.9·N-point cache; every build prints the same line and leaves a cache
  file equal, byte for byte, to ``pN.ury``;
- ``export``: ``ury export`` of ``pN.ury`` writes ``pN.dmat`` byte for byte;
- ``export-half``: ``ury export --points H`` of ``pN.ury``, H = N // 2,
  writes ``H`` and then the first H - 1 row lines of ``pN.dmat``, since a
  canonical row does not depend on the prefix it is cut from;
- ``verify``: prints ``OK: metric on N points``;
- ``extend``: ``--support 1 --radii 1`` prints ``1 + d(1, z)`` for every z;
- ``balls``: survivors ``[1]``, N - 1 removals each dominated by ball 1,
  and the witness at point N + 1;
- ``tightspan-kuratowski``: ``--kuratowski 1`` prints ``d(1, z)`` for
  every z;
- ``isom-extend``: the identity on points 1 and 2 extended to point N;
- ``embed-early``: the subspace on points 3, 6 and 10 is found at them;
- ``embed-never``: the equilateral space of side 10000, a distance above
  the largest of these prefixes, is not found (exit 1) after N points,
  refuted before the search reads any index entry;
- ``embed-absent``: the equilateral space whose side is the least
  distance among the first ten points (1/3) is not found (exit 1) after N
  points.  Its distance occurs in every prefix, so the search reads every
  point's index entry; but the 37 pairs at 1/3 in the 4000-point prefix,
  the library's bound, span no triangle, so no prefix holds the target.

The other commands run once per run at sizes of their own, up to the
library's bound: ``tightspan --vertices`` on the generic (distances drawn
from [11, 20] by ``random.Random(n)``), path (points 0, 1, 3, 6, ... of a
line) and equilateral spaces of n = 4 to ``TIGHT_SPAN_MAX_POINTS`` points,
written by this script, printing every Kuratowski function among its
vertices, n of them for the path and n + 1 for the equilateral space;
``c0-demo --n C0_MAX_DIMENSION`` prints a witness; and ``hull-check
--builtin backtrack --step 1/k``, at each k of :data:`HULL_STEPS`, fails
(exit 1) at its first sample past the turn, ``(2k + 1)/k``, at distance
``(2k - 1)/k``.

The child times the command inside ``cli.main`` (``command_s``) and the
library functions that :data:`TIMED` names for the command: outermost calls
of every function of the module whose name starts with the given prefix.
``wall_s`` adds the interpreter's start; all times are raw wall clock.
``maxrss_mib`` is the child's peak resident memory, its ``VmHWM`` (Linux),
and ``numpy`` whether the child loaded numpy.  Only the triangle scan of a
space of ``metric._NUMPY_MIN_N`` points or more loads it, so ``numpy``
must be false for ``build-*``, ``export``, ``export-half``,
``isom-extend``, ``embed-*`` (whose targets have 3 points), ``c0-demo``,
``hull-check`` and every ``tightspan-{generic,path,equilateral}``, and
true for ``verify``, ``extend``, ``balls`` and ``tightspan-kuratowski`` at
350 points and more, which validate the prefix; it is not checked for
those four below 350.
One JSON line is printed per size and command, with the median of each
time and memory value over the runs and every run's value, and ``numpy``
of the first run; ``points`` is N for the prefix commands, the space's
size for ``tightspan-*``, ``--n`` for ``c0-demo`` and k for
``hull-check``.  Each ``embed-absent`` line also has
``index_bytes_per_pair``: its median ``maxrss_mib`` less that of
``embed-never`` at the same N, in bytes, over the N(N - 1) positions of
the whole index (one per ordered pair of points), so index memory reads
per position.  The exit status is 1 unless every check passes; a
command that exits 0 must also write nothing to stderr.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from statistics import median

DEFAULT_SRC = Path(__file__).resolve().parents[1] / "src"
SPACES = ("generic", "path", "equilateral")
# The hull-check runs the 4-long backtrack path at steps 1/k: 4k + 1 samples.
HULL_STEPS = (16383, 2**40)
EMBED = {
    "early": (0, {"status": "found", "mapping": [3, 6, 10]}),
    "never": (1, {"status": "not-found-up-to", "mapping": None}),
    "absent": (1, {"status": "not-found-up-to", "mapping": None}),
}

# Every subcommand of `ury`: its runs as (name, argv), each argv token filled
# in with the size n, its half h = n // 2 and the work directory d.
COMMANDS = {
    "build": [(name, "build --points {n}") for name in ("build-cold", "build-resumed")],
    "export": [("export", "export --cache {d}/p{n}.ury --out {d}/export.dmat"),
               ("export-half", "export --cache {d}/p{n}.ury --points {h} --out {d}/half.dmat")],
    "verify": [("verify", "verify --dmat {d}/p{n}.dmat")],
    "extend": [("extend", "extend --dmat {d}/p{n}.dmat --support 1 --radii 1")],
    "balls": [("balls", "balls --family {d}/balls{n}.json")],
    "tightspan": [("tightspan-kuratowski", "tightspan --dmat {d}/p{n}.dmat --kuratowski 1")]
    + [(f"tightspan-{s}", f"tightspan --dmat {{d}}/{s}{{n}}.dmat --vertices") for s in SPACES],
    "isom-extend": [("isom-extend", "isom-extend --prefix {d}/p{n}.ury --pairs 1:1,2:2 --source {n}")],
    "embed": [(f"embed-{t}", f"embed --target {{d}}/{t}.dmat --prefix {{d}}/p{{n}}.ury --limit {{n}}")
              for t in EMBED],
    "c0-demo": [("c0-demo", "c0-demo --n {n}")],
    "hull-check": [("hull-check", "hull-check --builtin backtrack --step 1/{n}")],
}

# The library functions timed for each subcommand: {field: "module.prefix"}.
TIMED = {
    "verify": {"parse_s": "metric.parse_", "validate_s": "metric.validate_"},
    "balls": {"reduce_s": "extension.reduce_ball_family"},
    "embed": {"load_s": "construct.load_prefix", "find_s": "embed.find_isometric_embedding"},
}

# Run in a child: build the largest prefix, write every input of the prefix
# commands, and print the library's bounds and the distances d(1, z).
SETUP = """
import json, sys
from pathlib import Path
from ury import construct, linf, tightspan
from ury.rational import format_ratio

work, sizes = Path(sys.argv[1]), [int(n) for n in sys.argv[2:]]
state = construct.build_prefix(sizes[-1])
delta = int(state.running_max[-1]) + 1
files = {}
for n in sizes:
    construct.save_prefix(construct.truncate_prefix(state, n), work / f"p{n}.ury")
    (work / f"cache{n}").mkdir()
    construct.save_prefix(construct.truncate_prefix(state, n * 9 // 10),
                          work / f"cache{n}" / f"{state.mode_tag}.ury")
    balls = [{"center": i, "radius": i * delta} for i in range(1, n + 1)]
    (work / f"balls{n}.json").write_text(json.dumps({"dmat": str(work / f"p{n}.dmat"), "balls": balls}))
    files[n] = open(work / f"p{n}.dmat", "w")
    files[n].write(f"{n}\\n")
for i in range(1, sizes[-1]):
    line = " ".join([format_ratio(v, state.scale) for v in state.row(i)]) + "\\n"
    for n, f in files.items():
        if i < n:
            f.write(line)
for f in files.values():
    f.close()
d = lambda i, j: format_ratio(state.entry(i, j), state.scale)
(work / "early.dmat").write_text(f"3\\n{d(5, 2)}\\n{d(9, 2)} {d(9, 5)}\\n")
(work / "never.dmat").write_text("3\\n10000\\n10000 10000\\n")
side = format_ratio(min(state.entry(i, j) for i in range(10) for j in range(i)), state.scale)
(work / "absent.dmat").write_text(f"3\\n{side}\\n{side} {side}\\n")
print(json.dumps({"tightspan": tightspan.TIGHT_SPAN_MAX_POINTS, "c0-demo": linf.C0_MAX_DIMENSION,
                  "column": ["0"] + [d(i, 0) for i in range(1, sizes[-1])]}))
"""

# Run in a child: time the functions named by the JSON in argv[1], then run
# `ury` with the arguments after it.  The last stdout line is the report.
CHILD = """
import importlib, json, sys, time
from ury import cli

spent = {}
depth = [0]

def timed(field, f):
    def wrapper(*args, **kwargs):
        depth[0] += 1
        start = time.perf_counter()
        try:
            return f(*args, **kwargs)
        finally:
            depth[0] -= 1
            if not depth[0]:
                spent[field] += time.perf_counter() - start
    return wrapper

for field, target in json.loads(sys.argv[1]).items():
    spent[field] = 0.0
    module, _, prefix = target.partition(".")
    module = importlib.import_module("ury." + module)
    for name in dir(module):
        if name.startswith(prefix) and callable(getattr(module, name)):
            setattr(module, name, timed(field, getattr(module, name)))

start = time.perf_counter()
code = cli.main(sys.argv[2:])
total = time.perf_counter() - start
sys.stdout.flush()
# The peak of this process's own memory.  Not ru_maxrss: after an exec it
# also counts the peak of the process that started this one.
with open("/proc/self/status") as status:
    peak = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps({"exit": code, "command_s": total, "maxrss_mib": round(peak / 1024, 1),
                  "numpy": "numpy" in sys.modules, **spent}))
"""


def measured(env: dict, timed: dict, argv: list[str]) -> dict:
    """``argv`` run by :data:`CHILD` in a child process: its report, its
    stdout before the report as ``stdout``, any stderr, and ``wall_s``.  A
    child that fails before its report gives ``exit`` 2."""
    start = time.perf_counter()
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(timed), *argv],
                              env=env, stdout=out, stderr=err)
        wall = time.perf_counter() - start
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    head, _, report = stdout.rstrip("\n").rpartition("\n")
    result = json.loads(report) if proc.returncode == 0 else {"exit": 2}
    result.update(stdout=head, wall_s=wall)
    if stderr:
        result["stderr"] = stderr
    return result


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


# The commands that validate the prefix they read, and so load numpy at
# these sizes and more; every other command must not load it.
VALIDATE_PREFIX = ("verify", "extend", "balls", "tightspan-kuratowski")
NUMPY_FROM_POINTS = 350


def passed(name: str, n: int, result: dict, work: Path, column: list[str], seen: dict) -> bool:
    """Whether the run ``result`` of command ``name`` at size n is right.
    ``seen`` keeps the first build line printed at each size."""
    out, code = result.pop("stdout"), result["exit"]
    if code == 0 and "stderr" in result:
        return False
    if name not in VALIDATE_PREFIX and result.get("numpy") is not False:
        return False
    if name in VALIDATE_PREFIX and n >= NUMPY_FROM_POINTS and result.get("numpy") is not True:
        return False
    if name.startswith("build"):
        files = sorted((work / "cache").iterdir())
        return (code == 0 and seen.setdefault(n, out) == out and len(files) == 1
                and filecmp.cmp(files[0], work / f"p{n}.ury", shallow=False))
    if name == "export":
        return code == 0 and filecmp.cmp(work / "export.dmat", work / f"p{n}.dmat", shallow=False)
    if name == "export-half":
        h, lines = n // 2, (work / f"p{n}.dmat").read_text().splitlines(keepends=True)
        return code == 0 and (work / "half.dmat").read_text() == "".join([f"{h}\n", *lines[1:h]])
    if name == "verify":
        return code == 0 and out == f"OK: metric on {n} points"
    if name == "extend":
        return code == 0 and out == " ".join(str(Fraction(v) + 1) for v in column[:n])
    if name == "tightspan-kuratowski":
        return code == 0 and out == " ".join(column[:n])
    if name == "balls":
        if code != 0:
            return False
        # The payload without its last field, the (N+1)-point .dmat.
        payload = json.loads(out.partition(',\n  "extended_dmat"')[0] + "}")
        return (payload["witness_index"] == n + 1 and payload["survivors"] == [1]
                and [r["removed"] for r in payload["removals"]] == list(range(2, n + 1))
                and all(r["dominating"] == 1 for r in payload["removals"]))
    if name == "isom-extend":
        return code == 0 and json.loads(out)["new_pair"][0] == n
    if name.startswith("embed"):
        expected_code, payload = EMBED[name.removeprefix("embed-")]
        return code == expected_code and out == json.dumps({**payload, "searched": n})
    if name.startswith("tightspan"):
        space = name.removeprefix("tightspan-")
        vertices = out.splitlines()
        return (code == 0 and all(" ".join(map(str, row)) in vertices for row in spaces(n)[space])
                and {"path": n, "equilateral": n + 1}.get(space, len(vertices)) == len(vertices))
    if name == "c0-demo":
        return code == 0 and json.loads(out)["witness"] == ["1/2"] * n
    if name == "hull-check":
        return code == 1 and out == (
            "endpoints: distance 0 vs reference 1 -> FAIL\n"
            f"isometry: FAIL at parameters (0, {2 * n + 1}/{n}): distance {2 * n - 1}/{n} != {2 * n + 1}/{n}\n"
            "FAIL")
    raise ValueError(f"no check for {name}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--points", default="1000,2000,4000",
                        help="comma-separated prefix sizes, each at least 10 (default: %(default)s)")
    parser.add_argument("--runs", type=int, default=3,
                        help="runs of each command per size (default: %(default)s)")
    parser.add_argument("--src", type=Path, default=DEFAULT_SRC,
                        help="the library to run (default: this checkout's)")
    args = parser.parse_args()
    sizes = sorted({int(p) for p in args.points.split(",")})
    if sizes[0] < 10 or args.runs < 1:
        parser.error("every size must be at least 10, and --runs at least 1")

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        env = {**os.environ, "PYTHONPATH": str(args.src.resolve()), "URY_CACHE_DIR": str(work / "cache")}
        setup = subprocess.run([sys.executable, "-c", SETUP, tmp, *map(str, sizes)], env=env,
                               check=True, stdout=subprocess.PIPE, text=True)
        bounds = json.loads(setup.stdout)
        column = bounds["column"]
        for n in range(4, bounds["tightspan"] + 1):
            for space, matrix in spaces(n).items():
                (work / f"{space}{n}.dmat").write_text("".join(
                    " ".join(map(str, row[:i])) + "\n" if i else f"{n}\n"
                    for i, row in enumerate(matrix)))
        # The sizes of each command that does not read a prefix; the others
        # run at every prefix size.
        own = {f"tightspan-{s}": range(4, bounds["tightspan"] + 1) for s in SPACES}
        own.update({"c0-demo": [bounds["c0-demo"]], "hull-check": HULL_STEPS})
        groups: dict[int, list[tuple[str, str, str]]] = {}
        for command, runs in COMMANDS.items():
            for name, argv in runs:
                for n in own.get(name, sizes):
                    groups.setdefault(n, []).append((command, name, argv))

        ok, seen = True, {}
        for n, group in groups.items():
            results: dict[str, list[dict]] = {name: [] for _, name, _ in group}
            errors: dict[str, str] = {}
            for run in range(args.runs):
                # Odd runs go in reverse order, so the two builds alternate.
                for command, name, argv in group[::-1] if run % 2 else group:
                    shutil.rmtree(work / "cache", ignore_errors=True)
                    if name == "build-resumed":
                        shutil.copytree(work / f"cache{n}", work / "cache")
                    else:
                        (work / "cache").mkdir()
                    result = measured(env, TIMED.get(command, {}),
                                      [token.format(n=n, h=n // 2, d=tmp) for token in argv.split()])
                    try:
                        good = passed(name, n, result, work, column, seen)
                    except (ValueError, KeyError, TypeError, IndexError):  # malformed output
                        good = False
                    if not good:
                        errors.setdefault(name, result.get("stderr", "wrong output")[-500:])
                    results[name].append(result)
            peaks: dict[str, float] = {}  # each median maxrss_mib printed at this size
            for name, runs in results.items():
                ok &= name not in errors
                line = {"points": n, "command": name, "ok": name not in errors, "runs": len(runs)}
                values = [k for k in runs[0]
                          if k not in ("exit", "stderr", "numpy") and all(k in r for r in runs)]
                line.update({k: median(r[k] for r in runs) for k in values})
                if "maxrss_mib" in line:
                    line["maxrss_mib"] = peaks[name] = round(line["maxrss_mib"], 1)
                if name == "embed-absent" and {name, "embed-never"} <= peaks.keys():
                    line["index_bytes_per_pair"] = round(
                        (peaks[name] - peaks["embed-never"]) * 2**20 / (n * (n - 1)), 1)
                line.update({f"{k}_runs": [r[k] for r in runs] for k in values})
                line["numpy"] = runs[0].get("numpy")
                if name in errors:
                    line["error"] = errors[name]
                print(json.dumps(line), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
