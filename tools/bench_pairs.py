"""Paired benchmark runs of two checkouts, written to one BENCH_*.json file.

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --workload prefix_pipeline --seeds 13,14 --out BENCH_x.json

Both checkouts' ``src`` and ``perfbench`` trees are byte-compiled first, so
that neither side's workers compile modules that the other side's load
from ``__pycache__``.  Then, for each seed, ``perfbench/run.py`` runs once
in each checkout (traced with ``--trace 1``) at the ``run_seconds`` of
``BENCHMARK.json``, one run at a time, the side that goes first
alternating from seed to seed.  The file records each side's tree: its
commit, only when the checkout is the top of a git work tree (an extract
placed inside another checkout has none), with ``dirty: true`` when ``git
status`` shows changes under ``src``, and always ``src_sha256``, a digest
of its ``src`` tree (every file's path and bytes, in sorted path order,
``__pycache__`` excluded).  The trees are taken again after the last run;
if a side's ``src_sha256`` moved during the series, the runs stay in the
file but the tool exits 1, as they measured no one tree.  It keeps, per
run, the seed, the side, the pass count and the report and result lines
that run.py printed, then the per-metric median and quartiles of each
side (over the seeds where both runs completed) and the number of pairs
the change won.  A run that exits nonzero or prints no report and result
is kept with its exit code and the last 20 lines of its standard error,
counted under ``failed``, and the series goes on.  Those lines hold the worker's
traceback next to run.py's own error, so a report that run.py read torn
(a ``JSONDecodeError`` at a multiple of 2^16 characters) can be told
apart from a worker that crashed.  Run again with the same ``--out`` to
append runs of another workload or seed; appending is refused unless the
file records the same trees (older files, which record only
``parent_commit``, are read as they are but cannot be appended to).
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_side(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run.py run: its pass count, report and result, or, if it failed,
    its exit code and the last 20 lines of its standard error."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        report, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
        if proc.returncode == 0:
            return {"passes": report["passes"], "report": report, "result": result}
    except (ValueError, KeyError, TypeError):
        pass
    lines = proc.stderr.strip().splitlines()
    return {"exit": proc.returncode, "stderr": "\n".join(lines[-20:])}


def git(root: Path, *args: str) -> str:
    proc = subprocess.run(["git", *args], cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else ""


def tree(root: Path) -> dict:
    """The checkout's commit, if ``root`` is the top of a git work tree, and
    whether its ``src`` differs from that commit; and the sha256 of its
    ``src`` tree."""
    out = {}
    top = git(root, "rev-parse", "--show-toplevel")
    if top and Path(top).resolve() == root.resolve():
        out["commit"] = git(root, "rev-parse", "HEAD")
        if git(root, "status", "--porcelain", "--", "src"):
            out["dirty"] = True
    src = root / "src"
    files = sorted(
        (path.relative_to(src).as_posix(), path) for path in src.rglob("*")
        if path.is_file() and "__pycache__" not in path.relative_to(src).parts
    )
    digest = hashlib.sha256()
    for name, path in files:
        digest.update(name.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    out["src_sha256"] = digest.hexdigest()
    return out


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 2
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def summarize(runs: list[dict]) -> dict:
    """Per workload (traced runs apart) and metric: each side's median and
    quartiles, and the pairs the change won."""
    out: dict = {}
    for workload, trace in sorted({(r["workload"], r["trace"]) for r in runs}):
        mine = [r for r in runs if (r["workload"], r["trace"]) == (workload, trace)]
        done = [r for r in mine if "result" in r]
        pairs = {}
        for r in done:
            pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]["metrics"]
        pairs = [p for p in pairs.values() if len(p) == 2]
        metrics = {}
        for name in pairs[0]["parent"] if pairs else ():
            parent = [p["parent"][name]["value"] for p in pairs]
            change = [p["change"][name]["value"] for p in pairs]
            metrics[name] = {
                "parent_median": statistics.median(parent),
                "parent_quartiles": quartiles(parent),
                "change_median": statistics.median(change),
                "change_quartiles": quartiles(change),
                "change_lower_in": sum(c < p for p, c in zip(parent, change)),
                "pairs": len(pairs),
            }
        digests = {}
        for r in done:
            digests.setdefault(r["seed"], set()).add(r["report"]["output_sha256"])
        out[workload + (" traced" if trace else "")] = {
            "metrics": metrics,
            "same_output_sha256_per_seed": all(len(d) == 1 for d in digests.values()),
            "failed": sum(r["result"]["failed"] for r in done) + len(mine) - len(done),
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated seeds, one pair each")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    seconds = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())["run_seconds"]
    sides = {"parent": args.parent, "change": args.change}
    trees = {side: tree(root) for side, root in sides.items()}
    data = json.loads(args.out.read_text()) if args.out.exists() else {
        "trees": trees, "seconds": seconds, "runs": []}
    if data.get("trees") != trees:
        parser.error(f"{args.out} records other trees than these; write to a new file")
    for root in sides.values():
        for part in ("src", "perfbench"):
            if not compileall.compile_dir(root / part, quiet=1):
                parser.error(f"{root / part} does not byte-compile")
    for k, seed in enumerate(int(s) for s in args.seeds.split(",")):
        for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
            run = run_side(sides[side], args.workload, seed, seconds, args.trace)
            data["runs"].append({
                "workload": args.workload, "trace": args.trace, "seed": seed, "side": side, **run,
            })
            print(side, seed, *(["failed:", run["exit"], run["stderr"]] if "exit" in run else []),
                  file=sys.stderr)
            data["summary"] = summarize(data["runs"])
            args.out.write_text(json.dumps(data, indent=1) + "\n")
    moved = [side for side, root in sides.items()
             if tree(root)["src_sha256"] != trees[side]["src_sha256"]]
    if moved:
        print(f"the src tree of {' and '.join(moved)} changed during the series;"
              f" its runs in {args.out} measure no one tree", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
