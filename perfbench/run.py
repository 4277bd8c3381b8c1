"""Benchmark of the ury toolkit: one seeded workload per invocation.

Run from the root of a checkout:

    python3 perfbench/run.py --workload prefix_pipeline --seed 1 --seconds 20 --trace 0

Each workload runs as one closed-loop client in a fresh ``worker.py``
process against the unmodified package under ``src/``.  With ``--trace 0``
the last line of standard output is a JSON object holding every end-to-end
metric; with ``--trace 1`` it holds every per-layer metric from a traced
run, next to an untraced run of the same inputs that gives
``trace.overhead_ratio`` and must produce the same output digest.  The line
before it is a JSON report with the digest, the failure rate and the
traffic properties.  Workloads and metrics are described in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("prefix_pipeline", "embed_queries", "katetov_mix")
SETUP_SAMPLES = 3  # set-up is measured in this many fresh processes; the median is reported
RUN_BUDGET_S = 170  # every child process must have ended by then


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, root: Path, args):
        self.root = root
        self.args = args
        self.workdir = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        # numpy's BLAS pool would add threads the client must not have.
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"

    def worker(self, mode: str, trace: int = 0, one_pass: bool = False) -> dict:
        """Run one client process and return its JSON report, with its set-up
        time added as ``raw_setup_s`` and in reference-speed seconds as ``setup_s``."""
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--seconds", str(self.args.seconds), "--trace", str(trace),
            "--mode", mode, "--workdir", str(self.workdir / f"{mode}-{trace}"),
        ] + (["--one-pass"] if one_pass else [])
        started = time.monotonic()
        timeout = self.deadline - started
        if timeout <= 0:
            raise BenchError("time budget exhausted")
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                              timeout=timeout, text=True)
        if proc.returncode != 0:
            raise BenchError(f"worker exited with code {proc.returncode}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        report["raw_setup_s"] = report["ready_at"] - started
        report["setup_s"] = (report["raw_setup_s"] - report["setup_probe_s"]) * report["setup_factor"]
        return report


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summary(report: dict) -> dict:
    attempted = len(report["latencies_s"])
    failed = len(report["failures"])
    return {
        "output_sha256": report["output_sha256"],
        "attempted": attempted,
        "failed": failed,
        "fail_rate": failed / attempted,
        "passes": len(report["pass_walls_s"]),
        "traffic": report["traffic"],
        "failures": report["failures"][:10],
    }


def end_to_end(runner: Runner) -> tuple[dict, dict]:
    setups = [runner.worker("setup") for _ in range(SETUP_SAMPLES - 1)]
    report = runner.worker("run")
    setups.append(report)
    lat_ms = [s * 1000 for s in report["latencies_s"]]
    raw_ms = [s * 1000 for s in report["raw_latencies_s"]]
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in setups), "s"),
        "wall_s": (statistics.median(report["pass_walls_s"]), "s"),
        "op_p50_ms": (quantile(lat_ms, 50), "ms"),
        "op_p90_ms": (quantile(lat_ms, 90), "ms"),
        "peak_rss_mib": (report["peak_rss_mib"], "MiB"),
    }
    info = summary(report)
    info["ops_per_pass"] = len(lat_ms) // len(report["pass_walls_s"])
    info["raw"] = {
        "setup_s": statistics.median(r["raw_setup_s"] for r in setups),
        "wall_s": statistics.median(report["raw_pass_walls_s"]),
        "op_p50_ms": quantile(raw_ms, 50),
        "op_p90_ms": quantile(raw_ms, 90),
    }
    info["setup_s_samples"] = [r["setup_s"] for r in setups]
    return metrics, info


def traced(runner: Runner) -> tuple[dict, dict]:
    plain = runner.worker("run", trace=0, one_pass=True)
    report = runner.worker("run", trace=1, one_pass=True)
    metrics = {name: tuple(v) for name, v in report["layers"].items()}
    ratio = report["pass_walls_s"][0] / plain["pass_walls_s"][0]
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    info = summary(report)
    untraced = summary(plain)
    info["untraced_output_sha256"] = untraced["output_sha256"]
    info["attempted"] += untraced["attempted"]
    info["failed"] += untraced["failed"]
    info["failures"] += untraced["failures"]
    if untraced["output_sha256"] != info["output_sha256"]:
        info["failures"].append("traced and untraced runs gave different output digests")
    return metrics, info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "ury" / "__init__.py").is_file():
        print(f"run.py: no ury package at {root / 'src' / 'ury'}; run from a checkout root",
              file=sys.stderr)
        return 2

    runner = Runner(root, args)
    try:
        metrics, info = (traced if args.trace else end_to_end)(runner)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError,
            IndexError, ZeroDivisionError) as exc:
        print(f"run.py: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)
        try:
            runner.workdir.parent.rmdir()
        except OSError:
            pass

    correct = not info["failures"]
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, **info}))
    print(json.dumps({
        "correct": correct,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
