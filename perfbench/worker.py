"""One benchmark client process: set up one workload, run it, report as JSON.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``.
``--mode setup`` stops after set-up (used to sample set-up time repeatedly);
``--mode run`` then runs passes of the workload until ``--seconds`` would be
exceeded (always at least one; exactly one with ``--one-pass``).  The last
line of standard output is the JSON report.  The process starts no threads.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from pathlib import Path

from speed import SpeedProbe


def main() -> None:
    probe = SpeedProbe()
    probe.start()  # before ury is imported: import time is part of set-up
    try:
        run(probe)
    finally:
        probe.stop()


def run(probe: SpeedProbe) -> None:
    from tracer import NullTracer, Tracer
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--one-pass", action="store_true")
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()

    tracer = Tracer() if args.trace else NullTracer()
    if args.trace:
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed, tracer, probe, args.workdir)
    ready_at = time.monotonic()  # CLOCK_MONOTONIC: comparable with the parent's clock
    setup = {"ready_at": ready_at, "setup_probe_s": probe.spent, "setup_factor": probe.factor()}
    if args.trace:
        tracer.op_factors[0] = setup["setup_factor"]
    if args.mode == "setup":
        print(json.dumps(setup), flush=True)
        return

    walls, raw_walls, latencies, raw_latencies, failures = [], [], [], [], []
    digest, traffic = None, {}
    start = time.monotonic()
    index = 0
    while True:
        if index:
            workload.prepare(index)
        res = workload.run_pass(index)
        if index == 0:
            digest, traffic = res.digest(), res.traffic
        walls.append(sum(res.latencies))
        raw_walls.append(sum(res.raw_latencies))
        latencies.extend(res.latencies)
        raw_latencies.extend(res.raw_latencies)
        failures.extend(res.failures)
        index += 1
        elapsed = time.monotonic() - start
        if args.one_pass or elapsed + elapsed / index > args.seconds:
            break

    report = {
        **setup,
        "pass_walls_s": walls,
        "raw_pass_walls_s": raw_walls,
        "latencies_s": latencies,
        "raw_latencies_s": raw_latencies,
        "failures": failures,
        "output_sha256": digest,
        "traffic": traffic,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.trace:
        report["layers"] = tracer.metrics()
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main()
