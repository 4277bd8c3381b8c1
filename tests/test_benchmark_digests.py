"""Each benchmark workload's seed-1 output digest, from one pass of its
worker, equals the digest that the CI smoke step checks.  The digests are
read from the workflow file, so that they are written in one place."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def ci_digests() -> dict[str, str]:
    """``{workload: sha256}`` from the ``name=digest`` lines of the smoke step."""
    text = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    return dict(re.findall(r"^\s*(\w+)=([0-9a-f]{64})$", text, re.M))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_pass_at_seed_one_gives_the_ci_digest(tmp_path, workload):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
            "--seed", "1", "--seconds", "1", "--mode", "run", "--one-pass",
            "--workdir", str(tmp_path / "work")]
    result = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr[-2000:]
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["failures"] == []
    assert report["output_sha256"] == ci_digests()[workload]
