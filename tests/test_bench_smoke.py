"""The benchmark harness runs each workload to a correct verdict.

Each workload runs for half a second from a copy of the bench scripts, with
the package's sources linked beside it, so the repository's ``bench/out/``
is not written. A run that exits non-zero, prints a last line that is not
JSON, reports wrong outputs or failed ops, or names other end-to-end metrics
than ``BENCHMARK.json`` fails here.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train", "replay", "stream")


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """Each workload's exit code, last stdout line and stderr, run all at once."""
    root = tmp_path_factory.mktemp("bench-root")
    (root / "bench").mkdir()
    for script in (ROOT / "bench").glob("*.py"):
        shutil.copy(script, root / "bench" / script.name)
    (root / "src").symlink_to(ROOT / "src", target_is_directory=True)
    procs = {
        name: subprocess.Popen(
            [sys.executable, "bench/run.py", "--workload", name, "--seed", "1",
             "--seconds", "0.5", "--trace", "0"],
            cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for name in WORKLOADS
    }
    out = {}
    try:
        for name, proc in procs.items():
            stdout, stderr = proc.communicate(timeout=300)
            lines = stdout.strip().splitlines()
            out[name] = proc.returncode, lines[-1] if lines else "", stderr
    finally:
        for proc in procs.values():
            proc.kill()
            proc.wait()
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_verdict(results, workload):
    code, last, stderr = results[workload]
    assert code == 0, stderr
    report = json.loads(last)
    assert report["correct"] is True, stderr
    assert report["failed"] == 0, stderr
    assert report["attempted"] > 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert sorted(report["metrics"]) == sorted(m["name"] for m in declared)
