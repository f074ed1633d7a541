"""The scripts under scripts/, run as a user runs them."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)


def test_classify_all_prints_one_line_per_entry():
    proc = run_script("classify_all.py", "sg126-3-*")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["id"] == "sg126-3-1"
    assert record["aut"] == 126 and record["complete"]
    assert "1 entries, 0 failures" in proc.stderr


@pytest.mark.parametrize("workload", ["reproduce", "classify", "search"])
def test_benchmark_smoke_mode_runs(workload):
    # the harness under perfbench/ calls the package's API; a break there
    # (a renamed class or keyword) fails here
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", "7", "--seconds", "1",
                           "--smoke", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["failed"] == 0
