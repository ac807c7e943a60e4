"""The benchmark harness runs every workload briefly and its output keeps its schema."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_self_test():
    proc = subprocess.run([sys.executable, "bench/run.py", "--self-test"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    ok = [line for line in proc.stdout.splitlines() if line.endswith(": ok")]
    assert len(ok) == 6, proc.stdout
