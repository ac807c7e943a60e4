"""The benchmark harness runs every workload briefly and its output keeps its
schema; scripts/ab_inprocess.py runs one case of two checkouts in one process."""

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


def test_ab_inprocess_smoke():
    # one checkout against itself, as two packages in one process
    proc = subprocess.run([sys.executable, "scripts/ab_inprocess.py", str(ROOT), str(ROOT),
                           "--case", "param-batch", "--blocks", "3"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    ratios, summary = proc.stdout.strip().splitlines()
    assert len(ratios.split(":")[1].split()) == 3
    assert summary.startswith("param-batch: change/parent ") and "bootstrap 95%" in summary
