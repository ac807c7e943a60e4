#!/usr/bin/env python3
"""Run a fixed matrix of CLI commands and keep everything they leave.

Every run is one `python -m ritzmesh.cli` process with --seed 5 at desk
scale, importing the program from src/ of this checkout; two run at a
time, each with one BLAS thread.  Each run gets OUT/<run>/ holding its
config.json, the files/ it wrote (its --out), and its stdout, stderr
and exit_code.  Two checkouts give the same bytes when their outputs
compare equal:

    python scripts/cli_matrix.py /tmp/a          # in checkout A
    python scripts/cli_matrix.py /tmp/b          # in checkout B
    diff -r /tmp/a /tmp/b

Paths in configs are relative to the run directory, so no output names
OUT.  The script exits 1 if any run exits nonzero.
"""

import argparse
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SEED = "5"
#: CLI processes at a time; each is single-threaded
WORKERS = 2


def _train_report(name, cfg):
    """A train run and a report run on its checkpoint with the same grid."""
    report = {k: cfg[k] for k in ("problem", "N", "grid", "problem_options") if k in cfg}
    report["checkpoint"] = f"../train-{name}/files/checkpoint.npz"
    return [(f"train-{name}", "train", cfg), (f"report-{name}", "report", report)]


RUNS = [
    ("solve-arctan1d", "solve", {"problem": "arctan1d", "N": 16}),
    ("adapt-arctan1d", "adapt", {"problem": "arctan1d", "N": 8, "iterations": 20}),
    ("adapt-arctan1d-quadrature", "adapt",
     {"problem": "arctan1d", "N": 8, "iterations": 20,
      "problem_options": {"mode": "quadrature", "order": 3}}),
    ("adapt-power1d", "adapt", {"problem": "power1d", "N": 8, "iterations": 20}),
    ("adapt-twomaterial1d", "adapt", {"problem": "twomaterial1d", "N": 8, "iterations": 20}),
    ("adapt-arctan2d", "adapt", {"problem": "arctan2d", "N": 6, "iterations": 10,
                                 "problem_options": {"order": 8}}),
    ("adapt-lshape", "adapt", {"problem": "lshape", "N": 8, "iterations": 10}),
    *_train_report("arctan1d", {"problem": "arctan1d", "N": 8, "grid": {"counts": [5, 5]},
                                "epochs": 2, "batch": 5}),
    *_train_report("arctan2d", {"problem": "arctan2d", "N": 4, "grid": {"counts": [3, 2, 2]},
                                "epochs": 1, "batch": 5, "problem_options": {"order": 8}}),
    # 2 of the 21 train tuples fail their adapted solve in the report
    *_train_report("arctan1d-rate0.3", {"problem": "arctan1d", "N": 8,
                                        "grid": {"counts": [6, 5]}, "epochs": 2, "batch": 10,
                                        "schedule": [[0, 0.3]]}),
    ("convergence-power1d", "convergence",
     {"problem": "power1d", "N_list": [4, 8], "iterations": 20}),
    ("landscape", "landscape", {"N": 10, "sweep": {"count": 20}, "quad_orders": [2, 8]}),
]


def run(out, name, command, cfg):
    """One CLI process in out/name; returns its exit code."""
    where = out / name
    where.mkdir(parents=True)
    (where / "config.json").write_text(json.dumps(cfg, indent=1) + "\n")
    env = dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "ritzmesh.cli", command, "--config", "config.json",
         "--seed", SEED, "--out", "files"],
        cwd=where, env=env, capture_output=True)
    (where / "stdout").write_bytes(proc.stdout)
    (where / "stderr").write_bytes(proc.stderr)
    (where / "exit_code").write_text(f"{proc.returncode}\n")
    return proc.returncode


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="output directory; must not exist")
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True)
    # reports read the checkpoints of the train runs, so they start after them
    stages = ([r for r in RUNS if r[1] != "report"], [r for r in RUNS if r[1] == "report"])
    codes = {}
    with ThreadPoolExecutor(WORKERS) as pool:
        for stage in stages:
            codes.update(zip([name for name, _, _ in stage],
                             pool.map(lambda r: run(args.out, *r), stage)))
    failed = [name for name, _, _ in RUNS if codes[name] != 0]
    for name in failed:
        print(f"{name}: exit {(args.out / name / 'exit_code').read_text().strip()}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
