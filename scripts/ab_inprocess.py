#!/usr/bin/env python3
"""Time one case of two checkouts in one process, in alternating blocks.

    python scripts/ab_inprocess.py PARENT CHANGE --case param-batch --blocks 30

Each checkout's src/ritzmesh is imported as a package of its own
(``ritzmesh_parent`` and ``ritzmesh_change``: its modules import each
other relatively), both with one BLAS thread.  Cases, on the
benchmark's sizes:

- param-batch: one K=10 arctan1d N=16 evaluate_batch with gradients;
- param-epoch: one train_parametric call, arctan1d N=16 on the 10x10
  grid with batch 10, five epochs, set-up included;
- adapt-arctan2d: one evaluate_with_gradient, arctan2d N=16 with
  50-point quadrature;
- adapt-lshape: one evaluate_with_gradient, lshape N=128;
- adapt-power1d: one evaluate_with_gradient, power1d N=256, the single
  1D step that the acceptance suite's criterion 3 runs 80,000 times
  (no benchmark workload times it).

Logits are drawn from N(0, 0.1) with SEED, the same on both sides.
After one warm-up block per side, block i runs the case CASES[case]
times on one side and then on the other, the parent first in even blocks, so a
drift of the host's speed favours neither.  The script prints every
block's ratio (change time over parent time), then their median with a
bootstrap 95% interval over blocks; a ratio below 1 means the change is
faster.  It writes nothing into either checkout (no bytecode either).
"""

import argparse
import gc
import importlib
import importlib.util
import os
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

#: case -> repetitions per block (a block of roughly 50-100 ms)
CASES = {"param-batch": 100, "param-epoch": 1, "adapt-arctan2d": 100, "adapt-lshape": 4,
         "adapt-power1d": 100}
BOOTSTRAP = 2000
SEED = 0


def load(checkout, name):
    """checkout/src/ritzmesh imported as the package `name`; returns a
    function from a submodule name to that submodule."""
    root = Path(checkout).resolve() / "src" / "ritzmesh"
    if not (root / "__init__.py").is_file():
        raise SystemExit(f"no program at {root}")
    spec = importlib.util.spec_from_file_location(name, root / "__init__.py",
                                                  submodule_search_locations=[str(root)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return lambda module: importlib.import_module(f"{name}.{module}")


def make_case(case, rm):
    """A function of no arguments that runs the case once on one side."""
    problems, pipeline = rm("problems"), rm("pipeline")
    rng = np.random.default_rng(SEED)
    if case in ("param-batch", "param-epoch"):
        sampling = rm("sampling")
        grid = sampling.split_train_test(
            sampling.default_axes("arctan1d", counts=(10, 10)), seed=SEED)
        if case == "param-epoch":
            training = rm("training")
            return lambda: training.train_parametric("arctan1d", grid, 16, epochs=5, batch=10,
                                                     seed=SEED, monitor_every=70)
        items = [problems.make_problem("arctan1d", sigma=tuple(grid.tuples[i].tolist()),
                                       n_elements=16) for i in grid.train_idx[:10]]
        logits = rng.normal(0.0, 0.1, (len(items), items[0].theta_size))
        scales = np.linspace(0.5, 1.5, len(items))
        return lambda: pipeline.evaluate_batch(items, logits, scales)
    if case == "adapt-arctan2d":
        problem = problems.make_problem("arctan2d", n_elements=16, mode="quadrature", order=50)
    elif case == "adapt-power1d":
        problem = problems.make_problem("power1d", sigma=(0.7,), n_elements=256)
    else:
        problem = problems.make_problem("lshape", n_elements=128)
    theta = rng.normal(0.0, 0.1, problem.theta_size)
    return lambda: pipeline.evaluate_with_gradient(problem, theta)


def block(run, reps):
    """Seconds per run over reps runs, after a collection outside the clock."""
    gc.collect()
    start = time.perf_counter()
    for _ in range(reps):
        run()
    return (time.perf_counter() - start) / reps


def compare(runs, blocks, reps):
    """Per-block ratios change/parent, and their median with a bootstrap
    95% interval over blocks."""
    parent, change = runs
    block(parent, reps), block(change, reps)    # warm-up: caches, plans, imports
    ratios = []
    for i in range(blocks):
        if i % 2 == 0:
            t_parent = block(parent, reps)
            t_change = block(change, reps)
        else:
            t_change = block(change, reps)
            t_parent = block(parent, reps)
        ratios.append(t_change / t_parent)
    ratios = np.array(ratios)
    picks = np.random.default_rng(SEED).integers(0, ratios.size, (BOOTSTRAP, ratios.size))
    low, high = np.percentile(np.median(ratios[picks], axis=1), [2.5, 97.5])
    return ratios, float(np.median(ratios)), float(low), float(high)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--case", choices=sorted(CASES), required=True)
    parser.add_argument("--blocks", type=int, default=30)
    args = parser.parse_args(argv)
    if args.blocks < 1:
        parser.error("--blocks must be at least 1")
    reps = CASES[args.case]
    sys.dont_write_bytecode = True
    runs = [make_case(args.case, load(path, f"ritzmesh_{side}"))
            for path, side in ((args.parent, "parent"), (args.change, "change"))]
    ratios, median, low, high = compare(runs, args.blocks, reps)
    print("block ratios: " + " ".join(f"{r:.3f}" for r in ratios))
    print(f"{args.case}: change/parent {median:.3f} [{low:.3f}, {high:.3f}] "
          f"(median of {ratios.size} blocks of {reps}, bootstrap 95%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
