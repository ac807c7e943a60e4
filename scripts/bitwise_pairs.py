#!/usr/bin/env python3
"""Check that two checkouts compute the same bits on a fixed matrix of cases.

    python scripts/bitwise_pairs.py PARENT CHANGE

Each checkout runs the whole matrix in its own Python process, importing
the program from its src/ with one BLAS thread:

- evaluate_with_gradient (J, c and the logits gradient) for the five
  benchmark families and 1D arctan quadrature, at two sizes and logit
  scales 0.1, 0.5 and 3;
- evaluate_batch with gradients for the three 1D families;
- evaluate_uniform (J and c) on lshape N=128, the largest system the
  benchmark solves (12,033 DOFs), and on power1d N=20001 and
  twomaterial1d N=8000, the largest 1D systems the tests solve;
- 5 train_nonparametric steps on arctan2d and on lshape;
- a 2-epoch train_parametric on arctan1d (history and network weights);
- zero loads: solve_spd on the uniform power1d and twomaterial1d (splu)
  and lshape (banded Cholesky) systems, and solve_splu_batch on three
  arctan1d systems whose middle load is zero (c, B c and residual_norm).

A case that raises records its error text instead.  Per case the script
prints "same", or the first value that differs as float.hex on both
sides; it exits 1 if any case differs or a checkout fails to run.  Like
bench_pairs.py it only starts processes: it imports nothing from either
checkout and writes nothing into them (no bytecode either).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

MATRIX = r'''
import dataclasses
import json
import numpy as np
from ritzmesh import pipeline, problems, sampling, solver, training

def hexes(*arrays):
    return [float(v).hex() for a in arrays for v in np.ravel(np.asarray(a, dtype=float))]

def case(name, fn):
    try:
        out[name] = hexes(*fn())
    except Exception as exc:
        out[name] = f"{type(exc).__name__}: {exc}"

def single(problem, scale, seed):
    theta = scale * np.random.default_rng(seed).normal(size=problem.theta_size)
    ev, grad = pipeline.evaluate_with_gradient(problem, theta)
    return ev.J, ev.c, grad

def batch(family, n, seed):
    rng = np.random.default_rng(seed)
    sigmas = {"arctan1d": lambda: (rng.uniform(1, 50), rng.uniform(0.2, 0.8)),
              "power1d": lambda: (rng.uniform(0.6, 3.0),),
              "twomaterial1d": lambda: (10 ** rng.uniform(-2, 2),)}[family]
    items = [problems.make_problem(family, sigma=sigmas(), n_elements=n) for _ in range(6)]
    logits = 0.5 * rng.normal(size=(6, items[0].theta_size))
    ev = pipeline.evaluate_batch(items, logits, np.linspace(0.5, 1.5, 6))
    return [ev.J, ev.grad] + [c for c in ev.c if c is not None]

def uniform(problem):
    ev = pipeline.evaluate_uniform(problem)
    return ev.J, ev.c

def adapt(problem):
    theta, history = training.train_nonparametric(problem, iterations=5)
    return [theta] + [row for row in history.rows]

def parametric():
    grid = sampling.split_train_test(sampling.default_axes("arctan1d", counts=(5, 5)), seed=0)
    run = training.train_parametric("arctan1d", grid, 8, epochs=2, batch=5, monitor_every=3)
    return [row for row in run.history.rows] + list(run.params.arrays())

def reports(*results):
    return [a for r in results for a in (r.c, r.Bc, r.residual_norm)]

def zero_load(problem):
    system = pipeline.evaluate_uniform(problem).system
    return reports(solver.solve_spd(dataclasses.replace(system, ell=np.zeros_like(system.ell))))

def zero_row_in_block():
    systems = [pipeline.evaluate_uniform(problems.arctan1d(alpha, 0.5, n_elements=16)).system
               for alpha in (5.0, 20.0, 50.0)]
    A = systems[0].B.tocsc()
    ells = np.array([s.ell for s in systems])
    ells[1] = 0.0
    data = np.array([s.B.tocsc().data for s in systems])
    return reports(*solver.solve_splu_batch(A.indptr, A.indices, data, ells))

out = {}
makers = {"arctan1d": (8, 32), "power1d": (8, 32), "twomaterial1d": (8, 32),
          "arctan2d": (6, 16), "lshape": (8, 32)}
for family, sizes in makers.items():
    for n in sizes:
        for k, scale in enumerate((0.1, 0.5, 3.0)):
            problem = problems.make_problem(family, n_elements=n)
            case(f"evaluate {family} N={n} scale={scale}",
                 lambda: single(problem, scale, 100 * n + k))
for n in (8, 32):
    for k, scale in enumerate((0.1, 0.5, 3.0)):
        problem = problems.arctan1d(n_elements=n, mode="quadrature", order=5)
        case(f"evaluate arctan1d-quadrature N={n} scale={scale}",
             lambda: single(problem, scale, 100 * n + k))
for family in ("arctan1d", "power1d", "twomaterial1d"):
    case(f"evaluate_batch {family} N=16", lambda: batch(family, 16, 7))
case("evaluate_uniform lshape N=128", lambda: uniform(problems.lshape(n_elements=128)))
case("evaluate_uniform power1d N=20001", lambda: uniform(problems.power1d(0.9, n_elements=20001)))
case("evaluate_uniform twomaterial1d N=8000",
     lambda: uniform(problems.twomaterial1d(10.0, n_elements=8000)))
case("train_nonparametric arctan2d N=8", lambda: adapt(problems.arctan2d(n_elements=8, order=8)))
case("train_nonparametric lshape N=16", lambda: adapt(problems.lshape(1.3, 0.6, n_elements=16)))
case("train_parametric arctan1d N=8", parametric)
for problem in (problems.power1d(0.9, n_elements=16), problems.twomaterial1d(10.0, n_elements=16),
                problems.lshape(n_elements=16)):
    case(f"solve_spd zero load {problem.family} N=16", lambda: zero_load(problem))
case("solve_splu_batch zero row in a block of 3", zero_row_in_block)
print(json.dumps(out))
'''


def run_matrix(checkout):
    """The matrix's {case: [float.hex, ...] or error text} for one checkout."""
    env = dict(os.environ, PYTHONPATH=str(Path(checkout).resolve() / "src"),
               PYTHONDONTWRITEBYTECODE="1", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", MATRIX], cwd=checkout, env=env,
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def first_difference(a, b):
    """None if the two results are equal, else a line naming where they part."""
    if a == b:
        return None
    if isinstance(a, str) or isinstance(b, str):
        return f"parent {a if isinstance(a, str) else 'values'} / change " \
               f"{b if isinstance(b, str) else 'values'}"
    for k, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return f"value {k}: parent {x} change {y}"
    return f"lengths differ: parent {len(a)} change {len(b)}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    parent, change = run_matrix(args.parent), run_matrix(args.change)
    differ = 0
    for name in sorted(parent.keys() | change.keys()):
        diff = first_difference(parent.get(name, "missing"), change.get(name, "missing"))
        differ += diff is not None
        print(f"{name}: {diff or 'same'}")
    print(f"{differ} of {len(parent.keys() | change.keys())} cases differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
