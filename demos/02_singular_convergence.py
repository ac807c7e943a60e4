#!/usr/bin/env python3
"""Convergence rates for a singular solution: uniform vs adapted meshes.

For u = x^0.7 the derivative blows up at x = 0 and uniform refinement
converges at the poor rate N^(-0.2).  Relocating nodes recovers nearly
first-order convergence: the trained meshes grade geometrically into
the singularity, with first elements around 1e-9 .. 1e-11.

Runtime is a few minutes (four mesh sizes, 20k iterations each); pass
--quick for a reduced sweep.
"""

import sys

from ritzmesh.experiments import run_convergence
from ritzmesh.problems import power1d

quick = "--quick" in sys.argv
n_list = [16, 32, 64] if quick else [32, 64, 128, 256]
iterations = 4000 if quick else 20000
schedule = [(0, 1e-2), (4000, 1e-3), (14000, 1e-4)]

rows, rate_uniform, rate_adaptive = run_convergence(
    power1d(sigma=0.7), n_list, iterations=iterations, schedule=schedule)

print(f"{'N':>5s} {'e_h (uniform)':>14s} {'e_theta (adapted)':>18s}")
for n, e_h, e_t in rows:
    print(f"{n:5d} {e_h:14.5f} {e_t:18.5f}")
print(f"\nuniform rate:  {rate_uniform:+.3f}   (theory: -0.2 for sigma = 0.7)")
print(f"adapted rate:  {rate_adaptive:+.3f}   (optimal rate is -1)")
