#!/usr/bin/env python3
"""An L-shape domain on a tensor mesh, via dynamic Dirichlet masking.

The domain (0,1)^2 minus the bottom-right quadrant is emulated on a
full tensor-product grid: every node with x >= 0.5 and y <= 0.5 is
tagged Dirichlet, and the tagging is recomputed from coordinates after
every mesh update.  Fixed lines at x = 0.5 and y = 0.5 keep the
re-entrant corner (where the solution's gradient is singular) and the
material interfaces on the mesh.

Uniform energies decrease monotonically toward the reference value as
the mesh refines; r-adaptation at N = 32 beats the uniform mesh by
pulling nodes toward the corner.  Runtime a minute or two.
"""

import numpy as np

from ritzmesh.energy import relative_error
from ritzmesh.loads import reference_ritz
from ritzmesh.pipeline import evaluate_uniform
from ritzmesh.problems import lshape
from ritzmesh.training import train_nonparametric

problem = lshape(sigma1=1.0, sigma2=1.0, n_elements=32)
j_ref = reference_ritz(problem)
print(f"reference energy J(u) = {j_ref}")

print(f"\n{'N':>4s} {'J_h':>14s} {'e_h':>9s} {'free DOFs':>10s}")
for n in (8, 16, 32):
    ev = evaluate_uniform(problem.with_n(n))
    print(f"{n:4d} {ev.J:14.9f} {relative_error(ev.J, j_ref):9.5f} "
          f"{ev.labeling.n_free:10d}")

theta, history = train_nonparametric(problem, schedule=[(0, 1e-2)], iterations=10000)
e_adapted = history.column("e_theta")[-1]
print(f"\nadapted N=32 after 10000 iterations: e_theta = {e_adapted:.5f}")

mesh = problem.build_mesh(theta)
x = mesh.mesh_x.nodes
print(f"x-lines within 0.1 of the re-entrant corner: "
      f"{np.sum(np.abs(x - 0.5) < 0.1)} of {x.size} (uniform: 7)")
