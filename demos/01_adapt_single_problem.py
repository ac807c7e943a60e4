#!/usr/bin/env python3
"""Adapt the mesh of one problem by Ritz energy descent.

The arctan benchmark has a sharp interior front at x = 0.5.  Starting
from the uniform 32-element mesh, each step assembles the system on the
current mesh, solves it once (never differentiating the solve), and
moves the node logits along the energy's reduced gradient.  Watch the
relative error drop below the uniform-mesh error within a few hundred
iterations and the nodes pile up around the front.
"""

import numpy as np

from ritzmesh.energy import relative_error
from ritzmesh.loads import reference_ritz
from ritzmesh.pipeline import evaluate_uniform
from ritzmesh.problems import arctan1d
from ritzmesh.training import train_nonparametric

problem = arctan1d(alpha=10.0, s=0.5, n_elements=32)
e_uniform = relative_error(evaluate_uniform(problem).J, reference_ritz(problem))
print(f"uniform mesh:   e_h = {e_uniform:.5f}")

theta, history = train_nonparametric(problem, schedule=[(0, 1e-2)], iterations=1000)

for t in (0, 10, 30, 100, 300, 1000):
    row = history.rows[t]
    print(f"iteration {row[0]:4d}:  J = {row[1]:+.8f}   e_theta = {row[2]:.5f}")

mesh = problem.build_mesh(theta)
near_front = np.sum(np.abs(mesh.nodes - 0.5) < 0.1)
print(f"\nadapted mesh places {near_front} of {mesh.nodes.size} nodes "
      f"within 0.1 of the front (uniform would place 7)")
print(f"smallest element: {mesh.lengths.min():.2e}, largest: {mesh.lengths.max():.2e}")
