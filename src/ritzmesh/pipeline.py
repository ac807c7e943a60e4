"""The per-iteration evaluation chain: logits -> mesh -> system -> energy.

One Evaluation bundles everything a training step or an experiment
needs.  The solve happens once, outside any differentiation; the
gradient reuses the solved coefficients through the closed-form
contraction and the mesh pullback.
"""

from dataclasses import dataclass

import numpy as np

from .assembly import DofLabeling, SparseSystem, assemble_system, label_dirichlet
from .energy import ritz_energy, ritz_gradient
from .solver import SolveReport, solve_spd


@dataclass(frozen=True)
class Evaluation:
    mesh: object
    labeling: DofLabeling
    system: SparseSystem
    report: SolveReport
    J: float

    @property
    def c(self):
        return self.report.c


def evaluate_mesh(problem, mesh) -> Evaluation:
    labeling = label_dirichlet(mesh, problem.boundary)
    system = assemble_system(mesh, labeling, problem.material, problem.load)
    report = solve_spd(system)
    return Evaluation(mesh=mesh, labeling=labeling, system=system, report=report,
                      J=ritz_energy(system, report.c))


def evaluate(problem, theta=None) -> Evaluation:
    return evaluate_mesh(problem, problem.build_mesh(theta))


def evaluate_uniform(problem) -> Evaluation:
    return evaluate_mesh(problem, problem.uniform_mesh())


def evaluate_with_gradient(problem, theta=None, scale=1.0):
    """Evaluation plus the reduced gradient over the logits."""
    ev = evaluate(problem, theta)
    grad = ritz_gradient(problem, ev.mesh, ev.labeling, ev.c, scale=scale)
    return ev, grad


def finite_difference_gradient(problem, theta, step=1e-6):
    """Central differences of the full logits -> energy pipeline.

    Every perturbed evaluation re-runs mesh construction, assembly, and
    the solve; this is the independent check of the reduced gradient.
    """
    theta = np.asarray(theta, dtype=float)
    grad = np.zeros_like(theta)
    for j in range(theta.size):
        bumped = theta.copy()
        bumped[j] = theta[j] + step
        J_plus = evaluate(problem, bumped).J
        bumped[j] = theta[j] - step
        J_minus = evaluate(problem, bumped).J
        grad[j] = (J_plus - J_minus) / (2.0 * step)
    return grad
