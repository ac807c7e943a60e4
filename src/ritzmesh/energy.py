"""Ritz energy, balanced energy, relative errors, and the reduced gradient.

The energy is evaluated as E = 1/2 (B c) . c - ell . c.  This exact
form matters: its partial derivative in c vanishes at the discrete
solution, which is what lets the mesh gradient skip differentiating the
linear solve.  The shorter form -1/2 ell . c equals it only at the
solution, so it is not offered.
"""

from dataclasses import dataclass, field

import numpy as np

from .assembly import assembly_gradient_contraction
from .errors import InconsistentReferenceError
from .mesh import mesh_pullback

#: negative radicand larger than this (in energy units) signals inexact
#: integration rather than roundoff
ENERGY_SLACK = 1e-9
RADICAND_CLAMP = 1e-12


def ritz_energy(system, c, Bc=None):
    """1/2 (B c) . c - ell . c, two dot products and one SpMV unless the
    caller passes Bc."""
    return ritz_energy_of(system.B @ c if Bc is None else Bc, system.ell, c)


def ritz_energy_of(Bc, ell, c):
    """ritz_energy from the product B c, for a solver that already formed it."""
    return 0.5 * (Bc @ c) - ell @ c


def balanced_ritz(J, J_uniform_ref):
    """Energy normalized by the magnitude of the uniform-mesh energy."""
    if J_uniform_ref == 0.0:
        raise ValueError("uniform reference energy is zero; problem is degenerate")
    return J / abs(J_uniform_ref)


def relative_error(J_candidate, J_exact):
    """sqrt((J_exact - J_candidate) / J_exact) for J_exact < 0.

    Equals the exact-solution-relative energy-norm error of the
    candidate.  A candidate more than 1e-9 below the reference is
    impossible under exact integration and raises; smaller negativity
    is clamped to zero as roundoff.
    """
    if J_exact >= 0:
        raise ValueError("reference Ritz energy must be negative")
    if J_candidate < J_exact - ENERGY_SLACK:
        raise InconsistentReferenceError(
            f"candidate energy {J_candidate!r} lies below the reference "
            f"{J_exact!r}; the load integration is inconsistent"
        )
    radicand = (J_exact - J_candidate) / J_exact
    if radicand < 0.0:
        radicand = 0.0
    return float(np.sqrt(radicand))


@dataclass
class ErrorReport:
    """Per-parameter relative errors with mean/max aggregates."""

    adaptive: dict = field(default_factory=dict)
    uniform: dict = field(default_factory=dict)

    def aggregate(self):
        keys = list(self.adaptive)
        ad = np.array([self.adaptive[k] for k in keys])
        un = np.array([self.uniform[k] for k in keys])
        return {
            "mean_adaptive": float(ad.mean()),
            "max_adaptive": float(ad.max()),
            "mean_uniform": float(un.mean()),
            "max_uniform": float(un.max()),
        }


def ritz_gradient(problem, mesh, system, c_free, scale=1.0):
    """Reduced gradient of the (optionally balanced) Ritz energy.

    Contracts the closed-form element derivatives of the system assembled
    on the mesh with the solved coefficients, then pulls the node-coordinate
    gradient back through the mesh construction to the logits.  For a
    balanced loss, pass scale = 1/|J_uniform_ref|.  Returns the gradient
    over the logits (theta in the direct mode, the network output in
    parametric mode); one block per axis, x first, from one pullback.
    """
    grads = assembly_gradient_contraction(mesh, system, problem.material, problem.load, c_free)
    g = mesh_pullback(np.reshape(grads, mesh.record.order.shape), mesh.record, problem.axis_params)
    return scale * g.ravel()
