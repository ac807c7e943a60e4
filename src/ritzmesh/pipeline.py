"""The per-iteration evaluation chain: logits -> mesh -> system -> energy.

One Evaluation bundles everything a training step or an experiment
needs.  The solve happens once, outside any differentiation; the
gradient reuses the solved coefficients through the closed-form
contraction and the mesh pullback.

evaluate_batch runs the chain for K problems of one family and size.
In 1D every step acts on (K, .) arrays, row k bitwise what the
single-problem chain gives problem k; the rows that share a free set
share one sparse LU factorization.  2D batches loop over the
single-problem chain.
"""

from dataclasses import dataclass

import numpy as np

from . import loads as ld
from .assembly import (DofLabeling, SparseSystem, assemble_system, contraction_1d,
                       label_dirichlet, stack_materials, stiffness_batch_1d)
from .energy import ritz_energy, ritz_energy_of, ritz_gradient
from .errors import DegenerateMeshError, SolverError
from .mesh import degenerate_rows, mesh_pullback, softmax_nodes
from .solver import SolveReport, solve_spd, solve_splu_batch


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
                      J=ritz_energy(system, report.c, report.Bc))


def evaluate(problem, theta=None) -> Evaluation:
    return evaluate_mesh(problem, problem.build_mesh(theta))


def evaluate_uniform(problem) -> Evaluation:
    return evaluate_mesh(problem, problem.uniform_mesh())


def evaluate_with_gradient(problem, theta=None, scale=1.0):
    """Evaluation plus the reduced gradient over the logits."""
    ev = evaluate(problem, theta)
    grad = ritz_gradient(problem, ev.mesh, ev.system, ev.c, scale=scale)
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


@dataclass
class BatchEvaluation:
    """Per sample: J (nan if skipped), the scaled logits gradient (a nan
    row if skipped; grad is None without scales), the error that skipped
    it or None, and the free-node coefficients c (None if skipped); nodes
    holds a 1D batch's (K, N+1) mesh nodes."""

    J: np.ndarray
    grad: np.ndarray | None
    errors: list
    c: list
    nodes: np.ndarray | None = None

    @property
    def kept(self):
        return np.array([e is None for e in self.errors])


def evaluate_batch(problems, logits=None, scales=None) -> BatchEvaluation:
    """Evaluate K problems of one family and size on logits (K, n), or on
    their uniform meshes if logits is None.  scales are the per-sample
    gradient factors (1/|J_uniform_ref| for the balanced loss); without
    them no gradient is computed.  A sample whose mesh degenerates or
    whose solve fails is skipped with its error, not fatal; logits of
    any other shape raise ValueError."""
    K, first = len(problems), problems[0]
    if scales is not None and logits is None:
        raise ValueError("a logits gradient needs logits")
    if logits is not None and np.shape(logits) != (K, first.theta_size):
        raise ValueError(f"theta has shape {np.shape(logits)}, expected ({K}, {first.theta_size})")
    out = BatchEvaluation(J=np.full(K, np.nan), errors=[None] * K, c=[None] * K,
                          grad=None if scales is None else np.full((K, first.theta_size), np.nan))
    if first.dim == 2:
        _evaluate_each(problems, logits, scales, out)
        return out
    params = first.axis_params
    if logits is None:
        out.nodes = np.repeat(first.uniform_mesh().nodes[None], K, axis=0)
    else:
        out.nodes, record = softmax_nodes(logits, params)
        out.errors = degenerate_rows(out.nodes, params.interval[1] - params.interval[0])
    live = np.flatnonzero(out.kept)
    if live.size == 0:
        return out
    x = out.nodes[live]
    material = stack_materials([problems[k].material for k in live])
    load = ld.stack_loads([problems[k].load for k in live])
    values, derivs = ld.hat_load_parts(load, x)
    rhs = ld.node_loads(*values, np.reshape(load.bind("flux")(), (-1, 1)))
    c_full = _solve_1d(first.boundary, x, material, rhs, live, out)
    solved = live[out.kept[live]]
    if scales is None or solved.size == 0:
        return out
    # rows are independent and a failed solve leaves c zero, so every live row is contracted
    grad_nodes = np.zeros_like(out.nodes)
    grad_nodes[live] = contraction_1d(x, material, c_full, derivs)
    grad = np.asarray(scales, dtype=float)[:, None] * mesh_pullback(grad_nodes, record, params)
    out.grad[solved] = grad[solved]
    return out


def _solve_1d(boundary, x, material, rhs, live, out):
    """Solve row i (batch row live[i]) on nodes x[i] with loads rhs[i],
    recording its J and c; returns c over all nodes.  The rows of
    one free set go to one solve_splu_batch (solve_spd sends it one row);
    the stiffness is symmetric, so its CSR arrays are its CSC arrays."""
    c_full = np.zeros_like(x)
    for rows, labeling, indptr, indices, data in stiffness_batch_1d(x, boundary, material):
        ells = rhs[np.ix_(rows, labeling.free)]
        for i, ell, result in zip(rows, ells, solve_splu_batch(indptr, indices, data, ells)):
            if isinstance(result, SolverError):
                out.errors[live[i]] = result
                continue
            out.J[live[i]] = ritz_energy_of(result.Bc, ell, result.c)
            out.c[live[i]] = result.c
            c_full[i, labeling.free] = result.c
    return c_full


def _evaluate_each(problems, logits, scales, out):
    for k, problem in enumerate(problems):
        try:
            mesh = problem.uniform_mesh() if logits is None else problem.build_mesh(logits[k])
            ev = evaluate_mesh(problem, mesh)
        except (DegenerateMeshError, SolverError) as exc:
            out.errors[k] = exc
            continue
        out.J[k], out.c[k] = ev.J, ev.c
        if scales is not None:
            out.grad[k] = ritz_gradient(problem, ev.mesh, ev.system, ev.c, scale=scales[k])
