"""Experiment drivers: convergence studies, the integration-landscape
sweep, and error reports for parametric runs.  Everything lands in
plot-ready CSVs; no figures are rendered here.
"""

import logging
import os

import numpy as np

from . import loads as ld
from .energy import ErrorReport, relative_error
from .errors import ConfigurationError
from .mesh import Mesh1D
from .network import mlp_forward
from .pipeline import evaluate_batch, evaluate_mesh, evaluate_uniform
from .problems import ProblemSpec, arctan1d
from .training import ParametricRun, train_nonparametric, write_csv

logger = logging.getLogger(__name__)

#: named learning-rate schedules for the benchmark experiments
PRESETS = {
    "arctan1d-adapt": {"schedule": ((0, 1e-2),), "iterations": 5000},
    # the singular family needs a decaying rate: a constant 1e-2 keeps
    # marching the leading elements into the singularity until they
    # collapse below representability
    "power1d-adapt": {"schedule": ((0, 1e-2), (4000, 1e-3), (14000, 1e-4)),
                      "iterations": 20000},
    "twomaterial1d-adapt": {"schedule": ((0, 1e-2),), "iterations": 10000},
    "arctan2d-adapt": {"schedule": ((0, 1e-2),), "iterations": 2500},
    "lshape-adapt": {"schedule": ((0, 1e-2),), "iterations": 100000},
    "arctan1d-parametric": {"schedule": ((0, 1e-2), (20, 1e-3)), "epochs": 50, "batch": 10},
    "power1d-parametric": {"schedule": ((0, 1e-2),), "epochs": 500, "batch": 10},
    "twomaterial1d-parametric": {"schedule": ((0, 1e-2), (30, 1e-3)), "epochs": 150, "batch": 10},
    "arctan2d-parametric": {"schedule": ((0, 1e-2), (150, 1e-3)), "epochs": 1000, "batch": 1},
    "lshape-parametric": {"schedule": ((0, 1e-2),), "epochs": 5000, "batch": 1},
}


def fit_rate(n_values, errors):
    """Least-squares slope of log(error) against log(N)."""
    n_values = np.asarray(n_values, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if n_values.size < 2:
        return float("nan")
    slope, _ = np.polyfit(np.log(n_values), np.log(errors), 1)
    return float(slope)


def run_convergence(problem: ProblemSpec, n_list, iterations, schedule=((0, 1e-2),),
                    out=None):
    """Uniform vs adapted errors over a sweep of mesh sizes.

    Returns (rows, rate_uniform, rate_adaptive) with rows of
    (N, e_h, e_theta); optionally writes them to out/convergence.csv.
    """
    j_exact = ld.reference_ritz(problem)
    rows = []
    for n in n_list:
        pn = problem.with_n(n)
        e_h = relative_error(evaluate_uniform(pn).J, j_exact)
        theta, history = train_nonparametric(pn, schedule=schedule, iterations=iterations)
        e_theta = history.column("e_theta")[-1]
        rows.append((int(n), float(e_h), float(e_theta)))
    rate_uniform = fit_rate([r[0] for r in rows], [r[1] for r in rows])
    rate_adaptive = fit_rate([r[0] for r in rows], [r[2] for r in rows])
    if out is not None:
        write_csv(os.path.join(out, "convergence.csv"), ("N", "e_h", "e_theta"), rows)
        write_csv(os.path.join(out, "rates.csv"), ("rate_uniform", "rate_adaptive"),
                  [(rate_uniform, rate_adaptive)])
    return rows, rate_uniform, rate_adaptive


def landscape_mesh(n_elements, movable_index, offset, interval=(0.0, 1.0)):
    """Uniform nodes except one, displaced by the given offset."""
    a, b = interval
    nodes = np.linspace(a, b, n_elements + 1)
    nodes[movable_index] += offset
    return Mesh1D.from_nodes(nodes)


def run_landscape(alpha=50.0, s=0.5, n_elements=10, movable_index=5,
                  offsets=None, quad_orders=(2,), out=None):
    """Minimum Ritz energy as one node sweeps, exactly vs by quadrature.

    For each offset the energy is minimized over the FEM space by a
    single solve.  The exact-integration landscape can never cross the
    true minimum; low-order quadrature of the load can, which is the
    instability this sweep exposes.  Returns (rows, columns, J_true).
    """
    if offsets is None:
        offsets = np.linspace(-0.05, 0.05, 200)
    exact_problem = arctan1d(alpha, s, n_elements=n_elements, mode="exact")
    quad_problems = [arctan1d(alpha, s, n_elements=n_elements,
                              mode="quadrature", order=q) for q in quad_orders]
    rows = []
    for off in offsets:
        mesh = landscape_mesh(n_elements, movable_index, off)
        row = [float(off), evaluate_mesh(exact_problem, mesh).J]
        for qp in quad_problems:
            row.append(evaluate_mesh(qp, mesh).J)
        rows.append(tuple(row))
    if len(quad_orders) == 1:
        columns = ("theta", "J_exact_min", "J_quad_min")
    else:
        columns = ("theta", "J_exact_min") + tuple(f"J_quad_min_q{q}" for q in quad_orders)
    if out is not None:
        write_csv(os.path.join(out, "landscape.csv"), columns, rows)
    return rows, columns, ld.reference_ritz(exact_problem)


def parametric_error_report(run: ParametricRun) -> dict:
    """Mean/max relative errors over the train and test tuples.

    Compares the network-adapted meshes against equispaced meshes of
    the same size, both measured against the exact energies.  Each split
    is one network pass and two evaluate_batch calls.  A tuple with a
    failed evaluation is skipped and logged, as training does; a split
    that keeps none raises its first error.
    """
    grid = run.grid
    out = {}
    for label, idx in (("train", grid.train_idx), ("test", grid.test_idx)):
        sigmas = [tuple(sigma) for sigma in grid.tuples[idx].tolist()]
        problems = [run.problem_for(sig) for sig in sigmas]
        logits, _ = mlp_forward(run.params, np.array([grid.encode(sig) for sig in sigmas]))
        adapted, uniform = evaluate_batch(problems, logits), evaluate_batch(problems)
        report, skipped = ErrorReport(), []
        for k, (sig, problem) in enumerate(zip(sigmas, problems)):
            error = adapted.errors[k] or uniform.errors[k]
            if error is not None:
                logger.warning("skipping sigma=%s: %s", sig, error)
                skipped.append(error)
                continue
            j_exact = ld.reference_ritz(problem)
            report.adaptive[sig] = relative_error(adapted.J[k], j_exact)
            report.uniform[sig] = relative_error(uniform.J[k], j_exact)
        if skipped and not report.adaptive:
            raise skipped[0]
        out[label] = report
    return out


def report_rows(reports: dict):
    rows = []
    for label in ("train", "test"):
        agg = reports[label].aggregate()
        rows.append((label, agg["mean_adaptive"], agg["max_adaptive"],
                     agg["mean_uniform"], agg["max_uniform"]))
    return rows


REPORT_COLUMNS = ("dataset", "mean_e_theta", "max_e_theta", "mean_e_h", "max_e_h")


def write_report(reports: dict, out):
    write_csv(os.path.join(out, "error_report.csv"), REPORT_COLUMNS, report_rows(reports))


def solve_summary(problem: ProblemSpec):
    """One uniform-mesh solve; returns (J, e_h or None)."""
    J = evaluate_uniform(problem).J
    try:
        e_h = relative_error(J, ld.reference_ritz(problem))
    except ConfigurationError:
        e_h = None
    return J, e_h
