"""A 2D step runs its two axes as the rows of one array: one mesh build,
one load evaluation and one pullback.  The per-axis chain it replaced is
kept here as the oracle, and every number must come out bitwise equal."""

import dataclasses
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import axis_mesh
from ritzmesh import loads as ld
from ritzmesh.assembly import (SparseSystem, _load_contraction, _stiffness_weights,
                               assemble_system, label_dirichlet)
from ritzmesh.energy import ritz_energy
from ritzmesh.errors import ConfigurationError, DegenerateMeshError
from ritzmesh.mesh import EPS_MIN_FACTOR, TensorMesh2D, mesh_pullback
from ritzmesh.pipeline import evaluate_with_gradient
from ritzmesh.problems import arctan2d, lshape
from ritzmesh.solver import solve_spd


def _old_line_hat_load_derivs(fun, fun_prime, xl, xr, rule):
    """Quadrature hat loads and their derivatives, one integrand and its
    derivative at a time, on the points of QuadratureRule.mapped."""
    pts, _ = rule.mapped(xl, xr)
    values, slopes = ld._hat_moments(rule.order)
    V, P = fun(pts) @ values, fun_prime(pts) @ slopes
    h = 0.5 * (np.asarray(xr, dtype=float) - np.asarray(xl, dtype=float))
    V0, V1, hP = V[..., 0], V[..., 1], h[..., None] * P
    return ((h * V0, h * V1), (hP[..., 0] - 0.5 * V0, hP[..., 1] + 0.5 * V0,
                               hP[..., 1] - 0.5 * V1, hP[..., 2] + 0.5 * V1))


def _old_node_loads(I_l, I_r, flux):
    end = np.shape(I_l)[:-1] + (1,)
    return (np.concatenate([I_l, np.broadcast_to(flux, end)], axis=-1)
            + np.concatenate([np.zeros(end), I_r], axis=-1))


def _old_terms(load):
    """Each term a pair of (value, derivative, flux at b) partials of x
    and of y."""
    p = load.params
    if load.family == "constant":
        c = p["value"]
        return (((partial(ld._constant_f, c), partial(ld._constant_fp, c), 0.0),
                 (partial(ld._constant_f, 1.0), partial(ld._constant_fp, 1.0), 0.0)),)
    alpha, s1, s2 = p["alpha"], p["s1"], p["s2"]
    f1 = (partial(ld._arctan_f, alpha, s1), partial(ld._arctan_fp, alpha, s1),
          ld._ujp(alpha, s1, 1.0))
    f2 = (partial(ld._arctan_f, alpha, s2), partial(ld._arctan_fp, alpha, s2),
          ld._ujp(alpha, s2, 1.0))
    u1 = (partial(ld._uj, alpha, s1), partial(ld._ujp, alpha, s1), 0.0)
    u2 = (partial(ld._uj, alpha, s2), partial(ld._ujp, alpha, s2), 0.0)
    return ((f1, u2), (u1, f2))


def _old_area_load_derivs(load, xs, ys):
    """One line_hat_load_derivs per term and axis."""
    rule = load.rule()

    def axis(fun, fun_prime, flux, nodes):
        values, derivs = _old_line_hat_load_derivs(fun, fun_prime, nodes[:-1], nodes[1:], rule)
        return _old_node_loads(*values, flux), derivs

    return [(axis(*fx, xs), axis(*fy, ys)) for fx, fy in _old_terms(load)]


def _old_contraction_2d(mesh, material, load_parts, c_full):
    """The 2D contraction with its own stiffness weights."""
    xs, ys = mesh.mesh_x.nodes, mesh.mesh_y.nodes
    wx, wy = _stiffness_weights([xs, ys], material)
    C = c_full.reshape(ys.size, xs.size)
    cx, cy = np.diff(C, axis=1), np.diff(C, axis=0)
    a = (cx[:-1] * cx[:-1] + cx[:-1] * cx[1:] + cx[1:] * cx[1:]) / 6.0
    b = (cy[:, :-1] * cy[:, :-1] + cy[:, :-1] * cy[:, 1:] + cy[:, 1:] * cy[:, 1:]) / 6.0
    t = wx * a - wy * b
    s_x = -(t / np.diff(xs)).sum(axis=0)
    s_y = (t / np.diff(ys)[:, None]).sum(axis=1)
    grad_x, grad_y = np.zeros_like(xs), np.zeros_like(ys)
    grad_x[:-1] -= s_x
    grad_x[1:] += s_x
    grad_y[:-1] -= s_y
    grad_y[1:] += s_y
    for (lx, dx), (ly, dy) in load_parts:
        _load_contraction(grad_x, C.T @ ly, dx)
        _load_contraction(grad_y, C @ lx, dy)
    return grad_x, grad_y


def _old_chain(problem, theta):
    """J, c and the logits gradient by the per-axis chain: a mesh build
    and a pullback per axis, a load evaluation per term and axis, the
    hashed band plan and a second B c for the energy.  The stiffness
    values come from assemble_system, whose arithmetic is unchanged."""
    params = problem.axis_params
    mesh = TensorMesh2D(*[axis_mesh(row, params) for row in np.reshape(theta, (2, -1))])
    labeling = label_dirichlet(mesh, problem.boundary)
    xs, ys = mesh.mesh_x.nodes, mesh.mesh_y.nodes
    parts = _old_area_load_derivs(problem.load, xs, ys)
    rhs = sum(np.outer(ly, lx).ravel() for (lx, _), (ly, _) in parts)
    B = assemble_system(mesh, labeling, problem.material, problem.load).B.copy()
    system = SparseSystem(B=B, ell=rhs[labeling.free], labeling=labeling)
    c = solve_spd(system).c
    grads = _old_contraction_2d(mesh, problem.material, parts, labeling.full_vector(c))
    grad = np.concatenate([mesh_pullback(g, m.record, params) for g, m in zip(grads, mesh.axes)])
    return ritz_energy(system, c), c, grad


def _first_difference(got, want):
    for name, g, w in zip(("J", "c", "gradient"), got, want):
        if not np.array_equal(g, w):
            k = np.flatnonzero(np.ravel(g) != np.ravel(w))[0]
            return (f"{name}[{k}]: {float(np.ravel(g)[k]).hex()} "
                    f"!= {float(np.ravel(w)[k]).hex()}")
    return None


@settings(max_examples=80, deadline=None, derandomize=True)
@given(family=st.sampled_from(["arctan2d-1", "arctan2d-8", "arctan2d-50", "lshape"]),
       n=st.integers(4, 32), scale=st.floats(0.0, 3.0), seed=st.integers(0, 2**32 - 1),
       graded=st.booleans())
def test_axis_rows_are_bitwise_the_per_axis_chain(family, n, scale, seed, graded):
    # logit scales up to 3 grade the mesh by factors up to 1e6; a graded
    # case pulls one logit down until its element sits near the
    # EPS_MIN_FACTOR floor, above or below it.  lshape chains cross the
    # fixed lines x, y = 0.5 wherever their logits put them
    rng = np.random.default_rng(seed)
    if family == "lshape":
        problem = lshape(rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0), n_elements=n)
    else:
        problem = arctan2d(rng.uniform(1.0, 50.0), rng.uniform(0.05, 0.95),
                           rng.uniform(0.05, 0.95), n_elements=n,
                           order=int(family.split("-")[1]))
    theta = rng.normal(0.0, scale, problem.theta_size)
    if graded:
        # logit k of one axis's block: its share of the interval is
        # EPS_MIN_FACTOR times 10^-0.5 to 10^1.5
        block = theta.reshape(2, -1)[rng.integers(2)]
        k = rng.integers(block.size)
        block[k] = np.log(EPS_MIN_FACTOR * 10.0 ** rng.uniform(-0.5, 1.5)) + np.log(
            np.exp(np.delete(block, k)).sum())
    try:
        want = _old_chain(problem, theta)
    except DegenerateMeshError as exc:
        with pytest.raises(DegenerateMeshError) as got:
            evaluate_with_gradient(problem, theta)
        assert str(got.value) == str(exc)
        return
    ev, grad = evaluate_with_gradient(problem, theta)
    assert _first_difference((ev.J, ev.c, grad), want) is None


def test_unequal_axes_raise():
    # a 7 x 5 tensor mesh, which no ProblemSpec builds: its axes cannot be
    # the rows of one array
    rng = np.random.default_rng(8)
    load = ld.LoadSpec("arctan2d", {"alpha": 12.0, "s1": 0.4, "s2": 0.65},
                       mode="quadrature", order=6)
    xs, ys = np.sort(rng.uniform(size=8)), np.sort(rng.uniform(size=6))
    for load_fn in (ld.area_load_derivs, ld.area_loads):
        with pytest.raises(ConfigurationError, match="one size"):
            load_fn(load, xs, ys)


def test_mesh_keeps_the_rows_record():
    problem = lshape(1.0, 1.0, n_elements=8)
    mesh = problem.build_mesh(np.random.default_rng(9).normal(0, 1, problem.theta_size))
    assert mesh.record.order.shape == (2, 9)
    for k, axis in enumerate(mesh.axes):
        np.testing.assert_array_equal(axis.record.order, mesh.record.order[k])
        np.testing.assert_array_equal(axis.record.adaptive, mesh.record.adaptive[k])
        np.testing.assert_array_equal(axis.nodes, np.sort(axis.nodes))


@pytest.mark.parametrize("change", [{"fixed_nodes": ((0.5,), (0.25,))},
                                    {"fixed_nodes": ((0.5,), ())},
                                    {"domain": ((0.0, 1.0), (0.0, 2.0))},
                                    {"domain": ((0.0, 1.0),)}])
def test_2d_axes_must_agree(change):
    with pytest.raises(ConfigurationError):
        dataclasses.replace(lshape(n_elements=8), **change)
