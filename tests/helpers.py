"""Shared test helpers: the one way the tests build a single 1D mesh
from logits, the value-only hat loads of either integration mode, and
the per-element exact hat-load formulas that the node-row forms in
ritzmesh.loads replaced, kept as their oracle."""

import numpy as np

from ritzmesh import loads as ld
from ritzmesh.loads import _SINGULAR_TOL, _power_F, _power_G, _power_xF
from ritzmesh.mesh import MeshParams1D, check_lengths, mesh_of_rows, softmax_nodes


def axis_mesh(theta, params=None):
    """The checked Mesh1D of logits theta on the axis params (the unit
    interval without fixed nodes if None), built as ProblemSpec.build_mesh
    builds each axis: one row of softmax_nodes, check_lengths, mesh_of_rows."""
    theta = np.asarray(theta, dtype=float)
    params = MeshParams1D(theta.size) if params is None else params
    nodes, record = softmax_nodes(theta[None], params)
    check_lengths(nodes, params.interval[1] - params.interval[0])
    return mesh_of_rows(nodes, record)


def hat_values(load, xl, xr):
    """The hat loads (I_l, I_r) alone: loads.hat_loads in exact mode,
    loads.line_hat_loads on f by quadrature."""
    if load.mode == "exact":
        return tuple(v[..., 0] for v in ld.hat_loads(load, np.stack([xl, xr], -1)))
    return ld.line_hat_loads(load.bind("f"), xl, xr, load.rule())


def hat_loads_oracle(load, xl, xr):
    """loads.hat_loads on elements [xl, xr], each end's F and G taken
    per element."""
    xl, xr = np.asarray(xl, dtype=float), np.asarray(xr, dtype=float)
    h = xr - xl
    if load.family == "power":
        sg = load.params["sigma"]
        G_l, G_r = _power_G(sg, xl), _power_G(sg, xr)
        F_r = _power_F(sg, xr)
        I_r = (G_r - G_l - xl * F_r + _power_xF(sg, xl)) / h
        with np.errstate(divide="ignore"):
            F_l = np.where(xl > _SINGULAR_TOL, _power_F(sg, np.maximum(xl, _SINGULAR_TOL)),
                           np.where(sg < 1.0, -np.inf, _power_F(sg, 0.0)))
        I_l = (xr * (F_r - F_l) - (G_r - G_l)) / h
        return I_l, I_r
    F, G = load.bind("F"), load.bind("G")
    dF = F(xr) - F(xl)
    dG = G(xr) - G(xl)
    return (xr * dF - dG) / h, (dG - xl * dF) / h


def hat_load_derivs_oracle(load, xl, xr, values):
    """loads.hat_load_derivs on elements [xl, xr], each end's F and f
    taken per element."""
    xl, xr = np.asarray(xl, dtype=float), np.asarray(xr, dtype=float)
    h = xr - xl
    F, f = load.bind("F"), load.bind("f")
    I_l, I_r = values
    with np.errstate(divide="ignore", invalid="ignore"):
        dF = F(xr) - F(xl)
        derivs = (-f(xl) + I_l / h, dF / h - I_l / h, -dF / h + I_r / h, f(xr) - I_r / h)
    if load.family == "power":
        singular = xl <= _SINGULAR_TOL
        derivs = tuple(np.where(singular, 0.0, d) for d in derivs[:3]) + derivs[3:]
    return derivs
