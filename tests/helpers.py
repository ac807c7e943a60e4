"""Shared test helpers: the one way the tests build a single 1D mesh
from logits, and the value-only hat loads of either integration mode."""

import numpy as np

from ritzmesh import loads as ld
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
        return ld.hat_loads(load, xl, xr)
    return ld.line_hat_loads(load.bind("f"), xl, xr, load.rule())
