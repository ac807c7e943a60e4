"""Stiffness/load assembly and its derivative with respect to node positions.

A mesh is read through its axes, x first; 1D is the one-axis case.
Elements are piecewise-linear intervals (1D) or bilinear quadrilaterals
on axis-aligned rectangles (2D).  The assembled system is restricted to
the free degrees of freedom; Dirichlet labeling is recomputed from the
current node coordinates on every call, so it tracks moving nodes.

The load vector is a node vector per axis in 1D and a sum of outer
products of per-axis node vectors in 2D, Neumann data point loads at
the right end of an axis.  The system keeps the element weights, load
derivatives and cached pattern for the contraction and the solver.

The gradient contraction differentiates the assembled Ritz energy
    E = 1/2 c^T B c - l . c
with respect to every node coordinate, holding the coefficients c
fixed.  Element stiffness and load derivatives are closed forms, so no
operator-overloading machinery is involved and the linear solve stays
outside the differentiation path.  The load part is one 1D contraction
per axis: in 2D, term k's x factor meets the coefficients C^T ly_k and
its y factor C lx_k, where C is the (ny+1, nx+1) coefficient grid.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from . import loads as ld
from .errors import ConfigurationError
from .mesh import Mesh1D
from .solver import template, with_values

COORD_TOL = 1e-12

#: boundary spec -> (number of axes, Dirichlet at the upper ends as well as the lower)
BOUNDARY_SPECS = {"left": (1, False), "both": (1, True), "left-bottom": (2, False),
                  "all": (2, True), "lshape": (2, True)}

# Bilinear reference stiffness blocks on the unit square, local node
# order counterclockwise from lower-left: K = coeff * (hy/hx Ax + hx/hy Ay).
_AX = np.array([[2, -2, -1, 1], [-2, 2, 1, -1], [-1, 1, 2, -2], [1, -1, -2, 2]]) / 6.0
_AY = np.array([[2, 1, -1, -2], [1, 2, -2, -1], [-1, -2, 2, 1], [-2, -1, 1, 2]]) / 6.0


@dataclass(frozen=True)
class DofLabeling:
    """The free DOFs, increasing, among n_nodes node indices; the other
    nodes are Dirichlet.

    Dirichlet data are zero: the assembled load has no lifting term.
    """

    free: np.ndarray
    n_nodes: int

    @property
    def n_free(self):
        return self.free.size

    def full_vector(self, c_free):
        """Insert free coefficients into a vector over all nodes; Dirichlet
        data are zero."""
        full = np.zeros(self.n_nodes)
        full[self.free] = c_free
        return full


@dataclass(frozen=True)
class MaterialField:
    """Piecewise-constant coefficient: (axis-aligned region, value) pairs.

    Regions are (lo, hi) per axis, x first: (x0, x1, y0, y1) in 2D;
    everywhere else the coefficient takes the default value.  Lookup is
    by element midpoint, so region boundaries must coincide with mesh lines.
    """

    regions: tuple = ()
    default: float = 1.0

    def __post_init__(self):
        for _, value in self.regions:
            if not np.all(np.asarray(value) > 0):
                raise ValueError("material values must be strictly positive")
        if not np.all(np.asarray(self.default) > 0):
            raise ValueError("material default must be strictly positive")

    def value_at(self, *coords):
        """The coefficient at points given by one coordinate array per axis,
        broadcast against each other."""
        out = np.full(np.broadcast(*coords).shape, self.default)
        for region, value in self.regions:
            inside = True
            for x, lo, hi in zip(coords, region[::2], region[1::2]):
                inside = inside & (x >= lo) & (x <= hi)
            out = np.where(inside, value, out)
        return out

    def interface_coords(self, axis):
        """Region boundary coordinates along one axis (0 = x, 1 = y)."""
        return sorted({c for region, _ in self.regions for c in region[2 * axis: 2 * axis + 2]})


def stack_materials(materials):
    """One MaterialField for K fields with the same regions whose values
    are (K, 1) columns, so a lookup on (K, E) points takes row k's values."""
    def column(values):
        return np.reshape(values, (-1, 1))

    return MaterialField(
        regions=tuple((region, column([m.regions[i][1] for m in materials]))
                      for i, (region, _) in enumerate(materials[0].regions)),
        default=column([m.default for m in materials]))


@dataclass(eq=False)
class Pattern:
    """A cached CSR pattern (see _scatter_pattern): its operator op, its
    solver.template, whose indptr and indices each system shares, and
    plan, the solver's band plan for it, None until its first solve."""

    op: sp.csr_matrix
    template: sp.csr_matrix
    plan: tuple | None = None


@dataclass(frozen=True)
class SparseSystem:
    """Restricted SPD system: CSR stiffness over free DOFs plus load, and
    the load parts (loads.hat_load_parts's (values, derivs) or
    area_load_derivs's terms), weights and Pattern it was assembled from."""

    B: sp.csr_matrix
    ell: np.ndarray
    labeling: DofLabeling
    load_parts: object = None
    weights: tuple | None = None
    pattern: Pattern | None = None


def label_dirichlet(mesh, spec: str) -> DofLabeling:
    """Label Dirichlet nodes by their current coordinates.

    1D specs: 'left' (Dirichlet at a, Neumann at b) and 'both'.
    2D specs: 'left-bottom', 'all', and 'lshape' (all boundary nodes
    plus every node with x >= 0.5 - tol and y <= 0.5 + tol).
    """
    # axis i's nodes along array axis -1 - i, so the raveled grid is x fastest
    mask = _dirichlet_mask([m.nodes.reshape((-1,) + (1,) * i) for i, m in enumerate(mesh.axes)],
                           spec).ravel()
    return _labeling(mask)


def _dirichlet_mask(coords, spec):
    """Dirichlet mask over node arrays, axis i's coordinates coords[i]
    along array axis -1 - i; leading array axes stack meshes."""
    n_axes, upper = BOUNDARY_SPECS.get(spec, (None, False))
    if n_axes != len(coords):
        raise ConfigurationError(f"unknown {len(coords)}D boundary spec {spec!r}")
    mask = False
    for i, x in enumerate(coords):
        mask = mask | (x <= x.take([0], axis=-1 - i) + COORD_TOL)
        if upper:
            mask = mask | (x >= x.take([-1], axis=-1 - i) - COORD_TOL)
    if spec == "lshape":
        x, y = coords
        mask = mask | (x >= 0.5 - COORD_TOL) & (y <= 0.5 + COORD_TOL)
    return mask


def _labeling(mask):
    return DofLabeling(free=np.flatnonzero(~mask), n_nodes=mask.size)


def _check_material_resolved(axes_nodes, material: MaterialField):
    """Every interior material interface must lie on a mesh line, on each
    axis's nodes, or on each row of (K, M) nodes in 1D."""
    for axis, nodes in enumerate(axes_nodes):
        lo, hi = nodes[..., :1], nodes[..., -1:]
        for coord in material.interface_coords(axis):
            at_end = (coord <= lo + COORD_TOL) | (coord >= hi - COORD_TOL)
            off = np.min(np.abs(nodes - coord), axis=-1, keepdims=True) > COORD_TOL
            if np.any(off & ~at_end):
                raise ConfigurationError(
                    f"material interface at {coord} is not resolved by a mesh line"
                )


def _connectivity_2d(nx, ny):
    """Corner node indices (E, 4) of an nx-by-ny element grid, elements
    row by row from the bottom, corners counterclockwise from lower-left."""
    ex, ey = np.meshgrid(np.arange(nx), np.arange(ny), indexing="xy")
    stride = nx + 1
    ll = (ey * stride + ex).ravel()
    return np.stack([ll, ll + 1, ll + stride + 1, ll + stride], axis=1)


@lru_cache(maxsize=8)
def _scatter_pattern(grid_shape, free_bytes):
    """The Pattern of an element grid, (n_elements,) in 1D and (nx, ny)
    in 2D, and a free-node set, the int64 free indices as bytes: a
    template on the restricted CSR indptr and indices (int32, rows and
    columns in free order, columns sorted, Dirichlet entries left out)
    and the operator op from the concatenated raveled _stiffness_weights
    to the CSR data, op @ w.  Every array, op's too, is read-only."""
    if len(grid_shape) == 1:
        e = np.arange(grid_shape[0])
        conn = np.stack([e, e + 1], axis=1)
        local = (np.array([[1.0, -1.0], [-1.0, 1.0]]),)
    else:
        conn = _connectivity_2d(*grid_shape)
        local = (_AX, _AY)
    free = np.frombuffer(free_bytes, dtype=np.int64)
    pos = np.full(conn.max() + 1, -1, dtype=np.int64)
    pos[free] = np.arange(free.size)
    n_el, k = conn.shape
    rows = pos[np.repeat(conn, k, axis=1)].ravel()
    cols = pos[np.tile(conn, (1, k))].ravel()
    sel = np.flatnonzero((rows >= 0) & (cols >= 0))
    keys, slot = np.unique(rows[sel] * free.size + cols[sel], return_inverse=True)
    del rows, cols
    counts = np.bincount(keys // free.size, minlength=free.size)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    # row s of op holds, for each selected entry m with slot[m] == s, local
    # matrix t's entry at column t * E + (the element that m belongs to)
    element, entry = np.divmod(sel[np.argsort(slot, kind="stable")].astype(np.int32), k * k)
    op = sp.csr_matrix(
        (np.stack([A.ravel()[entry] for A in local], axis=1).ravel(),
         (element[:, None] + n_el * np.arange(len(local), dtype=np.int32)).ravel(),
         len(local) * np.append(0, np.cumsum(np.bincount(slot))).astype(np.int32)),
        shape=(keys.size, len(local) * n_el))
    for a in (op.data, op.indices, op.indptr):
        a.flags.writeable = False
    return Pattern(op, template(sp.csr_matrix, indptr, keys % free.size))


def assemble_system(mesh, labeling: DofLabeling, material: MaterialField,
                    load: ld.LoadSpec) -> SparseSystem:
    """Assemble the restricted stiffness matrix and load vector.

    The load vector collects forcing integrals and the load's Neumann
    flux at the right end of each axis; entries at Dirichlet nodes,
    which may be non-finite for singular forcings, are dropped.  The
    stiffness values are the weights times the cached operator.
    """
    axes_nodes = [m.nodes for m in mesh.axes]
    _check_material_resolved(axes_nodes, material)
    if isinstance(mesh, Mesh1D):
        parts = ld.hat_load_parts(load, mesh.nodes)
        rhs = ld.node_loads(*parts[0], load.bind("flux")())
    else:
        parts = ld.area_load_derivs(load, *axes_nodes)
        rhs = sum(np.outer(ly, lx).ravel() for (lx, _), (ly, _) in parts)
    pattern = _scatter_pattern(tuple(m.n_elements for m in mesh.axes), _free_bytes(labeling))
    weights = _stiffness_weights(axes_nodes, material)
    B = with_values(pattern.template, pattern.op @ np.concatenate([w.ravel() for w in weights]))
    return SparseSystem(B=B, ell=rhs[labeling.free], labeling=labeling, load_parts=parts,
                        weights=weights, pattern=pattern)


def stiffness_batch_1d(x, boundary, material: MaterialField):
    """Label the meshes on the rows of (K, M) nodes x and assemble their
    restricted stiffness matrices (material from stack_materials), as
    label_dirichlet and assemble_system do per mesh, on the whole array.
    Returns (rows, labeling, indptr, indices, data) per free set, the
    (len(rows), nnz) data bitwise assemble_system's B.data per mesh (each
    entry sums at most two weights, and in either order the same)."""
    _check_material_resolved([x], material)
    mask = _dirichlet_mask([x], boundary)
    groups = {}
    for i, row in enumerate(mask):
        groups.setdefault(row.tobytes(), []).append(i)
    (w,) = _stiffness_weights([x], material)
    out = []
    for rows in groups.values():
        labeling = _labeling(mask[rows[0]])
        pattern = _scatter_pattern((x.shape[-1] - 1,), _free_bytes(labeling))
        out.append((rows, labeling, pattern.template.indptr, pattern.template.indices,
                    np.ascontiguousarray((pattern.op @ w[rows].T).T)))
    return out


def _free_bytes(labeling):
    return np.asarray(labeling.free, dtype=np.int64).tobytes()


def _stiffness_weights(axes_nodes, material: MaterialField):
    """Element weights, one array per local stiffness matrix: (coeff/h,)
    of [[1, -1], [-1, 1]] on 1D nodes x or on each row of (K, M) nodes;
    on 2D axis nodes (xs, ys) the (ny, nx) grids coeff*hy/hx of _AX and
    coeff*hx/hy of _AY, x nodes as a row, so elements run x fastest."""
    if len(axes_nodes) == 1:
        (x,) = axes_nodes
        return (material.value_at(0.5 * (x[..., :-1] + x[..., 1:])) / (x[..., 1:] - x[..., :-1]),)
    xs, ys = axes_nodes[0], axes_nodes[1][:, None]
    hx, hy = xs[1:] - xs[:-1], ys[1:] - ys[:-1]
    coeff = material.value_at(0.5 * (xs[:-1] + xs[1:]), 0.5 * (ys[:-1] + ys[1:]))
    return coeff * (hy / hx), coeff * (hx / hy)


def assembly_gradient_contraction(mesh, system: SparseSystem, material: MaterialField, c_free):
    """d/d(node coordinates) of E = 1/2 c^T B c - l . c at fixed c.

    Because dE/dc = 0 at the solved coefficients, this contraction is
    the full reduced gradient of the Ritz energy with respect to the
    node coordinates; no derivative of the solve is needed.  Entries
    for pinned coordinates (interval endpoints, fixed nodes) are
    computed too and zeroed later by the mesh pullback.  The Neumann
    point loads sit at the fixed end b and do not move.  The load
    derivatives are those the system kept.  Returns one gradient per
    axis, x first.
    """
    c_full = system.labeling.full_vector(c_free)
    if isinstance(mesh, Mesh1D):
        return (contraction_1d(mesh.nodes, material, c_full, system.load_parts[1]),)
    return _contraction_2d(mesh, system, c_full)


def _load_contraction(grad, w, derivs):
    """Subtract w . d(node loads) from grad, for node coefficients w and
    the per-element hat-load derivatives (dIl_dxl, dIl_dxr, dIr_dxl,
    dIr_dxr) of one axis: left element ends first, then right ends."""
    dIl_dxl, dIl_dxr, dIr_dxl, dIr_dxr = derivs
    wl, wr = w[..., :-1], w[..., 1:]
    grad[..., :-1] -= wl * dIl_dxl + wr * dIr_dxl
    grad[..., 1:] -= wl * dIl_dxr + wr * dIr_dxr


def contraction_1d(x, material, c_full, derivs):
    """The 1D contraction on nodes x with node coefficients c_full, or on
    each row of (K, M) arrays; derivs are the hat-load derivatives of
    loads.hat_load_parts on x."""
    h = x[..., 1:] - x[..., :-1]
    coeff = material.value_at(0.5 * (x[..., :-1] + x[..., 1:]))
    dc = c_full[..., 1:] - c_full[..., :-1]
    # stiffness part: d/dh of coeff/(2h) (c_r - c_l)^2
    s = -coeff * dc * dc / (2.0 * h * h)
    grad = np.zeros_like(x)
    grad[..., :-1] -= s
    grad[..., 1:] += s
    # load part; c_full is zero at Dirichlet nodes
    _load_contraction(grad, c_full, derivs)
    return grad


def _contraction_2d(mesh, system, c_full):
    xs, ys = mesh.mesh_x.nodes, mesh.mesh_y.nodes
    wx, wy = system.weights
    C = c_full.reshape(ys.size, xs.size)
    # element energy wx a + wy b: a = (p^2 + pq + q^2)/6 for the x differences
    # p, q of C on its bottom and top, b the same for those in y on its sides
    cx, cy = C[:, 1:] - C[:, :-1], C[1:] - C[:-1]
    a = (cx[:-1] * cx[:-1] + cx[:-1] * cx[1:] + cx[1:] * cx[1:]) / 6.0
    b = (cy[:, :-1] * cy[:, :-1] + cy[:, :-1] * cy[:, 1:] + cy[:, 1:] * cy[:, 1:]) / 6.0
    # its d/dhx is -t/hx and its d/dhy is t/hy; sum them over columns and rows
    t = wx * a - wy * b
    s_x = -(t / (xs[1:] - xs[:-1])).sum(axis=0)
    s_y = (t / (ys[1:] - ys[:-1])[:, None]).sum(axis=1)
    grad_x = np.zeros_like(xs)
    grad_y = np.zeros_like(ys)
    grad_x[:-1] -= s_x
    grad_x[1:] += s_x
    grad_y[:-1] -= s_y
    grad_y[1:] += s_y

    for (lx, dx), (ly, dy) in system.load_parts:
        _load_contraction(grad_x, C.T @ ly, dx)
        _load_contraction(grad_y, C @ lx, dy)
    return grad_x, grad_y
