"""Stiffness/load assembly and its derivative with respect to node positions.

Elements are piecewise-linear intervals (1D) or bilinear quadrilaterals
on axis-aligned rectangles (2D).  The assembled system is restricted to
the free degrees of freedom; Dirichlet labeling is recomputed from the
current node coordinates on every call, so it tracks moving nodes.

The gradient contraction differentiates the assembled Ritz energy
    E = 1/2 c^T B c - l . c
with respect to every node coordinate, holding the coefficients c
fixed.  Element stiffness and load derivatives are closed forms, so no
operator-overloading machinery is involved and the linear solve stays
outside the differentiation path.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import loads as ld
from .errors import ConfigurationError, DegenerateMeshError
from .mesh import Mesh1D, TensorMesh2D

COORD_TOL = 1e-12

BOUNDARY_SPECS_1D = ("left", "both")
BOUNDARY_SPECS_2D = ("left-bottom", "all", "lshape")

# Bilinear reference stiffness blocks on the unit square, local node
# order counterclockwise from lower-left: K = coeff * (hy/hx Ax + hx/hy Ay).
_AX = np.array([[2, -2, -1, 1], [-2, 2, 1, -1], [-1, 1, 2, -2], [1, -1, -2, 2]]) / 6.0
_AY = np.array([[2, 1, -1, -2], [1, 2, -2, -1], [-1, -2, 2, 1], [-2, -1, 1, 2]]) / 6.0


@dataclass(frozen=True)
class DofLabeling:
    """Partition of node indices into free DOFs and Dirichlet nodes."""

    free: np.ndarray
    dirichlet: np.ndarray
    values: np.ndarray
    n_nodes: int

    def __post_init__(self):
        if self.free.size + self.dirichlet.size != self.n_nodes:
            raise ValueError("free and dirichlet sets must partition the nodes")

    @property
    def n_free(self):
        return self.free.size

    def full_vector(self, c_free):
        """Insert free coefficients into a vector over all nodes."""
        full = np.zeros(self.n_nodes)
        full[self.dirichlet] = self.values
        full[self.free] = c_free
        return full


@dataclass(frozen=True)
class MaterialField:
    """Piecewise-constant coefficient: (axis-aligned region, value) pairs.

    Regions are (lo, hi) in 1D and (x0, x1, y0, y1) in 2D; everywhere
    else the coefficient takes the default value.  Lookup is by element
    midpoint, so region boundaries must coincide with mesh lines.
    """

    regions: tuple = ()
    default: float = 1.0

    def __post_init__(self):
        for _, value in self.regions:
            if not value > 0:
                raise ValueError("material values must be strictly positive")
        if not self.default > 0:
            raise ValueError("material default must be strictly positive")

    def value_at_1d(self, x):
        out = np.full_like(np.asarray(x, dtype=float), self.default)
        for (lo, hi), value in self.regions:
            out = np.where((x >= lo) & (x <= hi), value, out)
        return out

    def value_at_2d(self, x, y):
        out = np.full(np.broadcast(x, y).shape, self.default)
        for (x0, x1, y0, y1), value in self.regions:
            out = np.where((x >= x0) & (x <= x1) & (y >= y0) & (y <= y1), value, out)
        return out

    def interface_coords(self, axis):
        """Region boundary coordinates along one axis (0 = x, 1 = y)."""
        coords = set()
        for region, _ in self.regions:
            if len(region) == 2:
                coords.update(region)
            else:
                coords.update(region[2 * axis: 2 * axis + 2])
        return sorted(coords)


@dataclass(frozen=True)
class NeumannSpec:
    """Neumann data: a constant endpoint flux in 1D, or manufactured
    edge fluxes with a per-edge quadrature order in 2D."""

    endpoint_value: float | None = None
    edge_fluxes: tuple = field(default=None, compare=False)
    edge_order: int = 50


@dataclass(frozen=True)
class SparseSystem:
    """Restricted SPD system: CSR stiffness over free DOFs plus load."""

    B: sp.csr_matrix
    ell: np.ndarray
    labeling: DofLabeling


def element_stiffness_1d(x_left, x_right, coeff):
    """(coeff/h) [[1, -1], [-1, 1]]; exact, the integrand is constant."""
    h = x_right - x_left
    if h <= 0:
        raise DegenerateMeshError(f"element [{x_left}, {x_right}] has nonpositive length")
    k = coeff / h
    return np.array([[k, -k], [-k, k]])


def element_stiffness_quad(hx, hy, coeff):
    """Exact bilinear-quad Laplace stiffness on an hx-by-hy rectangle."""
    if hx <= 0 or hy <= 0:
        raise DegenerateMeshError(f"element of size {hx} x {hy} is degenerate")
    return coeff * ((hy / hx) * _AX + (hx / hy) * _AY)


def node_coordinates_2d(mesh: TensorMesh2D):
    """Grid coordinates flattened with x fastest: index = iy*(Nx+1) + ix."""
    X, Y = np.meshgrid(mesh.mesh_x.nodes, mesh.mesh_y.nodes, indexing="xy")
    return X.ravel(), Y.ravel()


def label_dirichlet(mesh, spec: str) -> DofLabeling:
    """Label Dirichlet nodes by their current coordinates.

    1D specs: 'left' (Dirichlet at a, Neumann at b) and 'both'.
    2D specs: 'left-bottom', 'all', and 'lshape' (all boundary nodes
    plus every node with x >= 0.5 - tol and y <= 0.5 + tol).
    """
    if isinstance(mesh, Mesh1D):
        if spec not in BOUNDARY_SPECS_1D:
            raise ConfigurationError(f"unknown 1D boundary spec {spec!r}")
        x = mesh.nodes
        a, b = x[0], x[-1]
        mask = x <= a + COORD_TOL
        if spec == "both":
            mask |= x >= b - COORD_TOL
    elif isinstance(mesh, TensorMesh2D):
        if spec not in BOUNDARY_SPECS_2D:
            raise ConfigurationError(f"unknown 2D boundary spec {spec!r}")
        x, y = node_coordinates_2d(mesh)
        ax, bx = mesh.mesh_x.nodes[0], mesh.mesh_x.nodes[-1]
        ay, by = mesh.mesh_y.nodes[0], mesh.mesh_y.nodes[-1]
        left = x <= ax + COORD_TOL
        bottom = y <= ay + COORD_TOL
        right = x >= bx - COORD_TOL
        top = y >= by - COORD_TOL
        if spec == "left-bottom":
            mask = left | bottom
        else:
            mask = left | bottom | right | top
            if spec == "lshape":
                mask |= (x >= 0.5 - COORD_TOL) & (y <= 0.5 + COORD_TOL)
    else:
        raise TypeError(f"unsupported mesh type {type(mesh)!r}")
    idx = np.arange(mask.size)
    dirichlet = idx[mask]
    free = idx[~mask]
    return DofLabeling(free=free, dirichlet=dirichlet,
                       values=np.zeros(dirichlet.size), n_nodes=mask.size)


def _check_material_resolved(mesh, material: MaterialField):
    axes = [mesh.nodes] if isinstance(mesh, Mesh1D) else [mesh.mesh_x.nodes, mesh.mesh_y.nodes]
    for axis, nodes in enumerate(axes):
        lo, hi = nodes[0], nodes[-1]
        for coord in material.interface_coords(axis):
            if coord <= lo + COORD_TOL or coord >= hi - COORD_TOL:
                continue
            if np.min(np.abs(nodes - coord)) > COORD_TOL:
                raise ConfigurationError(
                    f"material interface at {coord} is not resolved by a mesh line"
                )


def _element_tables_2d(mesh: TensorMesh2D):
    """Per-element corner indices and endpoint coordinates."""
    nx = mesh.mesh_x.n_elements
    ny = mesh.mesh_y.n_elements
    ex, ey = np.meshgrid(np.arange(nx), np.arange(ny), indexing="xy")
    ex, ey = ex.ravel(), ey.ravel()
    stride = nx + 1
    ll = ey * stride + ex
    conn = np.stack([ll, ll + 1, ll + stride + 1, ll + stride], axis=1)
    xs = mesh.mesh_x.nodes
    ys = mesh.mesh_y.nodes
    return ex, ey, conn, xs[ex], xs[ex + 1], ys[ey], ys[ey + 1]


def _element_loads(mesh, load):
    """Raw per-element load contributions and scatter tables.

    Returns (conn, contributions) where conn has one row of node
    indices per element row in contributions.  Entries destined for
    Dirichlet nodes may be non-finite for singular forcings; callers
    must drop them before use.
    """
    if isinstance(mesh, Mesh1D):
        x = mesh.nodes
        I_l, I_r = ld.hat_loads(load, x[:-1], x[1:])
        e = np.arange(mesh.n_elements)
        conn = np.stack([e, e + 1], axis=1)
        vals = np.stack([I_l, I_r], axis=1)
        return conn, vals
    conn = _element_tables_2d(mesh)[2]
    vals = ld.area_loads(load, mesh.mesh_x.nodes, mesh.mesh_y.nodes)
    return conn, vals


def assemble_system(mesh, labeling: DofLabeling, material: MaterialField,
                    load: ld.LoadSpec, neumann: NeumannSpec | None = None) -> SparseSystem:
    """Assemble the restricted stiffness matrix and load vector.

    The load vector collects forcing integrals, Neumann boundary terms,
    and, for nonzero Dirichlet values, the lifting -b(u0, v).
    """
    _check_material_resolved(mesh, material)
    if isinstance(mesh, Mesh1D):
        B_full = _stiffness_full_1d(mesh, material)
    else:
        B_full = _stiffness_full_2d(mesh, material)

    rhs = np.zeros(labeling.n_nodes)
    conn, vals = _element_loads(mesh, load)
    free_mask = np.zeros(labeling.n_nodes, dtype=bool)
    free_mask[labeling.free] = True
    keep = free_mask[conn]
    np.add.at(rhs, conn[keep], vals[keep])

    if neumann is not None:
        _apply_neumann(rhs, mesh, labeling, neumann)

    B_free = B_full[labeling.free][:, labeling.free].tocsr()
    B_free.sort_indices()
    ell = rhs[labeling.free]
    if labeling.dirichlet.size and np.any(labeling.values != 0.0):
        lift = B_full[labeling.free][:, labeling.dirichlet] @ labeling.values
        ell = ell - lift
    return SparseSystem(B=B_free, ell=ell, labeling=labeling)


def _stiffness_full_1d(mesh: Mesh1D, material: MaterialField):
    x = mesh.nodes
    h = mesh.lengths
    mid = 0.5 * (x[:-1] + x[1:])
    k = material.value_at_1d(mid) / h
    e = np.arange(mesh.n_elements)
    rows = np.concatenate([e, e, e + 1, e + 1])
    cols = np.concatenate([e, e + 1, e, e + 1])
    data = np.concatenate([k, -k, -k, k])
    n = x.size
    return sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()


def _stiffness_full_2d(mesh: TensorMesh2D, material: MaterialField):
    _, _, conn, xl, xr, yb, yt = _element_tables_2d(mesh)
    hx = xr - xl
    hy = yt - yb
    coeff = material.value_at_2d(0.5 * (xl + xr), 0.5 * (yb + yt))
    K = (coeff * (hy / hx))[:, None, None] * _AX + (coeff * (hx / hy))[:, None, None] * _AY
    rows = np.repeat(conn, 4, axis=1).ravel()
    cols = np.tile(conn, (1, 4)).ravel()
    n = mesh.n_nodes
    return sp.coo_matrix((K.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def _apply_neumann(rhs, mesh, labeling, neumann: NeumannSpec):
    if isinstance(mesh, Mesh1D):
        if neumann.endpoint_value:
            ld.apply_neumann_endpoint(rhs, mesh.nodes.size - 1, neumann.endpoint_value)
        return
    if neumann.edge_fluxes is None:
        return
    g_right, _, g_top, _ = neumann.edge_fluxes
    rule = ld.gauss_legendre(neumann.edge_order)
    xs, ys = mesh.mesh_x.nodes, mesh.mesh_y.nodes
    stride = xs.size
    # right edge x = bx: 1D hats along y
    I_l, I_r = ld.line_hat_loads(g_right, ys[:-1], ys[1:], rule)
    idx = np.arange(ys.size - 1) * stride + (stride - 1)
    np.add.at(rhs, idx, I_l)
    np.add.at(rhs, idx + stride, I_r)
    # top edge y = by: 1D hats along x
    I_l, I_r = ld.line_hat_loads(g_top, xs[:-1], xs[1:], rule)
    idx = (ys.size - 1) * stride + np.arange(xs.size - 1)
    np.add.at(rhs, idx, I_l)
    np.add.at(rhs, idx + 1, I_r)


def assembly_gradient_contraction(mesh, labeling: DofLabeling, material: MaterialField,
                                  load: ld.LoadSpec, c_free,
                                  neumann: NeumannSpec | None = None):
    """d/d(node coordinates) of E = 1/2 c^T B c - l . c at fixed c.

    Because dE/dc = 0 at the solved coefficients, this contraction is
    the full reduced gradient of the Ritz energy with respect to the
    node coordinates; no derivative of the solve is needed.  Entries
    for pinned coordinates (interval endpoints, fixed nodes) are
    computed too and zeroed later by the mesh pullback.

    Returns a vector over the 1D nodes, or a pair (grad_x, grad_y) over
    the two axes' node coordinates in 2D.
    """
    c_full = labeling.full_vector(c_free)
    free_mask = np.zeros(labeling.n_nodes, dtype=bool)
    free_mask[labeling.free] = True

    if isinstance(mesh, Mesh1D):
        return _contraction_1d(mesh, material, load, neumann, c_full, free_mask)
    return _contraction_2d(mesh, material, load, neumann, c_full, free_mask)


def _contraction_1d(mesh, material, load, neumann, c_full, free_mask):
    x = mesh.nodes
    h = mesh.lengths
    mid = 0.5 * (x[:-1] + x[1:])
    coeff = material.value_at_1d(mid)
    dc = c_full[1:] - c_full[:-1]
    # stiffness part: d/dh of coeff/(2h) (c_r - c_l)^2
    s = -coeff * dc * dc / (2.0 * h * h)
    grad = np.zeros_like(x)
    np.add.at(grad, np.arange(h.size), -s)
    np.add.at(grad, np.arange(h.size) + 1, s)
    # load part, skipping entries owned by Dirichlet nodes
    dIl_dxl, dIl_dxr, dIr_dxl, dIr_dxr = ld.hat_load_derivs(load, x[:-1], x[1:])
    cl = np.where(free_mask[:-1], c_full[:-1], 0.0)
    cr = np.where(free_mask[1:], c_full[1:], 0.0)
    np.add.at(grad, np.arange(h.size), -(cl * dIl_dxl + cr * dIr_dxl))
    np.add.at(grad, np.arange(h.size) + 1, -(cl * dIl_dxr + cr * dIr_dxr))
    # the 1D endpoint Neumann term g * v(b) does not move with any node
    return grad


def _contraction_2d(mesh, material, load, neumann, c_full, free_mask):
    ex, ey, conn, xl, xr, yb, yt = _element_tables_2d(mesh)
    hx = xr - xl
    hy = yt - yb
    coeff = material.value_at_2d(0.5 * (xl + xr), 0.5 * (yb + yt))
    C = c_full[conn]                      # (E, 4)
    a = 0.5 * np.einsum("ei,ij,ej->e", C, _AX, C)
    b = 0.5 * np.einsum("ei,ij,ej->e", C, _AY, C)
    s_hx = coeff * (-hy / hx**2 * a + b / hy)
    s_hy = coeff * (a / hx - hx / hy**2 * b)

    Cm = np.where(free_mask[conn], C, 0.0)
    d_dxl, d_dxr, d_dyb, d_dyt = ld.area_load_derivs(load, mesh.mesh_x.nodes, mesh.mesh_y.nodes)
    lx_l = np.einsum("ei,ei->e", Cm, d_dxl)
    lx_r = np.einsum("ei,ei->e", Cm, d_dxr)
    ly_b = np.einsum("ei,ei->e", Cm, d_dyb)
    ly_t = np.einsum("ei,ei->e", Cm, d_dyt)

    grad_x = np.zeros_like(mesh.mesh_x.nodes)
    grad_y = np.zeros_like(mesh.mesh_y.nodes)
    np.add.at(grad_x, ex, -s_hx - lx_l)
    np.add.at(grad_x, ex + 1, s_hx - lx_r)
    np.add.at(grad_y, ey, -s_hy - ly_b)
    np.add.at(grad_y, ey + 1, s_hy - ly_t)

    if neumann is not None and neumann.edge_fluxes is not None:
        _edge_contraction(mesh, neumann, c_full, free_mask, grad_x, grad_y)
    return grad_x, grad_y


def _edge_contraction(mesh, neumann, c_full, free_mask, grad_x, grad_y):
    g_right, g_right_p, g_top, g_top_p = neumann.edge_fluxes
    rule = ld.gauss_legendre(neumann.edge_order)
    xs, ys = mesh.mesh_x.nodes, mesh.mesh_y.nodes
    stride = xs.size

    idx = np.arange(ys.size - 1) * stride + (stride - 1)
    dIl_dl, dIl_dr, dIr_dl, dIr_dr = ld.line_hat_load_derivs(
        g_right, g_right_p, ys[:-1], ys[1:], rule)
    cl = np.where(free_mask[idx], c_full[idx], 0.0)
    cr = np.where(free_mask[idx + stride], c_full[idx + stride], 0.0)
    np.add.at(grad_y, np.arange(ys.size - 1), -(cl * dIl_dl + cr * dIr_dl))
    np.add.at(grad_y, np.arange(ys.size - 1) + 1, -(cl * dIl_dr + cr * dIr_dr))

    idx = (ys.size - 1) * stride + np.arange(xs.size - 1)
    dIl_dl, dIl_dr, dIr_dl, dIr_dr = ld.line_hat_load_derivs(
        g_top, g_top_p, xs[:-1], xs[1:], rule)
    cl = np.where(free_mask[idx], c_full[idx], 0.0)
    cr = np.where(free_mask[idx + 1], c_full[idx + 1], 0.0)
    np.add.at(grad_x, np.arange(xs.size - 1), -(cl * dIl_dl + cr * dIr_dl))
    np.add.at(grad_x, np.arange(xs.size - 1) + 1, -(cl * dIl_dr + cr * dIr_dr))
