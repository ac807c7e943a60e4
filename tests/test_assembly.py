"""Element matrices, labeling, assembly, and the frozen-c gradient."""

import numpy as np
import pytest
import scipy.sparse as sp

from helpers import hat_values
from ritzmesh.assembly import (
    _AX,
    _AY,
    MaterialField,
    _contraction_2d,
    _scatter_pattern,
    _stiffness_weights,
    assemble_system,
    assembly_gradient_contraction,
    label_dirichlet,
)
from ritzmesh import loads as ld
from ritzmesh.energy import ritz_energy
from ritzmesh.errors import ConfigurationError
from ritzmesh.mesh import Mesh1D, TensorMesh2D
from ritzmesh.pipeline import evaluate, evaluate_uniform
from ritzmesh.problems import (
    arctan1d,
    arctan2d,
    constant1d,
    lshape,
    power1d,
    twomaterial1d,
)
from ritzmesh.solver import solve_spd


def _one_element(axes_nodes, coeff):
    """The element matrix of a one-element mesh without Dirichlet nodes,
    assembled by the cached operator from the element weights, in
    counterclockwise local order in 2D (grid order is ll, lr, ul, ur)."""
    n = 2 ** len(axes_nodes)
    pattern = _scatter_pattern((1,) * len(axes_nodes), np.arange(n, dtype=np.int64).tobytes())
    weights = _stiffness_weights([np.array(a, dtype=float) for a in axes_nodes],
                                 MaterialField(default=coeff))
    K = sp.csr_matrix((pattern.op @ np.concatenate([w.ravel() for w in weights]),
                       pattern.indices, pattern.indptr), shape=(n, n)).toarray()
    ccw = [0, 1, 3, 2][:n]
    return K[np.ix_(ccw, ccw)]


def stiffness_1d(x_left, x_right, coeff):
    """The element matrix of a one-element mesh [x_left, x_right]."""
    return _one_element([[x_left, x_right]], coeff)


def stiffness_quad(hx, hy, coeff):
    """The element matrix of a one-element hx-by-hy mesh."""
    return _one_element([[0.0, hx], [0.0, hy]], coeff)


class TestElementStiffness1D:
    def test_unit_element(self):
        np.testing.assert_array_equal(
            stiffness_1d(0.0, 1.0, 1.0), [[1, -1], [-1, 1]])

    def test_scaling(self):
        np.testing.assert_allclose(
            stiffness_1d(0.0, 0.5, 10.0), [[20, -20], [-20, 20]])

    def test_row_sums_vanish(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            h = rng.uniform(0.01, 2.0)
            k = stiffness_1d(0.3, 0.3 + h, rng.uniform(0.1, 5.0))
            np.testing.assert_allclose(k.sum(axis=1), 0.0, atol=1e-12)


class TestElementStiffnessQuad:
    def test_unit_square(self):
        expected = np.array([
            [4, -1, -2, -1], [-1, 4, -1, -2], [-2, -1, 4, -1], [-1, -2, -1, 4],
        ]) / 6.0
        np.testing.assert_allclose(stiffness_quad(1.0, 1.0, 1.0), expected,
                                   rtol=1e-15)

    def test_symbolic_oracle(self):
        # quadrature of grad(phi_i) . grad(phi_j) over a rectangle, with
        # an order high enough to be exact for the bilinear integrand
        import itertools
        from ritzmesh.quadrature import gauss_legendre
        hx, hy = 0.7, 0.35
        rule = gauss_legendre(3)
        xs = 0.5 * hx * (rule.points + 1.0)
        ys = 0.5 * hy * (rule.points + 1.0)
        wx = 0.5 * hx * rule.weights
        wy = 0.5 * hy * rule.weights
        corners = [(0, 0), (hx, 0), (hx, hy), (0, hy)]

        def grad_phi(i, x, y):
            cx, cy = corners[i]
            sx = 1.0 if cx else -1.0
            sy = 1.0 if cy else -1.0
            lx = x / hx if cx else 1 - x / hx
            ly = y / hy if cy else 1 - y / hy
            return sx / hx * ly, sy / hy * lx

        K = np.zeros((4, 4))
        for i, j in itertools.product(range(4), repeat=2):
            for a, x in enumerate(xs):
                for b, y in enumerate(ys):
                    gi = grad_phi(i, x, y)
                    gj = grad_phi(j, x, y)
                    K[i, j] += wx[a] * wy[b] * (gi[0] * gj[0] + gi[1] * gj[1])
        np.testing.assert_allclose(stiffness_quad(hx, hy, 1.0), K, rtol=1e-13)

    def test_row_sums_vanish(self):
        k = stiffness_quad(2.0, 0.3, 3.0)
        np.testing.assert_allclose(k.sum(axis=1), 0.0, atol=1e-12)

    def test_axis_swap_permutation(self):
        a = stiffness_quad(2.0, 1.0, 1.0)
        b = stiffness_quad(1.0, 2.0, 1.0)
        # swapping axes maps local nodes (ll, lr, ur, ul) -> (ll, ul, ur, lr)
        perm = [0, 3, 2, 1]
        np.testing.assert_allclose(a, b[np.ix_(perm, perm)], rtol=1e-14)


class TestLabeling:
    def test_1d_left(self):
        mesh = Mesh1D.from_nodes([0.0, 0.5, 1.0])
        lab = label_dirichlet(mesh, "left")
        np.testing.assert_array_equal(lab.dirichlet, [0])
        np.testing.assert_array_equal(lab.free, [1, 2])

    def test_1d_both(self):
        mesh = Mesh1D.from_nodes([0.0, 0.3, 0.8, 1.0])
        lab = label_dirichlet(mesh, "both")
        np.testing.assert_array_equal(lab.dirichlet, [0, 3])

    def test_2d_all_boundary(self):
        axis = Mesh1D.from_nodes([0.0, 0.5, 1.0])
        mesh = TensorMesh2D(mesh_x=axis, mesh_y=axis)
        lab = label_dirichlet(mesh, "all")
        np.testing.assert_array_equal(lab.free, [4])

    def test_lshape_4x4(self):
        # 5x5 grid: the free nodes are the interior nodes of the L only
        axis = Mesh1D.from_nodes(np.linspace(0, 1, 5))
        mesh = TensorMesh2D(mesh_x=axis, mesh_y=axis)
        lab = label_dirichlet(mesh, "lshape")
        assert lab.n_free == 5
        stride = 5
        expected = sorted([1 * stride + 1 + 0, 2 * stride + 1, 3 * stride + 1,
                           3 * stride + 2, 3 * stride + 3])
        np.testing.assert_array_equal(lab.free, expected)

    def test_lshape_matches_dof_formula(self):
        # active DOFs on the masked L-shape: 3/4 N^2 - 2N + 1 for even N
        for n in (4, 8, 16):
            axis = Mesh1D.from_nodes(np.linspace(0, 1, n + 1))
            mesh = TensorMesh2D(mesh_x=axis, mesh_y=axis)
            lab = label_dirichlet(mesh, "lshape")
            assert lab.n_free == 3 * n * n // 4 - 2 * n + 1

    @pytest.mark.parametrize("problem", [lshape(1.7, 0.4, n_elements=8),
                                         arctan2d(10.0, 0.3, 0.6, n_elements=6, order=4)],
                             ids=["lshape", "arctan2d"])
    def test_2d_matches_meshgrid_reference(self, problem):
        rng = np.random.default_rng(11)
        for sigma in (0.0, 0.3, 1.0):
            mesh = problem.build_mesh(rng.normal(0.0, sigma, problem.theta_size))
            X, Y = (g.ravel() for g in np.meshgrid(mesh.mesh_x.nodes, mesh.mesh_y.nodes))
            tol = 1e-12
            left_bottom = (X <= X.min() + tol) | (Y <= Y.min() + tol)
            boundary = left_bottom | (X >= X.max() - tol) | (Y >= Y.max() - tol)
            corner = (X >= 0.5 - tol) & (Y <= 0.5 + tol)
            for spec, mask in (("left-bottom", left_bottom), ("all", boundary),
                               ("lshape", boundary | corner)):
                np.testing.assert_array_equal(label_dirichlet(mesh, spec).free,
                                              np.flatnonzero(~mask))

    def test_relabeling_tracks_moving_nodes(self):
        lab0 = label_dirichlet(Mesh1D.from_nodes([0.0, 0.4, 1.0]), "both")
        lab1 = label_dirichlet(Mesh1D.from_nodes([0.0, 0.6, 1.0]), "both")
        np.testing.assert_array_equal(lab0.free, lab1.free)


class TestAssembly:
    def test_hand_assembled_poisson(self):
        p = constant1d(value=1.0, n_elements=2)
        ev = evaluate_uniform(p)
        np.testing.assert_allclose(ev.system.B.toarray(), [[4, -2], [-2, 2]], rtol=1e-15)
        np.testing.assert_allclose(ev.system.ell, [0.5, 0.25], rtol=1e-15)

    def test_symmetry_and_spd(self):
        p = arctan1d(10.0, 0.5, n_elements=16)
        ev = evaluate(p, np.linspace(-0.4, 0.3, 16))
        B = ev.system.B
        asym = abs(B - B.T)
        assert asym.nnz == 0 or asym.max() < 1e-13
        np.linalg.cholesky(B.toarray())

    def test_two_material_interface_diagonal(self):
        p = twomaterial1d(10.0, n_elements=4)
        ev = evaluate_uniform(p)
        # full-node index 2 sits at the interface; free index is 2 - 1
        diag = ev.system.B.diagonal()
        assert abs(diag[1] - 44.0) < 1e-12

    def test_material_must_be_resolved(self):
        from ritzmesh.loads import LoadSpec
        mesh = Mesh1D.from_nodes([0.0, 0.3, 1.0])
        lab = label_dirichlet(mesh, "both")
        mat = MaterialField(regions=(((0.5, 1.0), 2.0),))
        with pytest.raises(ConfigurationError):
            assemble_system(mesh, lab, mat, LoadSpec("constant", {"value": 1.0}))

    def test_nested_refinement_lowers_energy(self):
        for p in (arctan1d(10.0, 0.5, 4), power1d(0.7, 4), twomaterial1d(10.0, 4)):
            J_coarse = evaluate_uniform(p.with_n(4)).J
            J_fine = evaluate_uniform(p.with_n(8)).J
            assert J_fine <= J_coarse + 1e-14

    def test_energy_identity_at_solution(self):
        for p in (arctan1d(), power1d(), twomaterial1d(), lshape(n_elements=8)):
            ev = evaluate_uniform(p)
            J_direct = ritz_energy(ev.system, ev.c)
            J_load = -0.5 * (ev.system.ell @ ev.c)
            assert abs(J_direct - J_load) <= 1e-12 * abs(J_load)


class TestGradientContraction:
    def _frozen_fd(self, problem, mesh, labeling, c_free, indices, axis=None, step=1e-6):
        """Central differences of the element-sum energy in node coords."""
        def energy_at(nodes_x, nodes_y=None):
            if problem.dim == 1:
                m = Mesh1D(nodes=nodes_x, record=None)
            else:
                m = TensorMesh2D(mesh_x=Mesh1D(nodes=nodes_x, record=None),
                                 mesh_y=Mesh1D(nodes=nodes_y, record=None))
            system = assemble_system(m, labeling, problem.material, problem.load)
            return ritz_energy(system, c_free)

        grads = {}
        for i in indices:
            vals = []
            for sign in (+1, -1):
                if problem.dim == 1:
                    nodes = mesh.nodes.copy()
                    nodes[i] += sign * step
                    vals.append(energy_at(nodes))
                else:
                    nx = mesh.mesh_x.nodes.copy()
                    ny = mesh.mesh_y.nodes.copy()
                    (nx if axis == 0 else ny)[i] += sign * step
                    vals.append(energy_at(nx, ny))
            grads[i] = (vals[0] - vals[1]) / (2 * step)
        return grads

    @pytest.mark.parametrize("make", [
        lambda: arctan1d(10.0, 0.5, n_elements=8),
        lambda: power1d(0.7, n_elements=8),
        lambda: twomaterial1d(10.0, n_elements=8),
    ])
    def test_matches_frozen_c_fd_1d(self, make):
        problem = make()
        rng = np.random.default_rng(17)
        theta = rng.normal(0, 0.3, problem.theta_size)
        ev = evaluate(problem, theta)
        (grad,) = assembly_gradient_contraction(
            ev.mesh, ev.system, problem.material, ev.c)
        # perturbing a fixed interface node changes the problem, not the mesh
        movable = [i for i in range(1, ev.mesh.nodes.size - 1)
                   if ev.mesh.record.adaptive[i]]
        fd = self._frozen_fd(problem, ev.mesh, ev.labeling, ev.c, movable)
        for i, v in fd.items():
            assert abs(grad[i] - v) <= 1e-6 * max(1.0, abs(v)), i

    def test_matches_frozen_c_fd_2d(self):
        # arctan2d's Neumann edges at x = 1 and y = 1 enter as point loads at b
        for problem in (lshape(2.0, 0.7, n_elements=6),
                        arctan2d(10.0, 0.3, 0.6, n_elements=6, order=8)):
            rng = np.random.default_rng(18)
            theta = rng.normal(0, 0.2, problem.theta_size)
            ev = evaluate(problem, theta)
            gx, gy = assembly_gradient_contraction(
                ev.mesh, ev.system, problem.material, ev.c)
            movable_x = [i for i in range(1, ev.mesh.mesh_x.nodes.size - 1)
                         if ev.mesh.mesh_x.record.adaptive[i]]
            movable_y = [i for i in range(1, ev.mesh.mesh_y.nodes.size - 1)
                         if ev.mesh.mesh_y.record.adaptive[i]]
            fdx = self._frozen_fd(problem, ev.mesh, ev.labeling, ev.c, movable_x, axis=0)
            fdy = self._frozen_fd(problem, ev.mesh, ev.labeling, ev.c, movable_y, axis=1)
            for i, v in fdx.items():
                assert abs(gx[i] - v) <= 1e-6 * max(1.0, abs(v)), (problem.family, i)
            for i, v in fdy.items():
                assert abs(gy[i] - v) <= 1e-6 * max(1.0, abs(v)), (problem.family, i)

    def test_zero_data_zero_gradient(self):
        p = constant1d(value=0.0, n_elements=6)
        ev = evaluate_uniform(p)
        np.testing.assert_array_equal(ev.c, 0.0)
        (grad,) = assembly_gradient_contraction(
            ev.mesh, ev.system, p.material, ev.c)
        np.testing.assert_array_equal(grad, 0.0)

    def test_symmetric_problem_antisymmetric_gradient(self):
        # the forcing is antisymmetric about s = 0.5 and the energy only
        # sees the derivative content, so reflecting a symmetric mesh
        # negates the movable-coordinate gradient
        p = arctan1d(10.0, 0.5, n_elements=8)
        ev = evaluate_uniform(p)
        (grad,) = assembly_gradient_contraction(
            ev.mesh, ev.system, p.material, ev.c)
        interior = grad[1:-1]
        np.testing.assert_allclose(interior, -interior[::-1], atol=1e-10)

    @pytest.mark.parametrize("make", [
        lambda n: lshape(1.7, 0.4, n_elements=n),
        lambda n: arctan2d(10.0, 0.3, 0.6, n_elements=n, order=4),
    ], ids=["lshape", "arctan2d"])
    @pytest.mark.parametrize("n", [6, 16, 64])
    def test_2d_matches_corner_stack(self, make, n):
        # closed-form per-axis differences against the (E, 4) corner
        # stack on mild and strongly graded meshes (logit scale 3 gives
        # widths 100x to 1e6x apart).  The coefficients are random: at a
        # smooth solved c the oracle's 1/2 c^T A c cancels the corners'
        # common value, and 1/hx^2 amplifies that on small elements to
        # 1e-5 relative in the gradient (the closed form stays within
        # 3e-16 of an extended-precision evaluation there)
        problem = make(n)
        rng = np.random.default_rng(100 + n)
        for scale in (0.3, 3.0):
            ev = evaluate(problem, rng.normal(0, scale, problem.theta_size))
            for _ in range(2):
                c_full = ev.labeling.full_vector(rng.normal(size=ev.c.size))
                got = _contraction_2d(ev.mesh, ev.system, c_full)
                ref = _corner_stack_contraction_2d(ev.mesh, problem.material, problem.load,
                                                   c_full)
                for g, r in zip(got, ref):
                    assert np.linalg.norm(g - r) <= 1e-13 * np.linalg.norm(r)


def _corner_stack_contraction_2d(mesh, material, load, c_full):
    """The 2D contraction from the (E, 4) stack of element corner
    coefficients and the local matrices _AX and _AY: the form that the
    per-axis differences of the coefficient grid replaced."""
    xs, ys = mesh.mesh_x.nodes, mesh.mesh_y.nodes
    hx, hy = np.diff(xs), np.diff(ys)[:, None]
    coeff = material.value_at(0.5 * (xs[:-1] + xs[1:]), 0.5 * (ys[:-1] + ys[1:])[:, None])
    C = c_full.reshape(ys.size, xs.size)
    Ce = np.stack([C[:-1, :-1], C[:-1, 1:], C[1:, 1:], C[1:, :-1]], axis=-1).reshape(-1, 4)
    a = 0.5 * np.einsum("ei,ij,ej->e", Ce, _AX, Ce).reshape(coeff.shape)
    b = 0.5 * np.einsum("ei,ij,ej->e", Ce, _AY, Ce).reshape(coeff.shape)
    s_x = (coeff * (-hy / hx**2 * a + b / hy)).sum(axis=0)
    s_y = (coeff * (a / hx - hx / hy**2 * b)).sum(axis=1)
    grad_x, grad_y = np.zeros_like(xs), np.zeros_like(ys)
    grad_x[:-1] -= s_x
    grad_x[1:] += s_x
    grad_y[:-1] -= s_y
    grad_y[1:] += s_y
    for (lx, dx), (ly, dy) in ld.area_load_derivs(load, xs, ys):
        for grad, w, derivs in ((grad_x, C.T @ ly, dx), (grad_y, C @ lx, dy)):
            dIl_dxl, dIl_dxr, dIr_dxl, dIr_dxr = derivs
            grad[:-1] -= w[:-1] * dIl_dxl + w[1:] * dIr_dxl
            grad[1:] -= w[:-1] * dIl_dxr + w[1:] * dIr_dxr
    return grad_x, grad_y


def _reference_loads_1d(problem, mesh, labeling):
    """Per-element hat loads scattered with np.add.at into the free nodes,
    then the Neumann flux added to the last node: the 1D load assembly
    that node vectors replaced."""
    x = mesh.nodes
    I_l, I_r = hat_values(problem.load, x[:-1], x[1:])
    e = np.arange(mesh.n_elements)
    conn = np.stack([e, e + 1], axis=1)
    vals = np.stack([I_l, I_r], axis=1)
    free_mask = np.zeros(labeling.n_nodes, dtype=bool)
    free_mask[labeling.free] = True
    keep = free_mask[conn]
    rhs = np.zeros(labeling.n_nodes)
    np.add.at(rhs, conn[keep], vals[keep])
    flux = {"arctan1d": ld.arctan1d_neumann, "power1d": ld.power_neumann}.get(problem.family)
    if flux is not None:
        rhs[-1] += flux(*problem.sigma)
    return rhs[labeling.free]


def _reference_contraction_1d(problem, mesh, labeling, c_free):
    """The 1D frozen-c gradient with the free-node mask and np.add.at."""
    c_full = labeling.full_vector(c_free)
    free_mask = np.zeros(labeling.n_nodes, dtype=bool)
    free_mask[labeling.free] = True
    x = mesh.nodes
    h = mesh.lengths
    coeff = problem.material.value_at(0.5 * (x[:-1] + x[1:]))
    dc = c_full[1:] - c_full[:-1]
    s = -coeff * dc * dc / (2.0 * h * h)
    grad = np.zeros_like(x)
    np.add.at(grad, np.arange(h.size), -s)
    np.add.at(grad, np.arange(h.size) + 1, s)
    _, (dIl_dxl, dIl_dxr, dIr_dxl, dIr_dxr) = ld.hat_load_parts(problem.load, x[:-1], x[1:])
    cl = np.where(free_mask[:-1], c_full[:-1], 0.0)
    cr = np.where(free_mask[1:], c_full[1:], 0.0)
    np.add.at(grad, np.arange(h.size), -(cl * dIl_dxl + cr * dIr_dxl))
    np.add.at(grad, np.arange(h.size) + 1, -(cl * dIl_dxr + cr * dIr_dxr))
    return grad


class TestNodeLoads1D:
    @pytest.mark.parametrize("make", [
        lambda n: arctan1d(12.0, 0.4, n_elements=n),
        lambda n: arctan1d(12.0, 0.4, n_elements=n, mode="quadrature", order=5),
        lambda n: power1d(0.7, n_elements=n),
        lambda n: twomaterial1d(10.0, n_elements=n),
        lambda n: constant1d(1.7, n_elements=n),
    ], ids=["arctan1d", "arctan1d-quadrature", "power1d", "twomaterial1d", "constant1d"])
    @pytest.mark.parametrize("n", [8, 64])
    def test_bitwise_element_scatter(self, make, n):
        problem = make(n)
        rng = np.random.default_rng(n)
        for _ in range(5):
            ev = evaluate(problem, rng.normal(0, 0.3, problem.theta_size))
            np.testing.assert_array_equal(
                ev.system.ell, _reference_loads_1d(problem, ev.mesh, ev.labeling))
            for c in (ev.c, rng.normal(size=ev.c.size)):
                (grad,) = assembly_gradient_contraction(
                    ev.mesh, ev.system, problem.material, c)
                np.testing.assert_array_equal(
                    grad, _reference_contraction_1d(problem, ev.mesh, ev.labeling, c))


def _reference_stiffness(mesh, labeling, material):
    """Full COO -> CSR stiffness restricted by fancy indexing: the
    assembly that the cached scatter pattern replaced."""
    if isinstance(mesh, Mesh1D):
        x = mesh.nodes
        mid = 0.5 * (x[:-1] + x[1:])
        k = material.value_at(mid) / mesh.lengths
        e = np.arange(mesh.n_elements)
        rows = np.concatenate([e, e, e + 1, e + 1])
        cols = np.concatenate([e, e + 1, e, e + 1])
        data = np.concatenate([k, -k, -k, k])
    else:
        nx, ny = mesh.mesh_x.n_elements, mesh.mesh_y.n_elements
        ex, ey = (g.ravel() for g in np.meshgrid(np.arange(nx), np.arange(ny), indexing="xy"))
        ll = ey * (nx + 1) + ex
        conn = np.stack([ll, ll + 1, ll + nx + 2, ll + nx + 1], axis=1)
        xs, ys = mesh.mesh_x.nodes, mesh.mesh_y.nodes
        xl, xr, yb, yt = xs[ex], xs[ex + 1], ys[ey], ys[ey + 1]
        hx, hy = xr - xl, yt - yb
        coeff = material.value_at(0.5 * (xl + xr), 0.5 * (yb + yt))
        K = (coeff * (hy / hx))[:, None, None] * _AX + (coeff * (hx / hy))[:, None, None] * _AY
        rows = np.repeat(conn, 4, axis=1).ravel()
        cols = np.tile(conn, (1, 4)).ravel()
        data = K.ravel()
    n = labeling.n_nodes
    B_full = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    B = B_full[labeling.free][:, labeling.free].tocsr()
    B.sort_indices()
    return B


def _assert_matches_reference(ev, material):
    ref = _reference_stiffness(ev.mesh, ev.labeling, material)
    B = ev.system.B
    np.testing.assert_array_equal(B.indptr, ref.indptr)
    np.testing.assert_array_equal(B.indices, ref.indices)
    assert np.max(np.abs(B.data - ref.data)) <= 1e-14 * np.max(np.abs(ref.data))


class TestScatterPattern:
    @pytest.mark.parametrize("make", [
        lambda n: lshape(1.7, 0.4, n_elements=n),
        lambda n: arctan2d(10.0, 0.3, 0.6, n_elements=n, order=4),
    ])
    @pytest.mark.parametrize("n", [6, 16])
    def test_2d_matches_reference(self, make, n):
        problem = make(n)
        rng = np.random.default_rng(n)
        ev = evaluate(problem, rng.normal(0, 0.3, problem.theta_size))
        _assert_matches_reference(ev, problem.material)

    @pytest.mark.parametrize("make", [
        lambda: arctan1d(10.0, 0.5, n_elements=16),
        lambda: power1d(0.7, n_elements=16),
        lambda: twomaterial1d(10.0, n_elements=16),
    ])
    def test_1d_is_bitwise_reference(self, make):
        problem = make()
        rng = np.random.default_rng(31)
        ev = evaluate(problem, rng.normal(0, 0.3, problem.theta_size))
        ref = _reference_stiffness(ev.mesh, ev.labeling, problem.material)
        B = ev.system.B
        np.testing.assert_array_equal(B.data, ref.data)
        np.testing.assert_array_equal(B.indices, ref.indices)
        np.testing.assert_array_equal(B.indptr, ref.indptr)

    @pytest.mark.parametrize("make", [
        lambda n: arctan1d(10.0, 0.5, n_elements=n),
        lambda n: power1d(0.7, n_elements=n),
        lambda n: twomaterial1d(10.0, n_elements=n),
    ], ids=["arctan1d", "power1d", "twomaterial1d"])
    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_batch_1d_is_bitwise_reference(self, make, n):
        # the batched operator product, row by row, against one COO
        # assembly per mesh
        from ritzmesh.assembly import stack_materials, stiffness_batch_1d
        problem = make(n)
        rng = np.random.default_rng(n)
        meshes = [problem.build_mesh(rng.normal(0, 0.5, problem.theta_size))
                  for _ in range(5)]
        x = np.stack([m.nodes for m in meshes])
        material = stack_materials([problem.material] * len(meshes))
        for rows, labeling, indptr, indices, data in stiffness_batch_1d(
                x, problem.boundary, material):
            for g, i in enumerate(rows):
                ref = _reference_stiffness(meshes[i], labeling, problem.material)
                np.testing.assert_array_equal(data[g], ref.data)
                np.testing.assert_array_equal(indices, ref.indices)
                np.testing.assert_array_equal(indptr, ref.indptr)

    def test_free_sets_kept_apart(self):
        # one mesh, two labelings: each must get its own cached pattern
        problem = arctan2d(10.0, 0.3, 0.6, n_elements=6, order=4)
        mesh = problem.uniform_mesh()
        systems = []
        for spec in ("all", "left-bottom"):
            labeling = label_dirichlet(mesh, spec)
            system = assemble_system(mesh, labeling, problem.material, problem.load)
            ref = _reference_stiffness(mesh, labeling, problem.material)
            assert abs(system.B - ref).max() <= 1e-14 * abs(ref).max()
            systems.append(system)
        assert systems[0].B.shape != systems[1].B.shape

    def test_cached_arrays_read_only(self):
        ev = evaluate_uniform(lshape(n_elements=8))
        free = np.asarray(ev.labeling.free, dtype=np.int64)
        pattern = _scatter_pattern((8, 8), free.tobytes())
        indptr, indices, op = pattern.indptr, pattern.indices, pattern.op
        # the system carries the cached pattern and its arrays themselves
        assert ev.system.pattern is pattern
        assert ev.system.B.indptr is indptr and ev.system.B.indices is indices
        for arr in (indptr, indices):
            assert arr.dtype == np.int32 and not arr.flags.writeable
        for arr in (op.data, op.indices, op.indptr):
            assert not arr.flags.writeable
        assert op.shape == (indices.size, 2 * 64)
        assert np.shares_memory(ev.system.B.indices, indices)
        with pytest.raises(ValueError):
            ev.system.B.indices[0] = 1
        with pytest.raises(ValueError):
            op.data[0] = 1.0
