"""Gauss-Legendre rules and elementwise load integrals."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import hat_values
from ritzmesh.assembly import _load_contraction
from ritzmesh.errors import ConfigurationError
from ritzmesh.loads import (
    LoadSpec,
    arctan1d_neumann,
    area_load_derivs,
    area_loads,
    composite_integral,
    energy_norm_sq_arctan1d,
    energy_norm_sq_power,
    energy_norm_sq_sine_material,
    hat_load_parts,
    hat_loads,
    line_hat_load_derivs,
    line_hat_loads,
    power_neumann,
)
from ritzmesh.quadrature import gauss_legendre


class TestGaussLegendre:
    def test_one_point(self):
        rule = gauss_legendre(1)
        np.testing.assert_array_equal(rule.points, [0.0])
        np.testing.assert_array_equal(rule.weights, [2.0])

    def test_two_point_classical(self):
        rule = gauss_legendre(2)
        np.testing.assert_allclose(rule.points, [-1 / np.sqrt(3), 1 / np.sqrt(3)], rtol=1e-15)
        np.testing.assert_allclose(rule.weights, [1.0, 1.0], rtol=1e-15)

    def test_weight_sum(self):
        for q in range(1, 33):
            assert abs(gauss_legendre(q).weights.sum() - 2.0) < 1e-14

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    def test_monomial_exactness(self, q):
        rule = gauss_legendre(q)
        top = min(2 * q - 1, 9)
        for d in range(top + 1):
            exact = 0.0 if d % 2 else 2.0 / (d + 1)
            got = (rule.weights * rule.points**d).sum()
            assert abs(got - exact) < 1e-14, (q, d)

    def test_degree_eight_with_five_points(self):
        rule = gauss_legendre(5)
        assert abs((rule.weights * rule.points**8).sum() - 2 / 9) < 1e-14

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            gauss_legendre(0)
        with pytest.raises(ValueError):
            gauss_legendre(65)

    @pytest.mark.parametrize("q", [2.5, 2.0, True, "x"])
    def test_non_integer_order(self, q):
        with pytest.raises(ValueError):
            gauss_legendre(q)

    def test_cached_read_only(self):
        rule = gauss_legendre(7)
        assert gauss_legendre(7) is rule
        with pytest.raises(ValueError):
            rule.points[0] = 0.0
        with pytest.raises(ValueError):
            rule.weights[0] = 0.0


def _oracle(load, xl, xr, a0, a1, panels=64, order=16):
    """Composite Gauss-Legendre reference for an elementwise integral."""
    rule = gauss_legendre(order)
    grid = np.linspace(xl, xr, panels + 1)
    pts, wts = rule.mapped(grid[:-1], grid[1:])
    f = load.bind("f")(pts)
    return float(np.sum(wts * f * (a0 + a1 * pts)))


def _affine_load(load, xl, xr, a0, a1):
    """int_{xl}^{xr} f (a0 + a1 x) dx from hat_loads: the affine
    function is a0 + a1 xl times the falling hat plus a0 + a1 xr times
    the rising one."""
    I_l, I_r = hat_loads(load, np.array([xl]), np.array([xr]))
    return float((a0 + a1 * xl) * I_l[0] + (a0 + a1 * xr) * I_r[0])


class TestFamilyTable:
    def test_parameters_bind_in_order(self):
        x = np.array([0.1, 0.45, 0.9])
        arctan = LoadSpec("arctan1d", {"alpha": 3.0, "s": 0.4})
        np.testing.assert_allclose(arctan.bind("f")(x),
                                   54.0 * (x - 0.4) / (1 + 9.0 * (x - 0.4) ** 2) ** 2,
                                   rtol=1e-14)
        power = LoadSpec("power", {"sigma": 0.7})
        np.testing.assert_allclose(power.bind("G")(x), 0.3 * x**0.7, rtol=1e-14)
        # a 2D family's factors take x's points, then y's: the first term
        # is f1(x) u2(y), f1 with s1 = 0.4 and its flux, u2 with s2 = 0.6
        from ritzmesh.loads import FAMILIES
        load = LoadSpec("arctan2d", {"alpha": 3.0, "s1": 0.4, "s2": 0.6}, mode="quadrature")
        ix, iy = FAMILIES["arctan2d"].terms[0]
        values, slopes = load.bind("factors")(np.stack([x, np.full(3, 0.6)]))
        np.testing.assert_allclose(values[ix, 0], arctan.bind("f")(x), rtol=1e-14)
        np.testing.assert_allclose(slopes[ix, 0], arctan.bind("fp")(x), rtol=1e-14)
        assert values[iy, 1, 0] == np.arctan(3.0 * 0.6)
        gx, gy = np.asarray(load.bind("fluxes")())[[ix, iy], [0, 1]]
        assert gx == pytest.approx(3.0 / (1.0 + 9.0 * 0.36), rel=1e-14) and gy == 0.0

    @pytest.mark.parametrize("load,name", [
        (LoadSpec("power", {"sigma": 0.7}), "fp"),
        (LoadSpec("arctan2d", {"alpha": 3.0, "s1": 0.4, "s2": 0.6}, mode="quadrature"), "f"),
        (LoadSpec("arctan2d", {"alpha": 3.0, "s1": 0.4, "s2": 0.6}, mode="quadrature"), "G"),
        (LoadSpec("arctan1d", {"alpha": 3.0, "s": 0.4}), "factors"),
    ])
    def test_unsupported_function_is_configuration_error(self, load, name):
        with pytest.raises(ConfigurationError):
            load.bind(name)


class TestExactLoads:
    def test_constant_rising_hat(self):
        load = LoadSpec("constant", {"value": 1.0})
        h = 0.3
        assert abs(_affine_load(load, 0.0, h, 0.0, 1.0 / h) - h / 2) < 1e-15

    def test_power_sigma_two_is_constant(self):
        # sigma = 2 forces f = -2; falling hat from 1 to 0 on (0.25, 0.5)
        load = LoadSpec("power", {"sigma": 2.0})
        got = _affine_load(load, 0.25, 0.5, 2.0, -4.0)
        assert abs(got - (-0.25)) < 1e-14

    def test_arctan_matches_oracle(self):
        load = LoadSpec("arctan1d", {"alpha": 50.0, "s": 0.5})
        got = _affine_load(load, 0.4, 0.6, -2.0, 5.0)
        ref = _oracle(load, 0.4, 0.6, -2.0, 5.0)
        assert abs(got - ref) / abs(ref) < 1e-10

    def test_divergent_request_is_infinite(self):
        # the falling hat is 1 at the singularity, where f ~ x^(sg-2) is
        # not integrable for sg < 1; the rising hat's load stays finite
        load = LoadSpec("power", {"sigma": 0.7})
        I_l, I_r = hat_loads(load, np.array([0.0]), np.array([0.1]))
        assert np.isposinf(I_l[0])
        assert np.isfinite(I_r[0])

    def test_power_rising_hat_at_singularity(self):
        sg = 0.7
        load = LoadSpec("power", {"sigma": sg})
        h = 0.1
        # the rising hat x/h alone: the falling hat's load is infinite here
        got = hat_loads(load, np.array([0.0]), np.array([h]))[1][0]
        # int_0^h sg (1-sg) x^(sg-2) (x/h) dx = (1-sg) h^(sg-1)
        assert abs(got - (1 - sg) * h ** (sg - 1)) < 1e-13

    @pytest.mark.parametrize("family,params", [
        ("constant", {"value": 2.5}),
        ("arctan1d", {"alpha": 17.0, "s": 0.43}),
        ("power", {"sigma": 1.6}),
        ("sine_material", {}),
    ])
    def test_random_elements_match_oracle(self, family, params):
        load = LoadSpec(family, params)
        rng = np.random.default_rng(hash(family) % 2**32)
        for _ in range(100):
            xl = rng.uniform(0.01, 0.8)
            xr = xl + rng.uniform(0.01, 0.19)
            a0, a1 = rng.normal(size=2)
            got = _affine_load(load, xl, xr, a0, a1)
            ref = _oracle(load, xl, xr, a0, a1)
            assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))

    def test_hat_pair_consistent_with_single(self):
        # each hat load against a0 dF + a1 dG, the family's antiderivative
        # pair applied to the hat as one affine function
        load = LoadSpec("arctan1d", {"alpha": 10.0, "s": 0.5})
        xl, xr = np.array([0.3]), np.array([0.45])
        I_l, I_r = hat_loads(load, xl, xr)
        h = 0.15
        F, G = load.bind("F"), load.bind("G")

        def single(a0, a1):
            return a0 * (F(0.45) - F(0.3)) + a1 * (G(0.45) - G(0.3))

        assert abs(I_l[0] - single(0.45 / h, -1 / h)) < 1e-14
        assert abs(I_r[0] - single(-0.3 / h, 1 / h)) < 1e-14


class TestQuadratureLoads:
    def test_polynomial_exactness(self):
        load = LoadSpec("constant", {"value": 1.0}, mode="quadrature", order=1)
        vals = hat_values(load, np.array([0.2]), np.array([0.7]))
        np.testing.assert_allclose(vals, 0.25, rtol=1e-14)

    def test_two_point_misses_sharp_load(self):
        exact = LoadSpec("arctan1d", {"alpha": 50.0, "s": 0.5})
        quad = LoadSpec("arctan1d", {"alpha": 50.0, "s": 0.5}, mode="quadrature", order=2)
        xl, xr = np.array([0.45]), np.array([0.55])
        Il_e, Ir_e = hat_values(exact, xl, xr)
        Il_q, Ir_q = hat_values(quad, xl, xr)
        rel = abs(Ir_q[0] - Ir_e[0]) / abs(Ir_e[0])
        assert rel > 1e-3

    def test_error_decays_monotonically(self):
        params = {"alpha": 50.0, "s": 0.5}
        exact = LoadSpec("arctan1d", params)
        xl, xr = np.array([0.45]), np.array([0.55])
        ref = hat_values(exact, xl, xr)[1][0]
        errs = []
        for q in (2, 4, 8, 16, 32):
            quad = LoadSpec("arctan1d", params, mode="quadrature", order=q)
            errs.append(abs(hat_values(quad, xl, xr)[1][0] - ref))
        assert all(e1 > e2 for e1, e2 in zip(errs, errs[1:]))

    def test_high_order_self_convergence_2d(self):
        # rule at orders 50 and 60 on a one-element mesh, a mesh-cell-sized
        # rectangle crossing the front
        params = {"alpha": 10.0, "s1": 0.5, "s2": 0.5}
        xs, ys = np.array([0.46875, 0.5]), np.array([0.5, 0.53125])
        got50 = area_loads(LoadSpec("arctan2d", params, mode="quadrature", order=50), xs, ys)
        got60 = area_loads(LoadSpec("arctan2d", params, mode="quadrature", order=60), xs, ys)
        assert np.max(np.abs(got50 - got60)) / np.max(np.abs(got60)) < 1e-9

    def test_bad_order_rejected_in_exact_mode(self):
        with pytest.raises(ConfigurationError):
            LoadSpec("constant", {"value": 1.0}, order=0)

    def test_power_quadrature_forbidden(self):
        with pytest.raises(ConfigurationError):
            LoadSpec("power", {"sigma": 0.7}, mode="quadrature", order=8)

    def test_arctan2d_exact_forbidden(self):
        with pytest.raises(ConfigurationError):
            LoadSpec("arctan2d", {"alpha": 10.0, "s1": 0.5, "s2": 0.5}, mode="exact")

    @pytest.mark.parametrize("order", ["x", 2.5, 2.0, True, [2], 0, 65])
    def test_bad_order_is_configuration_error(self, order):
        with pytest.raises(ConfigurationError):
            LoadSpec("arctan2d", {"alpha": 10.0, "s1": 0.5, "s2": 0.5},
                     mode="quadrature", order=order)


def _arctan_f(a, s, t):
    return 2 * a**3 * (t - s) / (1 + (a * (t - s)) ** 2) ** 2


def _arctan_fp(a, s, t):
    return 2 * a**3 * (1 - 3 * (a * (t - s)) ** 2) / (1 + (a * (t - s)) ** 2) ** 3


def _u(a, s, t):
    return np.arctan(a * (t - s)) + np.arctan(a * s)


def _up(a, s, t):
    return a / (1 + (a * (t - s)) ** 2)


def _tensor_oracle(load, xs, ys):
    """Area loads and their endpoint derivatives by the full (E, q, q)
    tensor rule: the forcing and its gradient at every quadrature point
    of every element, contracted with the bilinear hats."""
    a, s1, s2 = (load.params[k] for k in ("alpha", "s1", "s2"))
    ey, ex = (i.ravel() for i in np.meshgrid(np.arange(ys.size - 1), np.arange(xs.size - 1),
                                             indexing="ij"))
    xl, xr, yb, yt = xs[ex], xs[ex + 1], ys[ey], ys[ey + 1]
    rule = gauss_legendre(load.order)
    lam, w = 0.5 * (rule.points + 1.0), rule.weights
    X, Wx = rule.mapped(xl, xr)
    Y, Wy = rule.mapped(yb, yt)
    X, Y = X[:, :, None], Y[:, None, :]
    F = _arctan_f(a, s1, X) * _u(a, s2, Y) + _u(a, s1, X) * _arctan_f(a, s2, Y)
    Fx = _arctan_fp(a, s1, X) * _u(a, s2, Y) + _up(a, s1, X) * _arctan_f(a, s2, Y)
    Fy = _arctan_f(a, s1, X) * _up(a, s2, Y) + _u(a, s1, X) * _arctan_fp(a, s2, Y)
    lx, ly = np.meshgrid(lam, lam, indexing="ij")
    Phi = np.stack([(1 - lx) * (1 - ly), lx * (1 - ly), lx * ly, (1 - lx) * ly])

    def contract(wx, wy, G):
        return np.einsum("eq,er,eqr,iqr->ei", wx, wy, G, Phi)

    loads = contract(Wx, Wy, F)
    base_x = contract(np.broadcast_to(w, Wx.shape), Wy, F)
    base_y = contract(Wx, np.broadcast_to(w, Wy.shape), F)
    derivs = (-0.5 * base_x + contract(Wx * (1 - lam), Wy, Fx),
              0.5 * base_x + contract(Wx * lam, Wy, Fx),
              -0.5 * base_y + contract(Wx, Wy * (1 - lam), Fy),
              0.5 * base_y + contract(Wx, Wy * lam, Fy))
    return loads, derivs


def _edge_oracle(g, gp, nodes, rule):
    """Line hat loads of a flux g along one edge and their endpoint
    derivatives, straight from the mapped rule."""
    lam, w = 0.5 * (rule.points + 1.0), rule.weights
    t, wt = rule.mapped(nodes[:-1], nodes[1:])
    half = 0.5 * (nodes[1:] - nodes[:-1])[:, None]
    out = []
    for phi in (1 - lam, lam):
        out.append((np.sum(wt * g(t) * phi, axis=1),
                    np.sum(w * phi * (-0.5 * g(t) + half * gp(t) * (1 - lam)), axis=1),
                    np.sum(w * phi * (0.5 * g(t) + half * gp(t) * lam), axis=1)))
    return out


def _scattered_oracle(load, xs, ys, c):
    """The load vector and the gradient of ell . c over the axis nodes,
    assembled the element way: the oracle's (E, 4) arrays scattered
    with np.add.at, plus the Neumann integrals along the right
    (x = xs[-1]) and top (y = ys[-1]) edges."""
    a, s1, s2 = (load.params[k] for k in ("alpha", "s1", "s2"))
    nx, ny = xs.size - 1, ys.size - 1
    ey, ex = (i.ravel() for i in np.meshgrid(np.arange(ny), np.arange(nx), indexing="ij"))
    ll = ey * (nx + 1) + ex
    conn = np.stack([ll, ll + 1, ll + nx + 2, ll + nx + 1], axis=1)
    loads, (d_dxl, d_dxr, d_dyb, d_dyt) = _tensor_oracle(load, xs, ys)
    ell = np.zeros((nx + 1) * (ny + 1))
    np.add.at(ell, conn, loads)
    C = c[conn]
    gx, gy = np.zeros(nx + 1), np.zeros(ny + 1)
    np.add.at(gx, ex, np.einsum("ei,ei->e", C, d_dxl))
    np.add.at(gx, ex + 1, np.einsum("ei,ei->e", C, d_dxr))
    np.add.at(gy, ey, np.einsum("ei,ei->e", C, d_dyb))
    np.add.at(gy, ey + 1, np.einsum("ei,ei->e", C, d_dyt))
    rule = gauss_legendre(load.order)
    edges = (
        # right edge: u1'(1) u2(y) along y, on node column nx
        (lambda t: _up(a, s1, 1.0) * _u(a, s2, t), lambda t: _up(a, s1, 1.0) * _up(a, s2, t),
         ys, np.arange(ny + 1) * (nx + 1) + nx, gy),
        # top edge: u1(x) u2'(1) along x, on node row ny
        (lambda t: _up(a, s2, 1.0) * _u(a, s1, t), lambda t: _up(a, s2, 1.0) * _up(a, s1, t),
         xs, ny * (nx + 1) + np.arange(nx + 1), gx),
    )
    for g, gp, nodes, idx, grad in edges:
        for shift, (I, d_lo, d_hi) in enumerate(_edge_oracle(g, gp, nodes, rule)):
            node = idx[shift:idx.size - 1 + shift]
            np.add.at(ell, node, I)
            np.add.at(grad, np.arange(nodes.size - 1), c[node] * d_lo)
            np.add.at(grad, np.arange(nodes.size - 1) + 1, c[node] * d_hi)
    return ell, gx, gy


def _load_gradient(load, xs, ys, c):
    """Gradient of ell . c over the axis nodes from area_load_derivs, by
    the contraction that the assembly gradient uses."""
    gx, gy = np.zeros_like(xs), np.zeros_like(ys)
    C = c.reshape(ys.size, xs.size)
    for (lx, dx), (ly, dy) in area_load_derivs(load, xs, ys):
        _load_contraction(gx, C.T @ ly, dx)
        _load_contraction(gy, C @ lx, dy)
    return -gx, -gy


def _random_axis(rng, n):
    return np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.0, size=n))])


class TestSeparableAreaLoads:
    @pytest.mark.parametrize("q", [2, 10, 50])
    def test_matches_tensor_oracle(self, q):
        rng = np.random.default_rng(q)
        for _ in range(3):
            params = {"alpha": rng.uniform(1.0, 20.0), "s1": rng.uniform(0.05, 0.95),
                      "s2": rng.uniform(0.05, 0.95)}
            load = LoadSpec("arctan2d", params, mode="quadrature", order=q)
            xs = _random_axis(rng, 7)
            ys = _random_axis(rng, 7)
            xs, ys = xs / xs[-1], ys / ys[-1]
            c = rng.normal(size=64)
            got = (area_loads(load, xs, ys),) + _load_gradient(load, xs, ys, c)
            for g, r in zip(got, _scattered_oracle(load, xs, ys, c)):
                assert g.shape == r.shape
                assert np.max(np.abs(g - r)) <= 1e-13 * np.max(np.abs(r))

    @pytest.mark.parametrize("load", [
        LoadSpec("arctan2d", {"alpha": 12.0, "s1": 0.4, "s2": 0.65}, mode="quadrature", order=6),
        LoadSpec("constant", {"value": 1.7}),
    ])
    def test_node_derivatives_match_fd(self, load):
        # central differences of ell . c in each axis node
        rng = np.random.default_rng(22)
        xs = np.sort(rng.uniform(0.05, 0.95, size=5))
        ys = np.sort(rng.uniform(0.05, 0.95, size=5))
        c = rng.normal(size=25)
        got = _load_gradient(load, xs, ys, c)
        step = 1e-7
        for axis, nodes in enumerate((xs, ys)):
            fd = np.zeros_like(nodes)
            for j in range(nodes.size):
                up, down = nodes.copy(), nodes.copy()
                up[j] += step
                down[j] -= step
                if axis == 0:
                    diff = area_loads(load, up, ys) - area_loads(load, down, ys)
                else:
                    diff = area_loads(load, xs, up) - area_loads(load, xs, down)
                fd[j] = diff @ c / (2 * step)
            np.testing.assert_allclose(got[axis], fd, rtol=2e-6, atol=1e-8)

    def test_constant_is_exact(self):
        # c times bilinear hats: c hx hy / 4 per element corner, for any rule
        rng = np.random.default_rng(24)
        xs = np.sort(rng.uniform(0.0, 1.0, size=6))
        ys = np.sort(rng.uniform(0.0, 1.0, size=6))
        hx, hy = np.diff(xs), np.diff(ys)
        per_axis = [np.append(h, 0.0) + np.insert(h, 0, 0.0) for h in (hx, hy)]
        want = 0.25 * 1.7 * np.outer(per_axis[1], per_axis[0]).ravel()
        for order in (1, 2, 7):
            got = area_loads(LoadSpec("constant", {"value": 1.7}, order=order), xs, ys)
            np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_derivs_form_values_from_one_evaluation(self, monkeypatch):
        # line_hat_load_derivs returns the loads of line_hat_loads bitwise,
        # so area_load_derivs needs no separate value pass
        import ritzmesh.loads as ld
        rng = np.random.default_rng(23)
        nodes = np.sort(rng.uniform(0.0, 1.0, size=9))
        rule = gauss_legendre(50)
        fun, fun_prime = partial(ld._arctan_f, 12.0, 0.4), partial(ld._arctan_fp, 12.0, 0.4)
        values, _ = line_hat_load_derivs(lambda x: (fun(x), fun_prime(x)),
                                         nodes[:-1], nodes[1:], rule)
        for got, want in zip(values, line_hat_loads(fun, nodes[:-1], nodes[1:], rule)):
            np.testing.assert_array_equal(got, want)

        load = LoadSpec("arctan2d", {"alpha": 12.0, "s1": 0.4, "s2": 0.65},
                        mode="quadrature", order=50)

        def forbidden(*args, **kwargs):
            raise AssertionError("area_load_derivs called line_hat_loads")

        monkeypatch.setattr(ld, "line_hat_loads", forbidden)
        area_load_derivs(load, nodes, 1.0 - nodes[::-1])


def _hat_sums_oracle(wts, fv, lam):
    """(falling, rising) hat loads from weighted integrand values."""
    return np.sum(wts * fv * (1.0 - lam), axis=-1), np.sum(wts * fv * lam, axis=-1)


def _line_hat_loads_oracle(fun, xl, xr, rule):
    """line_hat_loads as elementwise sums over the mapped points: the
    form that the moment products replaced."""
    pts, wts = rule.mapped(xl, xr)
    return _hat_sums_oracle(wts, fun(pts), 0.5 * (rule.points + 1.0))


def _line_hat_load_derivs_oracle(fun, fun_prime, xl, xr, rule):
    """line_hat_load_derivs as elementwise sums: each mapped point moves
    with the endpoints by 1 - lam and lam, each weight by -1/2 and 1/2."""
    xl = np.asarray(xl, dtype=float)
    xr = np.asarray(xr, dtype=float)
    half = 0.5 * (xr - xl)
    pts, wts = rule.mapped(xl, xr)
    lam = 0.5 * (rule.points + 1.0)
    dx_dxl = 1.0 - lam
    dx_dxr = lam
    w = rule.weights
    fv = fun(pts)
    fp = fun_prime(pts)

    def contr(hat):
        base = w * fv * hat
        slope = w * fp * hat
        d_dxl = np.sum(-0.5 * base + half[..., None] * slope * dx_dxl, axis=-1)
        d_dxr = np.sum(0.5 * base + half[..., None] * slope * dx_dxr, axis=-1)
        return d_dxl, d_dxr

    dIl_dxl, dIl_dxr = contr(1.0 - lam)
    dIr_dxl, dIr_dxr = contr(lam)
    return _hat_sums_oracle(wts, fv, lam), (dIl_dxl, dIl_dxr, dIr_dxl, dIr_dxr)


class TestMomentProducts:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(order=st.integers(1, 64), seed=st.integers(0, 2**32 - 1),
           rows=st.sampled_from([None, 1, 3]), graded=st.booleans(),
           factor=st.sampled_from(["f", "u"]))
    def test_match_elementwise_sums(self, order, seed, rows, graded, factor):
        # random elements of [0, 1], or meshes graded down to the floor
        # EPS_MIN_FACTOR; a (K, E) batch carries (K, 1, 1) parameters
        from ritzmesh import loads as ld
        from ritzmesh.mesh import EPS_MIN_FACTOR
        rng = np.random.default_rng(seed)
        shape = (9,) if rows is None else (rows, 9)
        if graded:
            widths = 10.0 ** rng.uniform(np.log10(EPS_MIN_FACTOR), 0.0, size=shape)
            widths[..., rng.integers(9)] = EPS_MIN_FACTOR
            x = np.cumsum(np.concatenate([np.zeros(shape[:-1] + (1,)), widths], axis=-1),
                          axis=-1)
            x /= x[..., -1:]
        else:
            x = np.sort(rng.uniform(0.0, 1.0, size=shape[:-1] + (10,)), axis=-1)
        pshape = () if rows is None else (rows, 1, 1)
        alpha = rng.uniform(1.0, 50.0, size=pshape)
        s = rng.uniform(0.05, 0.95, size=pshape)
        fun, fun_prime = {"f": (ld._arctan_f, ld._arctan_fp),
                          "u": (ld._uj, ld._ujp)}[factor]
        fun, fun_prime = partial(fun, alpha, s), partial(fun_prime, alpha, s)
        rule = gauss_legendre(order)
        xl, xr = x[..., :-1], x[..., 1:]
        values, derivs = line_hat_load_derivs(lambda x: (fun(x), fun_prime(x)), xl, xr, rule)
        want_values, want_derivs = _line_hat_load_derivs_oracle(fun, fun_prime, xl, xr, rule)
        for g, w in zip(values + line_hat_loads(fun, xl, xr, rule),
                        want_values + _line_hat_loads_oracle(fun, xl, xr, rule)):
            assert g.shape == w.shape == xl.shape
            assert np.linalg.norm(g - w) <= 1e-13 * np.linalg.norm(w)
        # a derivative sums h P and -+V/2 = -+I/(2h), which can cancel: on
        # a graded order-40 mesh both forms sat 2e-13 of the derivative's
        # norm off an extended-precision value, so the bound is relative
        # to the norm of the terms summed, not of their sum
        half = 0.5 * (xr - xl)
        for k, (g, w) in enumerate(zip(derivs, want_derivs)):
            scale = np.linalg.norm(w) + np.linalg.norm(want_values[k // 2] / half)
            assert g.shape == w.shape == xl.shape
            assert np.linalg.norm(g - w) <= 1e-13 * scale

    def test_moments_cached_read_only(self):
        from ritzmesh import loads as ld
        values, slopes = ld._hat_moments(7)
        assert ld._hat_moments(7)[0] is values
        assert values.shape == (7, 2) and slopes.shape == (7, 3)
        for a in (values, slopes):
            with pytest.raises(ValueError):
                a[0, 0] = 0.0


class TestLoadDerivatives:
    @pytest.mark.parametrize("load", [
        LoadSpec("arctan1d", {"alpha": 12.0, "s": 0.55}),
        LoadSpec("sine_material", {}),
        LoadSpec("power", {"sigma": 0.8}),
        LoadSpec("arctan1d", {"alpha": 12.0, "s": 0.55}, mode="quadrature", order=6),
    ])
    def test_endpoint_derivatives_match_fd(self, load):
        rng = np.random.default_rng(21)
        xl = rng.uniform(0.05, 0.5, size=8)
        xr = xl + rng.uniform(0.05, 0.3, size=8)
        d = hat_load_parts(load, xl, xr)[1]
        step = 1e-7
        fd = []
        for lo, hi in ((xl + step, xr), (xl - step, xr), (xl, xr + step), (xl, xr - step)):
            fd.append(hat_values(load, lo, hi))
        fd_Il_dxl = (fd[0][0] - fd[1][0]) / (2 * step)
        fd_Il_dxr = (fd[2][0] - fd[3][0]) / (2 * step)
        fd_Ir_dxl = (fd[0][1] - fd[1][1]) / (2 * step)
        fd_Ir_dxr = (fd[2][1] - fd[3][1]) / (2 * step)
        for got, ref in zip(d, (fd_Il_dxl, fd_Il_dxr, fd_Ir_dxl, fd_Ir_dxr)):
            np.testing.assert_allclose(got, ref, rtol=2e-6, atol=1e-8)


def _power_derivs_oracle(load, xl, xr):
    """The power family's endpoint derivatives as a separate branch:
    each derivative formed on a placeholder element where xl sits at the
    singularity, then masked, and the rising-hat load's xr derivative
    formed again on the true element."""
    from ritzmesh.loads import _SINGULAR_TOL, _power_F, _power_f
    sg = load.params["sigma"]
    h = xr - xl
    singular = xl <= _SINGULAR_TOL
    safe_xl = np.where(singular, 0.5 * (xl + xr), xl)
    I_l_s, I_r_s = hat_loads(load, safe_xl, xr)
    fl = _power_f(sg, safe_xl)
    fr = _power_f(sg, xr)
    dF = _power_F(sg, xr) - _power_F(sg, safe_xl)
    hs = xr - safe_xl
    dIl_dxl = -fl + I_l_s / hs
    dIl_dxr = dF / hs - I_l_s / hs
    dIr_dxl = -dF / hs + I_r_s / hs
    dIr_dxr = fr - I_r_s / hs
    zero = np.zeros_like(xl)
    _, I_r = hat_loads(load, xl, xr)
    dIr_dxr_true = fr - I_r / h
    return (np.where(singular, zero, dIl_dxl), np.where(singular, zero, dIl_dxr),
            np.where(singular, zero, dIr_dxl), np.where(singular, dIr_dxr_true, dIr_dxr))


class TestPowerDerivatives:
    def test_generic_formula_is_bitwise_the_masked_branch(self):
        rng = np.random.default_rng(35)
        for sg in np.linspace(0.51, 5.0, 9):
            load = LoadSpec("power", {"sigma": sg})
            for _ in range(50):
                x = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, size=8)), [1.0]])
                got = hat_load_parts(load, x[:-1], x[1:])[1]
                for g, want in zip(got, _power_derivs_oracle(load, x[:-1], x[1:])):
                    np.testing.assert_array_equal(g, want)
                    assert np.all(np.isfinite(g))


class TestNeumannData:
    def test_arctan_flux(self):
        assert abs(arctan1d_neumann(10.0, 0.5) - 10.0 / 26.0) < 1e-15

    def test_power_flux(self):
        assert power_neumann(0.7) == 0.7

    def test_families_carry_their_flux(self):
        assert LoadSpec("arctan1d", {"alpha": 10.0, "s": 0.5}).bind("flux")() == \
            arctan1d_neumann(10.0, 0.5)
        assert LoadSpec("power", {"sigma": 0.7}).bind("flux")() == 0.7
        assert LoadSpec("sine_material", {}).bind("flux")() == 0.0
        assert LoadSpec("constant", {"value": 2.0}).bind("flux")() == 0.0


class TestExactEnergies:
    def test_power_identity(self):
        rng = np.random.default_rng(33)
        for sg in rng.uniform(0.51, 5.0, size=50):
            assert abs(energy_norm_sq_power(sg) * (2 * sg - 1) - sg * sg) < 1e-12 * sg * sg

    def test_power_linear_solution(self):
        assert energy_norm_sq_power(1.0) == 1.0

    def test_power_at_benchmark_sigma(self):
        assert abs(energy_norm_sq_power(0.7) - 1.225) < 1e-15

    def test_sine_material_identity(self):
        rng = np.random.default_rng(34)
        for sg in 10.0 ** rng.uniform(-3, 3, size=50):
            expected = np.pi**2 * (1 + 1 / sg)
            assert abs(energy_norm_sq_sine_material(sg) - expected) < 1e-12 * expected

    def test_arctan_energy_matches_closed_form(self):
        # int_0^1 u'^2 with u' = a / (1 + a^2 (x-s)^2) has an elementary
        # antiderivative; compare the composite quadrature against it.
        alpha, s = 37.0, 0.41

        def anti(t):
            return 0.5 * alpha**2 * t / (1 + (alpha * t) ** 2) + 0.5 * alpha * np.arctan(alpha * t)

        expected = anti(1 - s) - anti(-s)
        got = energy_norm_sq_arctan1d(alpha, s)
        assert abs(got - expected) / expected < 1e-12

    def test_composite_integral_polynomial(self):
        got = composite_integral(lambda x: 3 * x**2, 0.0, 2.0)
        assert abs(got - 8.0) < 1e-12
