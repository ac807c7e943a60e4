"""Gauss-Legendre rules and elementwise load integrals."""

import numpy as np
import pytest

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
    forcing_value,
    hat_load_derivs,
    hat_loads,
    hat_loads_exact,
    line_hat_loads,
    load_element_exact,
    load_element_quadrature,
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
    f = forcing_value(load, pts)
    return float(np.sum(wts * f * (a0 + a1 * pts)))


class TestExactLoads:
    def test_constant_rising_hat(self):
        load = LoadSpec("constant", {"value": 1.0})
        h = 0.3
        assert abs(load_element_exact(load, 0.0, h, 0.0, 1.0 / h) - h / 2) < 1e-15

    def test_power_sigma_two_is_constant(self):
        # sigma = 2 forces f = -2; falling hat from 1 to 0 on (0.25, 0.5)
        load = LoadSpec("power", {"sigma": 2.0})
        got = load_element_exact(load, 0.25, 0.5, 2.0, -4.0)
        assert abs(got - (-0.25)) < 1e-14

    def test_arctan_matches_oracle(self):
        load = LoadSpec("arctan1d", {"alpha": 50.0, "s": 0.5})
        h = 0.2
        got = load_element_exact(load, 0.4, 0.6, -2.0, 5.0)
        ref = _oracle(load, 0.4, 0.6, -2.0, 5.0)
        assert abs(got - ref) / abs(ref) < 1e-10

    def test_divergent_request_raises(self):
        load = LoadSpec("power", {"sigma": 0.7})
        with pytest.raises(ValueError):
            load_element_exact(load, 0.0, 0.1, 1.0, -10.0)

    def test_power_rising_hat_at_singularity(self):
        sg = 0.7
        load = LoadSpec("power", {"sigma": sg})
        h = 0.1
        got = load_element_exact(load, 0.0, h, 0.0, 1.0 / h)
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
            got = load_element_exact(load, xl, xr, a0, a1)
            ref = _oracle(load, xl, xr, a0, a1)
            assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))

    def test_hat_pair_consistent_with_single(self):
        load = LoadSpec("arctan1d", {"alpha": 10.0, "s": 0.5})
        xl, xr = np.array([0.3]), np.array([0.45])
        I_l, I_r = hat_loads_exact(load, xl, xr)
        h = 0.15
        assert abs(I_l[0] - load_element_exact(load, 0.3, 0.45, 0.45 / h, -1 / h)) < 1e-14
        assert abs(I_r[0] - load_element_exact(load, 0.3, 0.45, -0.3 / h, 1 / h)) < 1e-14


class TestQuadratureLoads:
    def test_polynomial_exactness(self):
        load = LoadSpec("constant", {"value": 1.0}, mode="quadrature", order=1)
        vals = load_element_quadrature(load, 0.2, 0.7)
        np.testing.assert_allclose(vals, 0.25, rtol=1e-14)

    def test_two_point_misses_sharp_load(self):
        exact = LoadSpec("arctan1d", {"alpha": 50.0, "s": 0.5})
        quad = LoadSpec("arctan1d", {"alpha": 50.0, "s": 0.5}, mode="quadrature", order=2)
        xl, xr = np.array([0.45]), np.array([0.55])
        Il_e, Ir_e = hat_loads(exact, xl, xr)
        Il_q, Ir_q = hat_loads(quad, xl, xr)
        rel = abs(Ir_q[0] - Ir_e[0]) / abs(Ir_e[0])
        assert rel > 1e-3

    def test_error_decays_monotonically(self):
        params = {"alpha": 50.0, "s": 0.5}
        exact = LoadSpec("arctan1d", params)
        xl, xr = np.array([0.45]), np.array([0.55])
        ref = hat_loads(exact, xl, xr)[1][0]
        errs = []
        for q in (2, 4, 8, 16, 32):
            quad = LoadSpec("arctan1d", params, mode="quadrature", order=q)
            errs.append(abs(hat_loads(quad, xl, xr)[1][0] - ref))
        assert all(e1 > e2 for e1, e2 in zip(errs, errs[1:]))

    def test_high_order_self_convergence_2d(self):
        # rule at orders 50 and 60 on a one-element mesh, a mesh-cell-sized
        # rectangle crossing the front
        params = {"alpha": 10.0, "s1": 0.5, "s2": 0.5}
        xs, ys = np.array([0.46875, 0.5]), np.array([0.5, 0.53125])
        got50 = area_loads(LoadSpec("arctan2d", params, mode="quadrature", order=50), xs, ys)
        got60 = area_loads(LoadSpec("arctan2d", params, mode="quadrature", order=60), xs, ys)
        assert np.max(np.abs(got50 - got60)) / np.max(np.abs(got60)) < 1e-9

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
            ys = _random_axis(rng, 5)
            xs, ys = xs / xs[-1], ys / ys[-1]
            ref_loads, ref_derivs = _tensor_oracle(load, xs, ys)
            got = (area_loads(load, xs, ys),) + area_load_derivs(load, xs, ys)
            for g, r in zip(got, (ref_loads,) + ref_derivs):
                assert g.shape == (35, 4)
                assert np.max(np.abs(g - r)) <= 1e-13 * np.max(np.abs(r))

    @pytest.mark.parametrize("load", [
        LoadSpec("arctan2d", {"alpha": 12.0, "s1": 0.4, "s2": 0.65}, mode="quadrature", order=6),
        LoadSpec("constant", {"value": 1.7}),
    ])
    def test_node_derivatives_match_fd(self, load):
        # moving axis node j moves the right end of the elements left of
        # it and the left end of those right of it
        rng = np.random.default_rng(22)
        xs = np.sort(rng.uniform(0.05, 0.95, size=5))
        ys = np.sort(rng.uniform(0.05, 0.95, size=4))
        ey, ex = (i.ravel() for i in np.meshgrid(np.arange(ys.size - 1),
                                                 np.arange(xs.size - 1), indexing="ij"))
        d_dxl, d_dxr, d_dyb, d_dyt = area_load_derivs(load, xs, ys)
        step = 1e-7
        for axis, nodes, e_of, d_lo, d_hi in ((0, xs, ex, d_dxl, d_dxr),
                                              (1, ys, ey, d_dyb, d_dyt)):
            for j in range(nodes.size):
                up, down = nodes.copy(), nodes.copy()
                up[j] += step
                down[j] -= step
                if axis == 0:
                    fd = (area_loads(load, up, ys) - area_loads(load, down, ys)) / (2 * step)
                else:
                    fd = (area_loads(load, xs, up) - area_loads(load, xs, down)) / (2 * step)
                want = (np.where((e_of == j)[:, None], d_lo, 0.0)
                        + np.where((e_of + 1 == j)[:, None], d_hi, 0.0))
                np.testing.assert_allclose(fd, want, rtol=2e-6, atol=1e-8)


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
        d = hat_load_derivs(load, xl, xr)
        step = 1e-7
        fd = []
        for lo, hi in ((xl + step, xr), (xl - step, xr), (xl, xr + step), (xl, xr - step)):
            fd.append(hat_loads(load, lo, hi))
        fd_Il_dxl = (fd[0][0] - fd[1][0]) / (2 * step)
        fd_Il_dxr = (fd[2][0] - fd[3][0]) / (2 * step)
        fd_Ir_dxl = (fd[0][1] - fd[1][1]) / (2 * step)
        fd_Ir_dxr = (fd[2][1] - fd[3][1]) / (2 * step)
        for got, ref in zip(d, (fd_Il_dxl, fd_Il_dxr, fd_Ir_dxl, fd_Ir_dxr)):
            np.testing.assert_allclose(got, ref, rtol=2e-6, atol=1e-8)


class TestNeumannData:
    def test_arctan_flux(self):
        assert abs(arctan1d_neumann(10.0, 0.5) - 10.0 / 26.0) < 1e-15

    def test_power_flux(self):
        assert power_neumann(0.7) == 0.7

    def test_zero_flux_changes_nothing(self):
        from ritzmesh.loads import apply_neumann_endpoint
        rhs = np.array([1.0, 2.0])
        apply_neumann_endpoint(rhs, 1, 0.0)
        np.testing.assert_array_equal(rhs, [1.0, 2.0])


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
