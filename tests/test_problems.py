"""Problem factories, template defaults, and exact-energy lookup."""

import numpy as np
import pytest

from helpers import axis_mesh
from ritzmesh.errors import ConfigurationError
from ritzmesh.loads import exact_energy, lshape_reference_energy, reference_ritz
from ritzmesh.problems import (
    arctan1d,
    lshape,
    make_problem,
    power1d,
    twomaterial1d,
)


class TestRegistry:
    def test_five_benchmarks(self):
        for family in ("arctan1d", "power1d", "twomaterial1d", "arctan2d", "lshape"):
            assert make_problem(family).family == family

    def test_arctan_defaults(self):
        p = make_problem("arctan1d")
        assert p.sigma == (10.0, 0.5)
        assert p.boundary == "left"
        assert abs(p.load.bind("flux")() - 10.0 / 26.0) < 1e-15

    def test_twomaterial_defaults(self):
        p = make_problem("twomaterial1d")
        assert p.sigma == (10.0,)
        assert p.fixed_nodes == (0.5,)
        assert p.boundary == "both"

    def test_lshape_defaults(self):
        p = make_problem("lshape")
        assert p.sigma == (1.0, 1.0)
        assert p.fixed_nodes == ((0.5,), (0.5,))
        assert p.boundary == "lshape"
        assert p.load.family == "constant"

    def test_arctan2d_defaults(self):
        p = make_problem("arctan2d")
        assert p.sigma == (10.0, 0.05, 0.05)
        assert p.load.mode == "quadrature" and p.load.order == 50
        assert p.boundary == "left-bottom"

    def test_unknown_family(self):
        with pytest.raises(ConfigurationError):
            make_problem("heat_equation")


class TestProblemSpec:
    def test_theta_size_accounts_for_fixed_nodes(self):
        assert twomaterial1d(10.0, n_elements=12).theta_size == 11
        assert arctan1d(n_elements=32).theta_size == 32
        p = lshape(n_elements=8)
        assert p.theta_size == 14  # (8 - 1) per axis

    def test_uniform_mesh_needs_fixed_node_resolution(self):
        with pytest.raises(ConfigurationError):
            twomaterial1d(10.0, n_elements=5).uniform_mesh()

    def test_logits_split_by_axis_2d(self):
        # the flat logit vector holds the x block first, then the y block
        p = lshape(n_elements=6)
        theta = np.arange(p.theta_size, dtype=float) / p.theta_size
        mesh = p.build_mesh(theta)
        for axis, block in zip(mesh.axes, (theta[:5], theta[5:])):
            np.testing.assert_array_equal(axis.nodes, axis_mesh(block, p.axis_params).nodes)

    @pytest.mark.parametrize("make, expected", [(lambda: arctan1d(n_elements=8), 8),
                                                (lambda: lshape(n_elements=8), 14)])
    def test_theta_size_checked(self, make, expected):
        with pytest.raises(ValueError, match=f"theta has size 5, expected {expected}"):
            make().build_mesh(np.zeros(5))

    def test_build_mesh_matches_uniform_at_zero_logits(self):
        p = arctan1d(n_elements=8)
        np.testing.assert_allclose(p.build_mesh(None).nodes,
                                   p.uniform_mesh().nodes, atol=1e-15)

    def test_insufficient_elements_rejected(self):
        with pytest.raises(ConfigurationError):
            twomaterial1d(10.0, n_elements=1).theta_size


class TestExactEnergyDispatch:
    def test_power(self):
        assert abs(exact_energy(power1d(0.7)) - 1.225) < 1e-15

    def test_reference_is_half_energy(self):
        p = twomaterial1d(10.0)
        assert reference_ritz(p) == -0.5 * exact_energy(p)

    def test_lshape_reference_value(self):
        assert lshape_reference_energy(1.0, 1.0) == -0.00668986
        assert reference_ritz(lshape(1.0, 1.0)) == -0.00668986

    def test_lshape_table_covers_default_grid(self):
        from ritzmesh.sampling import default_axes
        axes = default_axes("lshape")
        for s1 in axes[0].values():
            for s2 in axes[1].values():
                J = lshape_reference_energy(s1, s2)
                assert J < 0

    def test_lshape_untabulated_rejected(self):
        with pytest.raises(ConfigurationError):
            lshape_reference_energy(0.123456, 7.654321)

    def test_constant1d_has_no_reference(self):
        with pytest.raises(ConfigurationError):
            exact_energy(make_problem("constant1d"))

    def test_arctan2d_energy_separable_sanity(self):
        # at alpha -> small the solution is nearly linear in each axis
        got = exact_energy(make_problem("arctan2d", sigma=(0.01, 0.5, 0.5)))
        # u ~ alpha(x - s) + alpha s = alpha x, so u ~ alpha^2 xy and
        # the energy ~ alpha^4 * (1/3 + 1/3) * ... ; just require positivity
        assert 0 < got < 1e-4
