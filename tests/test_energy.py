"""Energy evaluation, balancing, relative errors, and the reduced gradient."""

import numpy as np
import pytest

from ritzmesh.energy import balanced_ritz, relative_error, ritz_energy, ritz_gradient
from ritzmesh.errors import InconsistentReferenceError
from ritzmesh.loads import reference_ritz
from ritzmesh.pipeline import (
    evaluate,
    evaluate_uniform,
    evaluate_with_gradient,
    finite_difference_gradient,
)
from ritzmesh.problems import arctan1d, constant1d, power1d, twomaterial1d


class TestRitzEnergy:
    def test_zero_coefficients(self):
        ev = evaluate_uniform(constant1d(1.0, 4))
        assert ritz_energy(ev.system, np.zeros(ev.c.size)) == 0.0

    def test_equals_load_form_at_solution(self):
        ev = evaluate_uniform(arctan1d(10.0, 0.5, 32))
        J = ritz_energy(ev.system, ev.c)
        assert abs(J - (-0.5 * ev.system.ell @ ev.c)) <= 1e-12 * abs(J)

    def test_hand_value(self):
        ev = evaluate_uniform(constant1d(1.0, 2))
        assert abs(ritz_energy(ev.system, np.array([0.375, 0.5])) - (-0.15625)) < 1e-15

    def test_negative_at_solution(self):
        for p in (arctan1d(), power1d(), twomaterial1d()):
            assert evaluate_uniform(p).J < 0


class TestBalancedRitz:
    def test_reference_ratio(self):
        assert balanced_ritz(-0.1, -0.1) == -1.0
        assert balanced_ritz(-0.2, -0.1) == -2.0

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            balanced_ritz(-1.0, 0.0)

    def test_trained_mesh_not_above_uniform(self):
        from ritzmesh.training import train_nonparametric
        p = arctan1d(10.0, 0.5, n_elements=12)
        ref = evaluate_uniform(p).J
        theta, _ = train_nonparametric(p, iterations=150)
        J_adapted = evaluate(p, theta).J
        assert balanced_ritz(J_adapted, ref) <= balanced_ritz(ref, ref) + 1e-12


class TestRelativeError:
    def test_exact_candidate(self):
        assert relative_error(-1.0, -1.0) == 0.0

    def test_arithmetic(self):
        assert abs(relative_error(-0.99, -1.0) - 0.1) < 1e-13

    def test_clamps_roundoff(self):
        assert relative_error(-1.0 - 1e-13, -1.0) == 0.0

    def test_rejects_candidate_below_reference(self):
        with pytest.raises(InconsistentReferenceError):
            relative_error(-1.1, -1.0)

    def test_rejects_positive_reference(self):
        with pytest.raises(ValueError):
            relative_error(0.5, 1.0)

    def test_energy_error_equals_direct_integration(self):
        # e_h for the power benchmark against the energy-norm error
        # expanded as ||u||^2 - 2 int u' u_h' + int u_h'^2, each piece
        # integrated exactly (u_h' is constant per element)
        p = power1d(0.7, n_elements=32)
        ev = evaluate_uniform(p)
        e_energy = relative_error(ev.J, reference_ritz(p))
        sg = 0.7
        nodes = ev.mesh.nodes
        c_full = ev.labeling.full_vector(ev.c)
        h = np.diff(nodes)
        slopes = np.diff(c_full) / h
        norm_u_sq = sg * sg / (2 * sg - 1)
        cross = np.sum(slopes * np.diff(nodes**sg))
        norm_uh_sq = np.sum(slopes**2 * h)
        e_direct = np.sqrt((norm_u_sq - 2 * cross + norm_uh_sq) / norm_u_sq)
        assert abs(e_energy - e_direct) < 1e-8


class TestReducedGradient:
    @pytest.mark.parametrize("make,n", [
        (lambda n: arctan1d(10.0, 0.5, n_elements=n), 8),
        (lambda n: power1d(0.7, n_elements=n), 8),
        (lambda n: twomaterial1d(10.0, n_elements=n), 8),
    ])
    def test_matches_full_pipeline_fd(self, make, n):
        problem = make(n)
        rng = np.random.default_rng(5)
        theta = rng.normal(0, 0.3, problem.theta_size)
        _, grad = evaluate_with_gradient(problem, theta)
        fd = finite_difference_gradient(problem, theta)
        assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-5

    def test_zero_data_zero_gradient(self):
        p = constant1d(0.0, 6)
        _, grad = evaluate_with_gradient(p, np.zeros(p.theta_size))
        np.testing.assert_array_equal(grad, 0.0)

    def test_symmetric_problem_gradient_reversal(self):
        # reflecting the mesh reverses the logit order without flipping
        # signs, so the s = 0.5 problem's logit gradient at theta = 0 is
        # symmetric under index reversal (the node-coordinate gradient
        # is the antisymmetric one)
        p = arctan1d(10.0, 0.5, n_elements=8)
        _, grad = evaluate_with_gradient(p, np.zeros(p.theta_size))
        np.testing.assert_allclose(grad, grad[::-1], atol=1e-9)

    def test_balanced_scaling(self):
        p = arctan1d(10.0, 0.5, n_elements=8)
        theta = np.linspace(-0.2, 0.2, 8)
        ev, grad = evaluate_with_gradient(p, theta)
        ref = evaluate_uniform(p).J
        _, grad_scaled = evaluate_with_gradient(p, theta, scale=1.0 / abs(ref))
        np.testing.assert_allclose(grad_scaled, grad / abs(ref), rtol=1e-14)

    def test_descent_from_uniform(self):
        # one small Adam step from the uniform mesh never increases J
        from ritzmesh.optim import AdamState, adam_step
        rng = np.random.default_rng(31)
        for seed in range(10):
            alpha = float(rng.uniform(3, 30))
            s = float(rng.uniform(0.3, 0.7))
            for p in (arctan1d(alpha, s, n_elements=10),
                      power1d(float(rng.uniform(0.55, 3.0)), n_elements=10),
                      twomaterial1d(float(10 ** rng.uniform(-2, 2)), n_elements=10)):
                theta = np.zeros(p.theta_size)
                ev, grad = evaluate_with_gradient(p, theta)
                state = AdamState.for_params([theta], schedule=[(0, 1e-3)])
                adam_step(state, [theta], [grad])
                assert evaluate(p, theta).J <= ev.J + 1e-12
