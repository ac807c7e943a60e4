"""Mesh construction and pullback."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ritzmesh.errors import DegenerateMeshError
from helpers import axis_mesh
from ritzmesh.mesh import Mesh1D, MeshParams1D, TensorMesh2D, mesh_pullback, softmax_partition

finite_theta = st.lists(
    st.floats(min_value=-30, max_value=30, allow_nan=False), min_size=1, max_size=40
).map(np.array)


class TestSoftmaxPartition:
    def test_uniform_logits(self):
        np.testing.assert_allclose(softmax_partition(np.zeros(4)), 0.25)

    def test_log_integers(self):
        delta = softmax_partition(np.log([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(delta, [1 / 6, 2 / 6, 3 / 6], rtol=1e-15)

    def test_normalization_random(self):
        rng = np.random.default_rng(7)
        theta = rng.normal(size=20)
        assert abs(softmax_partition(theta).sum() - 1.0) < 1e-14

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            softmax_partition(np.array([0.0, np.inf]))
        with pytest.raises(ValueError):
            softmax_partition(np.array([np.nan]))

    @given(finite_theta)
    @settings(max_examples=200, deadline=None)
    def test_partition_of_unity(self, theta):
        delta = softmax_partition(theta)
        assert abs(delta.sum() - 1.0) <= 1e-14 * max(1, theta.size)
        assert np.all(delta > 0)
        assert np.all(delta < 1 + 1e-15)

    @given(finite_theta, st.floats(min_value=-50, max_value=50, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_shift_invariance(self, theta, c):
        base = softmax_partition(theta)
        shifted = softmax_partition(theta + c)
        np.testing.assert_allclose(shifted, base, rtol=1e-12, atol=1e-16)


class TestBuildMesh1D:
    def test_uniform(self):
        mesh = axis_mesh(np.zeros(4))
        np.testing.assert_array_equal(mesh.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_hand_evaluated_logits(self):
        mesh = axis_mesh(np.array([1.0, 0.0, 0.0]))
        e = np.e
        expected = [0.0, e / (e + 2), (e + 1) / (e + 2), 1.0]
        np.testing.assert_allclose(mesh.nodes, expected, rtol=1e-15)

    def test_fixed_node_collision_is_degenerate(self):
        params = MeshParams1D(10, fixed_interior=np.array([0.5]))
        with pytest.raises(DegenerateMeshError):
            axis_mesh(np.zeros(10), params)

    def test_fixed_nodes_merge_sorted(self):
        params = MeshParams1D(4, fixed_interior=np.array([0.1, 0.6]))
        mesh = axis_mesh(np.zeros(4), params)
        np.testing.assert_allclose(
            mesh.nodes, [0.0, 0.1, 0.25, 0.5, 0.6, 0.75, 1.0], rtol=1e-15)
        assert (mesh.record.order <= mesh.record.n_adaptive).sum() == 5

    def test_endpoints_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            theta = rng.normal(scale=2.0, size=rng.integers(1, 20))
            mesh = axis_mesh(theta, MeshParams1D(theta.size, interval=(-2.0, 3.0)))
            assert mesh.nodes[0] == -2.0
            assert mesh.nodes[-1] == 3.0

    def test_length_telescoping(self):
        rng = np.random.default_rng(4)
        theta = rng.normal(scale=3.0, size=17)
        mesh = axis_mesh(theta, MeshParams1D(theta.size, interval=(0.0, 1.0)))
        assert abs(mesh.lengths.sum() - 1.0) <= 1e-12

    def test_shift_invariance_bitwise(self):
        rng = np.random.default_rng(5)
        theta = rng.normal(size=9)
        base = axis_mesh(theta)
        shifted = axis_mesh(theta + 5.0)
        np.testing.assert_allclose(shifted.nodes, base.nodes, rtol=1e-13, atol=0)

    def test_invalid_fixed_nodes(self):
        with pytest.raises(ValueError):
            MeshParams1D(3, fixed_interior=np.array([1.5]))
        with pytest.raises(ValueError):
            MeshParams1D(3, fixed_interior=np.array([0.5, 0.5]))

    def test_from_nodes_requires_increasing(self):
        with pytest.raises(DegenerateMeshError):
            Mesh1D.from_nodes([0.0, 0.5, 0.5, 1.0])


class TestTensorMesh2D:
    def test_uniform_grid(self):
        mesh = TensorMesh2D(
            axis_mesh(np.zeros(3)),
            axis_mesh(np.zeros(3)))
        assert [m.nodes.size for m in mesh.axes] == [4, 4]
        assert [m.n_elements for m in mesh.axes] == [3, 3]

    def test_per_axis_heights(self):
        mesh = TensorMesh2D(axis_mesh(np.zeros(3)), axis_mesh(np.array([1.0, 0.0, 0.0])))
        e = np.e
        np.testing.assert_allclose(
            mesh.mesh_y.lengths, [e / (e + 2), 1 / (e + 2), 1 / (e + 2)], rtol=1e-14)
        np.testing.assert_allclose(mesh.mesh_x.lengths, 1 / 3, rtol=1e-14)

    def test_fixed_line_collision(self):
        px = MeshParams1D(4, fixed_interior=np.array([0.5]))
        with pytest.raises(DegenerateMeshError):
            TensorMesh2D(axis_mesh(np.zeros(4), px), axis_mesh(np.zeros(4)))


class TestMeshPullback:
    def test_zero_gradient(self):
        params = MeshParams1D(6)
        mesh = axis_mesh(np.zeros(6), params)
        g = mesh_pullback(np.zeros(mesh.nodes.size), mesh.record, params)
        np.testing.assert_array_equal(g, 0.0)

    def test_gradient_sums_to_zero(self):
        # softmax is invariant to uniform logit shifts
        rng = np.random.default_rng(11)
        for _ in range(20):
            theta = rng.normal(size=8)
            params = MeshParams1D(theta.size, fixed_interior=np.array([0.37]))
            mesh = axis_mesh(theta, params)
            g = mesh_pullback(rng.normal(size=mesh.nodes.size), mesh.record, params)
            assert abs(g.sum()) < 1e-12

    def test_length_mismatch(self):
        params = MeshParams1D(4)
        mesh = axis_mesh(np.zeros(4), params)
        with pytest.raises(ValueError):
            mesh_pullback(np.zeros(3), mesh.record, params)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        weights = rng.normal(size=12)

        params = MeshParams1D(6, fixed_interior=np.array([0.71]), interval=(0.0, 1.0))

        def scalar_of_nodes(theta):
            mesh = axis_mesh(theta, params)
            return np.sin(weights[: mesh.nodes.size] @ mesh.nodes ** 2)

        theta = rng.normal(scale=0.5, size=6)
        mesh = axis_mesh(theta, params)
        x = mesh.nodes
        grad_nodes = np.cos(weights[: x.size] @ x**2) * weights[: x.size] * 2 * x
        analytic = mesh_pullback(grad_nodes, mesh.record, params)
        fd = np.zeros_like(theta)
        for j in range(theta.size):
            for sign in (+1, -1):
                bumped = theta.copy()
                bumped[j] += sign * 1e-6
                fd[j] += sign * scalar_of_nodes(bumped)
            fd[j] /= 2e-6
        assert np.linalg.norm(analytic - fd) / np.linalg.norm(fd) < 1e-6
