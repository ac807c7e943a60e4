"""Network forward/backward, initialization, and optimizers."""

import numpy as np
import pytest

from helpers import axis_mesh
from ritzmesh.mesh import softmax_partition
from ritzmesh.network import MlpParams, lecun_init, mlp_backward, mlp_forward
from ritzmesh.optim import AdamState, adam_step, lr_at


def zero_grads(params: MlpParams) -> MlpParams:
    """Zero arrays shaped like params: the per-sample oracles' accumulator."""
    return MlpParams(*(np.zeros_like(a) for a in params.arrays()))


def accumulate(total: MlpParams, grads: MlpParams, weight=1.0):
    """total += weight * grads, array by array, in place."""
    for t, g in zip(total.arrays(), grads.arrays()):
        t += weight * g
    return total


class TestLecunInit:
    def test_deterministic(self):
        a = lecun_init(3, 8, seed=123)
        b = lecun_init(3, 8, seed=123)
        for x, y in zip(a.arrays(), b.arrays()):
            np.testing.assert_array_equal(x, y)

    def test_seed_changes_weights(self):
        a = lecun_init(3, 8, seed=1)
        b = lecun_init(3, 8, seed=2)
        assert not np.array_equal(a.W1, b.W1)

    def test_biases_zero(self):
        p = lecun_init(2, 5, seed=0)
        np.testing.assert_array_equal(p.b1, 0.0)
        np.testing.assert_array_equal(p.b2, 0.0)

    def test_hidden_weight_variance(self):
        samples = np.concatenate(
            [lecun_init(2, 5, seed=s).W2.ravel() for s in range(1000)])
        assert abs(samples.var() - 0.1) < 0.15 * 0.1

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            lecun_init(0, 5)
        with pytest.raises(ValueError):
            lecun_init(2, 1)


class TestForwardBackward:
    def test_zero_weights_give_uniform_mesh(self):
        p = lecun_init(2, 6, seed=0)
        for arr in p.arrays():
            arr[:] = 0.0
        logits, _ = mlp_forward(p, np.array([0.3, -0.7]))
        np.testing.assert_array_equal(logits, 0.0)
        mesh = axis_mesh(logits)
        np.testing.assert_allclose(np.diff(mesh.nodes), 1 / 6, rtol=1e-14)

    def test_constant_output_column_gives_uniform_mesh(self):
        p = lecun_init(2, 6, seed=0)
        p.W1[:] = 0.0
        p.W2[:] = 0.0
        p.W3[:] = 3.7  # constant logits: softmax shift invariance
        logits, _ = mlp_forward(p, np.array([0.5, 0.5]))
        delta = softmax_partition(logits)
        np.testing.assert_allclose(delta, 1 / 6, rtol=1e-12)

    def test_rejects_nonfinite_input(self):
        p = lecun_init(2, 4, seed=0)
        with pytest.raises(ValueError):
            mlp_forward(p, np.array([np.nan, 0.0]))

    def test_weight_gradients_match_fd(self):
        rng = np.random.default_rng(40)
        params = lecun_init(3, 5, seed=7)
        x = rng.normal(size=3)
        g_out = rng.normal(size=5)
        logits, cache = mlp_forward(params, x)
        grads = mlp_backward(params, cache, g_out)
        step = 1e-6
        for arr, garr in zip(params.arrays(), grads.arrays()):
            flat = arr.ravel()
            gflat = garr.ravel()
            idx = rng.choice(flat.size, size=min(10, flat.size), replace=False)
            for i in idx:
                keep = flat[i]
                flat[i] = keep + step
                up = g_out @ mlp_forward(params, x)[0]
                flat[i] = keep - step
                dn = g_out @ mlp_forward(params, x)[0]
                flat[i] = keep
                fd = (up - dn) / (2 * step)
                assert abs(gflat[i] - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_zero_upstream_zero_grads(self):
        params = lecun_init(2, 4, seed=0)
        _, cache = mlp_forward(params, np.array([0.1, 0.2]))
        grads = mlp_backward(params, cache, np.zeros(4))
        for arr in grads.arrays():
            np.testing.assert_array_equal(arr, 0.0)

    def test_accumulation_is_linear(self):
        params = lecun_init(2, 4, seed=0)
        x = np.array([0.4, -0.2])
        g_out = np.array([1.0, -2.0, 0.5, 0.0])
        _, cache = mlp_forward(params, x)
        single = mlp_backward(params, cache, g_out)
        total = zero_grads(params)
        accumulate(total, single)
        accumulate(total, single)
        for twice, once in zip(total.arrays(), single.arrays()):
            np.testing.assert_allclose(twice, 2 * once, rtol=1e-15)

    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_batch_rows_bitwise_single_samples(self, k):
        # stacked matmul per row: a GEMM over the batch would move the
        # last bit, and the parametric loss amplifies that
        rng = np.random.default_rng(k)
        params = lecun_init(2, 15, seed=k)
        X = rng.uniform(-1, 1, (k, 2))
        G = rng.normal(size=(k, 15))
        logits, cache = mlp_forward(params, X)
        total = zero_grads(params)
        for x, g, row in zip(X, G, logits):
            single, single_cache = mlp_forward(params, x)
            np.testing.assert_array_equal(row, single)
            gemv = params.W3 @ np.tanh(params.W2 @ np.tanh(params.W1 @ x + params.b1) + params.b2)
            np.testing.assert_array_equal(row, gemv)
            accumulate(total, mlp_backward(params, single_cache, g))
        for got, want in zip(mlp_backward(params, cache, G).arrays(), total.arrays()):
            np.testing.assert_array_equal(got, want)


class TestAdam:
    def test_first_step_magnitude(self):
        theta = np.array([1.0, -2.0, 3.0])
        g = np.array([10.0, -0.5, 2.0])
        state = AdamState.for_params([theta], schedule=[(0, 1e-2)])
        before = theta.copy()
        adam_step(state, [theta], [g])
        # bias-corrected first step moves ~lr * sign(g)
        np.testing.assert_allclose(before - theta, 1e-2 * np.sign(g), rtol=1e-6)

    def test_zero_gradient_no_motion(self):
        theta = np.array([1.0, 2.0])
        state = AdamState.for_params([theta])
        adam_step(state, [theta], [np.zeros(2)])
        np.testing.assert_array_equal(theta, [1.0, 2.0])

    def test_quadratic_bowl_convergence(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=5)
        state = AdamState.for_params([x], schedule=[(0, 1e-2)])
        for _ in range(5000):
            adam_step(state, [x], [2.0 * x])
        assert np.linalg.norm(x) < 1e-3

    def test_schedule_lookup(self):
        sched = [(0, 1e-2), (20, 1e-3), (50, 5e-4)]
        assert lr_at(sched, 0) == 1e-2
        assert lr_at(sched, 19) == 1e-2
        assert lr_at(sched, 20) == 1e-3
        assert lr_at(sched, 200) == 5e-4
        with pytest.raises(ValueError):
            lr_at([(5, 1e-2)], 3)
