"""The parameter-to-logits network: two tanh layers, linear output.

Forward passes cache their activations; backward returns exact
reverse-mode gradients of a scalar contraction with the output logits.
Weights use LeCun initialization, Normal(0, 1/fan_in), biases start at
zero, and the output layer carries no bias (a constant logit shift
would not change the softmax mesh anyway).
"""

from dataclasses import dataclass

import numpy as np

PARAM_NAMES = ("W1", "b1", "W2", "b2", "W3")

#: widths of the two hidden tanh layers
HIDDEN = (10, 10)


@dataclass
class MlpParams:
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    W3: np.ndarray

    def arrays(self):
        return [getattr(self, name) for name in PARAM_NAMES]


def lecun_init(n_inputs, n_outputs, seed=0) -> MlpParams:
    """Weights ~ Normal(0, 1/fan_in), zero biases; deterministic per seed."""
    if n_inputs < 1 or n_outputs < 2:
        raise ValueError("need n_inputs >= 1 and n_outputs >= 2")
    h1, h2 = HIDDEN
    rng = np.random.default_rng(seed)
    return MlpParams(
        W1=rng.normal(0.0, 1.0 / np.sqrt(n_inputs), size=(h1, n_inputs)),
        b1=np.zeros(h1),
        W2=rng.normal(0.0, 1.0 / np.sqrt(h1), size=(h2, h1)),
        b2=np.zeros(h2),
        W3=rng.normal(0.0, 1.0 / np.sqrt(h2), size=(n_outputs, h2)),
    )


def mlp_forward(params: MlpParams, x):
    """Logits for one encoded input vector, or one row of logits per row
    of a (K, P) batch; returns (logits, cache)."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("network input contains non-finite entries")
    X = np.atleast_2d(x)
    z1 = np.tanh(_matvec(params.W1, X) + params.b1)
    z2 = np.tanh(_matvec(params.W2, z1) + params.b2)
    logits = _matvec(params.W3, z2)
    return logits.reshape(x.shape[:-1] + (-1,)), (X, z1, z2)


def mlp_backward(params: MlpParams, cache, grad_logits):
    """Gradients of grad_logits . logits with respect to the weights,
    summed over the rows of a batch in row order."""
    x, z1, z2 = cache
    g = np.atleast_2d(np.asarray(grad_logits, dtype=float))
    dz2 = _matvec(params.W3.T, g) * (1.0 - z2 * z2)
    dz1 = _matvec(params.W2.T, dz2) * (1.0 - z1 * z1)
    return MlpParams(W1=_outer_sum(dz1, x), b1=dz1.sum(axis=0), W2=_outer_sum(dz2, z1),
                     b2=dz2.sum(axis=0), W3=_outer_sum(g, z2))


def _matvec(W, X):
    """W @ x for every row x of X.  Stacked matmul gives each row the bits
    of a single W @ x; a GEMM over the batch (X @ W.T) would not."""
    return np.matmul(W, X[..., None])[..., 0]


def _outer_sum(u, v):
    return (u[:, :, None] * v[:, None, :]).sum(axis=0)
