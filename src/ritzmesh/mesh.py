"""Trainable mesh parameterization.

A 1D mesh on an interval (a, b) is realized from unconstrained logits
``theta`` of length n: a softmax turns the logits into a partition of
unity ``delta``, the partial sums of ``delta`` place n+1 chain nodes
from a to b, and any fixed interior nodes (material interfaces, corner
lines) are merged in by sorting.  The construction is recorded so that
gradients with respect to the sorted node coordinates can be pulled
back to gradients with respect to the logits.

A mesh is read through its ``axes``, x first: a Mesh1D is the one-axis
case, a TensorMesh2D the tensor product of two such axes, built as the
rows of one softmax_nodes batch whose record one mesh_pullback reads.
The axis record MeshParams1D holds no logits: only their count, the
fixed interior nodes and the interval.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateMeshError

# Elements shorter than EPS_MIN_FACTOR * (b - a) make the stiffness
# matrix numerically singular, so mesh construction rejects them.  The
# floor sits near roundoff because optimally graded meshes for the
# singular benchmarks legitimately carry first elements down to
# ~1e-13 * (b - a) at N = 256.
EPS_MIN_FACTOR = 1e-14


@dataclass(frozen=True)
class MeshParams1D:
    """One axis, without its logits (softmax_partition checks those).

    n:              number of logits, n >= 1 (ProblemSpec.axis_params checks)
    fixed_interior: sorted node coordinates strictly inside (a, b)
    interval:       (a, b) with a < b
    """

    n: int
    fixed_interior: np.ndarray = field(default_factory=lambda: np.empty(0))
    interval: tuple = (0.0, 1.0)

    def __post_init__(self):
        fixed = np.asarray(self.fixed_interior, dtype=float)
        object.__setattr__(self, "fixed_interior", fixed)
        a, b = self.interval
        if not a < b:
            raise ValueError(f"interval must satisfy a < b, got ({a}, {b})")
        if fixed.size:
            if np.any(fixed <= a) or np.any(fixed >= b):
                raise ValueError("fixed interior nodes must lie strictly inside (a, b)")
            if np.any(np.diff(fixed) <= 0):
                raise ValueError("fixed interior nodes must be strictly increasing")


@dataclass(frozen=True)
class ConstructionRecord:
    """How a Mesh1D was built, for gradient pullback.

    order:      argsort permutation; sorted_nodes = unsorted[order]
    n_adaptive: number of logits n (chain nodes are unsorted[0..n])
    adaptive:   per sorted node, True if it came from the softmax chain
    delta:      the partition-of-unity vector used
    """

    order: np.ndarray
    n_adaptive: int
    adaptive: np.ndarray
    delta: np.ndarray


@dataclass(frozen=True)
class Mesh1D:
    """Strictly increasing nodes from a to b, with optional record."""

    nodes: np.ndarray
    record: ConstructionRecord | None = None

    @property
    def n_elements(self):
        return self.nodes.size - 1

    @property
    def lengths(self):
        return np.diff(self.nodes)

    @property
    def axes(self):
        return (self,)

    @classmethod
    def from_nodes(cls, nodes):
        """Wrap explicit node coordinates (no pullback possible)."""
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("need at least two nodes")
        check_lengths(nodes, nodes[-1] - nodes[0])
        return cls(nodes=nodes, record=None)


@dataclass(frozen=True)
class TensorMesh2D:
    """Tensor product of two 1D meshes; elements are axis-aligned rectangles."""

    mesh_x: Mesh1D
    mesh_y: Mesh1D
    record: ConstructionRecord | None = None    # rows: the axes' records

    @property
    def axes(self):
        return (self.mesh_x, self.mesh_y)


def softmax_partition(theta):
    """Partition of unity from logits, with max-subtraction for overflow safety.

    Every entry lies in (0, 1) and the entries sum to 1; a (K, n)
    array gives one partition per row.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim not in (1, 2) or theta.shape[-1] < 1:
        raise ValueError("theta must be a vector of length >= 1")
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta contains non-finite entries")
    shifted = theta - theta.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def mesh_of_rows(nodes, record):
    """The Mesh1D or TensorMesh2D of the rows of softmax_nodes's output."""
    axes = [Mesh1D(row, ConstructionRecord(order, record.n_adaptive, adaptive, delta))
            for row, order, adaptive, delta in
            zip(nodes, record.order, record.adaptive, record.delta)]
    return axes[0] if len(axes) == 1 else TensorMesh2D(*axes, record=record)


def softmax_nodes(theta, params: MeshParams1D):
    """Sorted nodes and their ConstructionRecord, unchecked, from logits
    theta: a vector, or a (K, n) batch giving every array a leading
    sample axis; params gives the interval and the fixed nodes.

    Chain nodes: x_0 = a, x_i = x_{i-1} + (b - a) * delta_i; the last
    chain node is assigned b exactly rather than by summation.  Fixed
    nodes are merged and the union sorted.
    """
    a, b = params.interval
    delta = softmax_partition(theta)
    n = delta.shape[-1]
    lead = delta.shape[:-1]
    # the chain x_0..x_n, then the fixed nodes
    unsorted = np.empty(lead + (n + 1 + params.fixed_interior.size,))
    unsorted[..., 0] = a
    unsorted[..., 1:n + 1] = a + (b - a) * np.cumsum(delta, axis=-1)
    unsorted[..., n] = b
    unsorted[..., n + 1:] = params.fixed_interior
    order = np.argsort(unsorted, axis=-1, kind="stable")
    nodes = np.sort(unsorted, axis=-1, kind="stable")    # unsorted[order]
    return nodes, ConstructionRecord(order=order, n_adaptive=n, adaptive=order <= n,
                                     delta=delta)


def mesh_pullback(grad_nodes, record: ConstructionRecord, params: MeshParams1D):
    """Pull a gradient over sorted node coordinates back to the logits.

    Applies, in reverse construction order: the transpose of the sort
    permutation, zeroing of fixed and endpoint contributions, the
    adjoint of the cumulative sum (suffix sums over chain nodes
    1..n-1; the last chain node is pinned to b), the (b - a) scale,
    and the softmax Jacobian d(delta_i)/d(theta_j) =
    delta_i (1{i=j} - delta_j).  A record of a batch from softmax_nodes
    pulls back a (K, M) gradient row by row.
    """
    grad_nodes = np.asarray(grad_nodes, dtype=float)
    if grad_nodes.shape != record.order.shape:
        raise ValueError(
            f"grad_nodes has shape {grad_nodes.shape}, expected {record.order.shape}"
        )
    a, b = params.interval
    n = record.n_adaptive
    grad_unsorted = np.empty_like(grad_nodes)
    np.put_along_axis(grad_unsorted, record.order, grad_nodes, axis=-1)
    # Interior chain nodes x_1..x_{n-1}; x_0 = a and x_n = b carry no
    # theta dependence, fixed nodes none either.
    g_chain = grad_unsorted[..., 1:n]
    # delta_i moves x_i..x_{n-1}, so its adjoint is a suffix sum.
    delta = record.delta
    grad_delta = np.zeros(delta.shape)
    grad_delta[..., : n - 1] = (b - a) * np.cumsum(g_chain[..., ::-1], axis=-1)[..., ::-1]
    # one `@` per row, as a single vector computes it, for the same bits
    dot = np.array([g @ d for g, d in zip(np.atleast_2d(grad_delta), np.atleast_2d(delta))])
    return delta * (grad_delta - dot.reshape(delta.shape[:-1] + (1,)))


def degenerate_rows(nodes, span):
    """Per row of (K, M) nodes, a DegenerateMeshError for the row's first
    element shorter than EPS_MIN_FACTOR * span, or None."""
    lengths = nodes[..., 1:] - nodes[..., :-1]
    eps_min = EPS_MIN_FACTOR * span
    errors = [None] * len(nodes)
    for k, e in zip(*np.nonzero(lengths < eps_min)):
        if errors[k] is None:
            errors[k] = DegenerateMeshError(
                f"element {e} spanning [{float(nodes[k, e])}, {float(nodes[k, e + 1])}] has "
                f"length {lengths[k, e]:.3e} < {eps_min:.3e}")
    return errors


def check_lengths(nodes, span):
    """Raise the first error of degenerate_rows on a row or rows of nodes."""
    for error in degenerate_rows(np.atleast_2d(nodes), span):
        if error is not None:
            raise error
