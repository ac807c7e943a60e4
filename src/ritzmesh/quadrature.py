"""Gauss-Legendre quadrature on the reference interval [-1, 1]."""

from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral

import numpy as np


@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.points.flags.writeable = False
        self.weights.flags.writeable = False

    @property
    def order(self):
        return self.points.size

    def mapped(self, left, right):
        """Affinely map points/weights to one or more intervals.

        left/right may be scalars or arrays of element endpoints; the
        mapped points then have shape (n_elements, order).
        """
        left = np.asarray(left, dtype=float)
        right = np.asarray(right, dtype=float)
        half = 0.5 * (right - left)
        mid = 0.5 * (right + left)
        pts = mid[..., None] + half[..., None] * self.points
        wts = half[..., None] * self.weights
        return pts, wts


# typed: 2.0 and True must fail the check, not hit the entries of 2 and 1
@lru_cache(maxsize=None, typed=True)
def gauss_legendre(q: int) -> QuadratureRule:
    """Nodes and weights of the q-point Gauss-Legendre rule on [-1, 1].

    Roots of the degree-q Legendre polynomial by Newton iteration on
    the three-term recurrence, converged to ~1e-15; exact for
    polynomials up to degree 2q - 1.  Rules are cached (read-only).
    """
    if isinstance(q, bool) or not isinstance(q, Integral) or not 1 <= q <= 64:
        raise ValueError(f"order must be an integer in [1, 64], got {q!r}")
    if q == 1:
        return QuadratureRule(points=np.zeros(1), weights=np.full(1, 2.0))
    k = np.arange(q)
    x = np.cos(np.pi * (k + 0.75) / (q + 0.5))
    for _ in range(100):
        p_prev = np.ones_like(x)
        p = x.copy()
        for j in range(2, q + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        dp = q * (x * p - p_prev) / (x * x - 1.0)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    # Recompute the derivative at the converged roots for the weights.
    p_prev = np.ones_like(x)
    p = x.copy()
    for j in range(2, q + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    dp = q * (x * p - p_prev) / (x * x - 1.0)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    idx = np.argsort(x)
    return QuadratureRule(points=x[idx], weights=w[idx])
