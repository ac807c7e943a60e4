"""Parameter-space sampling, train/test splitting, and input encoding.

Axes carry one of three sampling distributions:

    uniform        equispaced inclusive of both endpoints
    log10          10^(equispaced exponents), biased toward small values
    reversed_log2  lo + hi - 2^(equispaced dyadic exponents), biased
                   toward the upper endpoint

Grids are Cartesian products of axis samples.  The split puts every
grid corner into the training set, fills the rest to 70% at random,
and draws a fixed monitor subset from the test set for convergence
tracking.  Network inputs are encoded into [-1, 1] per axis: affinely
for uniform and reversed_log2 axes, and affinely in log10 for log10
axes (raw magnitudes up to 1e4 would saturate tanh).
"""

from dataclasses import dataclass

import numpy as np

DISTRIBUTIONS = ("uniform", "log10", "reversed_log2")
MONITOR_SIZE = 10
TRAIN_FRACTION = 0.7


def sample_axis(dist, lo, hi, k):
    """k samples in [lo, hi], ascending, endpoints exact."""
    if dist not in DISTRIBUTIONS:
        raise ValueError(f"unknown distribution {dist!r}")
    if not lo < hi:
        raise ValueError("need lo < hi")
    if k < 2:
        raise ValueError("need at least two samples")
    if dist == "uniform":
        return np.linspace(lo, hi, k)
    if lo <= 0:
        raise ValueError(f"{dist} sampling requires positive bounds")
    if dist == "log10":
        values = 10.0 ** np.linspace(np.log10(lo), np.log10(hi), k)
    else:
        beta = np.linspace(np.log2(lo), np.log2(hi), k)
        values = np.sort(lo + hi - 2.0**beta)
    values[0] = lo
    values[-1] = hi
    return values


@dataclass(frozen=True)
class Axis:
    name: str
    dist: str
    lo: float
    hi: float
    count: int

    def values(self):
        return sample_axis(self.dist, self.lo, self.hi, self.count)

    def encode(self, v):
        v = np.asarray(v, dtype=float)
        if self.dist == "log10":
            lo, hi, v = np.log10(self.lo), np.log10(self.hi), np.log10(v)
        else:
            lo, hi = self.lo, self.hi
        return 2.0 * (v - lo) / (hi - lo) - 1.0


@dataclass(frozen=True)
class ParamGrid:
    axes: tuple
    tuples: np.ndarray          # (J, P)
    train_idx: np.ndarray
    test_idx: np.ndarray
    monitor_idx: np.ndarray

    @property
    def n_tuples(self):
        return self.tuples.shape[0]

    def encode(self, sigma):
        sigma = np.asarray(sigma, dtype=float)
        return np.array([axis.encode(sigma[i]) for i, axis in enumerate(self.axes)])


def build_grid(axes) -> np.ndarray:
    """Cartesian product of the axis samples, axis 0 fastest."""
    values = [axis.values() for axis in axes]
    mesh = np.meshgrid(*values, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def corner_indices(axes, tuples):
    corners = []
    extremes = [(axis.values()[0], axis.values()[-1]) for axis in axes]
    for j, row in enumerate(tuples):
        if all(row[i] in extremes[i] for i in range(len(axes))):
            corners.append(j)
    return np.array(corners, dtype=int)


def split_train_test(axes, seed=0) -> ParamGrid:
    """70/30 split with forced corners and a fixed monitor subset.

    The monitor subset has min(10, |test|) tuples; identical seeds give
    identical memberships.
    """
    axes = tuple(axes)
    tuples = build_grid(axes)
    total = tuples.shape[0]
    corners = corner_indices(axes, tuples)
    n_train = int(round(TRAIN_FRACTION * total))
    if n_train < corners.size or total - n_train < 1:
        raise ValueError(
            f"grid of {total} tuples is too small to split around {corners.size} corners"
        )
    rng = np.random.default_rng(seed)
    rest = np.setdiff1d(np.arange(total), corners)
    rng.shuffle(rest)
    train = np.sort(np.concatenate([corners, rest[: n_train - corners.size]]))
    test = np.sort(rest[n_train - corners.size:])
    monitor = np.sort(rng.choice(test, size=min(MONITOR_SIZE, test.size), replace=False))
    return ParamGrid(axes=axes, tuples=tuples, train_idx=train, test_idx=test,
                     monitor_idx=monitor)


DEFAULT_AXES = {
    "arctan1d": (Axis("alpha", "reversed_log2", 1.0, 50.0, 100),
                 Axis("s", "uniform", 0.2, 0.8, 100)),
    "power1d": (Axis("sigma", "log10", 0.51, 5.0, 200),),
    "twomaterial1d": (Axis("sigma", "log10", 1e-4, 1e4, 1000),),
    "arctan2d": (Axis("alpha", "reversed_log2", 1.0, 20.0, 20),
                 Axis("s1", "uniform", 0.1, 0.9, 10),
                 Axis("s2", "uniform", 0.1, 0.9, 10)),
    "lshape": (Axis("sigma1", "log10", 0.1, 10.0, 20),
               Axis("sigma2", "log10", 0.1, 10.0, 20)),
}


def default_axes(family, counts=None):
    """The family's standard sampling axes, optionally resized."""
    axes = DEFAULT_AXES[family]
    if counts is None:
        return axes
    if len(counts) != len(axes):
        raise ValueError(f"{family} needs {len(axes)} axis counts")
    return tuple(
        Axis(a.name, a.dist, a.lo, a.hi, int(k)) for a, k in zip(axes, counts)
    )
