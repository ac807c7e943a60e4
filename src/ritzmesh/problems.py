"""Benchmark problem definitions.

Five families, each a Poisson-type boundary-value problem on (0,1) or
(0,1)^2 whose mesh is trainable:

    arctan1d       -u'' = f, sharp interior gradient at x = s
    power1d        -u'' = f, u = x^sigma with a derivative blowup at 0
    twomaterial1d  -(sigma(x) u')' = f, piecewise-constant coefficient
    arctan2d       tensor-product arctan fronts on the unit square
    lshape         -div(sigma grad u) = 1 on an L-shape via masking

A ProblemSpec bundles the domain, boundary spec, material field, load
and the per-axis fixed nodes; factories below fill in the manufactured
data for each family.  A problem is a tuple of axes, x first, each with
its interval, fixed nodes and block of logits; 1D is the one-axis case.
Neumann data belong to the load: its family's flux at the right end b
of each axis.
"""

from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from . import loads as ld
from .assembly import MaterialField
from .errors import ConfigurationError
from .mesh import Mesh1D, MeshParams1D, TensorMesh2D, build_mesh_1d


@dataclass(frozen=True)
class ProblemSpec:
    family: str
    dim: int
    sigma: tuple
    n_elements: int
    boundary: str
    load: ld.LoadSpec
    material: MaterialField
    fixed_nodes: tuple = ()          # per-axis tuples in 2D
    domain: tuple = ((0.0, 1.0),)    # per-axis (a, b)

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ConfigurationError("dim must be 1 or 2")
        if self.n_elements < 1:
            raise ConfigurationError(f"need at least one element, got {self.n_elements}")
        fixed = self.fixed_nodes
        if self.dim == 2 and (len(fixed) != 2 or not all(isinstance(f, tuple) for f in fixed)):
            raise ConfigurationError("2D problems need per-axis fixed node tuples")

    def _axis_fixed(self):
        """Fixed interior nodes per axis, x first; a 1D spec stores one flat tuple."""
        per_axis = (self.fixed_nodes,) if self.dim == 1 else self.fixed_nodes
        return [np.asarray(f, dtype=float) for f in per_axis]

    def n_logits(self, axis=0):
        """Softmax chain length so the axis has exactly n_elements elements."""
        n = self.n_elements - self._axis_fixed()[axis].size
        if n < 1:
            raise ConfigurationError("n_elements leaves no adaptive freedom")
        return n

    @property
    def theta_size(self):
        return sum(self.n_logits(axis) for axis in range(self.dim))

    def mesh_params(self, theta=None):
        """One MeshParams1D per axis, x first, from a flat logit vector
        holding the axes' blocks in that order."""
        sizes = [self.n_logits(axis) for axis in range(self.dim)]
        t = np.zeros(sum(sizes)) if theta is None else np.asarray(theta, dtype=float)
        if t.size != sum(sizes):
            raise ValueError(f"theta has size {t.size}, expected {sum(sizes)}")
        blocks = [t[end - n:end] for n, end in zip(sizes, accumulate(sizes))]
        return tuple(MeshParams1D(theta=block, fixed_interior=fixed, interval=interval)
                     for block, fixed, interval in zip(blocks, self._axis_fixed(), self.domain))

    def build_mesh(self, theta=None):
        return _mesh_of([build_mesh_1d(p) for p in self.mesh_params(theta)])

    def uniform_mesh(self):
        """The equispaced reference mesh of the same size."""
        n = self.n_elements
        axes = []
        for (a, b), fixed in zip(self.domain, self._axis_fixed()):
            nodes = np.linspace(a, b, n + 1)
            for f in fixed:
                if np.min(np.abs(nodes - f)) > 1e-12 * (b - a):
                    raise ConfigurationError(
                        f"uniform mesh with {n} elements misses the fixed node at {f}"
                    )
            axes.append(Mesh1D.from_nodes(nodes))
        return _mesh_of(axes)

    def with_n(self, n_elements):
        return replace(self, n_elements=int(n_elements))


def _mesh_of(axes):
    """The mesh whose axes are the given 1D meshes: the one axis itself,
    or their tensor product."""
    return axes[0] if len(axes) == 1 else TensorMesh2D(*axes)


def arctan1d(alpha=10.0, s=0.5, n_elements=32, mode="exact", order=2):
    """Sharp sigmoid front: Dirichlet at 0, manufactured Neumann flux at 1."""
    load = ld.LoadSpec("arctan1d", {"alpha": float(alpha), "s": float(s)},
                       mode=mode, order=order)
    return ProblemSpec(
        family="arctan1d", dim=1, sigma=(float(alpha), float(s)),
        n_elements=int(n_elements), boundary="left", load=load,
        material=MaterialField(),
    )


def power1d(sigma=0.7, n_elements=32):
    """u = x^sigma with singular derivative at 0; exact loads mandatory."""
    load = ld.LoadSpec("power", {"sigma": float(sigma)}, mode="exact")
    return ProblemSpec(
        family="power1d", dim=1, sigma=(float(sigma),),
        n_elements=int(n_elements), boundary="left", load=load,
        material=MaterialField(),
    )


def twomaterial1d(sigma=10.0, n_elements=32):
    """Transmission problem: coefficient jumps at the fixed node x = 0.5."""
    load = ld.LoadSpec("sine_material", {}, mode="exact")
    return ProblemSpec(
        family="twomaterial1d", dim=1, sigma=(float(sigma),),
        n_elements=int(n_elements), boundary="both", load=load,
        material=MaterialField(regions=(((0.5, 1.0), float(sigma)),)),
        fixed_nodes=(0.5,),
    )


def arctan2d(alpha=10.0, s1=0.05, s2=0.05, n_elements=32, order=50, mode="quadrature"):
    """Tensor-product sigmoid fronts, Dirichlet on the left and bottom,
    manufactured Neumann fluxes on the right and top; loads by quadrature."""
    if mode != "quadrature":
        raise ConfigurationError("arctan2d loads are quadrature-only")
    load = ld.LoadSpec(
        "arctan2d", {"alpha": float(alpha), "s1": float(s1), "s2": float(s2)},
        mode="quadrature", order=order,
    )
    return ProblemSpec(
        family="arctan2d", dim=2, sigma=(float(alpha), float(s1), float(s2)),
        n_elements=int(n_elements), boundary="left-bottom", load=load,
        material=MaterialField(),
        fixed_nodes=((), ()),
        domain=((0.0, 1.0), (0.0, 1.0)),
    )


def lshape(sigma1=1.0, sigma2=1.0, n_elements=32):
    """Multi-material L-shape by masking the bottom-right quadrant.

    Fixed lines at x = 0.5 and y = 0.5 keep the re-entrant corner and
    the material interfaces on the mesh.
    """
    load = ld.LoadSpec("constant", {"value": 1.0}, mode="exact")
    material = MaterialField(regions=(
        ((0.0, 0.5, 0.0, 0.5), float(sigma1)),
        ((0.5, 1.0, 0.5, 1.0), float(sigma2)),
    ))
    return ProblemSpec(
        family="lshape", dim=2, sigma=(float(sigma1), float(sigma2)),
        n_elements=int(n_elements), boundary="lshape", load=load,
        material=material,
        fixed_nodes=((0.5,), (0.5,)),
        domain=((0.0, 1.0), (0.0, 1.0)),
    )


def constant1d(value=1.0, n_elements=2):
    """Toy Poisson problem -u'' = value with Dirichlet at 0."""
    load = ld.LoadSpec("constant", {"value": float(value)}, mode="exact")
    return ProblemSpec(
        family="constant1d", dim=1, sigma=(float(value),),
        n_elements=int(n_elements), boundary="left", load=load,
        material=MaterialField(),
    )


FACTORIES = {
    "arctan1d": arctan1d,
    "power1d": power1d,
    "twomaterial1d": twomaterial1d,
    "arctan2d": arctan2d,
    "lshape": lshape,
    "constant1d": constant1d,
}

BENCHMARKS = ("arctan1d", "power1d", "twomaterial1d", "arctan2d", "lshape")


def registry():
    """The five benchmark templates with their standard defaults."""
    return [FACTORIES[name]() for name in BENCHMARKS]


def make_problem(family, sigma=None, n_elements=None, **kwargs):
    """Instantiate a family at a parameter tuple."""
    if family not in FACTORIES:
        raise ConfigurationError(f"unknown problem family {family!r}")
    factory = FACTORIES[family]
    args = list(sigma) if sigma is not None else []
    if n_elements is not None:
        kwargs["n_elements"] = int(n_elements)
    return factory(*args, **kwargs)
