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
data for each family.  A problem is a tuple of axes, x first, sharing
their interval and fixed nodes, each with its block of logits, a row of
one softmax batch; 1D is the one-axis case.  Neumann data belong to the
load: its family's flux at the right end b of each axis.
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import loads as ld
from .assembly import MaterialField
from .errors import ConfigurationError
from .mesh import Mesh1D, MeshParams1D, TensorMesh2D, check_lengths, mesh_of_rows, softmax_nodes


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
        if len(self.domain) != self.dim or self.dim == 2 and (
                fixed[0] != fixed[1] or self.domain[0] != self.domain[1]):
            raise ConfigurationError(
                "every axis needs one interval, and 2D axes the same interval and fixed nodes")

    @cached_property
    def axis_params(self):
        """The MeshParams1D that every axis shares, validated once:
        interval, fixed nodes and a chain giving n_elements."""
        fixed = np.asarray(self.fixed_nodes if self.dim == 1 else self.fixed_nodes[0], dtype=float)
        if self.n_elements - fixed.size < 1:
            raise ConfigurationError("n_elements leaves no adaptive freedom")
        return MeshParams1D(self.n_elements - fixed.size, fixed_interior=fixed,
                            interval=self.domain[0])

    @property
    def theta_size(self):
        return self.dim * self.axis_params.n

    def build_mesh(self, theta=None):
        """The mesh of a flat logit vector (zeros if None), its axes' blocks,
        x first, the rows of one softmax_nodes and one check_lengths."""
        t = np.zeros(self.theta_size) if theta is None else np.asarray(theta, dtype=float)
        if t.size != self.theta_size:
            raise ValueError(f"theta has size {t.size}, expected {self.theta_size}")
        nodes, record = softmax_nodes(t.reshape(self.dim, -1), self.axis_params)
        check_lengths(nodes, self.axis_params.interval[1] - self.axis_params.interval[0])
        return mesh_of_rows(nodes, record)

    def uniform_mesh(self):
        """The equispaced reference mesh of the same size."""
        (a, b), n = self.domain[0], self.n_elements
        nodes = np.linspace(a, b, n + 1)
        for f in self.axis_params.fixed_interior:
            if np.min(np.abs(nodes - f)) > 1e-12 * (b - a):
                raise ConfigurationError(
                    f"uniform mesh with {n} elements misses the fixed node at {f}"
                )
        axis = Mesh1D.from_nodes(nodes)
        return axis if self.dim == 1 else TensorMesh2D(axis, axis)

    def with_n(self, n_elements):
        return replace(self, n_elements=int(n_elements))


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

def make_problem(family, sigma=None, n_elements=None, **kwargs):
    """Instantiate a family at a parameter tuple."""
    if family not in FACTORIES:
        raise ConfigurationError(f"unknown problem family {family!r}")
    factory = FACTORIES[family]
    args = list(sigma) if sigma is not None else []
    if n_elements is not None:
        kwargs["n_elements"] = int(n_elements)
    return factory(*args, **kwargs)
