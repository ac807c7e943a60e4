"""r-adaptive finite elements by Ritz energy minimization.

Mesh node locations are trainable: softmax logits realize a sorted 1D
or tensor-product 2D mesh, the symmetric coercive problem is assembled
and solved there, and the energy's reduced gradient (which needs no
derivative of the linear solve) drives the node positions.  A small
network can map PDE parameters to logits, giving parameter-dependent
adapted meshes solved by a standard FEM for each instance.

Callers import the submodules, e.g. ``from ritzmesh import pipeline``.
"""

__version__ = "0.1.0"

__all__ = [
    "assembly", "cli", "energy", "errors", "experiments", "loads", "mesh",
    "network", "optim", "pipeline", "problems", "quadrature", "sampling",
    "solver", "training",
]
