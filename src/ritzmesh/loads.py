"""Forcing families: elementwise load integrals, exactly or by quadrature.

FAMILIES maps each family name to one Forcing record: the value f, its
derivative f', the antiderivatives F(x) = int f dx and G(x) = int x f dx
and the Neumann flux u'(b) of the manufactured solution, or for a 2D
family its axis factors and the table of its separable terms;
LoadSpec.bind binds a load's parameters to them.  With F and G the load
of an affine shape function over an element is exact to roundoff:

    int_{xl}^{xr} f(x) (a0 + a1 x) dx = a0 (F(xr) - F(xl)) + a1 (G(xr) - G(xl)).

Hat loads and their element-endpoint derivatives, which feed the
assembly gradient, follow from the Leibniz rule; an affinely mapped
Gauss-Legendre rule has closed endpoint derivatives too, formed with the
loads from one integrand evaluation.  A 1D step gets both as one
(values, derivs) record from hat_load_parts, in either mode.
node_loads puts one axis's loads on its nodes, the Neumann flux as a
point load at its right end b.  A 2D forcing is a sum of products of 1D
factors, each with its flux at b, so its tensor rule over bilinear hats
factors too: the load vector is a sum of outer products of the axes'
node vectors, all from one evaluation on the axes as rows of one size.

Families (a record field is None where the family does not support it):
    constant       f = c                                 (exact; 2D: the (c, 1) term)
    arctan1d       f = 2 a^3 (x-s) / (1 + a^2 (x-s)^2)^2 (exact)
    power          f = sg (1-sg) x^(sg-2)                (exact only; no f')
    sine_material  f = 4 pi^2 sin(2 pi x)                (exact)
    arctan2d       separable sum of 1D products; per-axis quadrature only
"""

import csv
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache, partial
from importlib import resources
from numbers import Integral

import numpy as np

from .errors import ConfigurationError
from .quadrature import QuadratureRule, gauss_legendre

#: guard against requesting a divergent power-family integral at x = 0
_SINGULAR_TOL = 1e-300


@dataclass(frozen=True)
class LoadSpec:
    """Forcing family, its parameters, and the integration mode."""

    family: str
    params: dict = field(default_factory=dict)
    mode: str = "exact"
    order: int = 2

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigurationError(f"unknown forcing family {self.family!r}")
        if self.mode not in ("exact", "quadrature"):
            raise ConfigurationError(f"unknown integration mode {self.mode!r}")
        if self.family == "arctan2d" and self.mode == "exact":
            raise ConfigurationError("arctan2d loads are quadrature-only")
        if self.family == "power":
            if self.mode == "quadrature":
                raise ConfigurationError(
                    "power loads must be integrated exactly; quadrature misses the singularity"
                )
            if not np.all(np.asarray(self.params["sigma"]) > 0.5):
                raise ConfigurationError("power family requires sigma > 0.5")
        if self.family == "arctan1d" and not np.all(np.asarray(self.params["alpha"]) > 0):
            raise ConfigurationError("arctan1d requires alpha > 0")
        # checked in exact mode too: 2D constant loads use the rule
        if (isinstance(self.order, bool) or not isinstance(self.order, Integral)
                or not 1 <= self.order <= 64):
            raise ConfigurationError(
                f"quadrature order must be an integer in [1, 64], got {self.order!r}")

    def rule(self) -> QuadratureRule:
        return gauss_legendre(self.order)

    def bind(self, name):
        """The family's function `name` ("f", "fp", "F", "G", "flux",
        "factors" or "fluxes") with the load's parameters bound first."""
        forcing = FAMILIES[self.family]
        fun = getattr(forcing, name)
        if fun is None:
            raise ConfigurationError(f"forcing family {self.family!r} has no {name!r}")
        return partial(fun, *(self.params[k] for k in forcing.keys))


def stack_loads(loads):
    """One LoadSpec for K loads of one family, mode and order whose
    parameters are (K, 1) columns ((K, 1, 1) for quadrature points), so
    the 1D load functions evaluate (K, E) element arrays row by row.
    Fluxes stay per load."""
    first = loads[0]
    shape = (len(loads), 1) if first.mode == "exact" else (len(loads), 1, 1)
    params = {key: np.reshape([load.params[key] for load in loads], shape)
              for key in first.params}
    return LoadSpec(first.family, params, mode=first.mode, order=first.order)


def _param_pow(value, p):
    """value**p of a parameter: a float, or a (K, 1) column of floats raised
    one float at a time, since numpy's vector pow can differ from the float
    one in the last bit and a batch row must match its single sample."""
    if np.ndim(value) == 0:
        return value**p
    return np.array([v**p for v in value.ravel().tolist()]).reshape(np.shape(value))


# ---------------------------------------------------------------------------
# family value/antiderivative implementations (vectorized over x)

def _constant_f(c, x):
    return np.full_like(np.asarray(x, dtype=float), c)


def _constant_fp(c, x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _constant_F(c, x):
    return c * x


def _constant_G(c, x):
    return 0.5 * c * x * x


def _arctan_f(alpha, s, x):
    t = x - s
    return 2.0 * _param_pow(alpha, 3) * t / (1.0 + (alpha * t) ** 2) ** 2


def _arctan_fp(alpha, s, x):
    t = x - s
    a2t2 = (alpha * t) ** 2
    return 2.0 * _param_pow(alpha, 3) * (1.0 - 3.0 * a2t2) / (1.0 + a2t2) ** 3


def _arctan_F(alpha, s, x):
    t = x - s
    return -alpha / (1.0 + (alpha * t) ** 2)


def _arctan_G(alpha, s, x):
    # int x f dx = arctan(alpha t) - alpha t / (1 + alpha^2 t^2) + s F(x)
    t = x - s
    return np.arctan(alpha * t) - alpha * t / (1.0 + (alpha * t) ** 2) + s * _arctan_F(alpha, s, x)


def _power_f(sg, x):
    return sg * (1.0 - sg) * np.power(x, sg - 2.0)


def _power_F(sg, x):
    # sg (1-sg) / (sg-1) = -sg holds for every sg, including the sg -> 1 limit
    return -sg * np.power(x, sg - 1.0)


def _power_G(sg, x):
    return (1.0 - sg) * np.power(x, sg)


def _power_xF(sg, x):
    # x * F(x) in a form finite at x = 0 for every sg > 0.5
    return -sg * np.power(x, sg)


def _sine_f(x):
    return 4.0 * np.pi**2 * np.sin(2.0 * np.pi * x)


def _sine_fp(x):
    return 8.0 * np.pi**3 * np.cos(2.0 * np.pi * x)


def _sine_F(x):
    return -2.0 * np.pi * np.cos(2.0 * np.pi * x)


def _sine_G(x):
    return -2.0 * np.pi * x * np.cos(2.0 * np.pi * x) + np.sin(2.0 * np.pi * x)


def _uj(alpha, s, t):
    return np.arctan(alpha * (t - s)) + np.arctan(alpha * s)


def _ujp(alpha, s, t):
    return alpha / (1.0 + (alpha * (t - s)) ** 2)


def _constant_factors(c, x):
    """f = c(x) 1(y): the factors [c, 1] at points x and their slopes."""
    values = np.stack([_constant_f(c, x), _constant_f(1.0, x)])
    return values, np.zeros_like(values)


def _arctan2d_factors(alpha, s1, s2, x):
    """f = f1(x) u2(y) + u1(x) f2(y): at points x of axis j, x's first
    dimension, the factors [f_j, u_j] of s_j and their slopes, by the
    expressions of _arctan_f, _arctan_fp, _uj and _ujp (for their bits)
    sharing t = x - s_j."""
    s = np.reshape([s1, s2], (2,) + (1,) * (np.ndim(x) - 1))
    t = x - s
    at = alpha * t
    a2t2 = at**2
    d = 1.0 + a2t2
    a3 = 2.0 * _param_pow(alpha, 3)
    values, slopes = np.empty((2, 2) + t.shape)
    np.divide(a3 * t, d**2, out=values[0])
    np.add(np.arctan(at), np.arctan(alpha * s), out=values[1])
    np.divide(a3 * (1.0 - 3.0 * a2t2), d**3, out=slopes[0])
    np.divide(alpha, d, out=slopes[1])
    return values, slopes


def arctan1d_neumann(alpha, s):
    """u'(1) for the arctan sigmoid solution."""
    return alpha / (1.0 + alpha**2 * (1.0 - s) ** 2)


def power_neumann(sigma):
    """u'(1) = sigma for u = x^sigma."""
    return float(sigma)


def _no_flux(*params):
    return 0.0


@dataclass(frozen=True)
class Forcing:
    """One forcing family.  Every function takes the values of the
    parameters named in `keys`, in that order, then x (fluxes take the
    parameters only); None marks what the family does not support.  2D
    factors stack every axis factor and its slope at points whose first
    dimension is the axis, x first; fluxes gives them per (factor, axis);
    a term is an (x factor, y factor) pair."""

    keys: tuple
    f: Callable | None
    fp: Callable | None
    F: Callable | None
    G: Callable | None
    flux: Callable = _no_flux        # 1D: Neumann flux u'(b), a point load at b
    factors: Callable | None = None
    fluxes: Callable | None = None
    terms: tuple = ()


FAMILIES = {
    "constant": Forcing(("value",), _constant_f, _constant_fp, _constant_F, _constant_G,
                        factors=_constant_factors, fluxes=lambda c: np.zeros((2, 2)),
                        terms=((0, 1),)),
    "arctan1d": Forcing(("alpha", "s"), _arctan_f, _arctan_fp, _arctan_F, _arctan_G,
                        flux=arctan1d_neumann),
    "power": Forcing(("sigma",), _power_f, None, _power_F, _power_G, flux=power_neumann),
    "sine_material": Forcing((), _sine_f, _sine_fp, _sine_F, _sine_G),
    "arctan2d": Forcing(("alpha", "s1", "s2"), None, None, None, None,
                        factors=_arctan2d_factors, terms=((0, 1), (1, 0)),
                        # du/dx = u1'(1) u2(y) at x = 1, du/dy = u1(x) u2'(1) at y = 1
                        fluxes=lambda alpha, s1, s2: ((_ujp(alpha, s1, 1.0),
                                                       _ujp(alpha, s2, 1.0)), (0.0, 0.0))),
}


# ---------------------------------------------------------------------------
# exact elementwise integrals

def hat_loads(load: LoadSpec, xl, xr):
    """Loads of the falling and rising hats on elements [xl, xr]: the
    falling hat (xr - x)/h's may be +/-inf at a forcing singularity, where
    the node must be constrained; the rising hat (x - xl)/h's are finite.
    """
    xl, xr = np.asarray(xl, dtype=float), np.asarray(xr, dtype=float)
    h = xr - xl
    if load.family == "power":
        sg = load.params["sigma"]
        G_l, G_r = _power_G(sg, xl), _power_G(sg, xr)
        F_r = _power_F(sg, xr)
        I_r = (G_r - G_l - xl * F_r + _power_xF(sg, xl)) / h
        with np.errstate(divide="ignore"):
            F_l = np.where(xl > _SINGULAR_TOL, _power_F(sg, np.maximum(xl, _SINGULAR_TOL)),
                           np.where(sg < 1.0, -np.inf, _power_F(sg, 0.0)))
        I_l = (xr * (F_r - F_l) - (G_r - G_l)) / h
        return I_l, I_r
    F, G = load.bind("F"), load.bind("G")
    dF = F(xr) - F(xl)
    dG = G(xr) - G(xl)
    I_l = (xr * dF - dG) / h
    I_r = (dG - xl * dF) / h
    return I_l, I_r


def hat_load_derivs(load: LoadSpec, xl, xr, values):
    """Endpoint derivatives (dIl_dxl, dIl_dxr, dIr_dxl, dIr_dxr) from the
    values (I_l, I_r) of hat_loads.
    Power-family entries tied to a left endpoint at the singularity are
    0: a constrained (zero) coefficient or the pinned interval end takes
    them, so their divergent values never enter a gradient.
    """
    xl, xr = np.asarray(xl, dtype=float), np.asarray(xr, dtype=float)
    h = xr - xl
    F, f = load.bind("F"), load.bind("f")
    I_l, I_r = values
    with np.errstate(divide="ignore", invalid="ignore"):
        dF = F(xr) - F(xl)
        derivs = (-f(xl) + I_l / h, dF / h - I_l / h, -dF / h + I_r / h, f(xr) - I_r / h)
    if load.family == "power":
        singular = xl <= _SINGULAR_TOL
        derivs = tuple(np.where(singular, 0.0, d) for d in derivs[:3]) + derivs[3:]
    return derivs


# ---------------------------------------------------------------------------
# quadrature elementwise integrals (1D and line integrals)

@lru_cache(maxsize=None)
def _hat_moments(order):
    """Read-only [w (1-lam), w lam] and [w (1-lam)^2, w (1-lam) lam, w lam^2]
    of the order-point rule, weights w, rising hat lam at its points."""
    rule = gauss_legendre(order)
    w, lam = rule.weights, 0.5 * (rule.points + 1.0)
    out = (np.stack([w * (1.0 - lam), w * lam], axis=1),
           np.stack([w * (1.0 - lam) ** 2, w * (1.0 - lam) * lam, w * lam**2], axis=1))
    for a in out:
        a.flags.writeable = False
    return out


def line_hat_loads(fun, xl, xr, rule: QuadratureRule):
    """Quadrature loads of the falling/rising hats for a callable integrand:
    h V, h the half-lengths and V = fun(points) @ _hat_moments[0].  No step
    calls it; it stays public as a span target of bench/spans.py."""
    pts, _ = rule.mapped(xl, xr)
    V = fun(pts) @ _hat_moments(rule.order)[0]
    h = 0.5 * (np.asarray(xr, dtype=float) - np.asarray(xl, dtype=float))
    return h * V[..., 0], h * V[..., 1]


def line_hat_load_derivs(fun, xl, xr, rule: QuadratureRule):
    """((I_l, I_r), [dIl_dxl, dIl_dxr, dIr_dxl, dIr_dxr]): the loads of
    line_hat_loads, bitwise, and their exact endpoint derivatives, from
    one evaluation fun(points) = (values, slopes) of the integrand and its
    derivative (values may stack integrands ahead of the points' shape).
    A point moves with xl and xr by 1 - lam and lam, and h by -1/2 and
    1/2, so with P = slopes @ _hat_moments[1]: dIl/dxl = h P0 - V0/2,
    dIl/dxr = h P1 + V0/2, dIr/dxl = h P1 - V1/2, dIr/dxr = h P2 + V1/2.
    """
    xl, xr = np.asarray(xl, dtype=float), np.asarray(xr, dtype=float)
    h = 0.5 * (xr - xl)    # as QuadratureRule.mapped forms the points
    values, slopes = fun((0.5 * (xr + xl))[..., None] + h[..., None] * rule.points)
    moments, slope_moments = _hat_moments(rule.order)
    V, P = values @ moments, slopes @ slope_moments
    # h P_k -+ V_j / 2 for (k, j) = (0, 0), (1, 0), (1, 1), (2, 1), in one pass
    derivs = h[..., None] * P[..., [0, 1, 1, 2]] + 0.5 * V[..., [0, 0, 1, 1]] * [-1, 1, -1, 1]
    return (h * V[..., 0], h * V[..., 1]), np.moveaxis(derivs, -1, 0)


def hat_load_parts(load: LoadSpec, xl, xr):
    """The one 1D load record of elements [xl, xr]: (values, derivs), the
    hat loads (I_l, I_r) and their endpoint derivatives (dIl_dxl, dIl_dxr,
    dIr_dxl, dIr_dxr); by quadrature from one integrand evaluation."""
    if load.mode == "exact":
        values = hat_loads(load, xl, xr)
        return values, hat_load_derivs(load, xl, xr, values)
    f, fp = load.bind("f"), load.bind("fp")
    return line_hat_load_derivs(lambda x: (f(x), fp(x)), xl, xr, load.rule())


# ---------------------------------------------------------------------------
# node load vectors: 1D axes and 2D tensor meshes

def node_loads(I_l, I_r, flux=0.0):
    """Node vector of one axis from its per-element (falling, rising) hat
    loads, with the Neumann flux as a point load at the last node; loads
    with leading axes and a flux broadcasting to them with a trailing 1
    give one vector per row."""
    out = np.zeros(np.shape(I_l)[:-1] + (np.shape(I_l)[-1] + 1,))
    out[..., :-1] += I_l
    out[..., 1:] += I_r
    out[..., -1:] += flux
    return out


def area_loads(load: LoadSpec, xs, ys):
    """Bilinear hat loads over the tensor mesh on axis nodes xs, ys, x
    fastest, Neumann edge fluxes at x = xs[-1] and y = ys[-1] included: a
    separable forcing sum_k fx_k(x) fy_k(y) under the tensor rule factors,
    so term k's loads are the outer product of its axes' node vectors.
    No step calls it; it stays public as a span target of bench/spans.py."""
    return sum(np.outer(ly, lx).ravel() for (lx, _), (ly, _) in area_load_derivs(load, xs, ys))


def area_load_derivs(load: LoadSpec, xs, ys):
    """One ((lx, dx), (ly, dy)) per term: each axis factor's node vector l
    and its hat loads' stacked endpoint derivatives d, from one
    line_hat_load_derivs on the axes as rows, which must be of one size."""
    if np.size(xs) != np.size(ys):
        raise ConfigurationError(f"2D axes need one size, got {np.size(xs)} and {np.size(ys)}")
    nodes = np.stack([np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)])
    values, derivs = line_hat_load_derivs(load.bind("factors"), nodes[:, :-1], nodes[:, 1:],
                                          load.rule())
    loads = node_loads(*values, np.asarray(load.bind("fluxes")())[..., None])
    return [((loads[i, 0], derivs[:, i, 0]), (loads[j, 1], derivs[:, j, 1]))
            for i, j in FAMILIES[load.family].terms]


# ---------------------------------------------------------------------------
# exact energies of the manufactured solutions

def composite_integral(fun, a, b, breaks=(), order=24, tol=1e-13, max_doublings=14):
    """Composite Gauss-Legendre integral, panels doubled until stable.

    Panels are split at the given interior break locations so that
    sharp features (e.g. the arctan transition) sit on panel edges.
    """
    edges = np.unique(np.concatenate([[a, b], np.asarray(breaks, dtype=float)]))
    edges = edges[(edges >= a) & (edges <= b)]
    rule = gauss_legendre(order)
    panels = 2
    prev = None
    for _ in range(max_doublings):
        pieces = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            grid = np.linspace(lo, hi, panels + 1)
            pts, wts = rule.mapped(grid[:-1], grid[1:])
            pieces.append(np.sum(wts * fun(pts)))
        total = float(np.sum(pieces))
        if prev is not None and abs(total - prev) <= tol * max(1.0, abs(total)):
            return total
        prev = total
        panels *= 2
    return prev


def energy_norm_sq_arctan1d(alpha, s):
    """||u||_b^2 = int_0^1 u'(x)^2 dx for the arctan sigmoid."""
    return composite_integral(lambda x: _ujp(alpha, s, x) ** 2, 0.0, 1.0, breaks=(s,))


def energy_norm_sq_power(sigma):
    """||u||_b^2 = sigma^2 / (2 sigma - 1) for u = x^sigma."""
    return sigma * sigma / (2.0 * sigma - 1.0)


def energy_norm_sq_sine_material(sigma):
    """||u||_b^2 = pi^2 (1 + 1/sigma) for the two-material sine solution."""
    return np.pi**2 * (1.0 + 1.0 / sigma)


def energy_norm_sq_arctan2d(alpha, s1, s2):
    """||u||_b^2 for u(x,y) = u1(x) u2(y); separable 1D integrals."""
    a1 = composite_integral(lambda t: _ujp(alpha, s1, t) ** 2, 0.0, 1.0, breaks=(s1,))
    a2 = composite_integral(lambda t: _ujp(alpha, s2, t) ** 2, 0.0, 1.0, breaks=(s2,))
    b1 = composite_integral(lambda t: _uj(alpha, s1, t) ** 2, 0.0, 1.0, breaks=(s1,))
    b2 = composite_integral(lambda t: _uj(alpha, s2, t) ** 2, 0.0, 1.0, breaks=(s2,))
    return a1 * b2 + b1 * a2


# ---------------------------------------------------------------------------
# reference Ritz energies (shipped table for the L-shape sweep)

LSHAPE_TABLE_HEADER = ("sigma1", "sigma2", "J_exact")


@lru_cache(maxsize=1)
def lshape_reference_table():
    """(sigma1, sigma2) -> reference Ritz energy J(u), from the data file."""
    table = {}
    path = resources.files("ritzmesh").joinpath("data/lshape_reference.csv")
    with path.open("r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != LSHAPE_TABLE_HEADER:
            raise ConfigurationError(f"bad reference table header {header!r}")
        for row in reader:
            s1, s2, j = (float(v) for v in row)
            table[(s1, s2)] = j
    return table


def lshape_reference_energy(sigma1, sigma2):
    table = lshape_reference_table()
    key = (float(sigma1), float(sigma2))
    if key in table:
        return table[key]
    for (t1, t2), j in table.items():
        if math.isclose(t1, key[0], rel_tol=1e-9) and math.isclose(t2, key[1], rel_tol=1e-9):
            return j
    raise ConfigurationError(
        f"no reference energy tabulated for sigma=({sigma1}, {sigma2})"
    )


#: problem family -> ||u||_b^2 of its exact solution, from the sigma tuple
_ENERGIES = {
    "arctan1d": energy_norm_sq_arctan1d,
    "power1d": energy_norm_sq_power,
    "twomaterial1d": energy_norm_sq_sine_material,
    "arctan2d": energy_norm_sq_arctan2d,
    "lshape": lambda sigma1, sigma2: -2.0 * lshape_reference_energy(sigma1, sigma2),
}


def exact_energy(problem):
    """||u||_b^2 of the benchmark's exact solution.

    The reference Ritz energy is J(u) = -||u||_b^2 / 2; for the L-shape
    the tabulated J(u) is converted accordingly.
    """
    if problem.family not in _ENERGIES:
        raise ConfigurationError(f"no exact energy for problem family {problem.family!r}")
    return _ENERGIES[problem.family](*problem.sigma)


def reference_ritz(problem):
    """Reference Ritz energy J(u) = -||u||_b^2 / 2."""
    return -0.5 * exact_energy(problem)
