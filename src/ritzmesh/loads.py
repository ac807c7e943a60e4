"""Forcing families: elementwise load integrals, exactly or by quadrature.

Each 1D family registers an antiderivative pair F(x) = int f dx and
G(x) = int x f dx, so the load of an affine shape function over an
element is exact to roundoff:

    int_{xl}^{xr} f(x) (a0 + a1 x) dx = a0 (F(xr) - F(xl)) + a1 (G(xr) - G(xl)).

Per-element hat loads and their derivatives with respect to element
endpoints follow from the Leibniz rule; these derivatives feed the
assembly gradient.  The quadrature path maps a Gauss-Legendre rule
affinely and therefore has closed endpoint derivatives as well.  A 2D
forcing is declared as a sum of products of 1D factors, so its tensor
rule over bilinear hats factors into 1D hat loads on each axis.

Families:
    constant       f = c                                 (exact)
    arctan1d       f = 2 a^3 (x-s) / (1 + a^2 (x-s)^2)^2 (exact)
    power          f = sg (1-sg) x^(sg-2)                (exact only)
    sine_material  f = 4 pi^2 sin(2 pi x)                (exact)
    arctan2d       separable sum of 1D products; per-axis quadrature
"""

import csv
import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from importlib import resources
from numbers import Integral

import numpy as np

from .errors import ConfigurationError
from .quadrature import QuadratureRule, gauss_legendre

FAMILIES = ("constant", "arctan1d", "power", "sine_material", "arctan2d")

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
            if not self.params["sigma"] > 0.5:
                raise ConfigurationError("power family requires sigma > 0.5")
        if self.family == "arctan1d" and not self.params["alpha"] > 0:
            raise ConfigurationError("arctan1d requires alpha > 0")
        if self.mode == "quadrature" and (isinstance(self.order, bool)
                                          or not isinstance(self.order, Integral)
                                          or not 1 <= self.order <= 64):
            raise ConfigurationError(
                f"quadrature order must be an integer in [1, 64], got {self.order!r}")

    def rule(self) -> QuadratureRule:
        return gauss_legendre(self.order)


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
    return 2.0 * alpha**3 * t / (1.0 + (alpha * t) ** 2) ** 2


def _arctan_fp(alpha, s, x):
    t = x - s
    a2t2 = (alpha * t) ** 2
    return 2.0 * alpha**3 * (1.0 - 3.0 * a2t2) / (1.0 + a2t2) ** 3


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


def forcing_value(load: LoadSpec, x):
    """Pointwise f(x) for the 1D families."""
    p = load.params
    if load.family == "constant":
        return _constant_f(p["value"], np.asarray(x, dtype=float))
    if load.family == "arctan1d":
        return _arctan_f(p["alpha"], p["s"], np.asarray(x, dtype=float))
    if load.family == "power":
        return _power_f(p["sigma"], np.asarray(x, dtype=float))
    if load.family == "sine_material":
        return _sine_f(np.asarray(x, dtype=float))
    raise ConfigurationError(f"{load.family} is not a 1D forcing")


def forcing_derivative(load: LoadSpec, x):
    if load.family == "constant":
        return _constant_fp(load.params["value"], np.asarray(x, dtype=float))
    if load.family == "arctan1d":
        return _arctan_fp(load.params["alpha"], load.params["s"], np.asarray(x, dtype=float))
    if load.family == "sine_material":
        return _sine_fp(np.asarray(x, dtype=float))
    raise ConfigurationError(f"no forcing derivative for family {load.family}")


def _antiderivatives(load: LoadSpec):
    p = load.params
    if load.family == "constant":
        return (lambda x: _constant_F(p["value"], x)), (lambda x: _constant_G(p["value"], x))
    if load.family == "arctan1d":
        return (lambda x: _arctan_F(p["alpha"], p["s"], x)), (lambda x: _arctan_G(p["alpha"], p["s"], x))
    if load.family == "power":
        return (lambda x: _power_F(p["sigma"], x)), (lambda x: _power_G(p["sigma"], x))
    if load.family == "sine_material":
        return _sine_F, _sine_G
    raise ConfigurationError(f"family {load.family} has no exact routine")


# ---------------------------------------------------------------------------
# exact elementwise integrals

def load_element_exact(load: LoadSpec, x_left, x_right, a0, a1):
    """Exact int_{x_left}^{x_right} f(x) (a0 + a1 x) dx for one element.

    Raises if the requested integral diverges (power family with
    sigma <= 1 against a shape function that does not vanish at 0).
    """
    if load.mode != "exact":
        raise ConfigurationError("load_element_exact requires exact mode")
    if load.family == "power" and x_left <= _SINGULAR_TOL:
        sg = load.params["sigma"]
        if sg <= 1.0 and abs(a0) > 0.0:
            raise ValueError(
                "divergent load integral: power forcing against a shape "
                "function that does not vanish at the singularity"
            )
        # hat vanishing at 0: a0 = 0, so only the G term survives
        return a1 * (_power_G(sg, x_right) - _power_G(sg, x_left))
    F, G = _antiderivatives(load)
    return a0 * (F(x_right) - F(x_left)) + a1 * (G(x_right) - G(x_left))


def hat_loads_exact(load: LoadSpec, xl, xr):
    """Loads of the falling and rising hats on elements [xl, xr].

    Falling hat: (xr - x)/h, value at a node that may sit at a forcing
    singularity; entries there come out +/-inf and must belong to
    constrained nodes.  Rising hat: (x - xl)/h, always finite for the
    supported families.
    """
    xl = np.asarray(xl, dtype=float)
    xr = np.asarray(xr, dtype=float)
    h = xr - xl
    if load.family == "power":
        sg = load.params["sigma"]
        G_l, G_r = _power_G(sg, xl), _power_G(sg, xr)
        F_r = _power_F(sg, xr)
        I_r = (G_r - G_l - xl * F_r + _power_xF(sg, xl)) / h
        with np.errstate(divide="ignore"):
            F_l = np.where(xl > _SINGULAR_TOL, _power_F(sg, np.maximum(xl, _SINGULAR_TOL)),
                           -np.inf if sg < 1.0 else _power_F(sg, 0.0))
        I_l = (xr * (F_r - F_l) - (G_r - G_l)) / h
        return I_l, I_r
    F, G = _antiderivatives(load)
    dF = F(xr) - F(xl)
    dG = G(xr) - G(xl)
    I_l = (xr * dF - dG) / h
    I_r = (dG - xl * dF) / h
    return I_l, I_r


def hat_load_derivs_exact(load: LoadSpec, xl, xr):
    """Endpoint derivatives (dIl_dxl, dIl_dxr, dIr_dxl, dIr_dxr).

    For the power family, entries tied to a left endpoint at the
    singularity are returned as 0; they are either multiplied by a
    constrained (zero) coefficient or scattered to the pinned interval
    endpoint, so their true (divergent) values never enter a gradient.
    """
    xl = np.asarray(xl, dtype=float)
    xr = np.asarray(xr, dtype=float)
    h = xr - xl
    if load.family == "power":
        sg = load.params["sigma"]
        singular = xl <= _SINGULAR_TOL
        safe_xl = np.where(singular, 0.5 * (xl + xr), xl)  # placeholder, masked below
        I_l_s, I_r_s = hat_loads_exact(load, safe_xl, xr)
        fl = _power_f(sg, safe_xl)
        fr = _power_f(sg, xr)
        dF = _power_F(sg, xr) - _power_F(sg, safe_xl)
        hs = xr - safe_xl
        dIl_dxl = -fl + I_l_s / hs
        dIl_dxr = dF / hs - I_l_s / hs
        dIr_dxl = -dF / hs + I_r_s / hs
        dIr_dxr = fr - I_r_s / hs
        zero = np.zeros_like(xl)
        # recompute the finite rising-hat quantities on the true elements
        _, I_r = hat_loads_exact(load, xl, xr)
        dIr_dxr_true = fr - I_r / h
        return (
            np.where(singular, zero, dIl_dxl),
            np.where(singular, zero, dIl_dxr),
            np.where(singular, zero, dIr_dxl),
            np.where(singular, dIr_dxr_true, dIr_dxr),
        )
    F, _ = _antiderivatives(load)
    I_l, I_r = hat_loads_exact(load, xl, xr)
    fl = forcing_value(load, xl)
    fr = forcing_value(load, xr)
    dF = F(xr) - F(xl)
    dIl_dxl = -fl + I_l / h
    dIl_dxr = dF / h - I_l / h
    dIr_dxl = -dF / h + I_r / h
    dIr_dxr = fr - I_r / h
    return dIl_dxl, dIl_dxr, dIr_dxl, dIr_dxr


# ---------------------------------------------------------------------------
# quadrature elementwise integrals (1D and line integrals)

def line_hat_loads(fun, xl, xr, rule: QuadratureRule):
    """Quadrature loads of the falling/rising hats for a callable integrand."""
    xl = np.asarray(xl, dtype=float)
    xr = np.asarray(xr, dtype=float)
    pts, wts = rule.mapped(xl, xr)
    lam = 0.5 * (rule.points + 1.0)
    fv = fun(pts)
    I_r = np.sum(wts * fv * lam, axis=-1)
    I_l = np.sum(wts * fv * (1.0 - lam), axis=-1)
    return I_l, I_r


def line_hat_load_derivs(fun, fun_prime, xl, xr, rule: QuadratureRule):
    """Endpoint derivatives of the quadrature hat loads (exact derivatives
    of the quadrature approximation, not of the underlying integral)."""
    xl = np.asarray(xl, dtype=float)
    xr = np.asarray(xr, dtype=float)
    half = 0.5 * (xr - xl)
    pts, _ = rule.mapped(xl, xr)
    lam = 0.5 * (rule.points + 1.0)      # rising hat at reference points
    dx_dxl = 1.0 - lam                   # d(mapped point)/d(xl)
    dx_dxr = lam
    w = rule.weights
    fv = fun(pts)
    fp = fun_prime(pts)

    def contr(hat):
        base = w * fv * hat
        slope = w * fp * hat
        d_dxl = np.sum(-0.5 * base + half[..., None] * slope * dx_dxl, axis=-1)
        d_dxr = np.sum(0.5 * base + half[..., None] * slope * dx_dxr, axis=-1)
        return d_dxl, d_dxr

    dIl_dxl, dIl_dxr = contr(1.0 - lam)
    dIr_dxl, dIr_dxr = contr(lam)
    return dIl_dxl, dIl_dxr, dIr_dxl, dIr_dxr


def hat_loads(load: LoadSpec, xl, xr):
    """Dispatch 1D hat loads by the load's integration mode."""
    if load.mode == "exact":
        return hat_loads_exact(load, xl, xr)
    return line_hat_loads(lambda x: forcing_value(load, x), xl, xr, load.rule())


def hat_load_derivs(load: LoadSpec, xl, xr):
    if load.mode == "exact":
        return hat_load_derivs_exact(load, xl, xr)
    return line_hat_load_derivs(
        lambda x: forcing_value(load, x),
        lambda x: forcing_derivative(load, x),
        xl, xr, load.rule(),
    )


def load_element_quadrature(load: LoadSpec, x_left, x_right, rule: QuadratureRule | None = None):
    """Per-local-node quadrature loads (I_left, I_right) on one element."""
    rule = rule or load.rule()
    I_l, I_r = line_hat_loads(lambda x: forcing_value(load, x), x_left, x_right, rule)
    return np.array([I_l, I_r])


# ---------------------------------------------------------------------------
# 2D forcing (arctan2d) and area loads

def _uj(alpha, s, t):
    return np.arctan(alpha * (t - s)) + np.arctan(alpha * s)


def _ujp(alpha, s, t):
    return alpha / (1.0 + (alpha * (t - s)) ** 2)


def _separable_terms(load: LoadSpec):
    """A 2D forcing as a sum of products fx(x) fy(y).

    Each term is ((fx, fx'), (fy, fy')), a pair of 1D (value, derivative)
    callables.  arctan2d: f = f1(x) u2(y) + u1(x) f2(y).
    """
    if load.family != "arctan2d":
        raise ConfigurationError(f"{load.family} is not a separable 2D forcing")
    a, s1, s2 = load.params["alpha"], load.params["s1"], load.params["s2"]
    f1 = (partial(_arctan_f, a, s1), partial(_arctan_fp, a, s1))
    f2 = (partial(_arctan_f, a, s2), partial(_arctan_fp, a, s2))
    u1 = (partial(_uj, a, s1), partial(_ujp, a, s1))
    u2 = (partial(_uj, a, s2), partial(_ujp, a, s2))
    return ((f1, u2), (u1, f2))


# falling (0) or rising (1) 1D hat of each counterclockwise local node
_X_HAT = np.array([0, 1, 1, 0])
_Y_HAT = np.array([0, 0, 1, 1])


def _tensor(ax, ay):
    """Element rows (ny*nx, 4) from per-interval hat factors ax (nx, 2), ay (ny, 2)."""
    return (ay[:, None, _Y_HAT] * ax[None, :, _X_HAT]).reshape(-1, 4)


def _axis_loads(fun, nodes, rule):
    """(falling, rising) hat loads of one factor on every axis interval."""
    return np.stack(line_hat_loads(fun, nodes[:-1], nodes[1:], rule), axis=1)


def _axis_load_derivs(fun, fun_prime, nodes, rule):
    """_axis_loads differentiated by each interval's left and right node."""
    dl_dl, dl_dr, dr_dl, dr_dr = line_hat_load_derivs(fun, fun_prime, nodes[:-1], nodes[1:], rule)
    return np.stack([dl_dl, dr_dl], axis=1), np.stack([dl_dr, dr_dr], axis=1)


def area_loads(load: LoadSpec, xs, ys):
    """Bilinear hat loads over the tensor mesh on axis nodes xs, ys.

    Returns shape (n_elements, 4), elements row by row from the bottom
    and local nodes counterclockwise from the lower-left corner.
    Constant forcing is integrated in closed form.  A separable forcing
    sum_k fx_k(x) fy_k(y) under the tensor Gauss-Legendre rule factors
    into 1D hat loads, so each factor is integrated once per axis
    interval and the element loads are their products.
    """
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if load.family == "constant":
        c = load.params["value"]
        hx, hy = (h.ravel() for h in np.meshgrid(np.diff(xs), np.diff(ys)))
        quarter = 0.25 * c * hx * hy
        return np.repeat(quarter[:, None], 4, axis=1)
    rule = load.rule()
    return sum(_tensor(_axis_loads(fx, xs, rule), _axis_loads(fy, ys, rule))
               for (fx, _), (fy, _) in _separable_terms(load))


def area_load_derivs(load: LoadSpec, xs, ys):
    """Derivatives of area_loads with respect to each element's (xl, xr, yb, yt).

    Returns four arrays of shape (n_elements, 4).
    """
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if load.family == "constant":
        c = load.params["value"]
        hx, hy = (h.ravel() for h in np.meshgrid(np.diff(xs), np.diff(ys)))
        d_hx = np.repeat((0.25 * c * hy)[:, None], 4, axis=1)
        d_hy = np.repeat((0.25 * c * hx)[:, None], 4, axis=1)
        return -d_hx, d_hx, -d_hy, d_hy
    rule = load.rule()
    d_dxl = d_dxr = d_dyb = d_dyt = 0.0
    for (fx, fxp), (fy, fyp) in _separable_terms(load):
        ax, ay = _axis_loads(fx, xs, rule), _axis_loads(fy, ys, rule)
        dax_l, dax_r = _axis_load_derivs(fx, fxp, xs, rule)
        day_b, day_t = _axis_load_derivs(fy, fyp, ys, rule)
        d_dxl = d_dxl + _tensor(dax_l, ay)
        d_dxr = d_dxr + _tensor(dax_r, ay)
        d_dyb = d_dyb + _tensor(ax, day_b)
        d_dyt = d_dyt + _tensor(ax, day_t)
    return d_dxl, d_dxr, d_dyb, d_dyt


# ---------------------------------------------------------------------------
# Neumann boundary data of the manufactured solutions

def arctan1d_neumann(alpha, s):
    """u'(1) for the arctan sigmoid solution."""
    return alpha / (1.0 + alpha**2 * (1.0 - s) ** 2)


def power_neumann(sigma):
    """u'(1) = sigma for u = x^sigma."""
    return float(sigma)


def apply_neumann_endpoint(rhs, node_index, g_value):
    """Add the 1D endpoint term g * v(endpoint) = g to one load entry."""
    rhs[node_index] += g_value
    return rhs


def arctan2d_edge_fluxes(alpha, s1, s2):
    """Manufactured Neumann fluxes on the right (x=1) and top (y=1) edges.

    Returns (g_right, g_right', g_top, g_top') as callables of the edge
    coordinate.
    """
    u1p_at_1 = _ujp(alpha, s1, 1.0)
    u2p_at_1 = _ujp(alpha, s2, 1.0)

    def g_right(y):
        return u1p_at_1 * _uj(alpha, s2, y)

    def g_right_prime(y):
        return u1p_at_1 * _ujp(alpha, s2, y)

    def g_top(x):
        return u2p_at_1 * _uj(alpha, s1, x)

    def g_top_prime(x):
        return u2p_at_1 * _ujp(alpha, s1, x)

    return g_right, g_right_prime, g_top, g_top_prime


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


def exact_energy(problem):
    """||u||_b^2 of the benchmark's exact solution.

    The reference Ritz energy is J(u) = -||u||_b^2 / 2; for the L-shape
    the tabulated J(u) is converted accordingly.
    """
    name, sigma = problem.family, problem.sigma
    if name == "arctan1d":
        return energy_norm_sq_arctan1d(*sigma)
    if name == "power1d":
        return energy_norm_sq_power(*sigma)
    if name == "twomaterial1d":
        return energy_norm_sq_sine_material(*sigma)
    if name == "arctan2d":
        return energy_norm_sq_arctan2d(*sigma)
    if name == "lshape":
        return -2.0 * lshape_reference_energy(*sigma)
    raise ConfigurationError(f"no exact energy for problem family {name!r}")


def reference_ritz(problem):
    """Reference Ritz energy J(u) = -||u||_b^2 / 2."""
    return -0.5 * exact_energy(problem)
