"""Boundary coefficients of the large-scale trace asymptotics.

The rank-(n+1) truncated-Hermite operator is finite rank, so its nonzero
spectrum equals the spectrum of the (n+1)x(n+1) overlap Gram matrix; the
coefficient integrals reduce to a one-dimensional xi integration of spectral
functionals of that matrix. Nystrom discretization of the integral kernel is
kept only as a test oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError, DomainError
from .specfun import (
    build_overlap_table,
    clamp_unit,
    gauss_legendre,
    hermite_poly_normalized,
    lambda_ell,
    overlap_lambda,
)

_TWO_PI = 2.0 * math.pi

# clamp window for Gram eigenvalues; violations beyond it abort instead of
# being silently absorbed into h_alpha's domain
CLAMP = 1e-10


def renyi_h(alpha: float, t):
    """Renyi entropy function h_alpha on [0, 1].

    h_alpha(t) = ln(t^a + (1-t)^a)/(1-a); the alpha -> 1 limit branch
    (binary Shannon entropy) is taken for |alpha-1| < 1e-8. Arguments may
    stray outside [0, 1] by at most 1e-10.
    """
    if not alpha > 0.0:
        raise DomainError(f"Renyi index must be positive, got {alpha}")
    t = np.asarray(t, dtype=float)
    if np.any(t < -CLAMP) or np.any(t > 1.0 + CLAMP):
        raise DomainError("argument outside [0,1] beyond the 1e-10 slack")
    tc = np.clip(t, 0.0, 1.0)
    if abs(alpha - 1.0) < 1e-8:
        with np.errstate(divide="ignore", invalid="ignore"):
            val = -np.where(tc > 0.0, tc * np.log(tc), 0.0) \
                  - np.where(tc < 1.0, (1.0 - tc) * np.log1p(-tc), 0.0)
    else:
        with np.errstate(divide="ignore"):
            val = np.log(tc ** alpha + (1.0 - tc) ** alpha) / (1.0 - alpha)
    val = np.where((tc == 0.0) | (tc == 1.0), 0.0, val)
    return val if val.ndim else float(val)


def _holder_exponent_for_renyi(alpha: float) -> float:
    if alpha < 1.0:
        return alpha
    if abs(alpha - 1.0) < 1e-8:
        return 0.9
    return 1.0


@dataclass
class SpectralFunction:
    """Test function f on [0,1] with f(0) = 0 and endpoint-Hoelder metadata.

    `fn` must be vectorized. Construction verifies f(0) = 0 and fits the
    constant in |f(t) - f(1) t| <= C t^q (1-t)^q on a 1000-point grid;
    functions violating either are rejected, which is what makes the
    coefficient integrals convergent.
    """

    fn: object
    value_at_one: float
    endpoint_exponent: float
    kind: str = "custom"
    label: str = "custom"
    holder_constant: float = field(init=False, default=0.0)

    def __post_init__(self):
        if not self.endpoint_exponent > 0.0:
            raise DomainError("endpoint exponent q must be positive")
        f0 = float(np.asarray(self.fn(np.array([0.0])))[0])
        if abs(f0) > 1e-12:
            raise DomainError(f"spectral function must vanish at 0, got f(0)={f0}")
        t = np.linspace(0.0, 1.0, 1002)[1:-1]
        dev = np.abs(self.fn(t) - self.value_at_one * t)
        env = t ** self.endpoint_exponent * (1.0 - t) ** self.endpoint_exponent
        c = float(np.max(dev / env))
        if not math.isfinite(c):
            raise DomainError("Hoelder envelope fit diverged; f is not admissible")
        self.holder_constant = c

    def __call__(self, t):
        return self.fn(t)

    @classmethod
    def renyi(cls, alpha: float) -> "SpectralFunction":
        alpha = float(alpha)
        return cls(fn=lambda t, a=alpha: renyi_h(a, t), value_at_one=0.0,
                   endpoint_exponent=_holder_exponent_for_renyi(alpha),
                   kind="renyi", label=f"renyi:{alpha:g}")

    @classmethod
    def monomial(cls, m: int) -> "SpectralFunction":
        m = int(m)
        if m < 1:
            raise DomainError(f"monomial degree must be >= 1, got {m}")
        return cls(fn=lambda t, m=m: np.asarray(t, dtype=float) ** m,
                   value_at_one=1.0, endpoint_exponent=1.0,
                   kind="monomial", label=f"monomial:{m}")

    @classmethod
    def gtilde(cls) -> "SpectralFunction":
        return cls(fn=lambda t: np.asarray(t, dtype=float) * (1.0 - np.asarray(t, dtype=float)),
                   value_at_one=0.0, endpoint_exponent=1.0,
                   kind="gtilde", label="gtilde")


def spectral_function_from_spec(spec: str) -> SpectralFunction:
    """Parse 'renyi:a' | 'monomial:m' | 'gtilde' into a SpectralFunction."""
    if spec == "gtilde":
        return SpectralFunction.gtilde()
    head, sep, arg = spec.partition(":")
    if sep and head == "renyi":
        return SpectralFunction.renyi(float(arg))
    if sep and head == "monomial":
        return SpectralFunction.monomial(int(arg))
    raise DomainError(f"unknown spectral-function spec {spec!r}")


# ---------------------------------------------------------------------------
# xi-integration grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class XiGrid:
    nodes: np.ndarray
    weights: np.ndarray
    cutoff: float
    panel_width: float


def _tail_bound(n: int, q: float, c_holder: float, xi_max: float) -> float:
    # the occupations collapse Gaussianly, so the integrand decays like
    # exp(-delta q xi^2), delta = 0.9; integrate the majorant past the cutoff
    rate = 0.9 * min(q, 1.0)
    amp = (n + 1) * max(c_holder, 1.0)
    return amp * math.exp(-rate * xi_max * xi_max) / (2.0 * rate * xi_max) / math.pi


def xi_grid(n: int, q: float = 1.0, c_holder: float = 1.0, tol: float = 1e-8,
            panel_width: float = 0.25, nodes_per_panel: int = 16) -> XiGrid:
    """Composite Gauss-Legendre grid on [-Xi, Xi], Xi = 8 + sqrt(2n+1).

    The integrand is analytic with Gaussian decay, so the fixed grid converges
    spectrally; Xi is pushed further out if the tail bound exceeds tol/10.
    """
    xi_max = 8.0 + math.sqrt(2.0 * n + 1.0)
    while _tail_bound(n, q, c_holder, xi_max) > 0.1 * tol and xi_max < 40.0:
        xi_max += 0.5
    n_panels = int(math.ceil(2.0 * xi_max / panel_width))
    edges = np.linspace(-xi_max, xi_max, n_panels + 1)
    ref = gauss_legendre(nodes_per_panel, 0.0, 1.0)
    nodes = (edges[:-1, None] + np.diff(edges)[:, None] * ref.nodes[None, :]).ravel()
    weights = (np.diff(edges)[:, None] * ref.weights[None, :]).ravel()
    return XiGrid(nodes=nodes, weights=weights, cutoff=xi_max,
                  panel_width=panel_width)


# ---------------------------------------------------------------------------
# Gram matrix of the truncated-Hermite overlaps and its spectrum
# ---------------------------------------------------------------------------

@dataclass
class GramSpectrum:
    """Eigenvalues (clamped to [0,1]) of the rank-(n+1) operator at one xi."""

    xi: float
    eigenvalues: np.ndarray


def gram_matrix(n: int, xi: float) -> np.ndarray:
    """Overlap Gram matrix G[l, l'] = overlap_lambda(l, l', xi)."""
    if n < 0:
        raise DomainError(f"top level must be >= 0, got {n}")
    g = np.empty((n + 1, n + 1))
    for l1 in range(n + 1):
        for l2 in range(l1, n + 1):
            v = overlap_lambda(l1, l2, xi) if l1 != l2 else lambda_ell(l1, xi)
            g[l1, l2] = g[l2, l1] = v
    return g


def gram_spectrum(n: int, xi: float) -> GramSpectrum:
    g = gram_matrix(n, xi)
    vals = np.linalg.eigvalsh(g)[::-1]
    vals = clamp_unit(vals, CLAMP, f"gram_spectrum(n={n}, xi={xi})")
    trace_direct = float(np.trace(g))
    if abs(vals.sum() - trace_direct) > 1e-10:
        raise ConsistencyError(
            f"gram eigenvalue sum {vals.sum()} != trace {trace_direct}")
    return GramSpectrum(xi=float(xi), eigenvalues=vals)


# Cached spectral fields on integration grids. Key: (n, grid signature).
_FIELD_CACHE: dict = {}


def _grid_key(grid: XiGrid) -> tuple:
    # cutoff and panel width fix the panels, the node count their rule
    return (round(float(grid.cutoff), 12), grid.panel_width, grid.nodes.size)


def gram_eigen_field(n: int, grid: XiGrid) -> np.ndarray:
    """Eigenvalues of the Gram matrix at every grid node, shape (N, n+1)."""
    key = ("gram", n, _grid_key(grid))
    if key in _FIELD_CACHE:
        return _FIELD_CACHE[key]
    table = build_overlap_table(n, grid.nodes)
    mats = np.moveaxis(table.values, 2, 0)
    vals = np.linalg.eigvalsh(mats)[:, ::-1]
    vals = clamp_unit(vals, CLAMP, f"gram_eigen_field(n={n})")
    _FIELD_CACHE[key] = vals
    return vals


def lambda_field(ell: int, grid: XiGrid) -> np.ndarray:
    """lambda_ell along the grid (diagonal of the overlap table)."""
    key = ("lambda", ell, _grid_key(grid))
    if key in _FIELD_CACHE:
        return _FIELD_CACHE[key]
    table = build_overlap_table(ell, grid.nodes)
    vals = np.clip(table.values[ell, ell, :], 0.0, 1.0)
    _FIELD_CACHE[key] = vals
    return vals


# ---------------------------------------------------------------------------
# The asymptotic coefficients
# ---------------------------------------------------------------------------

def _integrate(grid: XiGrid, integrand: np.ndarray) -> float:
    return float(np.dot(grid.weights, integrand)) / _TWO_PI


def _m_ell_on_grid(ell: int, f: SpectralFunction, grid: XiGrid) -> float:
    lam = lambda_field(ell, grid)
    return _integrate(grid, np.asarray(f(lam), dtype=float)
                      - f.value_at_one * lam)


def _m_le_n_on_grid(n: int, f: SpectralFunction, grid: XiGrid) -> float:
    mu = gram_eigen_field(n, grid)
    vals = np.asarray(f(mu.ravel()), dtype=float).reshape(mu.shape)
    return _integrate(grid, vals.sum(axis=1) - f.value_at_one * mu.sum(axis=1))


def coeff_M_ell(ell: int, f: SpectralFunction, tol: float = 1e-8) -> float:
    """Single-level boundary coefficient: integral of f(lambda_ell) - f(1) lambda_ell."""
    grid = xi_grid(ell, q=f.endpoint_exponent, c_holder=f.holder_constant, tol=tol)
    return _m_ell_on_grid(ell, f, grid)


def coeff_M_le_n(n: int, f: SpectralFunction, tol: float = 1e-8) -> float:
    """Multi-level boundary coefficient via the Gram eigenvalue field."""
    grid = xi_grid(n, q=f.endpoint_exponent, c_holder=f.holder_constant, tol=tol)
    return _m_le_n_on_grid(n, f, grid)


def coeff_with_error(levels, f: SpectralFunction, tol: float = 1e-8
                     ) -> tuple[float, float]:
    """Coefficient plus an error estimate (coarse-vs-fine grid + tail bound).

    `levels` is a LevelSelector-like with .kind and .index.
    """
    q, c = f.endpoint_exponent, f.holder_constant
    n = levels.index
    fine = xi_grid(n, q=q, c_holder=c, tol=tol, panel_width=0.25)
    coarse = xi_grid(n, q=q, c_holder=c, tol=tol, panel_width=0.5)
    if levels.kind == "single":
        v_fine = _m_ell_on_grid(n, f, fine)
        v_coarse = _m_ell_on_grid(n, f, coarse)
    else:
        v_fine = _m_le_n_on_grid(n, f, fine)
        v_coarse = _m_le_n_on_grid(n, f, coarse)
    err = abs(v_fine - v_coarse) + _tail_bound(n, q, c, fine.cutoff)
    return v_fine, err


def poly_boundary_coeff(ell: int, m: int) -> float:
    """Boundary coefficient of the m-th moment: integral of (lambda^m - lambda)/2pi."""
    if m < 1:
        raise DomainError(f"moment order must be >= 1, got {m}")
    grid = xi_grid(ell)
    lam = lambda_field(ell, grid)
    return _integrate(grid, lam ** m - lam)


# ---------------------------------------------------------------------------
# Trace moments of the truncated operator (two independent routes)
# ---------------------------------------------------------------------------

def _lambda_le_1_integral(n: int, xi: float) -> float:
    # trace via the confluent Christoffel-Darboux diagonal; independent of the
    # level-sum route
    def integrand(t):
        hn = hermite_poly_normalized(n, t)
        hn1 = hermite_poly_normalized(n + 1, t)
        hn2 = hermite_poly_normalized(n + 2, t)
        return np.exp(-t * t) / math.sqrt(math.pi) * (
            (n + 1.0) * hn1 * hn1 - math.sqrt((n + 1.0) * (n + 2.0)) * hn * hn2)
    from .specfun import adaptive_quad, _upper_cutoff
    return adaptive_quad(integrand, xi, _upper_cutoff(xi), tol=1e-12)


def trace_moment_K(n: int, xi: float, m: int) -> tuple[float, float]:
    """tr K^m by two routes: eigenvalue powers and the cyclic overlap chain.

    Returns both values; they must agree to 1e-9 or a ConsistencyError is
    raised. For m = 1 the trace is additionally checked against the
    Christoffel-Darboux diagonal integral.
    """
    if m < 1:
        raise DomainError(f"moment order must be >= 1, got {m}")
    if (n + 1) ** m > 2_000_000:
        raise DomainError(f"chain sum with (n+1)^m = {(n+1)**m} terms refused")
    spec = gram_spectrum(n, xi)
    route_a = float(np.sum(spec.eigenvalues ** m))
    g = gram_matrix(n, xi)
    route_b = 0.0
    for chain in itertools.product(range(n + 1), repeat=m):
        prod = 1.0
        for i in range(m):
            prod *= g[chain[i], chain[(i + 1) % m]]
        route_b += prod
    if abs(route_a - route_b) > 1e-9:
        raise ConsistencyError(
            f"trace moment routes disagree: {route_a} vs {route_b} "
            f"(n={n}, xi={xi}, m={m})")
    if m == 1:
        route_c = _lambda_le_1_integral(n, xi)
        if abs(route_a - route_c) > 1e-9:
            raise ConsistencyError(
                f"trace vs CD-diagonal integral disagree: {route_a} vs {route_c}")
    return route_a, route_b
