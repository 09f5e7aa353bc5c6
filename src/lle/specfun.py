"""Orthogonal polynomials, Gauss-Legendre rules and one-dimensional overlap integrals.

Hermite functions and Laguerre polynomials come from their three-term
recurrences. `hermite_sweep` is the one normalized-Hermite recurrence: it
yields every degree up to the requested one, on Python floats for a scalar
argument and on arrays otherwise, so a caller that needs several degrees at
one point (a Christoffel-Darboux sum, a Mehler partial sum) pays for one
sweep. The truncated-Hermite overlaps of a whole xi grid need no
quadrature: from psi_0..psi_n at the nodes, the occupations follow the ladder
lambda_0 = erfc(xi)/2, lambda_l = lambda_{l-1} + psi_l psi_{l-1}/sqrt(2l)
(`occupations`), and the cross overlaps are Wronskian quotients
(`build_overlap_table`). Adaptive quadrature, the per-xi quadrature and the
panel sweep of the overlaps, the raw Hermite polynomials and the
extended-precision erfc and incomplete gamma are test oracles
(tests/oracles.py). The library takes erfc (in `_ladder`), gammaln and the
incomplete gamma (in `disk_spectra.radial_profiles` and `_sector_grams`) from
scipy.special, each imported inside the function that calls it, so the
identity and translate-intersection routes (`lle verify`, `lle rocca`) never
load scipy. A new scipy call follows the same rule.

Everything here is pure and reentrant: fixed inputs give bitwise-identical
outputs regardless of evaluation order, so callers may fan grids out across
threads freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapabilityError, DomainError, NumericError

# Hermite evaluation is supported up to this degree; beyond it the
# asymptotic (Plancherel-Rotach) regime would need dedicated code.
LEVEL_CAP = 60

# Gauss-Legendre nodes per panel of the composite rules (xi grids, polar arcs)
NODES_PER_PANEL = 16


def _check_level(ell: int) -> int:
    ell = int(ell)
    if ell < 0:
        raise DomainError(f"level index must be >= 0, got {ell}")
    if ell > LEVEL_CAP:
        raise CapabilityError(f"level index {ell} above supported cap {LEVEL_CAP}")
    return ell


# ---------------------------------------------------------------------------
# Hermite polynomials and functions
# ---------------------------------------------------------------------------

def hermite_sweep(ell: int, t, h0=1.0):
    """Yield h_0(t), ..., h_ell(t) of the normalized recurrence
    h_{k+1} = sqrt(2/(k+1)) t h_k - sqrt(k/(k+1)) h_{k-1} from h_0 = h0.

    With h0 = 1 these are H_k(t) / sqrt(2^k k!), with the Gaussian
    pi^{-1/4} e^{-t^2/2} the oscillator functions psi_k(t). A Python int or
    float t runs on Python floats; anything else goes through np.asarray and
    yields arrays of its shape. Both take the same operations in the same
    order, so they agree bitwise.
    """
    ell = int(ell)
    if ell < 0:
        raise DomainError(f"level index must be >= 0, got {ell}")
    if isinstance(t, (int, float)):
        t = float(t)
        h_prev = float(h0)
    else:
        t = np.asarray(t, dtype=float)
        h_prev = np.full_like(t, h0)
    yield h_prev
    if ell == 0:
        return
    h = math.sqrt(2.0) * t * h_prev
    yield h
    for k in range(1, ell):
        h, h_prev = (math.sqrt(2.0 / (k + 1)) * t * h
                     - math.sqrt(k / (k + 1)) * h_prev), h
        yield h


def hermite_poly_normalized(ell: int, t):
    """H_ell(t) / sqrt(2^ell ell!), the last value of `hermite_sweep`; a
    scalar or 0-d input gives a Python float.

    Stays O(e^{t^2/2}) for all degrees, which keeps Christoffel-Darboux
    quotients and Mehler partial sums inside double range where the raw
    polynomials would overflow.
    """
    for h in hermite_sweep(ell, t):
        pass
    return h if np.ndim(h) else float(h)


def hermite_fn(ell: int, t):
    """Orthonormal oscillator eigenfunction psi_ell(t), the last row of
    `hermite_fn_table`; a scalar or 0-d input gives a Python float."""
    t = np.asarray(t, dtype=float)
    psi = hermite_fn_table(ell, t.ravel())[-1].reshape(t.shape)
    return psi if psi.ndim else float(psi)


def hermite_fn_table(nmax: int, t: np.ndarray) -> np.ndarray:
    """psi_0..psi_nmax on an array, shape (nmax+1, len(t)): the rows of
    `hermite_sweep` seeded with the Gaussian pi^{-1/4} e^{-t^2/2}, so the
    normalization (sqrt(pi) 2^l l!)^{-1/2} never forms a factorial."""
    nmax = _check_level(nmax)
    t = np.asarray(t, dtype=float)
    return np.array(list(hermite_sweep(
        nmax, t, np.exp(-0.5 * t * t) * math.pi ** -0.25)))


# ---------------------------------------------------------------------------
# Generalized Laguerre polynomials and the [0, 1] eigenvalue clamp
# ---------------------------------------------------------------------------

def laguerre_sweep(ell: int, k, z):
    """Yield L_0^{(k)}(z), ..., L_ell^{(k)}(z) by the forward recurrence.

    (j+1) L_{j+1} = (2j+1+k-z) L_j - (j+k) L_{j-1} is stable in the degree
    where the explicit alternating sum cancels catastrophically (z near k
    with large k). The superscript k may be an array broadcasting against z;
    real arguments give real values, complex ones complex values.
    """
    ell = int(ell)
    if ell < 0:
        raise DomainError(f"degree must be >= 0, got {ell}")
    k = np.asarray(k, dtype=float)
    if np.any(k < -ell):
        raise DomainError(f"superscript {k.min():g} below -degree {-ell}")
    z = np.asarray(z)
    prev = np.ones(np.broadcast_shapes(k.shape, z.shape),
                   dtype=np.result_type(z, k))
    yield prev
    if ell == 0:
        return
    cur = (1.0 + k) - z
    yield cur
    for j in range(1, ell):
        nxt = ((2 * j + 1) + k - z) * cur
        nxt -= (j + k) * prev
        nxt /= j + 1
        prev, cur = cur, nxt
        yield cur


def laguerre(ell: int, k, z):
    """Generalized Laguerre polynomial L_ell^{(k)}(z), the last value of
    `laguerre_sweep`; 0-d input gives a Python scalar."""
    for val in laguerre_sweep(ell, k, z):
        pass
    return val if val.ndim else val.item()


def clamp_unit(vals, slack: float, where: str) -> np.ndarray:
    """Clip eigenvalues (any array shape) to [0, 1].

    Values beyond [-slack, 1 + slack], or NaN, raise a NumericError naming
    the worst one: past the caller's noise level a violation signals an
    assembly fault, not roundoff to be absorbed.
    """
    vals = np.asarray(vals, dtype=float)
    excess = np.maximum(-vals, vals - 1.0)
    if np.any(~(excess <= slack)):
        worst = float(vals.flat[np.argmax(excess)])
        raise NumericError(f"{where}: eigenvalue {worst!r} violates [0,1] "
                           f"beyond the {slack:g} clamp")
    return np.clip(vals, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Gauss-Legendre rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights on [a, b]; an n-point rule is exact to degree 2n - 1."""

    nodes: np.ndarray
    weights: np.ndarray


def gauss_legendre(n: int, a: float, b: float) -> QuadratureRule:
    """n-point Gauss-Legendre rule on [a, b], nodes increasing, from numpy's
    leggauss."""
    n = int(n)
    if n < 1:
        raise DomainError(f"node count must be >= 1, got {n}")
    if not a < b:
        raise DomainError(f"need a < b, got [{a}, {b}]")
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (b - a)
    return QuadratureRule(half * x + 0.5 * (a + b), half * w)


# leggauss solves an eigenproblem per call, and xi grids and polar arcs are
# built per coefficient and per area: the reference panel is built once
_PANEL_RULE = gauss_legendre(NODES_PER_PANEL, 0.0, 1.0)


def gauss_legendre_panels(edges) -> QuadratureRule:
    """Composite rule: NODES_PER_PANEL Gauss-Legendre nodes on every panel
    between consecutive edges, flattened panel by panel."""
    edges = np.asarray(edges, dtype=float)
    width = np.diff(edges)[:, None]
    return QuadratureRule((edges[:-1, None] + width * _PANEL_RULE.nodes).ravel(),
                          (width * _PANEL_RULE.weights).ravel())


# ---------------------------------------------------------------------------
# Truncated-Hermite overlap integrals
# ---------------------------------------------------------------------------

def _check_grid(xi_grid) -> np.ndarray:
    xi = np.asarray(xi_grid, dtype=float)
    if xi.ndim != 1 or xi.size < 1:
        raise DomainError("xi grid must be a nonempty 1-D array")
    if np.any(np.diff(xi) <= 0):
        raise DomainError("xi grid must be strictly increasing")
    return xi


def _ladder(psi: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Overwrite a psi_0..psi_n table on xi with lambda_0..lambda_n, the
    integrals of psi_l^2 over [xi, inf), by the ladder lambda_0 = erfc(xi)/2,
    lambda_l = lambda_{l-1} + psi_l psi_{l-1}/sqrt(2l): both sides have
    derivative psi_{l-1}^2 - psi_l^2 and vanish at +inf."""
    from scipy.special import erfc
    psi[1:] *= psi[:-1] / np.sqrt(2.0 * np.arange(1, len(psi)))[:, None]
    psi[0] = 0.5 * erfc(xi)
    return np.cumsum(psi, axis=0, out=psi)


def occupations(max_level: int, xi_grid) -> np.ndarray:
    """lambda_0..lambda_max_level on a xi grid, shape (max_level+1, N), by
    the erfc ladder."""
    max_level = _check_level(max_level)
    xi = _check_grid(xi_grid)
    return _ladder(hermite_fn_table(max_level, xi), xi)


@dataclass
class OverlapTable:
    """Dense table of overlap integrals on a xi grid.

    values[l1, l2, i] is the integral of psi_l1 psi_l2 over [xi_grid[i], inf),
    in closed form from psi_0..psi_max_level at the nodes alone: the
    occupations lambda_l on the diagonal come from the erfc ladder, and off
    the diagonal the Wronskian W = psi_i' psi_j - psi_i psi_j', with
    W' = -2(i-j) psi_i psi_j, gives
    (sqrt(2i) psi_{i-1} psi_j - sqrt(2j) psi_i psi_{j-1}) / (2(i-j)).
    """

    xi_grid: np.ndarray
    max_level: int
    values: np.ndarray = field(repr=False)


def build_overlap_table(max_level: int, xi_grid: np.ndarray) -> OverlapTable:
    max_level = _check_level(max_level)
    xi = _check_grid(xi_grid)
    psi = hermite_fn_table(max_level, xi)
    n = max_level + 1
    # lowered[i] = sqrt(2i) psi_{i-1}, so psi_i' = lowered[i] - xi psi_i
    lowered = np.zeros_like(psi)
    lowered[1:] = np.sqrt(2.0 * np.arange(1, n))[:, None] * psi[:-1]
    level = np.arange(n, dtype=float)
    gap = 2.0 * np.subtract.outer(level, level)
    np.fill_diagonal(gap, 1.0)  # the diagonal is the ladder's, set below
    vals = np.empty((n, n, xi.size))
    for i, row in enumerate(vals):
        # row by row, so no temporary grows past (n, N)
        np.multiply(lowered[i], psi, out=row)
        row -= psi[i] * lowered
        row /= gap[i][:, None]
    vals[np.arange(n), np.arange(n)] = _ladder(psi, xi)
    return OverlapTable(xi_grid=xi, max_level=max_level, values=vals)
