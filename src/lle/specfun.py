"""Orthogonal polynomials, quadrature panel rules and one-dimensional overlap integrals.

Hermite functions come from their three-term recurrence. `hermite_sweep` is
the one normalized-Hermite recurrence: it yields every degree up to the
requested one on arrays of its argument's shape, so a caller that needs
several degrees at the same points (a Christoffel-Darboux sum, a Mehler
partial sum, the Hermite-identity right sides of a block of mixed degrees,
the Hermite tail at every panel edge of the xi cutoff) pays for one sweep.
The truncated-Hermite overlaps of a whole xi grid need no quadrature: from
psi_0..psi_n at the nodes, the occupations follow the ladder
lambda_0 = erfc(xi)/2, lambda_l = lambda_{l-1} + psi_l psi_{l-1}/sqrt(2l)
(`occupations`), and the cross overlaps are Wronskian quotients
(`build_overlap_table`). The coefficient integrals run on
`gauss_kronrod_panels`, the 33-point Kronrod extension of the 16-point
Gauss-Legendre panel, which carries the embedded Gauss weights on the same
nodes, so one evaluation gives a value and an error estimate; its reference
panel is a table rounded from 80-digit values. Adaptive quadrature, the
per-xi quadrature and the panel sweep of the overlaps, the raw Hermite
polynomials, the oscillator function of one degree, the unnormalized
Laguerre recurrence, the extended-precision erfc and incomplete gamma and
the extended-precision Gauss-Kronrod rule that regenerates the table are
test oracles (tests/oracles.py); the library's one Laguerre recurrence is
the normalized one of the radial profiles (`disk_spectra`). Their special
functions are here: `log_factorial` (the Stirling series, with the C
library's lgamma for small arguments), from which the profiles form their
Poisson weights in log space at the nodes of the Nystrom route and their
seeds wherever a weight underflows, and `poisson_ladder`, one array of
Poisson weights and from it the regularized incomplete gamma P(N+1, x) of
every integer order up to a cap, which the sector Grams use.
erfc comes from the C library (`math.erfc`, in `_ladder`). So this module,
and with it the whole library, needs numpy and the standard library alone:
no subcommand loads scipy, which only the test oracles use.

Everything here is pure: fixed inputs give bitwise-identical outputs
regardless of evaluation order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

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

    With h0 = 1 these are H_k(t) / sqrt(2^k k!), O(e^{t^2/2}) at every
    degree where the raw polynomials overflow; with the Gaussian
    pi^{-1/4} e^{-t^2/2} the oscillator functions psi_k(t). t goes through
    np.asarray, and every value has its shape: a scalar t gives 0-d values.
    """
    ell = int(ell)
    if ell < 0:
        raise DomainError(f"level index must be >= 0, got {ell}")
    t = np.asarray(t, dtype=float)
    h, h_prev = np.full_like(t, h0), np.zeros_like(t)
    yield h
    for k in range(ell):
        h, h_prev = (math.sqrt(2.0 / (k + 1)) * t * h
                     - math.sqrt(k / (k + 1)) * h_prev), h
        yield h


def hermite_fn_table(nmax: int, t: np.ndarray) -> np.ndarray:
    """psi_0..psi_nmax on an array, shape (nmax+1, len(t)): the rows of
    `hermite_sweep` seeded with the Gaussian pi^{-1/4} e^{-t^2/2}, so the
    normalization (sqrt(pi) 2^l l!)^{-1/2} never forms a factorial."""
    nmax = _check_level(nmax)
    t = np.asarray(t, dtype=float)
    return np.array(list(hermite_sweep(
        nmax, t, np.exp(-0.5 * t * t) * math.pi ** -0.25)))


# ---------------------------------------------------------------------------
# The [0, 1] eigenvalue clamp
# ---------------------------------------------------------------------------

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
# Log-gamma and the regularized incomplete gamma of integer order
# ---------------------------------------------------------------------------

# log n! - log(sqrt(2 pi n) (n/e)^n) for n = 1..15 (entry 0 unused), rounded
# from 40-digit values; from 16 on the Stirling series gives it
_STIRLERR = (0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
             0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
             0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
             0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
             0.006408994188004207, 0.0059513701127588475, 0.005554733551962801)
_STIRLING_FROM = 16.0
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _stirling_series(z):
    """log Gamma(z) - [(z - 1/2) log z - z + log(2 pi)/2] for z >= 16, to five
    terms of the Stirling series (the first term left out is below 1.2e-16);
    at an integer z = n it is also log n! - [(n + 1/2) log n - n + log(2 pi)/2]."""
    zz = z * z
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * zz)) / zz)
                      / zz) / zz) / z


def log_factorial(kappa) -> np.ndarray:
    """log Gamma(kappa + 1) for real kappa >= 0, elementwise: the Stirling
    series in z = kappa + 1 from z = 16 up, the C library's lgamma below."""
    z = np.asarray(kappa, dtype=float) + 1.0
    big = z >= _STIRLING_FROM
    zb = np.where(big, z, _STIRLING_FROM)
    out = np.asarray((zb - 0.5) * np.log(zb) - zb + _HALF_LOG_2PI
                     + _stirling_series(zb))
    if not np.all(big):
        out[~big] = [math.lgamma(v) for v in z[~big].tolist()]
    return out


def _bd0(j: float, x: float) -> float:
    """j log(j/x) + x - j without cancellation near j = x: the series in
    v = (j-x)/(j+x) where |j-x| < (j+x)/10 (Loader 2000)."""
    d = j - x
    if abs(d) >= 0.1 * (j + x):
        return j * math.log(j / x) + x - j
    v = d / (j + x)
    s, term, v2 = d * v, 2.0 * j * v, v * v
    for i in itertools.count(1):
        term *= v2
        nxt = s + term / (2 * i + 1)
        if nxt == s:
            return s
        s = nxt


def poisson_ladder(n_max: int, x: float) -> tuple:
    """The Poisson weights w_N = x^N e^{-x}/N! and the regularized lower
    incomplete gamma P(N+1, x) for N = 0..n_max at x >= 0, as two arrays.

    P(N+1, x) is the Poisson probability of more than N events at mean x,
    the sum of the weights w_j over j > N. The weight at the mode
    j0 = floor(x) comes from Loader's saddle-point form
    exp(-stirlerr(j0) - bd0(j0, x)) / sqrt(2 pi j0) (e^{-x} at j0 = 0), and
    the others from the ratios w_{j+1}/w_j = x/(j+1) up and j/x down. While
    N+1 < x, P = 1 - sum_{j<=N} w_j, a sum below about 1/2, so nothing
    cancels; from N+1 >= x on, P = sum_{j>N} w_j, summed from the far end.
    The weights end at J = n_max + 1 + K, K = ceil(12 sqrt(x)) + 40, where
    they fall by x/(J+1) < 1 per step, so the tail left out is at most
    w_J x/(J+1-x). Against P(n_max+1) >= w_{n_max+1} that is at most
    x^K x! / (x+K)! * x/(K+1), below 1e-24 for every x. Each ratio step
    adds one rounding, so values far from the mode carry a few ulps more:
    against 40- to 60-digit arithmetic up to x = 6400, across the disk's
    sector window, every P is within 3e-15 relative and every weight above
    1e-290 within 1e-14 (below that the weights run into the subnormals).
    The disk sector Grams take both arrays: P for their diagonal, the
    weights for the profile magnitudes at the disk edge (C. Loader, "Fast
    and accurate computation of binomial probabilities", 2000).
    """
    x = float(x)
    j0 = math.floor(x)
    if j0 == 0:
        w0 = math.exp(-x)
    else:
        stirlerr = (_STIRLERR[j0] if j0 < len(_STIRLERR)
                    else _stirling_series(float(j0)))
        w0 = math.exp(-stirlerr - _bd0(float(j0), x)) / math.sqrt(2.0 * math.pi * j0)
    top = max(n_max + 1 + math.ceil(12.0 * math.sqrt(x)) + 40, j0)
    w = np.empty(top + 1)
    w[j0] = w0
    np.cumprod(x / np.arange(j0 + 1.0, top + 1.0), out=w[j0 + 1:])
    w[j0 + 1:] *= w0
    if j0:
        np.cumprod(np.arange(j0, 0.0, -1.0) / x, out=w[j0 - 1::-1])
        w[:j0] *= w0
    below = 1.0 - np.cumsum(w[:n_max + 1])
    above = np.cumsum(w[::-1])[-2:-n_max - 3:-1]
    return w[:n_max + 1], np.where(np.arange(1.0, n_max + 2.0) < x, below, above)


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


# The 33-point Gauss-Kronrod extension of the 16-point Gauss-Legendre rule on
# [0, 1], rounded from 80-digit values (tests/oracles.gauss_kronrod_mp): the
# nodes, increasing, the Gauss nodes at the odd indices 1, 3, ..., 31; the
# Kronrod weights, exact to degree 49; the Gauss weights of nodes[1::2],
# exact to degree 31 (Laurie, Math. Comp. 66, 1997)
_KRONROD_NODES = (
    0.0008803629272777429, 0.005299532504175033, 0.014247024515303703,
    0.02771248846338371, 0.045421166493828526, 0.06718439880608412,
    0.09287985646877776, 0.12229779582249849, 0.15512944665911885,
    0.19106187779867811, 0.22979616182393012, 0.2709916111713863,
    0.31425810956079187, 0.35919822461037054, 0.40541571049095815,
    0.4524937450811813, 0.5, 0.5475062549188188, 0.5945842895090419,
    0.6408017753896295, 0.6857418904392082, 0.7290083888286137,
    0.7702038381760699, 0.8089381222013219, 0.8448705533408811,
    0.8777022041775016, 0.9071201435312223, 0.9328156011939158,
    0.9545788335061715, 0.9722875115366163, 0.9857529754846963,
    0.994700467495825, 0.9991196370727222)
_KRONROD_WEIGHTS = (
    0.002371388524623659, 0.006628965344045579, 0.011249429720024722,
    0.015630271823690263, 0.019756475601210983, 0.023753107988203508,
    0.027602816547711087, 0.031179403005917428, 0.03443149759576562,
    0.037384911942799776, 0.04002697063185964, 0.04229790189629532,
    0.044168751289556364, 0.04564601641409583, 0.04671933703046061,
    0.04736420062361502, 0.04757710804024915, 0.04736420062361502,
    0.04671933703046061, 0.04564601641409583, 0.044168751289556364,
    0.04229790189629532, 0.04002697063185964, 0.037384911942799776,
    0.03443149759576562, 0.031179403005917428, 0.027602816547711087,
    0.023753107988203508, 0.019756475601210983, 0.015630271823690263,
    0.011249429720024722, 0.006628965344045579, 0.002371388524623659)
_KRONROD_GAUSS_WEIGHTS = (
    0.013576229705877048, 0.031126761969323947, 0.04757925584124639,
    0.06231448562776694, 0.07479799440828837, 0.08457825969750127,
    0.09130170752246179, 0.09472530522753425, 0.09472530522753425,
    0.09130170752246179, 0.08457825969750127, 0.07479799440828837,
    0.06231448562776694, 0.04757925584124639, 0.031126761969323947,
    0.013576229705877048)


@dataclass(frozen=True)
class KronrodRule(QuadratureRule):
    """A composite Gauss-Kronrod rule: `weights` are the Kronrod weights and
    `gauss_weights` those of the embedded Gauss rule on the same nodes, zero
    at the nodes the Kronrod extension added."""

    gauss_weights: np.ndarray


# the reference panel, the Gauss weights padded with a zero at every added node
_KRONROD_PANEL = KronrodRule(
    np.array(_KRONROD_NODES), np.array(_KRONROD_WEIGHTS),
    np.insert(_KRONROD_GAUSS_WEIGHTS, np.arange(NODES_PER_PANEL + 1), 0.0))


def gauss_kronrod_panels(edges) -> KronrodRule:
    """Composite rule: the 33 Gauss-Kronrod nodes of NODES_PER_PANEL-point
    Gauss-Legendre on every panel between consecutive edges, flattened panel
    by panel, with both weight vectors. All nodes lie strictly inside their
    panel; the Kronrod sum is exact to degree 49 per panel and the Gauss sum
    to degree 31."""
    edges = np.asarray(edges, dtype=float)
    width = np.diff(edges)[:, None]
    return KronrodRule((edges[:-1, None] + width * _KRONROD_PANEL.nodes).ravel(),
                       (width * _KRONROD_PANEL.weights).ravel(),
                       (width * _KRONROD_PANEL.gauss_weights).ravel())


# ---------------------------------------------------------------------------
# Truncated-Hermite overlap integrals
# ---------------------------------------------------------------------------

def _check_grid(xi_grid) -> np.ndarray:
    xi = np.asarray(xi_grid, dtype=float)
    if xi.ndim != 1 or xi.size < 1 or not np.all(np.isfinite(xi)):
        raise DomainError("xi grid must be a nonempty 1-D array of finite nodes")
    return xi


def _ladder(psi: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Overwrite a psi_0..psi_n table on xi with lambda_0..lambda_n, the
    integrals of psi_l^2 over [xi, inf), by the ladder lambda_0 = erfc(xi)/2,
    lambda_l = lambda_{l-1} + psi_l psi_{l-1}/sqrt(2l): both sides have
    derivative psi_{l-1}^2 - psi_l^2 and vanish at +inf. erfc is the C
    library's (`math.erfc`): within an ulp or so, and nonzero down to the
    smallest subnormal, near xi = 27.2."""
    psi[1:] *= psi[:-1] / np.sqrt(2.0 * np.arange(1, len(psi)))[:, None]
    psi[0] = np.fromiter(map(math.erfc, xi.tolist()), float, xi.size)
    psi[0] *= 0.5
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

    values[l1, l2, i] is the integral of psi_l1 psi_l2 over [xi_i, inf),
    in closed form from psi_0..psi_max_level at the nodes alone: the
    occupations lambda_l on the diagonal come from the erfc ladder, and off
    the diagonal the Wronskian W = psi_i' psi_j - psi_i psi_j', with
    W' = -2(i-j) psi_i psi_j, gives
    (sqrt(2i) psi_{i-1} psi_j - sqrt(2j) psi_i psi_{j-1}) / (2(i-j)).
    """

    values: np.ndarray


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
    return OverlapTable(values=vals)
