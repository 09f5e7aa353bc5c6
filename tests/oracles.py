"""Independent brute-force oracles shared by the test modules.

Everything here deliberately avoids the code paths it is used to check:
extended-precision explicit sums via mpmath, plain dense and adaptive
quadrature, seeded Monte Carlo areas, 64-step bisection (of rays and of
the kinks between translates), a dense trapezoid rule for translate
intersections on Newton ray solves, a cyclic-Jacobi eigensolver, finite
differences, and the slower second routes
of the library's problems (the oscillator function of one degree, the
unnormalized Laguerre recurrence and the radial profiles built on it with a
log-factorial norm, per-xi adaptive quadrature of the overlap Gram
matrix, the cumulative panel sweep of the overlap table, the
Christoffel-Darboux kernel at a point pair and on a grid, the projection
kernel between point sets, the angular Fourier transform of the kernel, the
radial-Nystrom disk solver, the windowed quadrature of the disk sector Gram
matrices, the lowest-level incomplete-gamma disk eigenvalues, the dense 2-D
Nystrom kernel matrix, its angular factor with one complex exponential per
sector and node, the trace moments of the 2-D Nystrom matrix without an
eigensolve, the Monte Carlo cross term tr(P - P^2) that also
reaches polygons, the per-degree normalized Hermite recurrence on numpy
arrays with the Christoffel-Darboux sum and verifier built on it, the
per-degree Fraction table of the Hermite-identity left side and the
Fraction-sum verifier built on it, the per-case bodies of the other
identity checks on Python floats and the plan's integer matrices, with the
result record they return and the one-row call of a library evaluator that
returns the same record, and the determinant and sign flip of the
substitution plan, and the 80-digit Gauss-Kronrod rule whose rounded
values are the library's table). The library never imports this module.
"""

import dataclasses
import functools
import itertools
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
from scipy.special import gammainc

from lle import disk_spectra as ds
from lle import geometry as ge
from lle import identities as idn
from lle import region_sim as rs
from lle.coeffs import CLAMP
from lle.errors import DomainError, LleError, NumericError, WindowError
from lle.geometry import Region
from lle.landau import LevelSelector, MagneticSetup, symplectic
from lle.specfun import (
    LEVEL_CAP,
    OverlapTable,
    _check_level,
    clamp_unit,
    gauss_legendre,
    hermite_fn_table,
    hermite_sweep,
    log_factorial,
)

mp.mp.dps = 40


class ConsistencyError(LleError):
    """Two supposedly equivalent routes disagreed beyond tolerance."""


def hermite_poly(ell: int, t):
    """Physicists' Hermite polynomial H_ell(t) by the three-term recurrence.

    Overflow-safe for ell <= 60 and |t| <= 12 (values stay far below the
    double-precision ceiling there).
    """
    ell = _check_level(ell)
    t = np.asarray(t, dtype=float)
    h_prev = np.ones_like(t)
    if ell == 0:
        return h_prev if h_prev.ndim else float(h_prev)
    h = 2.0 * t
    for k in range(1, ell):
        h, h_prev = 2.0 * t * h - 2.0 * k * h_prev, h
    return h if h.ndim else float(h)


def hermite_fn(ell: int, t):
    """Orthonormal oscillator eigenfunction psi_ell(t), the last row of
    `specfun.hermite_fn_table`; a scalar or 0-d input gives a Python float."""
    t = np.asarray(t, dtype=float)
    psi = hermite_fn_table(ell, t.ravel())[-1].reshape(t.shape)
    return psi if psi.ndim else float(psi)


def hermite_poly_normalized_array(ell: int, t):
    """H_ell(t) / sqrt(2^ell ell!) by the normalized recurrence, one degree
    per call and always on numpy arrays (0-d for a scalar)."""
    ell = int(ell)
    if ell < 0:
        raise DomainError(f"level index must be >= 0, got {ell}")
    t = np.asarray(t, dtype=float)
    h_prev = np.ones_like(t)
    if ell == 0:
        return h_prev if h_prev.ndim else float(h_prev)
    h = math.sqrt(2.0) * t
    for k in range(1, ell):
        h, h_prev = (math.sqrt(2.0 / (k + 1)) * t * h
                     - math.sqrt(k / (k + 1)) * h_prev), h
    return h if h.ndim else float(h)


def hermite_explicit(ell: int, t: float) -> float:
    """H_ell(t) from the explicit finite sum, in 40-digit arithmetic."""
    tt = mp.mpf(t)
    total = mp.mpf(0)
    for j in range(ell // 2 + 1):
        total += (-1) ** j / (mp.factorial(j) * mp.factorial(ell - 2 * j)) \
            * (2 * tt) ** (ell - 2 * j)
    return float(mp.factorial(ell) * total)


def laguerre_explicit(ell: int, k: int, z: complex) -> complex:
    """Generalized Laguerre polynomial by term-by-term extended precision."""
    zz = mp.mpc(z)
    total = mp.mpc(0)
    for j in range(ell + 1):
        total += (-1) ** j / mp.factorial(j) * mp.binomial(ell + k, ell - j) * zz ** j
    return complex(total)


def hermite_fn_mp(ell: int, t: float) -> float:
    norm = mp.sqrt(mp.sqrt(mp.pi) * 2 ** ell * mp.factorial(ell))
    return float(hermite_explicit(ell, t) / float(norm) * math.exp(-0.5 * t * t))


def erfc_mp(x: float) -> float:
    return float(mp.erfc(x))


def reg_lower_gamma_mp(a: float, x: float) -> float:
    return float(mp.gammainc(mp.mpf(a), 0, mp.mpf(x), regularized=True))


def _legendre_values(n: int, x) -> list:
    # P_0(x) .. P_n(x) by Bonnet's recurrence, in the working precision
    vals = [mp.mpf(1), x]
    for k in range(1, n):
        vals.append(((2 * k + 1) * x * vals[k] - k * vals[k - 1]) / (k + 1))
    return vals[:n + 1]


def _real_roots(coeffs) -> list:
    # the roots of a polynomial (ascending coefficients) whose roots are all
    # real, increasing
    roots = mp.polyroots(coeffs[::-1], maxsteps=400, extraprec=4 * mp.mp.prec)
    return sorted(mp.re(r) for r in roots)


def _weights_from_moments(nodes: list, degree: int) -> list:
    # the weights that integrate P_0 .. P_degree exactly over [-1, 1]
    mat = mp.matrix([_legendre_values(degree, x) for x in nodes]).T
    rhs = mp.matrix([2] + [0] * degree)
    return list(mp.lu_solve(mat, rhs))


@functools.cache
def gauss_kronrod_mp(n: int = 16, dps: int = 80) -> tuple:
    """The (2n+1)-point Gauss-Kronrod rule of the n-point Gauss-Legendre rule,
    mapped to [0, 1]: (nodes, Kronrod weights, Gauss weights), mpf tuples,
    the nodes increasing and the Gauss weights those of nodes[1::2].

    The Kronrod nodes are the roots of the Stieltjes polynomial E_{n+1}, the
    monic polynomial of degree n+1 orthogonal to x^0 .. x^n against the sign
    changing weight P_n on [-1, 1]: its coefficients c_j solve the moment
    system sum_j c_j m_{j+k} = -m_{n+1+k}, k = 0..n, with
    m_i = int_{-1}^{1} P_n x^i dx. The Gauss nodes are the roots of P_n. The
    Kronrod weights make the 2n+1 nodes exact for P_0 .. P_2n and the Gauss
    weights the n Gauss nodes for P_0 .. P_{n-1}; the rule is then exact to
    degree 3n+1 (Laurie 1997). Printing float() of each value regenerates
    specfun's _KRONROD_NODES, _KRONROD_WEIGHTS and _KRONROD_GAUSS_WEIGHTS.
    """
    with mp.workdps(dps):
        # P_n's coefficients, ascending, from the recurrence on coefficient lists
        prev, cur = [mp.mpf(1)], [mp.mpf(0), mp.mpf(1)]
        for k in range(1, n):
            nxt = [mp.mpf(0)] + [(2 * k + 1) * c / (k + 1) for c in cur]
            for i, c in enumerate(prev):
                nxt[i] -= k * c / (k + 1)
            prev, cur = cur, nxt
        legendre = cur

        def moment(i):
            return mp.fsum(c * mp.mpf(2) / (i + j + 1)
                           for j, c in enumerate(legendre) if (i + j) % 2 == 0)

        mat = mp.matrix([[moment(j + k) for j in range(n + 1)] for k in range(n + 1)])
        rhs = mp.matrix([-moment(n + 1 + k) for k in range(n + 1)])
        stieltjes = list(mp.lu_solve(mat, rhs)) + [mp.mpf(1)]
        gauss = _real_roots(legendre)
        nodes = sorted(gauss + _real_roots(stieltjes))
        if nodes[1::2] != gauss:
            raise ValueError("Kronrod nodes do not interlace with the Gauss nodes")
        kronrod_w = _weights_from_moments(nodes, 2 * n)
        gauss_w = _weights_from_moments(gauss, n - 1)
        return (tuple((1 + x) / 2 for x in nodes), tuple(w / 2 for w in kronrod_w),
                tuple(w / 2 for w in gauss_w))


def dense_trapezoid(f, a: float, b: float, n: int = 200001) -> float:
    x = np.linspace(a, b, n)
    return float(np.trapezoid(f(x), x))


def jacobi_eigvalsh(mat: np.ndarray, tol: float = 1e-13,
                    max_sweeps: int = 60) -> np.ndarray:
    """Cyclic Jacobi eigenvalues of a real symmetric matrix (descending)."""
    a = np.array(mat, dtype=float, copy=True)
    n = a.shape[0]
    for _ in range(max_sweeps):
        off = math.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off < tol * max(1.0, np.linalg.norm(np.diag(a))):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-300:
                    continue
                theta = 0.5 * (a[q, q] - a[p, p]) / a[p, q]
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))[::-1]


def fd_second_derivative(f, x: float, h: float = 1e-4) -> float:
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


# ---------------------------------------------------------------------------
# adaptive quadrature: the reference integrator of the specfun, geometry and
# disk tests and of the per-xi overlap oracle below
# ---------------------------------------------------------------------------

_GL15 = gauss_legendre(15, -1.0, 1.0)
_GL7 = gauss_legendre(7, -1.0, 1.0)
# bisection levels before adaptive_quad gives up
_MAX_DEPTH = 40


def adaptive_quad(f, a: float, b: float, tol: float = 1e-12) -> float:
    """Recursive bisection with an embedded GL15/GL7 error estimate.

    `f` must accept numpy arrays. Error budget is split proportionally to
    interval length; intervals that disagree beyond their budget are bisected
    up to `_MAX_DEPTH` levels, after which a NumericError is raised. Complex
    integrands are supported.
    """
    a = float(a)
    b = float(b)
    total_len = b - a
    if total_len <= 0:
        raise DomainError(f"need a < b, got [{a}, {b}]")

    def panel(lo, hi):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        fx = f(half * _GL15.nodes + mid)
        coarse = f(half * _GL7.nodes + mid)
        fine_val = half * np.dot(_GL15.weights, fx)
        coarse_val = half * np.dot(_GL7.weights, coarse)
        # roundoff floor: a panel cannot beat machine precision relative to
        # the magnitude of its own samples
        mag = half * float(np.max(np.abs(fx))) if fx.size else 0.0
        return fine_val, abs(fine_val - coarse_val), mag

    total = 0.0 + 0.0j
    global_mag = 0.0
    stack = [(a, b, 0)]
    while stack:
        lo, hi, depth = stack.pop()
        val, err, mag = panel(lo, hi)
        global_mag = max(global_mag, mag)
        # anything below the roundoff of the whole integral is noise
        if err <= (tol * (hi - lo) / total_len
                   + 4e-16 * mag + 2.3e-16 * global_mag):
            total += val
        elif depth >= _MAX_DEPTH:
            raise NumericError(
                f"adaptive quadrature hit depth {_MAX_DEPTH} on [{lo}, {hi}] "
                f"(panel error {err:.2e})")
        else:
            mid = 0.5 * (lo + hi)
            stack.append((lo, mid, depth + 1))
            stack.append((mid, hi, depth + 1))
    if abs(total.imag) == 0.0:
        return total.real
    return total if abs(total.imag) > 1e-300 else total.real


# ---------------------------------------------------------------------------
# Laguerre and Christoffel-Darboux cross-checks
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


def laguerre_sum_relation_error(n: int, t) -> float:
    """Pointwise error of sum_{l<=n} L_l = L_n^{(1)}, scaled to magnitude.

    The polynomials are O(1) on [0, 40] while their coefficient terms reach
    ~t^n/n!, so the pointwise error is measured relative to the mass
    sum_j |c_j| t^j of the L_n^{(1)} coefficients, not to the small results.
    """
    t = np.asarray(t, dtype=float)
    total = sum(laguerre_sweep(n, 0, t))
    rel = laguerre(n, 1, t)
    mass = sum(math.comb(n + 1, n - j) / math.factorial(j) * t ** j
               for j in range(n + 1))
    scale = np.maximum(1.0, np.maximum(np.abs(rel), mass))
    return float(np.max(np.abs(total - rel) / scale))


# threshold below which the Christoffel-Darboux quotient loses ~7 digits;
# the confluent form at the pair midpoint is O(|tau-tau'|^2) accurate there
_CONFLUENT_EPS = 1e-7


def _cd_sum_normalized(n: int, tau: float, taup: float) -> float:
    """sum_{l<=n} H_l(tau)H_l(taup)/(2^l l!) in overflow-safe form, reading
    H_n..H_{n+2} from one `hermite_sweep` per argument."""
    if abs(tau - taup) < _CONFLUENT_EPS:
        hn, hn1, hn2 = list(hermite_sweep(n + 2, 0.5 * (tau + taup)))[n:]
        return (n + 1.0) * hn1 * hn1 - math.sqrt((n + 1.0) * (n + 2.0)) * hn * hn2
    tn, tn1 = list(hermite_sweep(n + 1, tau))[n:]
    pn, pn1 = list(hermite_sweep(n + 1, taup))[n:]
    return math.sqrt((n + 1.0) / 2.0) * (pn * tn1 - tn * pn1) / (tau - taup)


def k_kernel(n: int, xi: float, tau: float, taup: float) -> float:
    """Integral kernel of the rank-(n+1) truncated-Hermite operator.

    Christoffel-Darboux closed form on [xi, inf)^2, zero once either argument
    drops below xi; near-coincident arguments switch to the confluent branch.
    """
    if n < 0:
        raise DomainError(f"top level must be >= 0, got {n}")
    if tau < xi or taup < xi:
        return 0.0
    gauss = math.exp(-0.5 * (tau * tau + taup * taup)) / math.sqrt(math.pi)
    return gauss * _cd_sum_normalized(int(n), float(tau), float(taup))


def cd_sum_per_degree(n: int, tau: float, taup: float) -> float:
    """_cd_sum_normalized with one recurrence per Hermite degree."""
    h = hermite_poly_normalized_array
    if abs(tau - taup) < _CONFLUENT_EPS:
        s = 0.5 * (tau + taup)
        hn, hn1, hn2 = h(n, s), h(n + 1, s), h(n + 2, s)
        return (n + 1.0) * hn1 * hn1 - math.sqrt((n + 1.0) * (n + 2.0)) * hn * hn2
    a = h(n, taup) * h(n + 1, tau) - h(n, tau) * h(n + 1, taup)
    return math.sqrt((n + 1.0) / 2.0) * a / (tau - taup)


def k_kernel_matrix(n: int, xi: float, tau: np.ndarray) -> np.ndarray:
    """k_kernel on a grid x grid (vectorized Christoffel-Darboux form)."""
    tau = np.asarray(tau, dtype=float)
    hn = hermite_poly_normalized_array(n, tau)
    hn1 = hermite_poly_normalized_array(n + 1, tau)
    diff = tau[:, None] - tau[None, :]
    num = np.outer(hn1, hn) - np.outer(hn, hn1)
    with np.errstate(divide="ignore", invalid="ignore"):
        quot = math.sqrt((n + 1.0) / 2.0) * num / diff
    near = np.abs(diff) < _CONFLUENT_EPS
    if np.any(near):
        mid = 0.5 * (tau[:, None] + tau[None, :])
        s = mid[near]
        c_n = hermite_poly_normalized_array(n, s)
        c_n1 = hermite_poly_normalized_array(n + 1, s)
        c_n2 = hermite_poly_normalized_array(n + 2, s)
        quot[near] = ((n + 1.0) * c_n1 * c_n1
                      - math.sqrt((n + 1.0) * (n + 2.0)) * c_n * c_n2)
    gauss = np.exp(-0.5 * tau * tau) / math.pi ** 0.25
    mat = quot * np.outer(gauss, gauss)
    mask = tau >= xi
    return mat * np.outer(mask, mask)


# ---------------------------------------------------------------------------
# per-xi adaptive quadrature of the truncated-Hermite overlaps: the oracle
# of specfun.build_overlap_table and coeffs.gram_eigen_field, at nodes on
# either side of 0 (the coefficients integrate over xi > 0 alone)
# ---------------------------------------------------------------------------

def _upper_cutoff(xi: float) -> float:
    # psi_ell(t)^2 <= C (1+|t|)^{2 ell} e^{-t^2}: the remainder beyond
    # |xi| + 10 is below 1e-14 for all supported levels
    return abs(xi) + 10.0


def lambda_ell(ell: int, xi: float, tol: float = 1e-12) -> float:
    """Occupation lambda_ell(xi) = integral of psi_ell(t)^2 over [xi, inf)."""
    xi = float(xi)
    val = adaptive_quad(lambda t: hermite_fn(ell, t) ** 2, xi, _upper_cutoff(xi),
                        tol=tol)
    return min(1.0, max(0.0, val))


def overlap_lambda(ell1: int, ell2: int, xi: float, tol: float = 1e-12) -> float:
    """Cross overlap of truncated Hermite functions over [xi, inf)."""
    xi = float(xi)
    return float(adaptive_quad(lambda t: hermite_fn(ell1, t) * hermite_fn(ell2, t),
                               xi, _upper_cutoff(xi), tol=tol))


# Gauss-Legendre rule of each overlap-table segment
_PANEL_RULE = gauss_legendre(12, 0.0, 1.0)


def overlap_table_panel(max_level: int, xi_grid: np.ndarray) -> OverlapTable:
    """The overlap table by one cumulative panel sweep from the far tail: a
    GL-12 panel per grid segment (plus 63 segments out to the upper cutoff),
    summed from the right. The quadrature route to the table that
    specfun.build_overlap_table takes in closed form."""
    xi = np.asarray(xi_grid, dtype=float)
    hi = _upper_cutoff(float(xi[-1]))
    edges = np.concatenate([xi, np.linspace(float(xi[-1]), hi, 64)[1:]])
    n = max_level + 1
    segs = np.zeros((n, n, edges.size - 1))
    for i in range(edges.size - 1):
        lo, up = edges[i], edges[i + 1]
        if up <= lo:
            continue
        t = lo + (up - lo) * _PANEL_RULE.nodes
        w = (up - lo) * _PANEL_RULE.weights
        tab = hermite_fn_table(max_level, t)
        segs[:, :, i] = np.einsum("k,ik,jk->ij", w, tab, tab)
    # cumulative from the right: lambda(x_i) = sum of segments beyond x_i
    cum = np.cumsum(segs[:, :, ::-1], axis=2)[:, :, ::-1]
    vals = cum[:, :, :xi.size]
    return OverlapTable(xi_grid=xi, max_level=max_level, values=vals)


@functools.lru_cache(maxsize=None)
def _hermite_fn_table_mp(t: mp.mpf, dps: int) -> tuple:
    # psi_0..psi_LEVEL_CAP at one node by the normalized recurrence, in dps
    # digits (the caller's working precision, part of the cache key)
    out = [mp.exp(-t * t / 2) / mp.pi ** mp.mpf(0.25)]
    out.append(mp.sqrt(2) * t * out[0])
    for k in range(1, LEVEL_CAP):
        out.append(mp.sqrt(mp.mpf(2) / (k + 1)) * t * out[k]
                   - mp.sqrt(mp.mpf(k) / (k + 1)) * out[k - 1])
    return tuple(out)


def overlap_mp(ell1: int, ell2: int, xi: float, dps: int = 30) -> float:
    """Integral of psi_ell1 psi_ell2 over [xi, inf) by mpmath Gauss-Legendre
    quadrature in dps digits, on pieces of length 4 up to t = 16 (past every
    turning point up to the cap) and one infinite tail; the quadrature's own
    error estimate must stay below 1e-25."""
    def integrand(t):
        psi = _hermite_fn_table_mp(t, dps)
        return psi[ell1] * psi[ell2]

    with mp.workdps(dps):
        cuts = [mp.mpf(x) for x in range(4 * math.floor(xi / 4) + 4, 17, 4)]
        val, err = mp.quad(integrand, [mp.mpf(xi), *cuts, mp.inf],
                           method="gauss-legendre", error=True)
    if err > 1e-25:
        raise ConsistencyError(f"mpmath quadrature error {err} at xi={xi}")
    return float(val)


def gram_matrix_mp(n: int, xi: float) -> mp.matrix:
    """Overlap Gram matrix up to level n at one node in the caller's mpmath
    precision, in closed form: the erfc ladder on the diagonal and the
    Hermite Wronskian off it."""
    t = mp.mpf(xi)
    psi = _hermite_fn_table_mp(t, mp.mp.dps)
    g = mp.matrix(n + 1, n + 1)
    lam = mp.erfc(t) / 2
    for i in range(n + 1):
        if i:
            lam += psi[i] * psi[i - 1] / mp.sqrt(2 * i)
        g[i, i] = lam
        for j in range(i):
            lowered_j = mp.sqrt(2 * j) * psi[j - 1] if j else 0
            g[i, j] = g[j, i] = (mp.sqrt(2 * i) * psi[i - 1] * psi[j]
                                 - psi[i] * lowered_j) / (2 * (i - j))
    return g


def gram_matrix(n: int, xi: float) -> np.ndarray:
    """Overlap Gram matrix G[l, l'] = overlap_lambda(l, l', xi), one entry at
    a time."""
    g = np.empty((n + 1, n + 1))
    for l1 in range(n + 1):
        for l2 in range(l1, n + 1):
            v = overlap_lambda(l1, l2, xi) if l1 != l2 else lambda_ell(l1, xi)
            g[l1, l2] = g[l2, l1] = v
    return g


def gram_spectrum(n: int, xi: float) -> np.ndarray:
    """Descending eigenvalues of gram_matrix(n, xi), clamped to [0, 1]; the
    eigenvalue sum must match the trace to 1e-10."""
    g = gram_matrix(n, xi)
    vals = clamp_unit(np.linalg.eigvalsh(g)[::-1], CLAMP,
                      f"gram_spectrum(n={n}, xi={xi})")
    if abs(vals.sum() - float(np.trace(g))) > 1e-10:
        raise ConsistencyError(
            f"gram eigenvalue sum {vals.sum()} != trace {np.trace(g)}")
    return vals


def _lambda_le_1_integral(n: int, xi: float) -> float:
    # trace via the confluent Christoffel-Darboux diagonal; independent of the
    # level-sum route
    def integrand(t):
        hn = hermite_poly_normalized_array(n, t)
        hn1 = hermite_poly_normalized_array(n + 1, t)
        hn2 = hermite_poly_normalized_array(n + 2, t)
        return np.exp(-t * t) / math.sqrt(math.pi) * (
            (n + 1.0) * hn1 * hn1 - math.sqrt((n + 1.0) * (n + 2.0)) * hn * hn2)
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
    route_a = float(np.sum(gram_spectrum(n, xi) ** m))
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


# ---------------------------------------------------------------------------
# the projection kernel point set against point set: the oracle of the
# sector solvers, through the disk-sector and dense-matrix oracles below
# ---------------------------------------------------------------------------

def selector_laguerre(selector: LevelSelector, arg):
    """The selector's Laguerre factor: L_l for one level l, and
    sum_{l<=n} L_l = L_n^{(1)} for the levels up to n."""
    return laguerre(selector.index, 0 if selector.kind == "single" else 1, arg)


def kernel_block(setup: MagneticSetup, selector: LevelSelector,
                 pts_a: np.ndarray, pts_b: np.ndarray) -> np.ndarray:
    """Projection kernel between two point sets, shape (len(pts_a), len(pts_b)).

    (B/2pi) e^{-B|x-y|^2/4} L(B|x-y|^2/2) e^{i B <x|Jy>/2} with L the
    selector's Laguerre factor; points are rows (x1, x2).
    """
    b = setup.b
    dx = pts_a[:, 0][:, None] - pts_b[:, 0][None, :]
    dy = pts_a[:, 1][:, None] - pts_b[:, 1][None, :]
    d2 = dx * dx + dy * dy
    lag = selector_laguerre(selector, 0.5 * b * d2)
    cross = pts_a[:, 0][:, None] * pts_b[:, 1][None, :] \
        - pts_a[:, 1][:, None] * pts_b[:, 0][None, :]
    return (b / (2.0 * math.pi) * np.exp(-0.25 * b * d2) * lag
            * np.exp(0.5j * b * cross))


# ---------------------------------------------------------------------------
# disk sectors: the angular Fourier transform of the kernel, the
# radial-Nystrom discretization, the windowed quadrature of the sector Gram
# matrices and their extended-precision entries, oracles of the closed-form
# sector Gram solver
# ---------------------------------------------------------------------------

def radial_sector_kernel(setup, selector, k: int, r: float, s: float,
                         n_phi: int = 512) -> float:
    """Angular Fourier coefficient of the projection kernel at radii (r, s).

    (1/2pi) * integral of P((r,0), (s cos phi, s sin phi)) e^{-i k phi},
    by n_phi-node periodic trapezoid quadrature (spectrally accurate for the
    analytic integrand). The result is real; an imaginary residue above 1e-9
    signals an assembly inconsistency.
    """
    if r < 0 or s < 0:
        raise DomainError("radii must be nonnegative")
    # the integrand's angular spectrum is one-sided and centered near
    # B r s / 2; raise the node count when |k| or the radii would alias it
    gamma = 0.5 * setup.b * r * s
    needed = 2.0 * (abs(k) + gamma) + 160.0
    if needed > n_phi:
        n_phi = 1 << int(math.ceil(math.log2(needed)))
    phis = 2.0 * math.pi * np.arange(n_phi) / n_phi
    ring = np.stack([s * np.cos(phis), s * np.sin(phis)], axis=1)
    vals = kernel_block(setup, selector, np.array([[r, 0.0]]), ring)[0]
    coef = complex(np.mean(vals * np.exp(-1j * k * phis)))
    if abs(coef.imag) > 1e-9:
        raise ConsistencyError(
            f"sector kernel imaginary residue {coef.imag:.3e} at k={k}, r={r}, s={s}")
    return coef.real


def radial_numbers(selector, ks: np.ndarray) -> np.ndarray:
    """Radial quantum number min(l, l + k) of each level in each sector k,
    shape (ks, levels); negative where the level is absent."""
    levels = np.array(selector.levels())
    return np.minimum(levels[None, :], levels[None, :] + ks[:, None])


def sector_kernel_closed_form(setup, selector, k: int, r) -> np.ndarray:
    """Factorized sector kernel: rows R_{ell,k}(r_i)/sqrt(2pi) per level,
    from the radial profiles the sector Gram solver integrates."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    ks = np.array([k])
    rows = ds._level_profiles(ks, radial_numbers(selector, ks),
                              0.5 * setup.b * r[None, :] * r[None, :])[0]
    return rows * math.sqrt(setup.b / (2.0 * math.pi))


# at most n+1 eigenvalues per sector may exceed this (rank structure)
_RANK_TOL = 1e-8


def disk_spectrum_nystrom(setup, selector, r_total: float,
                          cutoff: float = 1e-12) -> np.ndarray:
    """Descending disk eigenvalues >= cutoff by the radial-Nystrom route.

    Each sector's weight-symmetrized radial kernel matrix on a Gauss-Legendre
    rule in r is eigensolved on its own, over the same sector window as
    disk_spectra.disk_spectrum; a sector with more than n+1 eigenvalues
    above 1e-8 raises ConsistencyError, an unexhausted window WindowError.
    """
    n_top = max(selector.levels())
    kmax = ds.sector_window(setup.b, r_total, n_top)
    rule = gauss_legendre(24 + 6 * int(math.ceil(math.sqrt(setup.b) * r_total)),
                          0.0, r_total)
    sqw = np.sqrt(rule.weights * rule.nodes)
    collected = []
    for k in range(-n_top, kmax + 1):
        rows = sector_kernel_closed_form(setup, selector, k, rule.nodes)
        kern = rows.T @ rows  # kernel(k, r_i, r_j)
        mat = 2.0 * math.pi * (sqw[:, None] * kern * sqw[None, :])
        sv = clamp_unit(np.linalg.eigvalsh(mat), ds._CLAMP,
                        f"disk_spectrum_nystrom(k={k})")
        if np.count_nonzero(sv > _RANK_TOL) > selector.count:
            raise ConsistencyError(
                f"sector k={k}: more than {selector.count} eigenvalues above "
                f"{_RANK_TOL}; rank structure violated")
        collected.append(sv[sv >= cutoff])
    if sv.max(initial=0.0) >= cutoff:  # sv: the boundary sector k = kmax
        raise WindowError(f"sector window |k| <= {kmax} exhausted")
    return np.sort(np.concatenate(collected))[::-1]


# Gauss-Legendre rule of each sector's radial window
_GRAM_RULE = gauss_legendre(96, 0.0, 1.0)
# sectors per recurrence sweep: bounds the profile arrays to a few MiB
_SECTOR_BLOCK = 256


def _gram_window(kappa: np.ndarray, a_max: int, x_cut: float):
    # profiles of radial quantum number a <= a_max oscillate between the
    # turning points nu -+ sqrt(nu^2 - kappa^2), nu = kappa + 2 a_max + 1;
    # past them they decay like a Gaussian of width sqrt(2 kappa + 1), or
    # like e^{-x/2} when kappa is small
    nu = kappa + 2 * a_max + 1.0
    reach = np.sqrt(nu * nu - kappa * kappa)
    pad = 6.0 * np.sqrt(2.0 * kappa + 1.0)
    lo = np.clip(nu - reach - pad, 0.0, x_cut)
    hi = np.clip(nu + reach + pad + 40.0, 0.0, x_cut)
    return lo, hi


def sector_grams_quadrature(selector, ks: np.ndarray,
                            x_cut: float) -> np.ndarray:
    """Truncated-disk radial Gram matrices of sectors ks, shape (ks, m, m).

    Entry (i, j) integrates R_{l_i,k} R_{l_j,k} r dr over the disk by windowed
    96-node Gauss-Legendre quadrature in x; the window depends only on |k|,
    so one recurrence sweep per block of sectors serves every level pair. A
    level absent from a sector keeps a decoupled diagonal entry of -1, as in
    disk_spectra._sector_grams.
    """
    levels = np.array(selector.levels())
    grams = np.empty((ks.size, levels.size, levels.size))
    for i0 in range(0, ks.size, _SECTOR_BLOCK):
        kb = ks[i0:i0 + _SECTOR_BLOCK]
        lo, hi = _gram_window(np.abs(kb).astype(float), int(levels[-1]), x_cut)
        x = lo[:, None] + (hi - lo)[:, None] * _GRAM_RULE.nodes[None, :]
        sqw = np.sqrt((hi - lo)[:, None] * _GRAM_RULE.weights[None, :])
        rows = ds._level_profiles(kb, radial_numbers(selector, kb), x) \
            * sqw[:, None, :]
        g = rows @ rows.transpose(0, 2, 1)
        sec, lev = np.nonzero(levels[None, :] + kb[:, None] < 0)
        g[sec, lev, lev] = -1.0
        grams[i0:i0 + kb.size] = g
    return grams


def sector_gram(setup, selector, k: int,
                r_total: float) -> tuple[list[int], np.ndarray]:
    """Active levels and their quadrature Gram matrix for mode k."""
    levels = selector.levels()
    present = [i for i, ell in enumerate(levels) if ell + k >= 0]
    x_cut = 0.5 * setup.b * r_total * r_total
    g = sector_grams_quadrature(selector, np.array([k]), x_cut)[0]
    return [levels[i] for i in present], g[np.ix_(present, present)]


def radial_profiles(a_max: int, kappa, x) -> np.ndarray:
    """The radial profiles p_a^kappa(x) of disk_spectra._radial_profiles for
    a = 0..a_max, stacked along a new leading axis, by a second route: the
    unnormalized Laguerre sweep times its magnitude, assembled in log space
    as the envelope kappa/2 log x - x/2 per node and the norm
    (log a! - log (a+kappa)!)/2 per radial number and value of kappa. The
    sweep overflows at high levels (to NaN at a = 800, x = 3200), and the
    log terms of size kappa log x cost a few of their ulps at kappa near x.
    """
    kappa = np.asarray(kappa, dtype=float)
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_env = np.where(kappa > 0.0, 0.5 * kappa * np.log(x), 0.0) - 0.5 * x
    a = np.arange(a_max + 1.0).reshape((-1,) + (1,) * log_env.ndim)
    log_norm = 0.5 * (log_factorial(a) - log_factorial(a + kappa))
    lag = np.stack(list(laguerre_sweep(a_max, kappa, x)))
    return lag * np.exp(log_env + log_norm)


def level_profiles(ks: np.ndarray, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """disk_spectra._level_profiles through `radial_profiles`: shape
    (ks, levels, nodes), zero rows where a level is absent (a < 0)."""
    prof = radial_profiles(max(int(a.max()), 0), np.abs(ks)[:, None], x)
    rows = prof[np.maximum(a, 0), np.arange(ks.size)[:, None]]
    rows[a < 0] = 0.0
    return rows


def radial_profile_mp(a: int, kappa: int, x: float, dps: int = 50) -> float:
    """The radial profile p_a at weight kappa (disk_spectra._radial_profiles)
    in extended precision, from the explicit sum of L_a^kappa."""
    with mp.workdps(dps):
        xm = mp.mpf(x)
        lag = mp.fsum((-1) ** i * mp.binomial(a + kappa, a - i) * xm ** i
                      / mp.factorial(i) for i in range(a + 1))
        return float(mp.sqrt(mp.factorial(a) / mp.factorial(a + kappa))
                     * xm ** (mp.mpf(kappa) / 2) * mp.exp(-xm / 2) * lag)


def sector_gram_mp(a_max: int, kappa: int, x: float,
                   dps: int = 60) -> np.ndarray:
    """Integrals of p_a p_b over [0, x] at weight kappa, for a, b <= a_max.

    Exact in extended precision: the product of the two Laguerre polynomials
    is expanded in monomials, and each x^(kappa+t) e^(-x) integrates to
    Gamma(kappa+t+1) P(kappa+t+1, x). The expansion cancels heavily at large
    kappa, which the working precision absorbs.
    """
    with mp.workdps(dps):
        xm = mp.mpf(x)
        # coefficient of x^i in L_a^kappa, scaled by sqrt(a!/(a+kappa)!)
        coef = [[(-1) ** i * mp.binomial(a + kappa, a - i) / mp.factorial(i)
                 * mp.sqrt(mp.factorial(a) / mp.factorial(a + kappa))
                 for i in range(a + 1)] for a in range(a_max + 1)]
        moment = [mp.gamma(kappa + t + 1)
                  * mp.gammainc(kappa + t + 1, 0, xm, regularized=True)
                  for t in range(2 * a_max + 1)]
        out = np.empty((a_max + 1, a_max + 1))
        for a in range(a_max + 1):
            for b in range(a_max + 1):
                out[a, b] = float(mp.fsum(ci * cj * moment[i + j]
                                          for i, ci in enumerate(coef[a])
                                          for j, cj in enumerate(coef[b])))
    return out


def lll_disk_eigenvalues(b: float, r: float, m_max: int) -> np.ndarray:
    """Lowest-level disk eigenvalues P(m+1, B R^2/2) for m = 0..m_max.

    The regularized lower incomplete gamma (scipy `gammainc`) in closed form:
    the lowest level enters sector m with the single radial profile of
    weight m, so its sector Gram matrix is this one number.
    """
    if m_max < 0:
        raise DomainError(f"m_max must be >= 0, got {m_max}")
    x = 0.5 * b * r * r
    return gammainc(np.arange(1, m_max + 2, dtype=float), x)


def disk_trace_moment(setup: MagneticSetup, selector: LevelSelector,
                      r_total: float, m: int, cutoff: float = 1e-14) -> float:
    """tr of the m-th power of the localized projection on a disk."""
    if m < 1:
        raise DomainError(f"moment order must be >= 1, got {m}")
    spec = ds.disk_spectrum(setup, selector, ge.Disk(1.0), r_total,
                            cutoff=cutoff)
    return float(np.sum(spec.eigenvalues ** m))


# ---------------------------------------------------------------------------
# the dense 2-D Nystrom kernel matrix and the trace moments tr P^m: the
# oracles of region_sim's angular factor and spectrum
# ---------------------------------------------------------------------------

def region_kernel_matrix(setup: MagneticSetup, selector: LevelSelector,
                         region: Region, L: float,
                         resolution: tuple[int, int] | None = None):
    """Weight-symmetrized kernel matrix on the polar rule, plus weights."""
    n_radial, n_theta = resolution or rs.default_resolution(setup, region, L)
    pts, w = rs._polar_nodes(region, L, n_radial, n_theta)
    sq = np.sqrt(w)
    n = pts.shape[0]
    mat = np.empty((n, n), dtype=complex)
    block = max(1, 20_000_000 // max(n, 1))
    for i0 in range(0, n, block):
        i1 = min(n, i0 + block)
        mat[i0:i1] = kernel_block(setup, selector, pts[i0:i1], pts)
        mat[i0:i1] *= sq[i0:i1, None] * sq[None, :]
    return mat, pts, w


def angular_factor_direct(setup: MagneticSetup, selector: LevelSelector,
                          region: Region, L: float,
                          resolution: tuple[int, int],
                          cutoff: float) -> np.ndarray:
    """region_sim._angular_factor with the phase of every (sector, node)
    entry its own exponential e^{-2 pi i t / n_theta}, t = k j mod n_theta
    for the node's angle index j."""
    n_theta = resolution[1]
    pts, w = rs._polar_nodes(region, L, *resolution)
    r2 = np.sum(pts * pts, axis=1)
    ks, a = ds._sector_layout(setup.b, math.sqrt(r2.max()), selector)
    turns = (ks[:, None] * (np.arange(r2.size) % n_theta)) % n_theta
    phase = np.exp(-2j * math.pi / n_theta * turns) \
        * np.sqrt(w * setup.b / (2.0 * math.pi))
    present = a >= 0
    rows = ds._level_profiles(ks, a, 0.5 * setup.b * r2[None, :])[present]
    rows = phase[present.nonzero()[0]] * rows
    top = np.sum(np.abs(rows[-a.shape[1]:]) ** 2, axis=1)
    ds._check_window(ks, float(top.max()), cutoff)
    return rows.T


def region_trace_moment(setup: MagneticSetup, selector: LevelSelector,
                        region: Region, L: float, m: int,
                        resolution: tuple[int, int] | None = None) -> float:
    """tr of the m-th power of the localized projection, no eigensolve.

    m = 1 integrates the constant kernel diagonal over the polar rule; m >= 2
    is tr G^m of the Gram G = A^H A of the angular factor (m = 2: its squared
    Frobenius norm), window checked at the cutoff 1e-14, and
    under region_spectrum's dimension guard, since the factor has dim rows.
    """
    if m < 1:
        raise DomainError(f"moment order must be >= 1, got {m}")
    if not 0.0 < L < math.inf:
        raise DomainError(f"scale L must be finite and positive, got {L}")
    res = resolution or rs.default_resolution(setup, region, L)
    if m == 1:
        w = rs._polar_nodes(region, L, *res)[1]
        return float(np.sum(w) * (setup.b / (2.0 * math.pi) * selector.count))
    rs._guard_dim(*res)
    a = rs._angular_factor(setup, selector, region, L, res, 1e-14)
    return float(np.real(np.trace(np.linalg.matrix_power(a.conj().T @ a, m))))


# ---------------------------------------------------------------------------
# seeded Monte Carlo areas: the oracle of geometry.intersect_translates_area
# ---------------------------------------------------------------------------

def mc_intersect_area(region, family,
                      n_samples: int = 10_000_000, seed: int = 0
                      ) -> tuple[float, float]:
    """Monte Carlo estimate of |Lambda \\ Lambda_eps| with its standard error.

    Seeded and shardable: the estimate depends only on (seed, n_samples).
    """
    rng = np.random.default_rng(seed)
    if isinstance(region, ge.Disk):
        lo, hi = np.full(2, -region.radius), np.full(2, region.radius)
    elif isinstance(region, ge.SmoothStar):
        rmax = float(np.max(region.radius(np.linspace(0, 2 * math.pi, 4096, endpoint=False))))
        lo, hi = np.array([-rmax, -rmax]), np.array([rmax, rmax])
    else:
        v = region.vertex_array()
        lo, hi = v.min(axis=0), v.max(axis=0)
    box = float(np.prod(hi - lo))
    shifts = family.shifts()
    removed = 0
    chunk = 1_000_000
    done = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        pts = lo + (hi - lo) * rng.random((m, 2))
        in_base = ge.contains(region, pts)
        in_all = in_base.copy()
        for s in shifts:
            in_all &= ge.contains(region, pts - s)
        removed += int(np.count_nonzero(in_base & ~in_all))
        done += m
    p = removed / n_samples
    est = box * p
    stderr = box * math.sqrt(max(p * (1.0 - p), 1e-300) / n_samples)
    return est, stderr


# ---------------------------------------------------------------------------
# seeded Monte Carlo cross term tr(P - P^2): a spot check that reaches
# polygons, which no spectral route of the library takes
# ---------------------------------------------------------------------------

def scale_region(region: Region, factor: float) -> Region:
    if not factor > 0.0:
        raise DomainError(f"scale factor must be positive, got {factor}")
    if isinstance(region, ge.Disk):
        return ge.Disk(radius=factor * region.radius)
    if isinstance(region, ge.SmoothStar):
        return ge.SmoothStar(coeffs=tuple(factor * c for c in region.coeffs))
    return ge.Polygon(vertices=tuple((factor * x, factor * y)
                                     for x, y in region.vertices))


def mc_cross_hs_norm(setup: MagneticSetup, selector: LevelSelector,
                     region: Region, L: float, n_samples: int = 400_000,
                     seed: int = 0) -> float:
    """Monte Carlo estimate of sum mu(1-mu) = tr(P - P^2) on L*region.

    Lipschitz spot check: works for polygons where the Nystrom path does not.
    Importance samples the Gaussian off-diagonal decay of |P(x, x+g)|^2.
    """
    big = scale_region(region, L)
    a = ge.area(big)
    b = setup.b
    rng = np.random.default_rng(seed)
    # tr P = (n+1) B |Lambda| / 2pi ; tr P^2 by MC with g ~ N(0, I/B)
    if isinstance(big, ge.Polygon):
        v = big.vertex_array()
        lo, hi = v.min(axis=0), v.max(axis=0)
    else:
        r_eff = L * rs._radial_profile_max(region)
        lo, hi = np.array([-r_eff, -r_eff]), np.array([r_eff, r_eff])
    box = float(np.prod(hi - lo))
    total = 0.0
    count = 0
    chunk = 200_000
    while count < n_samples:
        mcount = min(chunk, n_samples - count)
        x = lo + (hi - lo) * rng.random((mcount, 2))
        inside = ge.contains(big, x)
        g = rng.normal(0.0, 1.0 / math.sqrt(b), size=(mcount, 2))
        y = x + g
        both = inside & ge.contains(big, y)
        lag = selector_laguerre(selector, 0.5 * b * np.sum(g * g, axis=1))
        total += float(np.sum((lag ** 2)[both]))
        count += mcount
    # E over x uniform in box and g ~ N: tr P^2 = box * (B/2pi) * mean(lag^2 * 1_both)
    tr_p2 = box * (b / (2.0 * math.pi)) * total / n_samples
    tr_p = selector.count * b * a / (2.0 * math.pi)
    return tr_p - tr_p2


# ---------------------------------------------------------------------------
# bisection, ray solves of star translates, and the dense trapezoid of
# 1/2 rho_min^2 (no kink events, no panels, no root search)
# ---------------------------------------------------------------------------

def translate_bound(star, shift) -> float:
    """a0 + sum_j hypot(a_j, b_j) + |shift|: no point of star + shift lies farther out."""
    a0, a, b, _ = star._harmonics
    return a0 + float(np.sum(np.hypot(a, b))) + float(np.hypot(*shift))


def bisect_root(f, a, b) -> np.ndarray:
    """Vectorised bisection, one bracket [a, b] per element.

    Returns where f changes from <= 0 (at a) to > 0 (at b); f is never
    evaluated at a or b. 64 halvings take every bracket of the tests below
    one ulp. The library's `geometry._bracketed_root` keeps this contract.
    """
    for _ in range(64):
        mid = 0.5 * (a + b)
        low = f(mid) <= 0.0
        a = np.where(low, mid, a)
        b = np.where(low, b, mid)
    return 0.5 * (a + b)


def bisect_leader_changes(rows, nodes: int = 4096) -> np.ndarray:
    """Sorted angles in [0, 2pi) where the argmax over the rows changes:
    found on a uniform grid of nodes angles, refined by bisect_root on the
    difference of the two rows involved."""
    h = 2.0 * math.pi / nodes
    th = h * np.arange(nodes)
    leader = np.argmax(rows(th), axis=0)
    cells = np.flatnonzero(leader != np.roll(leader, -1))
    old, new = leader[cells], leader[(cells + 1) % nodes]
    pick = np.arange(cells.size)

    def gap(t):
        vals = rows(t)
        return vals[new, pick] - vals[old, pick]

    return np.sort(np.mod(bisect_root(gap, th[cells], th[cells] + h), 2.0 * math.pi))


def bisect_translate_radius(star, shift, theta) -> np.ndarray:
    """Radial function of (star + shift) on the rays theta, by bisect_root.

    Each ray is bracketed by the origin and translate_bound; valid while the
    origin lies inside the translate.
    """
    ux, uy = np.cos(theta), np.sin(theta)

    def outside(t):
        px, py = t * ux - shift[0], t * uy - shift[1]
        return px * px + py * py - star.radius(np.arctan2(py, px)) ** 2

    return bisect_root(outside, np.zeros_like(ux),
                       np.full_like(ux, translate_bound(star, shift)))


def newton_translate_radius(star, shift, theta) -> np.ndarray:
    """Radial function of (star + shift) on the rays theta, by Newton.

    Solves u x (r(phi) e_phi + s) = 0 for the polar angle phi of the boundary
    point, starting at phi = theta; valid for shifts small against r.
    """
    ux, uy = np.cos(theta), np.sin(theta)
    cross_s = ux * shift[1] - uy * shift[0]
    phi = np.array(theta, dtype=float)
    for _ in range(50):
        r, rp = star.radius(phi), star.radius(phi, order=1)
        s, c = np.sin(phi - theta), np.cos(phi - theta)
        step = (r * s + cross_s) / (rp * s + r * c)
        phi = phi - step
        if np.max(np.abs(step)) < 1e-15:
            break
    r = star.radius(phi)
    if np.max(np.abs(r * np.sin(phi - theta) + cross_s)) > 1e-14:
        raise NumericError("Newton ray solve did not converge")
    return r * np.cos(phi - theta) + ux * shift[0] + uy * shift[1]


def trapezoid_intersection_area(star, family, n: int = 2 ** 18) -> float:
    """|Lambda_eps| as the n-node periodic trapezoid rule of 1/2 rho_min^2."""
    theta = 2.0 * math.pi * np.arange(n) / n
    shifts = np.vstack([np.zeros((1, 2)), family.shifts()])
    rho = np.min([newton_translate_radius(star, s, theta) for s in shifts], axis=0)
    return 0.5 * float(np.sum(rho * rho)) * 2.0 * math.pi / n


# ---------------------------------------------------------------------------
# second routes of the identity verifiers
# ---------------------------------------------------------------------------

def sign_flip(plan) -> np.ndarray:
    """diag(+1 x q, -1 x (m-1-q)) of a SubstitutionPlan, as exact ints."""
    d = [1] * plan.q + [-1] * (plan.m - 1 - plan.q)
    return np.diag(np.array(d, dtype=object))


def a_matrix(plan) -> np.ndarray:
    """The 0/1 substitution matrix A of a SubstitutionPlan as exact ints:
    A_ij = 1 for i <= j <= q or q+1 <= j <= i."""
    m, q = plan.m, plan.q
    a = np.zeros((m - 1, m - 1), dtype=object)
    for i in range(1, m):
        for j in range(1, m):
            if 1 <= i <= j <= q or q + 1 <= j <= i:
                a[i - 1, j - 1] = 1
    return a


def a_inverse(plan) -> np.ndarray:
    """The inverse of a_matrix(plan) as ints: the identity with -1 at
    (i, i+1) for i < q-1 and at (i, i-1) for i > q (0-based)."""
    m, q = plan.m, plan.q
    ai = np.eye(m - 1, dtype=int)
    ai[np.arange(q - 1), np.arange(1, q)] = -1
    ai[np.arange(q + 1, m - 1), np.arange(q, m - 2)] = -1
    return ai


def skew(plan) -> np.ndarray:
    """S with -1 above, 0 on, +1 below the diagonal ((m-1) x (m-1))."""
    i = np.arange(plan.m - 1)
    return np.sign(i[:, None] - i[None, :])


def det_a(plan) -> int:
    """Determinant of a_matrix(plan) by fraction-free (Bareiss) elimination."""
    a = [[int(v) for v in row] for row in a_matrix(plan)]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


@dataclasses.dataclass
class VerifyResult:
    """Outcome of one identity check with reproduction data."""

    ok: bool
    max_error: float
    tolerance: float
    inputs: dict = dataclasses.field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok


def _result(err: float, tol: float, **inputs) -> VerifyResult:
    return VerifyResult(ok=bool(err <= tol), max_error=float(err),
                        tolerance=float(tol),
                        inputs={k: idn._json(v) for k, v in inputs.items()})


def one_row(evaluate, *values, **options) -> VerifyResult:
    """One case checked by a library evaluator: `evaluate` on a block of one
    row, the row's columns as the result's inputs."""
    err, tol, columns = evaluate(*(np.asarray(v)[None] for v in values),
                                 **options)
    return _result(err[0], tol[0], **{k: v[0] for k, v in columns.items()})


@functools.cache
def hermite_lhs_table_fraction(ell: int) -> dict:
    """Exact coefficients {(a, b): c} of the Hermite-identity left side of
    one degree: (2pi)^{-1/2} integral of L_ell((w-2i xi)(w-2i tau)/2)
    e^{-w^2/4} dw equals sqrt(2) sum c xi^a tau^b. Built degree by degree
    from the Laguerre coefficients (-1)^j C(ell, j) / j! and the Gaussian
    moments sqrt(2) (-2)^m (2m-1)!! of u^{2m}, u = i w, in which the
    argument is -(u^2 + 2u(xi + tau) + 4 xi tau)/2."""
    zz = {(2, 0, 0): 1, (1, 1, 0): 2, (1, 0, 1): 2, (0, 1, 1): 4}
    power = {(0, 0, 0): Fraction(1)}
    table: dict = {}
    for j in range(ell + 1):
        c_j = Fraction((-1) ** j * math.comb(ell, j), math.factorial(j))
        for (k, a, b), v in power.items():
            if k % 2 == 0:
                moment = (-2) ** (k // 2) * math.prod(range(1, k, 2))
                table[a, b] = (table.get((a, b), 0)
                               + c_j * Fraction(-1, 2) ** j * v * moment)
        nxt: dict = {}
        for (k1, a1, b1), v1 in power.items():
            for (k2, a2, b2), v2 in zz.items():
                key = (k1 + k2, a1 + a2, b1 + b2)
                nxt[key] = nxt.get(key, 0) + v1 * v2
        power = nxt
    return {key: c for key, c in table.items() if c}


def verify_hermite_identity_fraction(ell: int, xi: float, tau: float):
    """identities._batch_hermite of one case with the left side summed term
    by term in Fraction arithmetic and per-degree Hermite values."""
    if ell > 12:
        raise DomainError("the Hermite identity tables stop at ell = 12")
    hx = hermite_poly_normalized_array(ell, xi)
    ht = hermite_poly_normalized_array(ell, tau)
    rhs = math.sqrt(2.0) * hx * ht
    x, t = Fraction(xi), Fraction(tau)
    terms = [c * x ** a * t ** b
             for (a, b), c in hermite_lhs_table_fraction(ell).items()]
    lhs = math.sqrt(2.0) * float(sum(terms))
    mass = sum(abs(term) for term in terms)
    tol = max(1e-9 * abs(rhs), 1e-13 * math.sqrt(2.0) * float(mass))
    return _result(abs(lhs - rhs), tol, ell=ell, xi=xi, tau=tau,
                   lhs=[lhs, 0.0], rhs=rhs)


def verify_christoffel_darboux_per_degree(n: int, tau: float, taup: float):
    """identities._batch_christoffel_darboux of one case with one Hermite
    recurrence per degree and argument."""
    if n > 20:
        raise DomainError("Christoffel-Darboux check capped at n = 20")
    h = hermite_poly_normalized_array
    direct = sum(h(ell, tau) * h(ell, taup) for ell in range(n + 1))
    floor = 0.0
    if tau == taup:
        hn, hn1, hn2 = h(n, tau), h(n + 1, tau), h(n + 2, tau)
        quot = (n + 1.0) * hn1 * hn1 - math.sqrt((n + 1.0) * (n + 2.0)) * hn * hn2
    else:
        root = math.sqrt((n + 1.0) / 2.0)
        quot = root * (h(n, taup) * h(n + 1, tau) - h(n, tau) * h(n + 1, taup)
                       ) / (tau - taup)
        env_t = max(abs(h(k, tau)) for k in range(n + 2))
        env_p = max(abs(h(k, taup)) for k in range(n + 2))
        floor = 1e-13 * root * env_t * env_p / abs(tau - taup)
    err = abs(direct - quot)
    return _result(err, max(1e-10 * max(1.0, abs(direct)), floor), n=n,
                   tau=tau, taup=taup, direct=direct, quotient=quot)


# the per-case bodies of the identity checks: Python floats, the plan's
# integer matrices, and one Hermite recurrence per case and argument

def _original_variables(plan, xi: float, tau, undo_tau_shift: bool = False):
    """plan.original_variables of one case through the matrix a_inverse."""
    tau = np.asarray(tau, dtype=float)
    if tau.size != plan.m - 1:
        raise DomainError(f"tau must have {plan.m - 1} components")
    if undo_tau_shift:
        tau = tau - xi
    flip = np.array([1.0] * plan.q + [-1.0] * (plan.m - 1 - plan.q))
    t = a_inverse(plan) @ (flip * tau)
    if plan.q == plan.m - 1:
        shift = 0.5 * float(tau[0])
    else:
        shift = 0.5 * float(tau[0] + tau[-1])
    return -xi - shift, t


def _chain_data(plan, t: np.ndarray):
    big_t = skew(plan) @ t
    return np.concatenate([big_t, [0.0]]), np.concatenate([t, [t.sum()]])


def _phase_sum(ys: np.ndarray) -> float:
    return sum((float(symplectic(ys[:i].sum(axis=0), ys[i]))
                for i in range(1, ys.shape[0])), 0.0)


def verify_phase_telescoping_scalar(m: int, x, ys):
    """identities._batch_phase, one case on Python floats."""
    x = np.asarray(x, dtype=float)
    ys = np.asarray(ys, dtype=float).reshape(m - 1, 2)
    pts = [x]
    for i in range(m - 1):
        pts.append(pts[-1] - ys[i])
    pts.append(x)  # x_m := x
    lhs = sum(float(symplectic(pts[i], pts[i + 1])) for i in range(m))
    rhs = _phase_sum(ys)
    scale = 1.0 + float(np.max(np.abs(ys))) ** 2 + float(np.max(np.abs(x))) ** 2
    return _result(abs(lhs - rhs), 1e-12 * scale, m=m, x=x, ys=ys,
                   lhs=lhs, rhs=rhs)


def verify_local_frame_reduction_scalar(ys, normal):
    """identities._batch_frame, one case through the skew matrix."""
    ys = np.asarray(ys, dtype=float).reshape(-1, 2)
    m = ys.shape[0] + 1
    n = np.asarray(normal, dtype=float)
    n = n / np.linalg.norm(n)
    jn = np.array([n[1], -n[0]])  # J n
    z = -ys @ jn
    t = ys @ n
    err = 0.0
    for i in range(m - 1):
        rec = -z[i] * jn + t[i] * n
        err = max(err, float(np.max(np.abs(rec - ys[i]))))
        err = max(err, abs(float(ys[i] @ ys[i]) - (z[i] ** 2 + t[i] ** 2)))
    rhs = float(z @ (skew(idn.SubstitutionPlan(m=m, q=1)) @ t))
    err = max(err, abs(_phase_sum(ys) - rhs))
    scale = 1.0 + float(np.max(np.abs(ys))) ** 2
    return _result(err, 1e-12 * scale, m=m, ys=ys, normal=n)


def verify_exponent_identity_scalar(m: int, q: int, xi: float, tau):
    """identities._batch_exponent, one case through the plan's matrices."""
    plan = idn.SubstitutionPlan(m=m, q=q)
    tau = np.asarray(tau, dtype=float)
    xi0, t = _original_variables(plan, xi, tau)
    big_t, t_full = _chain_data(plan, t)
    lhs = (m * xi0 ** 2 + xi0 * big_t.sum()
           + 0.25 * np.sum(big_t ** 2) + 0.25 * np.sum(t_full ** 2))
    rhs = xi ** 2 + float(np.sum((xi + tau) ** 2))
    scale = 1.0 + abs(lhs) + abs(rhs)
    return _result(abs(lhs - rhs), 1e-11 * scale, m=m, q=q, xi=xi, tau=tau,
                   lhs=float(lhs), rhs=float(rhs), xi0=xi0, t=t)


def verify_T_in_tau_scalar(m: int, q: int, tau):
    """identities._batch_t_tables, one case and one branch at a time."""
    if not 1 <= q <= m - 2:
        raise DomainError("the four-branch tables assume 1 <= q <= m-2")
    plan = idn.SubstitutionPlan(m=m, q=q)
    tau = np.asarray(tau, dtype=float)
    ainv, s = a_inverse(plan), skew(plan)
    err = 0.0
    t_plain = ainv @ tau
    big_plain = s @ t_plain
    t_flip = ainv @ (np.array([1.0] * q + [-1.0] * (m - 1 - q)) * tau)
    big_flip = s @ t_flip
    shift = tau[0] + tau[-1]
    for j in range(1, m):
        tj = tau[j - 1]
        if j <= q - 1:
            plain = tau[0] - tj - tau[j] - tau[-1]
            flp = tau[0] - tj - tau[j] + tau[-1]
            tilde = -tj - tau[j]
            tilde_t = tau[j - 1] - tau[j]
        elif j == q:
            plain = tau[0] - tau[q - 1] - tau[-1]
            flp = tau[0] - tau[q - 1] + tau[-1]
            tilde = -tau[q - 1]
            tilde_t = tau[q - 1]
        elif j == q + 1:
            plain = tau[0] + tau[q] - tau[-1]
            flp = tau[0] - tau[q] + tau[-1]
            tilde = -tau[q]
            tilde_t = -tau[q]
        else:
            plain = tau[0] + tau[j - 2] + tau[j - 1] - tau[-1]
            flp = tau[0] - tau[j - 2] - tau[j - 1] + tau[-1]
            tilde = -tau[j - 2] - tau[j - 1]
            tilde_t = tau[j - 2] - tau[j - 1]
        err = max(err, abs(big_plain[j - 1] - plain))
        err = max(err, abs(big_flip[j - 1] - flp))
        err = max(err, abs(big_flip[j - 1] - shift - tilde))
        err = max(err, abs(t_flip[j - 1] - tilde_t))
    scale = 1.0 + float(np.max(np.abs(tau)))
    return _result(err, 1e-12 * scale, m=m, q=q, tau=tau)


def claimed_laguerre_argument_scalar(plan, j: int, omega, xi: float, tau):
    """identities._claimed_laguerre_argument of one case, branch by branch."""
    m, q = plan.m, plan.q
    root = lambda v: omega - 2.0j * v
    if j <= q - 1:
        return root(tau[j - 1]) * root(tau[j])
    if j == q:
        return root(xi) * root(tau[q - 1])
    if j == m:
        if q == m - 1:
            return root(xi) * root(tau[0])
        return root(tau[0]) * root(tau[m - 2])
    if j == q + 1:
        return root(xi) * root(tau[q])
    return root(tau[j - 2]) * root(tau[j - 1])


def verify_laguerre_argument_maps_scalar(m: int, q: int, omega, xi: float, tau):
    """identities._batch_laguerre_maps, one case and one factor at a time."""
    plan = idn.SubstitutionPlan(m=m, q=q)
    tau = np.asarray(tau, dtype=float)
    xi0, t = _original_variables(plan, xi, tau, undo_tau_shift=True)
    big_t, t_full = _chain_data(plan, t)
    err = 0.0
    scale = 1.0 + abs(complex(omega)) ** 2 + float(np.max(np.abs(tau))) ** 2 + xi * xi
    for j in range(1, m + 1):
        pre = (omega + 1j * (2.0 * xi0 + big_t[j - 1])) ** 2 + t_full[j - 1] ** 2
        claimed = claimed_laguerre_argument_scalar(plan, j, omega, xi, tau)
        err = max(err, abs(pre - claimed))
    return _result(err, 1e-11 * scale, m=m, q=q, omega=complex(omega),
                   xi=xi, tau=tau)


def verify_mehler_scalar(xi: float, tau: float, t: float, n_cap: int = 200):
    """identities._batch_mehler, one case on Python floats."""
    if not abs(t) < 1.0:
        raise DomainError(f"Mehler series needs |t| < 1, got {t}")
    closed = (1.0 - t * t) ** -0.5 * math.exp(
        2.0 * xi * tau * t / (1.0 - t) - t * t * (xi + tau) ** 2 / (1.0 - t * t))
    pairs = zip(hermite_sweep(n_cap, xi), hermite_sweep(n_cap, tau))
    h_x, h_t = next(pairs)
    total = h_x * h_t
    mass = abs(total)
    power = 1.0
    small_run = 0
    for ell, (h_x, h_t) in enumerate(pairs, start=1):
        power *= t
        total += h_x * h_t * power
        mass += abs(h_x * h_t * power)
        if abs(h_x * h_t * power) < 1e-13 * max(1.0, abs(total)) and ell > 8:
            small_run += 1
            if small_run >= 6:
                break
        else:
            small_run = 0
    else:
        raise NumericError(f"Mehler series not converged within {n_cap} terms")
    return _result(abs(total - closed),
                   1e-9 * max(1.0, abs(closed)) + 1e-15 * mass,
                   xi=xi, tau=tau, t=t, series=total, closed=closed)


def batch_of(verify):
    """A batched identity evaluator, returning (error, tolerance, columns)
    like the library's, made of one `verify` call per row; the columns hold
    each row's result inputs."""
    def batch(*columns, **options):
        results = [verify(*(c[i].tolist() for c in columns), **options)
                   for i in range(len(columns[0]))]
        return (np.array([r.max_error for r in results]),
                np.array([r.tolerance for r in results]),
                {k: [r.inputs[k] for r in results] for k in results[0].inputs})
    return batch
