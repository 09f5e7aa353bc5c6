"""Independent brute-force oracles shared by the test modules.

Everything here deliberately avoids the code paths it is used to check:
extended-precision explicit sums via mpmath, plain dense quadrature, a
cyclic-Jacobi eigensolver, finite differences, and the slower second routes
of the library's problems (per-xi adaptive quadrature of the overlap Gram
matrix, the angular Fourier transform of the kernel, the radial-Nystrom
disk solver). The library never imports this module.
"""

import itertools
import math

import mpmath as mp
import numpy as np

from lle import disk_spectra as ds
from lle.coeffs import CLAMP
from lle.errors import ConsistencyError, DomainError, WindowError
from lle.landau import p_selector
from lle.specfun import (
    adaptive_quad,
    clamp_unit,
    gauss_legendre,
    hermite_fn,
    hermite_poly_normalized,
)

mp.mp.dps = 40


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
# per-xi adaptive quadrature of the truncated-Hermite overlaps: the oracle
# of specfun.build_overlap_table and coeffs.gram_eigen_field
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
        hn = hermite_poly_normalized(n, t)
        hn1 = hermite_poly_normalized(n + 1, t)
        hn2 = hermite_poly_normalized(n + 2, t)
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
# disk sectors: the angular Fourier transform of the kernel and the
# radial-Nystrom discretization, oracles of the sector Gram solver
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
    vals = np.array([p_selector(setup, selector,
                                (r, 0.0), (s * math.cos(p), s * math.sin(p)))
                     for p in phis])
    coef = complex(np.mean(vals * np.exp(-1j * k * phis)))
    if abs(coef.imag) > 1e-9:
        raise ConsistencyError(
            f"sector kernel imaginary residue {coef.imag:.3e} at k={k}, r={r}, s={s}")
    return coef.real


def sector_kernel_closed_form(setup, selector, k: int, r) -> np.ndarray:
    """Factorized sector kernel: rows R_{ell,k}(r_i)/sqrt(2pi) per level,
    from the radial profiles the sector Gram solver integrates."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    rows = ds._level_profiles(np.array(selector.levels()), np.array([k]),
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
