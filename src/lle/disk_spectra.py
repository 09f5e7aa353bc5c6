"""Spectra of Landau projections localized to centered disks.

Rotation invariance of the kernel splits the localized projection into
angular-momentum sectors. Within the sector of angular mode k the projection
onto levels <= n is a rank-<=(n+1) operator with explicit radial factors, so
its disk-truncated spectrum is the spectrum of a small radial Gram matrix.
Its entries need no quadrature: the incomplete-gamma ladder gives the
diagonal and Laguerre Wronskians the rest, from the radial profiles at the
disk edge alone. That Gram route is the solver, at every level: on the
lowest level each sector's Gram matrix is the single entry P(k+1, B R^2/2).
The windowed Gauss-Legendre quadrature of the same entries, the angular
Fourier transform of the kernel, the radial-Nystrom discretization of each
sector and the lowest-level incomplete-gamma eigenvalues are independent
test oracles (tests/oracles.py), as is the 2-D Nystrom solver of
`region_sim`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaln

from .errors import DomainError, WindowError
from .landau import LevelSelector, MagneticSetup
from .specfun import clamp_unit, laguerre_sweep

# eigenvalues may stray outside [0,1] by at most this much before we suspect
# an assembly bug rather than roundoff
_CLAMP = 1e-9


@dataclass
class LocalSpectrum:
    """Eigenvalues (above a retention cutoff) of a localized projection."""

    eigenvalues: np.ndarray
    b: float
    selector: LevelSelector
    region: dict
    scale: float
    solver: str
    cutoff: float
    dropped_count: int = 0

    def trace(self) -> float:
        return float(np.sum(self.eigenvalues))

    def to_json(self) -> dict:
        return {
            "B": self.b,
            "selector": self.selector.to_json(),
            "L": self.scale,
            "region": self.region,
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "cutoff": self.cutoff,
            "solver": self.solver,
            "dropped_count": self.dropped_count,
        }


def sector_window(b: float, r_total: float, n: int) -> int:
    """Angular-momentum cutoff: occupations collapse Gaussianly beyond it."""
    x = b * r_total * r_total / 2.0
    return int(math.ceil(x + 12.0 * math.sqrt(x + 1.0) + n + 20))


def radial_profiles(a_max: int, kappa, x) -> np.ndarray:
    """Radial factors of the Landau eigenfunctions in x = B r^2/2 coordinates.

    p_a(x) = sqrt(a!/(a+kappa)!) x^{kappa/2} e^{-x/2} L_a^{(kappa)}(x) for the
    radial quantum numbers a = 0..a_max, stacked along a new leading axis
    and all taken from one recurrence sweep; the angular weight kappa = |k|
    broadcasts against x. Each p_a^2 integrates to 1 over x in [0, inf), so
    sqrt(B) p_a(B r^2/2) is normalized against r dr. The magnitude factors
    are assembled in log space so large kappa stays finite.
    """
    kappa = np.asarray(kappa, dtype=float)
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_env = np.where(kappa > 0.0, 0.5 * kappa * np.log(x), 0.0) - 0.5 * x
    a = np.arange(a_max + 1).reshape((-1,) + (1,) * log_env.ndim)
    log_norm = 0.5 * (gammaln(a + 1.0) - gammaln(a + kappa + 1.0))
    lag = np.stack(list(laguerre_sweep(a_max, kappa, x)))
    return lag * np.exp(log_env + log_norm)


def _level_profiles(levels: np.ndarray, ks: np.ndarray,
                    x: np.ndarray) -> np.ndarray:
    """Radial profiles of each level in each sector, shape (ks, levels, nodes).

    Level ell enters sector k with radial quantum number min(ell, ell + k)
    and angular weight |k|; `x` holds one row of nodes per sector. Levels
    with ell + k < 0 are absent from the sector and get zero rows.
    """
    a = np.minimum(levels[None, :], levels[None, :] + ks[:, None])
    prof = radial_profiles(int(levels[-1]), np.abs(ks)[:, None], x)
    rows = prof[np.maximum(a, 0), np.arange(ks.size)[:, None]]
    rows[a < 0] = 0.0
    return rows


def _sector_grams(selector: LevelSelector, ks: np.ndarray,
                  x_cut: float) -> np.ndarray:
    """Truncated-disk radial Gram matrices of sectors ks, shape (ks, m, m).

    Entry (i, j) integrates p_a p_b over x in [0, X], X = x_cut, for the
    radial quantum numbers a, b of levels l_i, l_j in the sector (weight
    kappa = |k| for both), from profile values at X alone. Off the diagonal
    the Laguerre Wronskian gives -p_a p_b + [sqrt(a(a+kappa)) p_{a-1} p_b -
    sqrt(b(b+kappa)) p_a p_{b-1}] / (a - b); on it the Landau-raising ladder
    gives P(N+1, X) + sum_{j=1..a} sqrt(X/j) p_j^{N-j} p_{j-1}^{N-j+1} with
    N = a + kappa and P the regularized lower incomplete gamma. A level
    absent from a sector keeps a decoupled diagonal entry of -1, which
    eigvalsh sorts below every true eigenvalue.
    """
    levels = np.array(selector.levels())
    n_top = int(levels[-1])
    kappa = np.abs(ks)[:, None]
    a = np.minimum(levels[None, :], levels[None, :] + ks[:, None])
    present = a >= 0
    a = np.maximum(a, 0)
    n_max = int(kappa.max()) + n_top
    prof = radial_profiles(n_top, np.arange(n_max + 1), x_cut)
    # ladder[j, N] = sqrt(X/j) p_j^{N-j} p_{j-1}^{N-j+1}, zero for N < j
    ladder = np.zeros(prof.shape)
    for j in range(1, n_top + 1):
        ladder[j, j:] = (math.sqrt(x_cut / j) * prof[j, :n_max + 1 - j]
                         * prof[j - 1, 1:n_max + 2 - j])
    diag = gammainc(np.arange(1.0, n_max + 2.0), x_cut) \
        + np.cumsum(ladder, axis=0)
    p = prof[a, kappa] * present
    u = np.sqrt(a * (a + kappa)) * prof[np.maximum(a - 1, 0), kappa] * present
    gap = levels[:, None] - levels[None, :] + np.eye(levels.size, dtype=int)
    grams = (u[:, :, None] * p[:, None, :] - p[:, :, None] * u[:, None, :]) \
        / gap - p[:, :, None] * p[:, None, :]
    on = np.arange(levels.size)
    grams[:, on, on] = np.where(present, diag[a, a + kappa], -1.0)
    return grams


def disk_spectrum(setup: MagneticSetup, selector: LevelSelector,
                  r_total: float, cutoff: float = 1e-12) -> LocalSpectrum:
    """Full eigenvalue multiset of the projection localized to a disk.

    Each angular sector is solved through its radial Gram matrix (all
    sectors |k| <= the window at once). Eigenvalues below `cutoff` are
    dropped (counted); the window must exhaust the boundary sectors, else
    WindowError. The cutoff must be finite and positive: the window test
    compares the boundary sector with it.
    """
    if not 0.0 < r_total < math.inf:
        raise DomainError(f"disk radius must be finite and positive, got {r_total}")
    if not 0.0 < cutoff < math.inf:
        raise DomainError(f"retention cutoff must be finite and positive, got {cutoff}")
    n_top = max(selector.levels())
    kmax = sector_window(setup.b, r_total, n_top)
    x_cut = 0.5 * setup.b * r_total * r_total
    ks = np.arange(-n_top, kmax + 1)
    vals = np.linalg.eigvalsh(_sector_grams(selector, ks, x_cut))
    # the decoupled -1 entries of absent levels sort first
    absent = np.count_nonzero(np.array(selector.levels()) + ks[:, None] < 0,
                              axis=1)
    present = np.arange(selector.count)[None, :] >= absent[:, None]
    vals = clamp_unit(np.where(present, vals, 0.0), _CLAMP, "disk_spectrum")
    keep = present & (vals >= cutoff)
    dropped = int(np.count_nonzero(present) - np.count_nonzero(keep))
    boundary_top = float(vals[-1].max(initial=0.0))
    if boundary_top >= cutoff:
        raise WindowError(
            f"sector window |k| <= {kmax} exhausted while the boundary sector "
            f"still holds {boundary_top:.3e} >= cutoff {cutoff:.1e}")
    return LocalSpectrum(eigenvalues=np.sort(vals[keep])[::-1], b=setup.b,
                         selector=selector, region={"type": "disk", "R": 1.0},
                         scale=r_total, solver="disk-sector/gram",
                         cutoff=cutoff, dropped_count=dropped)


def entropy_from_spectrum(spectrum: LocalSpectrum, f) -> float:
    """Sum of f over the retained eigenvalues (the local entropy for h_alpha).

    The eigenvalues below the spectrum's retention cutoff enter only as
    `dropped_count`, so where |f| grows away from f(0) = 0 the sum misses at
    most dropped_count * |f(cutoff)|.
    """
    return float(np.sum(np.asarray(f(spectrum.eigenvalues), dtype=float)))


def schatten_cross_norm(spectrum: LocalSpectrum, p: float) -> float:
    """p-th Schatten power of the inside/outside cross operator.

    Its singular values are sqrt(mu(1-mu)) over the localized spectrum, so
    the norm power is sum (mu(1-mu))^{p/2}.
    """
    if not p > 0.0:
        raise DomainError(f"Schatten exponent must be positive, got {p}")
    mu = spectrum.eigenvalues
    return float(np.sum((mu * (1.0 - mu)) ** (0.5 * p)))
