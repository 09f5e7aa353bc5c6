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

from .errors import CapabilityError, DomainError, WindowError
from .landau import LevelSelector, MagneticSetup
from .specfun import clamp_unit, laguerre_sweep

# eigenvalues may stray outside [0,1] by at most this much before we suspect
# an assembly bug rather than roundoff
_CLAMP = 1e-9
# cap on sectors x (levels x (top level + 1) + 6), which measures a disk
# spectrum's peak memory (Grams, profile ladder, per-sector vectors) in units
# of about 16 bytes: the cap keeps it near 0.5 GiB
_LAYOUT_BUDGET = 1 << 25


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


def _edge_x(b: float, r: float) -> float:
    """x = B r^2/2 at radius r; DomainError if it overflows."""
    x = 0.5 * b * r * r
    if not math.isfinite(x):
        raise DomainError(f"B r^2/2 overflows at B = {b:g}, r = {r:g}")
    return x


def sector_window(b: float, r_total: float, n: int) -> int:
    """Angular-momentum cutoff at the edge x = B r_total^2/2: level n spreads
    inward in sector k to its turning point near k - 2 sqrt(n k), so it
    reaches sectors up to about x + 2 sqrt(n x), past which its occupations
    collapse Gaussianly."""
    x = _edge_x(b, r_total)
    return int(math.ceil(x + 12.0 * math.sqrt(x + 1.0) + n + 20
                         + 2.0 * math.sqrt(n * x)))


def radial_profiles(a_max: int, kappa, x) -> np.ndarray:
    """Radial factors of the Landau eigenfunctions in x = B r^2/2 coordinates.

    p_a(x) = sqrt(a!/(a+kappa)!) x^{kappa/2} e^{-x/2} L_a^{(kappa)}(x) for the
    radial quantum numbers a = 0..a_max, stacked along a new leading axis
    and all taken from one recurrence sweep; the angular weight kappa = |k|
    broadcasts against x. Each p_a^2 integrates to 1 over x in [0, inf), so
    sqrt(B) p_a(B r^2/2) is normalized against r dr. The magnitude factors
    are assembled in log space so large kappa stays finite.
    """
    from scipy.special import gammaln
    kappa = np.asarray(kappa, dtype=float)
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_env = np.where(kappa > 0.0, 0.5 * kappa * np.log(x), 0.0) - 0.5 * x
    a = np.arange(a_max + 1).reshape((-1,) + (1,) * log_env.ndim)
    log_norm = 0.5 * (gammaln(a + 1.0) - gammaln(a + kappa + 1.0))
    lag = np.stack(list(laguerre_sweep(a_max, kappa, x)))
    return lag * np.exp(log_env + log_norm)


def _sector_layout(b: float, r_total: float, levels) -> tuple:
    """Angular sectors k = -n_top..sector_window of radius r_total, and the
    radial quantum number a = min(l, l + k) of each level in each, shape
    (ks, levels); a < 0 marks a level absent from the sector."""
    levels = np.asarray(levels)
    n_top = int(levels[-1])
    count = sector_window(b, r_total, n_top) + n_top + 1
    size = count * (levels.size * (n_top + 1) + 6)
    if size > _LAYOUT_BUDGET:
        raise CapabilityError(f"{count} sectors for levels up to {n_top} exceed "
                              f"the layout budget ({size} > {_LAYOUT_BUDGET})")
    ks = np.arange(count) - n_top
    return ks, np.minimum(levels[None, :], levels[None, :] + ks[:, None])


def _check_window(ks: np.ndarray, top: float, cutoff: float):
    """WindowError if the top sector ks[-1] still holds `top` >= cutoff."""
    if top >= cutoff:
        raise WindowError(f"sector window |k| <= {ks[-1]} exhausted: the top "
                          f"sector holds {top:.3e} >= cutoff {cutoff:.1e}")


def _level_profiles(ks: np.ndarray, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Radial profiles of each level in each sector, shape (ks, levels, nodes),
    at the radial numbers a of `_sector_layout` and angular weight |k|; `x`
    holds one row of nodes per sector. Absent levels (a < 0) get zero rows."""
    prof = radial_profiles(max(int(a.max()), 0), np.abs(ks)[:, None], x)
    rows = prof[np.maximum(a, 0), np.arange(ks.size)[:, None]]
    rows[a < 0] = 0.0
    return rows


def _sector_grams(ks: np.ndarray, a: np.ndarray, x_cut: float) -> np.ndarray:
    """Truncated-disk radial Gram matrices of sectors ks, shape (ks, m, m).

    Entry (i, j) integrates p_a p_b over x in [0, X], X = x_cut, for the
    radial quantum numbers a, b (rows of `_sector_layout`) of levels i, j in
    the sector (weight kappa = |k| for both), from profile values at X
    alone. Off the diagonal the Laguerre Wronskian gives -p_a p_b +
    [sqrt(a(a+kappa)) p_{a-1} p_b - sqrt(b(b+kappa)) p_a p_{b-1}] / (a - b);
    on it the Landau-raising ladder gives P(N+1, X) + sum_{j=1..a} sqrt(X/j)
    p_j^{N-j} p_{j-1}^{N-j+1} with N = a + kappa and P the regularized lower
    incomplete gamma. A level absent from a sector keeps a decoupled
    diagonal entry of -1, which eigvalsh sorts below every true eigenvalue.
    """
    from scipy.special import gammainc
    kappa = np.abs(ks)[:, None]
    present = a >= 0
    # a - l is one constant per sector, so any row of a gives the level gaps
    gap = a[0][:, None] - a[0][None, :] + np.eye(a.shape[1], dtype=int)
    a = np.maximum(a, 0)
    a_top = int(a.max())
    n_max = int(kappa.max()) + a_top
    prof = radial_profiles(a_top, np.arange(n_max + 1), x_cut)
    # ladder[j, N] = sqrt(X/j) p_j^{N-j} p_{j-1}^{N-j+1}, zero for N < j
    ladder = np.zeros(prof.shape)
    for j in range(1, a_top + 1):
        ladder[j, j:] = (math.sqrt(x_cut / j) * prof[j, :n_max + 1 - j]
                         * prof[j - 1, 1:n_max + 2 - j])
    diag = gammainc(np.arange(1.0, n_max + 2.0), x_cut) \
        + np.cumsum(ladder, axis=0)
    p = prof[a, kappa] * present
    u = np.sqrt(a * (a + kappa)) * prof[np.maximum(a - 1, 0), kappa] * present
    grams = (u[:, :, None] * p[:, None, :] - p[:, :, None] * u[:, None, :]) \
        / gap - p[:, :, None] * p[:, None, :]
    on = np.arange(a.shape[1])
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
    x_cut = _edge_x(setup.b, r_total)
    ks, a = _sector_layout(setup.b, r_total, selector.levels())
    vals = np.linalg.eigvalsh(_sector_grams(ks, a, x_cut))
    # absent levels are a sector's lowest, and their decoupled -1 entries
    # sort first
    present = a >= 0
    vals = clamp_unit(np.where(present, vals, 0.0), _CLAMP, "disk_spectrum")
    keep = present & (vals >= cutoff)
    dropped = int(np.count_nonzero(present) - np.count_nonzero(keep))
    _check_window(ks, float(vals[-1].max(initial=0.0)), cutoff)
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
