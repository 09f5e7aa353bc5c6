"""Spectra of Landau projections localized to centered disks.

Rotation invariance of the kernel splits the localized projection into
angular-momentum sectors. Within the sector of angular mode k the projection
onto levels <= n is a rank-<=(n+1) operator with explicit radial factors, so
its disk-truncated spectrum is the spectrum of a small radial Gram matrix.
Its entries need no quadrature: the incomplete-gamma ladder gives the
diagonal and Laguerre Wronskians the rest, from the radial profiles at the
disk edge alone. That Gram route is the solver, at every level: on the
lowest level each sector's Gram matrix is the single entry P(k+1, B R^2/2).
One Poisson-weight ladder (`specfun.poisson_ladder`, numpy and the standard
library, so the solver loads no scipy) gives both the incomplete gamma and
the seeds of the normalized Laguerre recurrence for the edge profiles, so
no log-space norm cancels at large angular momentum; only sectors whose
weight lies below the normal doubles take a log-factorial seed. Most
sectors are diagonal to below half an ulp of 1 and take their diagonal as
their spectrum; eigvalsh sees only the coupled ones, and single-level
selectors never call it. `_radial_profiles` is the one evaluator of the
radial profiles: the same recurrence gives the nodal profiles of the 2-D
Nystrom route (`_level_profiles`), there seeded from Poisson weights formed
in log space. The unnormalized Laguerre sweep times a log-factorial norm,
the windowed Gauss-Legendre quadrature of the same entries, the angular
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
from .geometry import Disk, Region, region_to_json
from .landau import LevelSelector, MagneticSetup
from .specfun import clamp_unit, log_factorial, poisson_ladder

# eigenvalues may stray outside [0,1] by at most this much before we suspect
# an assembly bug rather than roundoff
_CLAMP = 1e-9
# a sector whose off-diagonal Frobenius norm is at most this much (half an
# ulp of 1) takes its diagonal as its eigenvalues, without eigvalsh
_DEFLATE = 2.0 ** -54
# Poisson weights below this (2^-960, about 1e-289) seed their profiles from
# log space, and such profiles are scaled down by 2^_RESCALE whenever they
# outgrow it
_WEIGHT_FLOOR = 2.0 ** -960
_RESCALE = 512
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


def _sector_layout(b: float, r_total: float, selector: LevelSelector) -> tuple:
    """Angular sectors k = -n_top..sector_window of radius r_total, and the
    radial quantum number a = min(l, l + k) of each of the selector's levels
    in each, shape (ks, levels); a < 0 marks a level absent from the sector."""
    n_top = selector.index
    per_sector = selector.count * (n_top + 1) + 6
    # there are more than n_top and more than x sectors: both floors are
    # checked before sector_window forms n x, the first in integers
    if (n_top + 1) * per_sector > _LAYOUT_BUDGET \
            or _edge_x(b, r_total) * per_sector > _LAYOUT_BUDGET:
        raise CapabilityError(f"the sectors for levels up to {n_top} at "
                              f"radius {r_total:g} exceed the layout budget "
                              f"{_LAYOUT_BUDGET}")
    count = sector_window(b, r_total, n_top) + n_top + 1
    size = count * per_sector
    if size > _LAYOUT_BUDGET:
        raise CapabilityError(f"{count} sectors for levels up to {n_top} exceed "
                              f"the layout budget ({size} > {_LAYOUT_BUDGET})")
    levels = np.asarray(selector.levels())
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
    holds one row of nodes per sector, or one row for all. Absent levels
    (a < 0) get zero rows. The Poisson weights x^kappa e^{-x}/kappa! that
    seed `_radial_profiles` come from log space, and an entry where they
    underflow takes its log seed."""
    kappa = np.abs(ks)[:, None].astype(float)
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_w = np.where(kappa > 0.0, kappa * np.log(x), 0.0) - x \
            - log_factorial(kappa)
    prof = _radial_profiles(max(int(a.max()), 0), kappa, x, np.exp(log_w))
    rows = prof[np.maximum(a, 0), np.arange(ks.size)[:, None]]
    rows[a < 0] = 0.0
    return rows


def _radial_profiles(a_top: int, kappa, x, weight) -> np.ndarray:
    """Radial factors of the Landau eigenfunctions in x = B r^2/2 coordinates.

    p_a(x) = sqrt(a!/(a+kappa)!) x^{kappa/2} e^{-x/2} L_a^{(kappa)}(x) for the
    radial quantum numbers a = 0..a_top, stacked along a new leading axis;
    the angular weight kappa, the points x and the Poisson weights
    w = x^kappa e^{-x}/kappa! broadcast against each other. Each p_a^2
    integrates to 1 over x in [0, inf), so sqrt(B) p_a(B r^2/2) is
    normalized against r dr.

    The normalized Laguerre recurrence sqrt((a+1)(a+1+kappa)) p_{a+1} =
    (2a+1+kappa-x) p_a - sqrt(a(a+kappa)) p_{a-1} runs on the profiles
    themselves from p_0 = sqrt(w), so it forms nothing larger than the
    profiles, which are at most 1. An entry whose weight lies below
    _WEIGHT_FLOOR, where weights reach the subnormals, starts instead from
    sqrt(w) as a mantissa times a power of two, the power from
    log w = kappa log x - x - log kappa!; its profiles carry that power,
    raised whenever they outgrow 2^_RESCALE, until the end.
    """
    kappa = np.asarray(kappa, dtype=float)
    x = np.asarray(x, dtype=float)
    shape = np.broadcast(kappa, x, weight).shape
    prof = np.empty((a_top + 1,) + shape)
    np.sqrt(weight, out=prof[0])
    power = None
    # row 0 alone needs no log seeds: below the floor it is under 2^-480
    low = (weight < _WEIGHT_FLOOR) & (x > 0.0) if a_top else None
    if low is not None and low.any():
        low = np.broadcast_to(low, shape)
        # masking a stride-0 view costs several times a real array: operands
        # of the full shape are masked as they are, and a scalar x stays one
        k_low, x_low = (v if v.ndim == 0 else v[low] if v.shape == shape
                        else np.broadcast_to(v, shape)[low] for v in (kappa, x))
        half_log2 = (0.5 / math.log(2.0)) * (k_low * np.log(x_low) - x_low
                                             - log_factorial(k_low))
        power = np.zeros(shape, dtype=np.intc)
        power[low] = np.floor(half_log2)
        prof[0][low] = np.exp2(half_log2 - power[low])
    # a step multiplies the largest profile so far by at most
    # 3 (kappa_max + x + 1), and the seeds are below 2: without overflow in
    # sight the steps skip the rescaling test
    rescale = power is not None and \
        a_top * math.log2(3.0 * (kappa.max() + 1.0 + x.max())) > 1000.0
    # lower = sqrt(a (a+kappa)) p_{a-1}, in the units of p_a
    lower = np.zeros(shape)
    for a in range(a_top):
        up = np.sqrt((a + 1.0) * (a + 1.0 + kappa))
        nxt = ((2.0 * a + 1.0) + kappa - x) * prof[a] - lower
        lower = up * prof[a]
        np.divide(nxt, up, out=prof[a + 1])
        if rescale:
            big = np.abs(prof[a + 1]) > 2.0 ** _RESCALE
            if big.any():
                prof[:a + 2, big] *= 2.0 ** -_RESCALE
                lower[big] *= 2.0 ** -_RESCALE
                power[big] += _RESCALE
    return prof if power is None else np.ldexp(prof, power)


def _sector_grams(ks: np.ndarray, a: np.ndarray, x_cut: float) -> np.ndarray:
    """Truncated-disk radial Gram matrices of sectors ks, shape (ks, m, m).

    Entry (i, j) integrates p_a p_b over x in [0, X], X = x_cut, for the
    radial quantum numbers a, b (rows of `_sector_layout`) of levels i, j in
    the sector (weight kappa = |k| for both), from profile values at X
    alone. Off the diagonal the Laguerre Wronskian gives -p_a p_b +
    [sqrt(a(a+kappa)) p_{a-1} p_b - sqrt(b(b+kappa)) p_a p_{b-1}] / (a - b),
    assembled row by row as blocks over the sectors; on it the
    Landau-raising ladder gives P(N+1, X) + sum_{j=1..a} sqrt(X/j)
    p_j^{N-j} p_{j-1}^{N-j+1} with N = a + kappa and P the regularized lower
    incomplete gamma. A level absent from a sector keeps a decoupled
    diagonal entry of -1, below every true eigenvalue. One call of
    `specfun.poisson_ladder` gives P(N+1, X) and the Poisson weights
    w_kappa = X^kappa e^{-X}/kappa! for N, kappa = 0..max |k| + max a, and
    `_radial_profiles` the profiles at the edge from the weights: no term of
    size X log X is formed wherever a weight is a normal double, so nothing
    cancels at kappa near X. The stack is a view of an entry-major array,
    each entry one contiguous vector over the sectors.
    """
    kappa = np.abs(ks)
    present = a.T >= 0
    # a - l is one constant per sector, so any row of a gives the level gaps
    gap = a[0][:, None] - a[0][None, :]
    a = np.maximum(a.T, 0)
    a_top = int(a.max())
    n_max = int(kappa.max()) + a_top
    weight, p_low = poisson_ladder(n_max, x_cut)
    order = np.arange(n_max + 1.0)
    prof = _radial_profiles(a_top, order, x_cut, weight)
    # lowered[a] = sqrt(a (a+kappa)) p_{a-1}^kappa, and diag[a, N] =
    # P(N+1, X) + sum_{j=1..a} sqrt(X/j) p_j^{N-j} p_{j-1}^{N-j+1}
    lowered = np.zeros_like(prof)
    diag = np.empty_like(prof)
    diag[0] = p_low
    rung = np.zeros(n_max + 1)
    for j in range(1, a_top + 1):
        np.multiply(np.sqrt(j * (order + j)), prof[j - 1], out=lowered[j])
        rung[j:] += (math.sqrt(x_cut / j) * prof[j, :n_max + 1 - j]
                     * prof[j - 1, 1:n_max + 2 - j])
        np.add(p_low, rung, out=diag[j])
    # flat index of (a, kappa) for each level (row) in each sector (column)
    at = a * (n_max + 1) + kappa
    p = prof.take(at) * present
    u = lowered.take(at) * present
    m = a.shape[0]
    grams = np.empty((m, m, kappa.size))
    for i in range(m):
        grams[i, i] = np.where(present[i], diag.take(at[i] + a[i]), -1.0)
        # row i left of the diagonal, one block over the sectors
        grams[i, :i] = grams[:i, i] = \
            (u[i] * p[:i] - p[i] * u[:i]) / gap[i, :i, None] - p[i] * p[:i]
    return grams.transpose(2, 0, 1)


def _sector_eigenvalues(grams: np.ndarray) -> np.ndarray:
    """Eigenvalues of each sector's Gram matrix, shape (ks, m), a row in no
    set order except that a sector's absent levels, its first columns, keep
    their -1 first.

    Only the coupled sectors, whose off-diagonal Frobenius norm exceeds
    _DEFLATE, go to eigvalsh, which sorts. Every other sector keeps its
    diagonal in level order: by Weyl's inequality that is its spectrum to
    within the norm, closer than eigvalsh would give. Single-level sectors
    have no off-diagonal and return their diagonal without the test.
    """
    vals = np.diagonal(grams, axis1=1, axis2=2).copy()
    if grams.shape[1] == 1:
        return vals
    low = np.tril_indices(grams.shape[1], -1)
    off = grams[:, low[0], low[1]]
    coupled = 2.0 * np.einsum("kp,kp->k", off, off) > _DEFLATE * _DEFLATE
    if coupled.any():
        vals[coupled] = np.linalg.eigvalsh(grams[coupled])
    return vals


def _check_request(L: float, cutoff: float):
    """DomainError unless L and the retention cutoff are finite and positive."""
    if not 0.0 < L < math.inf:
        raise DomainError(f"scale L must be finite and positive, got {L}")
    if not 0.0 < cutoff < math.inf:
        raise DomainError(f"retention cutoff must be finite and positive, got {cutoff}")


def _finish(vals: np.ndarray, total: int, slack: float, where: str, solver: str,
            setup, selector, region, L: float, cutoff: float) -> LocalSpectrum:
    """Clamp `vals`, keep the ones >= cutoff descending, drop the rest of `total`."""
    vals = clamp_unit(vals, slack, where)
    keep = np.sort(vals[vals >= cutoff])[::-1]
    return LocalSpectrum(eigenvalues=keep, b=setup.b, selector=selector,
                         region=region_to_json(region), scale=L, solver=solver,
                         cutoff=cutoff, dropped_count=total - keep.size)


def disk_spectrum(setup: MagneticSetup, selector: LevelSelector, region: Region,
                  L: float, cutoff: float = 1e-12) -> LocalSpectrum:
    """Full eigenvalue multiset of the projection localized to L * region, a
    centred disk (DomainError for any other region).

    Each angular sector of the disk of radius L R is solved through its
    radial Gram matrix (all sectors |k| <= the window at once). Eigenvalues
    below `cutoff` are dropped (counted); the window must exhaust the
    boundary sectors, else WindowError.
    """
    if not isinstance(region, Disk):
        raise DomainError("the disk sector solver needs a disk region")
    _check_request(L, cutoff)
    r_total = L * region.radius
    x_cut = _edge_x(setup.b, r_total)
    ks, a = _sector_layout(setup.b, r_total, selector)
    vals = _sector_eigenvalues(_sector_grams(ks, a, x_cut))
    # absent levels come first in every row, where the mask drops them
    present = a >= 0
    spec = _finish(vals[present], int(np.count_nonzero(present)), _CLAMP,
                   "disk_spectrum", "disk-sector/gram", setup, selector, region,
                   L, cutoff)
    # the window test reads the clamped top sector, once the clamp has passed
    _check_window(ks, float(np.clip(vals[-1], 0.0, 1.0).max()), cutoff)
    return spec


def entropy_from_spectrum(spectrum: LocalSpectrum, f) -> float:
    """Sum of f over the retained eigenvalues (the local entropy for h_alpha).

    The eigenvalues below the spectrum's retention cutoff enter only as
    `dropped_count`, so where |f| grows away from f(0) = 0 the sum misses at
    most dropped_count * |f(cutoff)|.
    """
    return float(np.sum(np.asarray(f(spectrum.eigenvalues), dtype=float)))
