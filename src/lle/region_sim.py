"""General-region 2-D Nystrom solver and the asymptotic-fit engine.

The polar tensor rule (Gauss-Legendre radially, periodic trapezoid in the
angle) respects the boundary layer of width ~1/sqrt(B) where the eigenvalue
transition happens. The Nystrom matrix on it factors through the kernel's
angular-momentum sectors, and the solver diagonalises the small Gram matrix
of that factor. `region_spectrum` takes (setup, selector, region, L,
cutoff=) like every spectral route; its rule is `default_resolution`'s,
refused by the dimension guard before any node is built. Entropy scaling
series come from the disk sector solver (`lle scaling`); this module
validates universality at moderate scales and turns series into boundary
coefficients. The dense kernel matrix on the same rule, the trace moments
tr P^m taken from its angular factor without an eigensolve, and the Monte
Carlo estimate of tr(P - P^2), which also reaches polygons, are test
oracles (tests/oracles.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .disk_spectra import (
    LocalSpectrum,
    _check_request,
    _check_window,
    _edge_x,
    _finish,
    _level_profiles,
    _sector_layout,
)
from .errors import CapabilityError, DomainError, FitError
from .geometry import Region, SmoothStar, boundary_radius
from .landau import LevelSelector, MagneticSetup
from .specfun import gauss_legendre

_DIM_GUARD = 6000
# coarser than the disk solver: 2-D quadrature noise
_CLAMP_ABORT = 1e-4


@dataclass
class AsymptoticFit:
    """Least-squares coefficients in the monomial basis {L^2, L, 1}."""

    c2: float
    c1: float
    c0: float
    residual_norm: float
    window: tuple[float, float]
    model: str
    drift: list[float] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"model": self.model, "c2": self.c2, "c1": self.c1,
                "c0": self.c0, "residual_norm": self.residual_norm,
                "window": list(self.window), "drift": self.drift}


def scaling_fit(scales, values, model: str = "linear") -> AsymptoticFit:
    """Fit c2 L^2 + c1 L + c0 (quadratic) or c1 L + c0 (linear) to values
    aligned with two or more strictly increasing scales (else DomainError).

    Also records successive-difference slope estimates as a drift diagnostic;
    windows with design-matrix condition number above 1e10 are rejected.
    """
    L = np.asarray(scales, dtype=float)
    y = np.asarray(values, dtype=float)
    if L.size < 2 or np.any(np.diff(L) <= 0):
        raise DomainError("need >= 2 strictly increasing scales")
    if L.size != y.size:
        raise DomainError("scales and values must align")
    if model == "linear":
        if L.size < 3:
            raise FitError("linear model needs >= 3 points")
        cols = [L, np.ones_like(L)]
    elif model == "quadratic":
        if L.size < 4:
            raise FitError("quadratic model needs >= 4 points")
        cols = [L * L, L, np.ones_like(L)]
    else:
        raise DomainError(f"unknown fit model {model!r}")
    design = np.vstack(cols).T
    cond = float(np.linalg.cond(design))
    if cond > 1e10:
        raise FitError(f"fit window ill-conditioned (cond = {cond:.2e})")
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = float(np.linalg.norm(design @ coef - y))
    drift = list(np.diff(y) / np.diff(L))
    if model == "linear":
        c2, (c1, c0) = 0.0, coef
    else:
        c2, c1, c0 = coef
    return AsymptoticFit(c2=float(c2), c1=float(c1), c0=float(c0),
                         residual_norm=resid, window=(float(L[0]), float(L[-1])),
                         model=model, drift=drift)


# ---------------------------------------------------------------------------
# polar tensor quadrature and the angular factor of the Nystrom matrix
# ---------------------------------------------------------------------------

def _radial_profile_max(region: Region) -> float:
    """Largest boundary radius: a star's on its 4096-angle grid profile, a
    disk's radius; a polygon has no profile (CapabilityError)."""
    if isinstance(region, SmoothStar):
        return float(np.max(region._grid_profile[0]))
    return boundary_radius(region, 0.0)


def default_resolution(setup: MagneticSetup, region: Region, L: float
                       ) -> tuple[int, int]:
    """(radial, angular) node counts resolving the significant sectors.

    Validated against the closed-form sector solver: at these counts the
    disk eigenvalue multiset matches to ~1e-14, far inside the 1e-4 the
    cross-solver contract asks for.
    """
    r_eff = L * _radial_profile_max(region)
    x = _edge_x(setup.b, r_eff)
    n_theta = 2 * int(math.ceil(0.5 * x + 5.0 * math.sqrt(x + 1.0) + 12.0))
    n_radial = 24 + 5 * int(math.ceil(math.sqrt(setup.b) * r_eff))
    return n_radial, n_theta


def _polar_nodes(region: Region, L: float, n_radial: int, n_theta: int):
    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    rad = L * boundary_radius(region, theta)
    rule = gauss_legendre(n_radial, 0.0, 1.0)
    rr = rule.nodes[:, None] * rad[None, :]            # (n_radial, n_theta)
    x = rr * np.cos(theta)[None, :]
    y = rr * np.sin(theta)[None, :]
    w = (rule.weights * rule.nodes)[:, None] * (rad * rad)[None, :] \
        * (2.0 * math.pi / n_theta)
    pts = np.stack([x.ravel(), y.ravel()], axis=1)
    return pts, w.ravel()


def _angular_factor(setup: MagneticSetup, selector: LevelSelector,
                    region: Region, L: float, resolution: tuple[int, int],
                    cutoff: float) -> np.ndarray:
    """Angular factor A (dim x m) of the Nystrom matrix M = A A^H.

    The kernel sums phi_lk(x) conj phi_lk(y) over levels l and sectors k,
    phi_lk = sqrt(B/2pi) p_a(B r^2/2) e^{-ik theta} with the radial number a
    and weight |k| of `_sector_layout` at the largest node radius;
    A = diag(sqrt w) Phi. WindowError if the top sector's Gram diagonal
    reaches `cutoff`.
    """
    n_radial, n_theta = resolution
    pts, w = _polar_nodes(region, L, n_radial, n_theta)
    r2 = np.sum(pts * pts, axis=1)
    ks, a = _sector_layout(setup.b, math.sqrt(r2.max()), selector)
    present = a >= 0
    # the phase of sector k at angle index j is the n_theta-th root of unity
    # of index k j mod n_theta, the exponential of the same argument as a
    # direct e^{-2 pi i k j / n_theta}
    roots = np.exp(-2j * math.pi / n_theta * np.arange(n_theta))
    turns = (ks[present.nonzero()[0], None] * np.arange(n_theta)) % n_theta
    scale = np.sqrt(w * setup.b / (2.0 * math.pi)).reshape(n_radial, n_theta)
    # the profiles first: the complex rows are not yet held while they build
    profiles = _level_profiles(ks, a, 0.5 * setup.b * r2[None, :])[present]
    rows = (roots[turns][:, None, :] * scale).reshape(profiles.shape)
    rows *= profiles
    top = np.sum(np.abs(rows[-a.shape[1]:]) ** 2, axis=1)
    _check_window(ks, float(top.max()), cutoff)
    return rows.T


def _guard_dim(n_radial: int, n_theta: int) -> int:
    dim = n_radial * n_theta
    if dim > _DIM_GUARD:
        raise CapabilityError(
            f"Nystrom dimension {dim} exceeds the guard {_DIM_GUARD}")
    return dim


def region_spectrum(setup: MagneticSetup, selector: LevelSelector,
                    region: Region, L: float,
                    cutoff: float = 1e-12) -> LocalSpectrum:
    """Eigenvalues of the localized projection by 2-D Nystrom discretization.

    The Nystrom matrix on the polar rule (dim = n_radial * n_theta, under a
    guard) is A A^H: eigvalsh of the m x m Gram A^H A gives its nonzero
    eigenvalues, the other dim - m count as dropped zeros. Clamped to [0, 1]
    within 1e-4 (quadrature noise), beyond which it aborts; cutoff in (0, inf).
    The rule follows `geometry.boundary_radius`, so a polygon raises
    CapabilityError.
    """
    _check_request(L, cutoff)
    n_radial, n_theta = default_resolution(setup, region, L)
    dim = _guard_dim(n_radial, n_theta)
    a = _angular_factor(setup, selector, region, L, (n_radial, n_theta), cutoff)
    return _finish(np.linalg.eigvalsh(a.conj().T @ a), dim, _CLAMP_ABORT,
                   "region_spectrum", f"nystrom2d/{n_radial}x{n_theta}", setup,
                   selector, region, L, cutoff)
