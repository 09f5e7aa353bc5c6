"""General-region 2-D Nystrom solver and the asymptotic-fit engine.

The polar tensor rule (Gauss-Legendre radially, periodic trapezoid in the
angle) respects the boundary layer of width ~1/sqrt(B) where the eigenvalue
transition happens. The Nystrom matrix on it factors through the kernel's
angular-momentum sectors, and the solver diagonalises the small Gram matrix
of that factor. Entropy scaling series come from the disk sector solver
(`lle scaling`); this module validates universality at moderate scales and
turns series into boundary coefficients. The dense kernel matrix on the same
rule and the Monte Carlo estimate of tr(P - P^2), which also reaches
polygons, are test oracles (tests/oracles.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .disk_spectra import (
    _LAYOUT_BUDGET,
    LocalSpectrum,
    _check_window,
    _edge_x,
    _level_profiles,
    _sector_layout,
)
from .errors import CapabilityError, DomainError, FitError
from .geometry import Disk, Polygon, Region, SmoothStar, region_to_json
from .landau import LevelSelector, MagneticSetup
from .specfun import clamp_unit, gauss_legendre

_DIM_GUARD = 6000
# coarser than the disk solver: 2-D quadrature noise
_CLAMP_ABORT = 1e-4


@dataclass
class ScalingSeries:
    """Entropy/trace values against the scaling parameter L."""

    scales: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.scales = np.asarray(self.scales, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.scales.size < 2 or np.any(np.diff(self.scales) <= 0):
            raise DomainError("need >= 2 strictly increasing scales")
        if self.scales.size != self.values.size:
            raise DomainError("scales and values must align")

    def to_csv(self) -> str:
        lines = ["L,value"]
        lines += [f"{L:.12g},{v:.16g}" for L, v in zip(self.scales, self.values)]
        return "\n".join(lines) + "\n"


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


def scaling_fit(series: ScalingSeries, model: str = "linear") -> AsymptoticFit:
    """Fit c2 L^2 + c1 L + c0 (quadratic) or c1 L + c0 (linear) to the series.

    Also records successive-difference slope estimates as a drift diagnostic;
    windows with design-matrix condition number above 1e10 are rejected.
    """
    L = series.scales
    y = series.values
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
    if isinstance(region, Disk):
        return region.radius
    if isinstance(region, SmoothStar):
        th = np.linspace(0, 2 * math.pi, 4096, endpoint=False)
        return float(np.max(region.radius(th)))
    raise CapabilityError("the Nystrom path needs a smooth star-shaped region")


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
    # leggauss builds an (n_radial, n_radial) companion matrix, the rule
    # itself n_radial * n_theta nodes: both must fit before either is built
    size = max(n_radial * n_radial, n_radial * n_theta)
    if size > _LAYOUT_BUDGET:
        raise CapabilityError(f"polar rule {n_radial}x{n_theta} exceeds the "
                              f"layout budget ({size} > {_LAYOUT_BUDGET})")
    rule = gauss_legendre(n_radial, 0.0, 1.0)
    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    if isinstance(region, Disk):
        rad = np.full(n_theta, L * region.radius)
    else:
        rad = L * region.radius(theta)
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
    n_theta = resolution[1]
    pts, w = _polar_nodes(region, L, *resolution)
    r2 = np.sum(pts * pts, axis=1)
    ks, a = _sector_layout(setup.b, math.sqrt(r2.max()), selector.levels())
    # k times the node's angle index, reduced first so the phase stays exact
    turns = (ks[:, None] * (np.arange(r2.size) % n_theta)) % n_theta
    phase = np.exp(-2j * math.pi / n_theta * turns) \
        * np.sqrt(w * setup.b / (2.0 * math.pi))
    present = a >= 0
    rows = _level_profiles(ks, a, 0.5 * setup.b * r2[None, :])[present]
    rows = phase[present.nonzero()[0]] * rows
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
                    resolution: tuple[int, int] | None = None,
                    cutoff: float = 1e-12) -> LocalSpectrum:
    """Eigenvalues of the localized projection by 2-D Nystrom discretization.

    The Nystrom matrix on the polar rule (dim = n_radial * n_theta, under a
    guard) is A A^H: eigvalsh of the m x m Gram A^H A gives its nonzero
    eigenvalues, the other dim - m count as dropped zeros. Clamped to [0, 1]
    within 1e-4 (quadrature noise), beyond which it aborts; cutoff in (0, inf).
    """
    if not 0.0 < L < math.inf:
        raise DomainError(f"scale L must be finite and positive, got {L}")
    if not 0.0 < cutoff < math.inf:
        raise DomainError(f"retention cutoff must be finite and positive, got {cutoff}")
    if isinstance(region, Polygon):
        raise CapabilityError("polygons are outside the Nystrom path")
    n_radial, n_theta = resolution or default_resolution(setup, region, L)
    dim = _guard_dim(n_radial, n_theta)
    a = _angular_factor(setup, selector, region, L, (n_radial, n_theta), cutoff)
    vals = clamp_unit(np.linalg.eigvalsh(a.conj().T @ a)[::-1], _CLAMP_ABORT,
                      "region_spectrum")
    keep = vals[vals >= cutoff]
    return LocalSpectrum(eigenvalues=keep, b=setup.b, selector=selector,
                         region=region_to_json(region), scale=L,
                         solver=f"nystrom2d/{n_radial}x{n_theta}",
                         cutoff=cutoff, dropped_count=dim - keep.size)


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
    res = resolution or default_resolution(setup, region, L)
    if m == 1:
        w = _polar_nodes(region, L, *res)[1]
        return float(np.sum(w) * (setup.b / (2.0 * math.pi) * selector.count))
    _guard_dim(*res)
    a = _angular_factor(setup, selector, region, L, res, 1e-14)
    return float(np.real(np.trace(np.linalg.matrix_power(a.conj().T @ a, m))))
