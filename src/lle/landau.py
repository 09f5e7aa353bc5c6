"""Landau-projection integral kernels in the symmetric gauge.

Conventions: symplectic pairing <x|J y> = x1*y2 - x2*y1 with
J = [[0, 1], [-1, 0]]; field strength B > 0 carries units of inverse length
squared. The gauge is fixed; other gauges are unitarily equivalent and out of
scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .specfun import hermite_sweep, laguerre

J = np.array([[0.0, 1.0], [-1.0, 0.0]])


@dataclass(frozen=True)
class MagneticSetup:
    """Constant perpendicular magnetic field of strength b > 0."""

    b: float

    def __post_init__(self):
        if not (self.b > 0.0 and math.isfinite(self.b)):
            raise DomainError(f"field strength must be positive and finite, got {self.b}")


@dataclass(frozen=True)
class LevelSelector:
    """Which Landau levels enter: a single level or all levels up to n."""

    kind: str  # "single" | "upto"
    index: int

    def __post_init__(self):
        if self.kind not in ("single", "upto"):
            raise DomainError(f"unknown selector kind {self.kind!r}")
        if self.index < 0:
            raise DomainError(f"level index must be >= 0, got {self.index}")

    @classmethod
    def single(cls, ell: int) -> "LevelSelector":
        return cls("single", int(ell))

    @classmethod
    def upto(cls, n: int) -> "LevelSelector":
        return cls("upto", int(n))

    def levels(self) -> list[int]:
        if self.kind == "single":
            return [self.index]
        return list(range(self.index + 1))

    @property
    def count(self) -> int:
        return len(self.levels())

    def to_json(self) -> dict:
        return {"type": self.kind, "index": self.index}

    @classmethod
    def from_json(cls, obj: dict) -> "LevelSelector":
        return cls(obj["type"], int(obj["index"]))


def as_point(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape != (2,) or not np.all(np.isfinite(p)):
        raise DomainError(f"point must be a finite 2-vector, got {p!r}")
    return p


def symplectic(x, y) -> float:
    """<x|J y> = x1*y2 - x2*y1."""
    return float(x[0] * y[1] - x[1] * y[0])


def nu_from_mu(mu: float, b: float) -> int:
    """Index of the highest filled Landau level at chemical potential mu.

    nu = floor((mu/B - 1)/2); below mu = B the Fermi projection is the zero
    operator and the request is rejected.
    """
    if not b > 0.0:
        raise DomainError(f"field strength must be positive, got {b}")
    if mu < b:
        raise DomainError(
            f"mu = {mu} < B = {b}: Fermi projection is the zero operator")
    return int(math.floor((mu / b - 1.0) / 2.0))


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


def p_selector(setup: MagneticSetup, selector: LevelSelector, x, y) -> complex:
    """Kernel of the projection onto the selector's levels at one point pair."""
    x = as_point(x)
    y = as_point(y)
    return complex(kernel_block(setup, selector, x[None, :], y[None, :])[0, 0])


def p_ell(setup: MagneticSetup, ell: int, x, y) -> complex:
    """Kernel of the projection onto the ell-th Landau level.

    (B/2pi) e^{-B|x-y|^2/4} L_ell(B|x-y|^2/2) e^{i B <x|Jy>/2}
    """
    return p_selector(setup, LevelSelector.single(ell), x, y)


def p_le_n(setup: MagneticSetup, n: int, x, y) -> complex:
    """Kernel of the projection onto the first n+1 Landau levels.

    Uses the single-polynomial form sum_{l<=n} L_l = L_n^{(1)} rather than a
    level sum; the functional relation itself is exercised by the identity
    suite.
    """
    return p_selector(setup, LevelSelector.upto(n), x, y)


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
