"""Magnetic setup, Landau-level selectors and the symmetric-gauge conventions.

Conventions: symplectic pairing <x|J y> = x1*y2 - x2*y1 with
J = [[0, 1], [-1, 0]]; field strength B > 0 carries units of inverse length
squared. The gauge is fixed; other gauges are unitarily equivalent and out of
scope. The library never evaluates the projection kernel
(B/2pi) e^{-B|x-y|^2/4} L(B|x-y|^2/2) e^{i B <x|Jy>/2} point by point: its
solvers work in the kernel's angular-momentum sectors (disk_spectra,
region_sim). The pointwise kernel and the truncated Christoffel-Darboux
kernel are test oracles (tests/oracles.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError


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
        return 1 if self.kind == "single" else self.index + 1

    def to_json(self) -> dict:
        return {"type": self.kind, "index": self.index}


def symplectic(x, y):
    """<x|J y> = x1*y2 - x2*y1 over the trailing axis of arrays."""
    return x[..., 0] * y[..., 1] - x[..., 1] * y[..., 0]


def nu_from_mu(mu: float, b: float) -> int:
    """Index of the highest filled Landau level at chemical potential mu.

    nu = floor((mu/B - 1)/2); below mu = B the Fermi projection is the zero
    operator and the request is rejected.
    """
    if not b > 0.0:
        raise DomainError(f"field strength must be positive, got {b}")
    if not math.isfinite(mu):
        raise DomainError(f"chemical potential must be finite, got {mu}")
    if mu < b:
        raise DomainError(
            f"mu = {mu} < B = {b}: Fermi projection is the zero operator")
    if not math.isfinite(mu / b):
        raise DomainError(f"mu/B = {mu}/{b} overflows a double")
    return int(math.floor((mu / b - 1.0) / 2.0))
