"""Boundary coefficients of the large-scale trace asymptotics.

The rank-(n+1) truncated-Hermite operator is finite rank, so its nonzero
spectrum is that of the (n+1)x(n+1) overlap Gram matrix G, and the single-level
and the up-to-n coefficients are one xi integral, (1/2pi) int tr[f(G) - f(1) G].
psi_j(-t) = (-1)^j psi_j(t) gives G(-xi) = I - S G(xi) S with S = diag((-1)^k),
which pairs each eigenvalue mu at xi with 1 - mu at -xi, so the integral runs
over xi > 0 alone, of sum_j f(mu_j) + f(1 - mu_j) - f(1). The rule on [0, Xi]
is the 33-point Gauss-Kronrod extension of 16-point Gauss-Legendre on panels
at most 0.5 wide (`_half_rule`): its Kronrod sum is the value, and the gap to
the embedded Gauss sum on the same nodes is the quadrature part of the error
bar, so one field serves both. `gram_eigen_field` gives the eigenvalues of G
at the nodes: the top rung of the erfc ladder for a single level
(specfun.occupations), the closed-form overlap table diagonalised node by
node up to n (specfun.build_overlap_table), in blocks of FIELD_BLOCK nodes.
`coeff_with_error` integrates every requested f over fields it builds once
per call and per distinct cutoff, evaluating each f once; a cutoff held at
XI_CAP with its tail bound above tol/10 is an AccuracyError. The per-xi
adaptive-quadrature Gram matrix, its dual-route trace moments, the
panel-quadrature overlap table and the Nystrom discretization of the
integral kernel are test oracles (tests/oracles.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AccuracyError, DomainError
from .landau import LevelSelector
from .specfun import (
    KronrodRule,
    _check_grid,
    build_overlap_table,
    clamp_unit,
    gauss_kronrod_panels,
    occupations,
)

# clamp window for Gram eigenvalues; violations beyond it abort instead of
# being silently absorbed into h_alpha's domain
CLAMP = 1e-10

# the xi cutoff is pushed out no further than this
XI_CAP = 40.0

# the Gauss-Kronrod panels on [0, Xi] are at most this wide
PANEL_WIDTH = 0.5

# nodes per overlap table and batched eigvalsh of the multi-level field
FIELD_BLOCK = 256


def renyi_h(alpha: float, t):
    """Renyi entropy function h_alpha on [0, 1].

    h_alpha(t) = ln(t^a + (1-t)^a)/(1-a); the alpha -> 1 limit branch
    (binary Shannon entropy) is taken for |alpha-1| < 1e-8. Arguments may
    stray outside [0, 1] by at most 1e-10.
    """
    if not alpha > 0.0:
        raise DomainError(f"Renyi index must be positive, got {alpha}")
    t = np.asarray(t, dtype=float)
    if np.any(t < -CLAMP) or np.any(t > 1.0 + CLAMP):
        raise DomainError("argument outside [0,1] beyond the 1e-10 slack")
    tc = np.clip(t, 0.0, 1.0)
    if abs(alpha - 1.0) < 1e-8:
        with np.errstate(divide="ignore", invalid="ignore"):
            val = -np.where(tc > 0.0, tc * np.log(tc), 0.0) \
                  - np.where(tc < 1.0, (1.0 - tc) * np.log1p(-tc), 0.0)
    else:
        with np.errstate(divide="ignore"):
            val = np.log(tc ** alpha + (1.0 - tc) ** alpha) / (1.0 - alpha)
    val = np.where((tc == 0.0) | (tc == 1.0), 0.0, val)
    return val if val.ndim else float(val)


def _holder_exponent_for_renyi(alpha: float) -> float:
    if alpha < 1.0:
        return alpha
    if abs(alpha - 1.0) < 1e-8:
        return 0.9
    return 1.0


@dataclass
class SpectralFunction:
    """Test function f on [0,1] with f(0) = 0 and endpoint-Hoelder metadata.

    `fn` must be vectorized. Construction verifies f(0) = 0 and fits the
    constant in |f(t) - f(1) t| <= C t^q (1-t)^q on a 1000-point grid;
    functions violating either are rejected, which is what makes the
    coefficient integrals convergent.
    """

    fn: object
    value_at_one: float
    endpoint_exponent: float
    label: str = "custom"
    holder_constant: float = field(init=False, default=0.0)

    def __post_init__(self):
        if not self.endpoint_exponent > 0.0:
            raise DomainError("endpoint exponent q must be positive")
        f0 = float(np.asarray(self.fn(np.array([0.0])))[0])
        if abs(f0) > 1e-12:
            raise DomainError(f"spectral function must vanish at 0, got f(0)={f0}")
        t = np.linspace(0.0, 1.0, 1002)[1:-1]
        dev = np.abs(self.fn(t) - self.value_at_one * t)
        env = t ** self.endpoint_exponent * (1.0 - t) ** self.endpoint_exponent
        c = float(np.max(dev / env))
        if not math.isfinite(c):
            raise DomainError("Hoelder envelope fit diverged; f is not admissible")
        self.holder_constant = c

    def __call__(self, t):
        return self.fn(t)

    @classmethod
    def renyi(cls, alpha: float) -> "SpectralFunction":
        alpha = float(alpha)
        text = f"{alpha:g}"
        if float(text) != alpha:  # distinct indices keep distinct labels
            text = repr(alpha)
        return cls(fn=lambda t, a=alpha: renyi_h(a, t), value_at_one=0.0,
                   endpoint_exponent=_holder_exponent_for_renyi(alpha),
                   label=f"renyi:{text}")

    @classmethod
    def monomial(cls, m: int) -> "SpectralFunction":
        m = int(m)
        if m < 1:
            raise DomainError(f"monomial degree must be >= 1, got {m}")
        return cls(fn=lambda t, m=m: np.asarray(t, dtype=float) ** m,
                   value_at_one=1.0, endpoint_exponent=1.0,
                   label=f"monomial:{m}")

    @classmethod
    def gtilde(cls) -> "SpectralFunction":
        return cls(fn=lambda t: np.asarray(t, dtype=float) * (1.0 - np.asarray(t, dtype=float)),
                   value_at_one=0.0, endpoint_exponent=1.0, label="gtilde")


def spectral_function_from_spec(spec: str) -> SpectralFunction:
    """Parse 'renyi:a' | 'monomial:m' | 'gtilde' into a SpectralFunction."""
    if spec == "gtilde":
        return SpectralFunction.gtilde()
    head, sep, arg = spec.partition(":")
    parse = {"renyi": float, "monomial": int}.get(head) if sep else None
    if parse is None:
        raise DomainError(f"unknown spectral-function spec {spec!r}")
    try:
        value = parse(arg)
    except ValueError as exc:
        raise DomainError(f"bad argument in spectral-function spec {spec!r}") from exc
    if head == "renyi":
        return SpectralFunction.renyi(value)
    return SpectralFunction.monomial(value)


# ---------------------------------------------------------------------------
# xi cutoff and half-line rule
# ---------------------------------------------------------------------------

def _tail_bound(n: int, q: float, c_holder: float, xi_max: float) -> float:
    # the occupations collapse Gaussianly, so the integrand decays like
    # exp(-delta q xi^2), delta = 0.9; integrate the majorant past the cutoff
    rate = 0.9 * min(q, 1.0)
    amp = (n + 1) * max(c_holder, 1.0)
    return amp * math.exp(-rate * xi_max * xi_max) / (2.0 * rate * xi_max) / math.pi


def _xi_cutoff(selector: LevelSelector, f: SpectralFunction,
               tol: float) -> tuple[float, float]:
    """(Xi, tail bound past Xi) for f: Xi = 8 + sqrt(2n+1), pushed out in
    steps of 0.5 while the tail bound exceeds tol/10, up to XI_CAP. A bound
    still above tol/10 at the cap is an AccuracyError."""
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tolerance must be finite and positive, got {tol}")
    n = selector.index
    q, c_holder = f.endpoint_exponent, f.holder_constant
    xi_max = 8.0 + math.sqrt(2.0 * n + 1.0)
    while _tail_bound(n, q, c_holder, xi_max) > 0.1 * tol and xi_max < XI_CAP:
        xi_max += 0.5
    tail = _tail_bound(n, q, c_holder, xi_max)
    if tail > 0.1 * tol:
        raise AccuracyError(
            f"{f.label} at {selector.kind}:{n}: xi cutoff capped at "
            f"{xi_max:g} leaves a tail bound of {tail:.2e} > tol/10 = "
            f"{0.1 * tol:.1e}", achieved=tail)
    return xi_max, tail


def _half_rule(cutoff: float) -> KronrodRule:
    """The composite Gauss-Kronrod rule on ceil(Xi / PANEL_WIDTH) equal panels
    of [0, Xi]. Its nodes lie strictly inside the panels, so none is 0."""
    n_panels = int(math.ceil(cutoff / PANEL_WIDTH))
    return gauss_kronrod_panels(np.linspace(0.0, cutoff, n_panels + 1))


# ---------------------------------------------------------------------------
# The Gram eigenvalue field and the asymptotic coefficients
# ---------------------------------------------------------------------------

def gram_eigen_field(selector: LevelSelector, xi) -> np.ndarray:
    """Clamped Gram eigenvalues at the nodes xi, shape (N, m): m = 1 for
    single:l, m = n+1 in decreasing order for upto:n. The overlap table and
    its eigenvalues are built FIELD_BLOCK nodes at a time: both depend on each
    node alone, so the blocks give the whole grid's values bit for bit in a
    fraction of its memory."""
    n = selector.index
    if selector.kind == "single":
        vals = occupations(n, xi)[n][:, None]
    else:
        xi = _check_grid(xi)
        vals = np.concatenate([
            np.linalg.eigvalsh(np.moveaxis(
                build_overlap_table(n, xi[i:i + FIELD_BLOCK]).values, 2, 0))[:, ::-1]
            for i in range(0, xi.size, FIELD_BLOCK)])
    return clamp_unit(vals, CLAMP, f"gram_eigen_field({selector.kind}:{n})")


def _field(selector: LevelSelector, cutoff: float):
    # the half rule's Kronrod and Gauss weights and the eigenvalues mu at its
    # nodes, side by side with 1 - mu, the eigenvalues of G at -xi
    rule = _half_rule(cutoff)
    mu = gram_eigen_field(selector, rule.nodes)
    return rule, np.concatenate([mu, 1.0 - mu], axis=1)


def _integral(f: SpectralFunction, rule: KronrodRule,
              pair: np.ndarray) -> tuple[float, float]:
    """(1/2pi) quadrature over xi > 0 of sum_j f(mu_j) + f(1 - mu_j) - f(1),
    from the (N, 2m) eigenvalue pairs of `_field`: f runs once, and the
    Kronrod and the embedded Gauss sums share its values."""
    vals = np.asarray(f(pair.ravel()), dtype=float).reshape(pair.shape)
    trace = vals.sum(axis=1) - f.value_at_one * (pair.shape[1] // 2)
    return (float(np.dot(rule.weights, trace)) / (2.0 * math.pi),
            float(np.dot(rule.gauss_weights, trace)) / (2.0 * math.pi))


def coeff_with_error(selector: LevelSelector, fns: list[SpectralFunction],
                     tol: float = 1e-8) -> list[tuple[float, float]]:
    """(1/2pi) integral of tr[f(G) - f(1) G] over xi for each f in `fns`, with
    an error estimate: the gap between the Kronrod sum (the value) and the
    embedded Gauss sum, plus the tail bound. The estimate omits the roundoff
    of 1 - mu that h_alpha amplifies for alpha < 1.

    Each distinct cutoff's field is built once per call and shared by every f
    that uses it.
    """
    fields: dict = {}
    rows = []
    for f in fns:
        cutoff, tail = _xi_cutoff(selector, f, tol)
        if cutoff not in fields:
            fields[cutoff] = _field(selector, cutoff)
        value, coarse = _integral(f, *fields[cutoff])
        rows.append((value, abs(value - coarse) + tail))
    return rows
