"""Boundary coefficients of the large-scale trace asymptotics.

The rank-(n+1) truncated-Hermite operator is finite rank, so its nonzero
spectrum is that of the (n+1)x(n+1) overlap Gram matrix G, and the single-level
and the up-to-n coefficients are one xi integral, (1/2pi) int tr[f(G) - f(1) G].
psi_j(-t) = (-1)^j psi_j(t) gives G(-xi) = I - S G(xi) S with S = diag((-1)^k),
which pairs each eigenvalue mu at xi with 1 - mu at -xi, so the integral runs
over xi > 0 alone, of sum_j f(mu_j) + f(1 - mu_j) - f(1). The rule on [0, Xi]
is the 33-point Gauss-Kronrod extension of 16-point Gauss-Legendre on panels
PANEL_WIDTH = 0.5 wide (`_half_rule`): its Kronrod sum is the value, and the
gap to the embedded Gauss sum on the same nodes is the quadrature part of the
error bar, so one field serves both. Each f's cutoff Xi is the first panel
edge past the top turning point sqrt(2n+1) where a closed-form bound on the
integral beyond Xi, built from the levels' own Hermite functions there, falls
to tol/10 (`_xi_cutoffs`), from one Hermite sweep over every edge up to
XI_CAP (`_hermite_tail`); a bound still above it at XI_CAP is an
AccuracyError. `gram_eigen_field` gives the eigenvalues of G at the nodes:
the top rung of the erfc ladder for a single level (specfun.occupations), the
closed-form overlap table diagonalised node by node up to n
(specfun.build_overlap_table), in blocks of FIELD_BLOCK nodes.
`coeff_with_error` builds one field per call, on the rule of the largest
cutoff; the edges are multiples of PANEL_WIDTH, so every smaller rule is a
prefix of it, and each f is evaluated once, on its own prefix. The per-xi
adaptive-quadrature Gram matrix, its dual-route trace moments, the
panel-quadrature overlap table and the Nystrom discretization of the
integral kernel are test oracles (tests/oracles.py).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import AccuracyError, DomainError
from .landau import LevelSelector
from .specfun import (
    KronrodRule,
    _check_grid,
    _check_level,
    build_overlap_table,
    clamp_unit,
    gauss_kronrod_panels,
    hermite_sweep,
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
FIELD_BLOCK = 128


def renyi_h(alpha: float, t):
    """Renyi entropy function h_alpha on [0, 1].

    h_alpha(t) = ln(t^a + (1-t)^a)/(1-a); the alpha -> 1 limit branch
    (binary Shannon entropy) is taken for |alpha-1| < 1e-8. Arguments may
    stray outside [0, 1] by at most 1e-10.
    """
    _check_renyi_index(alpha)
    # numpy may round power and log differently on a strided array (a disk
    # spectrum is a reversed view) than on a contiguous one, as np.clip
    # made it; the reductions are faster on it too
    t = np.asarray(t, dtype=float, order="C")
    # fmin/fmax skip NaN, as the comparisons of a plain range check do
    if t.size and (np.fmin.reduce(t, axis=None) < -CLAMP
                   or np.fmax.reduce(t, axis=None) > 1.0 + CLAMP):
        raise DomainError("argument outside [0,1] beyond the 1e-10 slack")
    tc = np.minimum(np.maximum(t, 0.0), 1.0)
    if abs(alpha - 1.0) < 1e-8:
        with np.errstate(divide="ignore", invalid="ignore"):
            val = -np.where(tc > 0.0, tc * np.log(tc), 0.0) \
                  - np.where(tc < 1.0, (1.0 - tc) * np.log1p(-tc), 0.0)
    else:
        total = tc ** alpha + (1.0 - tc) ** alpha
        with np.errstate(divide="ignore"):
            val = np.log(total) / (1.0 - alpha)
        # total >= 2^(1-a) leaves the normal doubles only for a past 1023,
        # and underflows to 0 past 1074: there the larger power comes out
        # of the logarithm
        if alpha > 1023.0:
            big = np.maximum(tc, 1.0 - tc)
            small = np.minimum(tc, 1.0 - tc)
            log_total = alpha * np.log(big) + np.log1p((small / big) ** alpha)
            val = np.where(total < np.finfo(float).tiny,
                           log_total / (1.0 - alpha), val)
    val = np.where((tc == 0.0) | (tc == 1.0), 0.0, val)
    return val if val.ndim else float(val)


def _check_renyi_index(alpha: float):
    if not 0.0 < alpha < math.inf:
        raise DomainError(f"Renyi index must be positive and finite, got {alpha}")


def _holder_exponent_for_renyi(alpha: float) -> float:
    # the limit branch first: within 1e-8 of 1, renyi_h is the Shannon entropy
    if abs(alpha - 1.0) < 1e-8:
        return 0.9
    return alpha if alpha < 1.0 else 1.0


def _renyi_end_limit(alpha: float) -> float:
    # h_alpha(t) / (t (1-t))^q as t -> 0 (and 1): h_alpha ~ t^alpha / (1-alpha)
    # below 1, ~ alpha t / (alpha-1) above 1, and t log(1/t) = o(t^0.9) at 1
    if abs(alpha - 1.0) < 1e-8:
        return 0.0
    return 1.0 / (1.0 - alpha) if alpha < 1.0 else alpha / (alpha - 1.0)


# Hoelder samples: 0 (where f must vanish), the points k/1000 (so t = 1/2,
# the peak of the symmetric families, is one) and ten per decade from 1e-12
# to 1e-3 toward both ends. Below 1e-12 the rounding of h_alpha itself
# inflates the ratio (3.96 at t = 1e-32 for alpha = 0.5, whose supremum is 2).
_HOLDER_ENDS = np.logspace(-12.0, -3.0, 91)
_HOLDER_SAMPLES = np.concatenate([np.linspace(0.0, 1.0, 1001)[:-1],
                                  _HOLDER_ENDS, 1.0 - _HOLDER_ENDS])

# the sampled maximum is raised by this much, to cover the peak between
# samples and the rounding of f near the ends (1.1e-16 / t relative for
# alpha > 1); against 1e5 log-spaced points the built-in families miss at
# most 5.4e-5
_HOLDER_MARGIN = 1e-3


@dataclass
class SpectralFunction:
    """Test function f on [0,1] with f(0) = 0 and endpoint-Hoelder metadata.

    `fn` must be vectorized. Construction verifies f(0) = 0 and bounds the
    constant C in |f(t) - f(1) t| <= C t^q (1-t)^q by the larger of the
    sampled maximum of the ratio, raised by _HOLDER_MARGIN, and `end_limit`,
    its limit at the ends, which no sample reaches and which the family
    constructors give in closed form. Functions violating either are
    rejected, which is what makes the coefficient integrals convergent; the
    xi cutoff needs C to be a true supremum.
    """

    fn: object
    value_at_one: float
    endpoint_exponent: float
    label: str = "custom"
    end_limit: float = 0.0
    holder_constant: float = field(init=False, default=0.0)

    def __post_init__(self):
        q = self.endpoint_exponent
        if not q > 0.0:
            raise DomainError("endpoint exponent q must be positive")
        vals = np.asarray(self.fn(_HOLDER_SAMPLES), dtype=float)
        if abs(vals[0]) > 1e-12:
            raise DomainError(f"spectral function must vanish at 0, got f(0)={vals[0]}")
        t = _HOLDER_SAMPLES[1:]
        ratio = np.abs(vals[1:] - self.value_at_one * t) / (t ** q * (1.0 - t) ** q)
        c = max(float(np.max(ratio)) * (1.0 + _HOLDER_MARGIN), self.end_limit)
        if not math.isfinite(c):
            raise DomainError("Hoelder envelope fit diverged; f is not admissible")
        self.holder_constant = c

    def __call__(self, t):
        return self.fn(t)

    @classmethod
    def renyi(cls, alpha: float) -> "SpectralFunction":
        alpha = float(alpha)
        # before the Hoelder exponent, which takes a non-positive index as q
        _check_renyi_index(alpha)
        text = f"{alpha:g}"
        if float(text) != alpha:  # distinct indices keep distinct labels
            text = repr(alpha)
        return cls(fn=lambda t, a=alpha: renyi_h(a, t), value_at_one=0.0,
                   endpoint_exponent=_holder_exponent_for_renyi(alpha),
                   label=f"renyi:{text}", end_limit=_renyi_end_limit(alpha))

    @classmethod
    def monomial(cls, m: int) -> "SpectralFunction":
        m = int(m)
        if m < 1:
            raise DomainError(f"monomial degree must be >= 1, got {m}")
        if m - 1 > sys.float_info.max:
            raise DomainError("monomial degree m needs m - 1 within double range")
        # (t - t^m) / (t (1-t)) = 1 + t + ... + t^(m-2) rises to m - 1 at t = 1
        return cls(fn=lambda t, m=m: np.asarray(t, dtype=float) ** m,
                   value_at_one=1.0, endpoint_exponent=1.0,
                   label=f"monomial:{m}", end_limit=float(m - 1))

    @classmethod
    def gtilde(cls) -> "SpectralFunction":
        return cls(fn=lambda t: np.asarray(t, dtype=float) * (1.0 - np.asarray(t, dtype=float)),
                   value_at_one=0.0, endpoint_exponent=1.0, label="gtilde",
                   end_limit=1.0)


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

_HALF_LOG_PI = 0.5 * math.log(math.pi)
_LOG_2 = math.log(2.0)


def _hermite_tail(selector: LevelSelector) -> tuple:
    """(X, log(K(X) / 2s), log s) at every panel edge X from the first past
    the top turning point to XI_CAP, with s = sqrt(X^2 - c), c = 2n+1, and
    K(X) the levels' sum of psi_k(X)^2. There psi_k'' = (xi^2 - (2k+1)) psi_k
    and the Riccati argument give -psi_k'/psi_k >= s(xi), so
      tr G(xi) <= K(X) e^{-2 s(X) (xi - X)} / (2 s(X))   for xi >= X.
    One sweep from h_0 = 1 serves every edge: log K = -X^2 - log(pi)/2 +
    log sum h_k^2, so nothing underflows."""
    c = 2.0 * selector.index + 1.0
    first = int(math.sqrt(c) / PANEL_WIDTH) + 1
    x = np.arange(first, int(round(XI_CAP / PANEL_WIDTH)) + 1) * PANEL_WIDTH
    total = 0.0
    for h in hermite_sweep(selector.index, x):
        total = h * h if selector.kind == "single" else total + h * h
    log_s = np.log(np.sqrt(x * x - c))
    return x, -x * x - _HALF_LOG_PI + np.log(total) - _LOG_2 - log_s, log_s


def _xi_cutoffs(selector: LevelSelector, fns: list[SpectralFunction],
                tol: float) -> list[tuple[float, float]]:
    """(Xi, tail bound past Xi) for each f: Xi is the first panel edge past
    the top turning point where the bound falls to tol/10.

    |f(mu) + f(1-mu) - f(1)| <= 2C mu^q (1-mu)^q with q = min(q_f, 1), and
    sum_j mu_j^q <= m^(1-q) (tr G)^q over the m eigenvalues, so by
    `_hermite_tail` the integral past X is at most
      2C m^(1-q) (K/2s)^q / (2 s q) / 2pi
    at every edge at once. A bound still above tol/10 at XI_CAP is an
    AccuracyError.
    """
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tolerance must be finite and positive, got {tol}")
    _check_level(selector.index)  # up to the cap, the first edge is below XI_CAP
    edges, log_env, log_s = _hermite_tail(selector)
    target = math.log(0.1 * tol)
    log_m = math.log(selector.count)
    out = []
    for f in fns:
        q, c_holder = min(f.endpoint_exponent, 1.0), f.holder_constant
        if c_holder == 0.0:  # f(mu) + f(1 - mu) = f(1): nothing to cut
            out.append((float(edges[0]), 0.0))
            continue
        head = (math.log(2.0 * c_holder) + (1.0 - q) * log_m
                - math.log(4.0 * math.pi * q) - target)
        # log of the bound over tol/10 at every edge
        excess = head + q * log_env - log_s
        passed = np.flatnonzero(excess <= 0.0)
        if not passed.size:
            try:
                achieved = math.exp(excess[-1] + target)
            except OverflowError:  # past the doubles as q vanishes
                achieved = math.inf
            raise AccuracyError(
                f"{f.label} at {selector.kind}:{selector.index}: xi cutoff "
                f"capped at {XI_CAP:g} leaves a tail bound of {achieved:.2e} "
                f"> tol/10 = {0.1 * tol:.1e}", achieved=achieved)
        j = passed[0]
        out.append((float(edges[j]), math.exp(excess[j] + target)))
    return out


def _half_rule(cutoff: float) -> KronrodRule:
    """The composite Gauss-Kronrod rule on ceil(Xi / PANEL_WIDTH) equal panels
    of [0, Xi]. Its nodes lie strictly inside the panels, so none is 0. At a
    cutoff on a panel edge the edges are exactly k PANEL_WIDTH, so the rule
    of a smaller such cutoff is a prefix of it, bit for bit."""
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


def _integral(f: SpectralFunction, rule: KronrodRule, pair: np.ndarray,
              cutoff: float) -> tuple[float, float]:
    """(1/2pi) quadrature over 0 < xi < cutoff of sum_j f(mu_j) + f(1 - mu_j)
    - f(1), from the (N, 2m) eigenvalue pairs of `_field` on the prefix of
    the rule below the cutoff: f runs once, and the Kronrod and the embedded
    Gauss sums share its values."""
    size = int(np.searchsorted(rule.nodes, cutoff))
    pair = pair[:size]
    vals = np.asarray(f(pair.ravel()), dtype=float).reshape(pair.shape)
    trace = vals.sum(axis=1) - f.value_at_one * (pair.shape[1] // 2)
    return (float(np.dot(rule.weights[:size], trace)) / (2.0 * math.pi),
            float(np.dot(rule.gauss_weights[:size], trace)) / (2.0 * math.pi))


def coeff_with_error(selector: LevelSelector, fns: list[SpectralFunction],
                     tol: float = 1e-8) -> list[tuple[float, float]]:
    """(1/2pi) integral of tr[f(G) - f(1) G] over xi for each f in `fns`, with
    an error estimate: the gap between the Kronrod sum (the value) and the
    embedded Gauss sum, plus the tail bound. The estimate omits the roundoff
    of 1 - mu that h_alpha amplifies for alpha < 1.

    One field is built per call, on the rule of the largest cutoff; each f is
    integrated over the prefix below its own cutoff, so its row is the same,
    bit for bit, as that of a call with f alone.
    """
    cutoffs = _xi_cutoffs(selector, fns, tol)
    if not cutoffs:
        return []
    rule, pair = _field(selector, max(cutoff for cutoff, _ in cutoffs))
    rows = []
    for f, (cutoff, tail) in zip(fns, cutoffs):
        value, coarse = _integral(f, rule, pair, cutoff)
        rows.append((value, abs(value - coarse) + tail))
    return rows
