"""Executable verification of the substitution-chain and special-function identities.

Each identity has one batched evaluator: it checks a block of cases given as
arrays, one row per case, and returns the error and the tolerance of every
row with the columns of its inputs and of both sides. The randomized suites
draw their cases in blocks of BLOCK rows, block b of a suite from the
generator keyed (seed, crc32 of the suite name, b), so case i depends on the
seed, the suite and i alone, and report as JSON. A failing case's dump is
its row of the block, as the evaluator returned it; re-running its seed with
`--cases case+1` reproduces it as the last case.

The change-of-variables checks run in the inverse direction: starting from
the final variables (xi, tau) they reconstruct the original ones and compare
both sides, which turns the interleaved integral renamings into a pure
pointwise algebra check. For the branch q = m-1 (hence for all of m = 2) the
xi-shift is tau_1/2 rather than (tau_1 + tau_{m-1})/2; with that reading every
identity holds for all m >= 2. In a block, chains shorter than the longest
pad their variables with zeros beyond their m-1 components.

The special-function checks run one `hermite_sweep` of both arguments per
block, each row reading its own degree; the exact Hermite-identity left
side is, row by row, one integer numerator over one integer denominator,
rounded once by the integer division, from one integer table for every
degree, built on first use.
"""

from __future__ import annotations

import functools
import math
import operator
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError
from .landau import symplectic
from .specfun import hermite_sweep

M_CAP = 8  # randomized suites stop here: all index-branch patterns occur by m = 8
BLOCK = 1024  # cases per keyed draw: case i is row i % BLOCK of block i // BLOCK

# overflows and 0/0s become inf and nan, as on Python floats; the checks
# after them raise DomainError or fail the row
_quiet = np.errstate(over="ignore", invalid="ignore", divide="ignore")


# ---------------------------------------------------------------------------
# the substitution chain on padded rows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubstitutionPlan:
    """The sector-q substitution chain for chain length m; m and q may also
    be integer arrays, one plan per row of a block."""

    m: int
    q: int

    def __post_init__(self):
        m, q = np.asarray(self.m), np.asarray(self.q)
        if np.any(m < 2) or np.any((q < 1) | (q >= m)):
            raise DomainError(f"a chain needs m >= 2 and 1 <= q <= m-1, "
                              f"got m={self.m}, q={self.q}")

    def xi_shift(self, tau):
        # for q = m-1 the negative block is empty and t_m collapses to tau_1
        m, q = np.asarray(self.m), np.asarray(self.q)
        return 0.5 * (tau[..., 0] + np.where(q == m - 1, 0.0, _at(tau, m - 2)))

    def original_variables(self, xi, tau, undo_tau_shift: bool = False):
        """Invert the chain: final (xi, tau) -> original (xi0, t)."""
        tau = np.asarray(tau, dtype=float)
        if undo_tau_shift:
            tau = _live_only(self.m, tau - np.asarray(xi)[..., None])
        flip = np.arange(tau.shape[-1]) < np.asarray(self.q)[..., None]
        return -xi - self.xi_shift(tau), _a_inverse_times(
            self, np.where(flip, tau, -tau))


def _live_only(m, values: np.ndarray) -> np.ndarray:
    """values with the entries beyond each row's m-1 chain variables zeroed;
    the chain axis follows the axes of m (an (x, y) axis may follow it)."""
    live = np.arange(values.shape[np.ndim(m)]) < np.asarray(m)[..., None] - 1
    return np.where(live.reshape(live.shape + (1,) * (values.ndim - live.ndim)),
                    values, 0.0)


def _at(v: np.ndarray, k):
    """v[..., k] row by row, for one index or one per row (clipped into the
    row: out-of-range indices belong to branches that a select discards)."""
    k = np.broadcast_to(np.clip(k, 0, v.shape[-1] - 1), v.shape[:-1])
    return np.take_along_axis(v, k[..., None], axis=-1)[..., 0]


def _a_inverse_times(plan: SubstitutionPlan, v: np.ndarray) -> np.ndarray:
    """A^{-1} v as two shifted differences, v_i - v_{i+1} for i < q-1 and
    v_i - v_{i-1} for i > q, where A_ij = 1 for i <= j <= q or q+1 <= j <= i."""
    i, q = np.arange(v.shape[-1]), np.asarray(plan.q)[..., None]
    return _live_only(plan.m, v - np.where(i < q - 1, np.roll(v, -1, -1), 0.0)
                      - np.where(i > q, np.roll(v, 1, -1), 0.0))


def _sums_before(v: np.ndarray) -> np.ndarray:
    """Sum of the entries before each one along the last axis (0 first)."""
    out = np.zeros_like(v)
    out[..., 1:] = np.cumsum(v[..., :-1], axis=-1)
    return out


def _skew_times(t: np.ndarray) -> np.ndarray:
    """S t with S_ij = sign(i - j): sum_{j<i} t_j - sum_{j>i} t_j."""
    return _sums_before(t) - _sums_before(t[..., ::-1])[..., ::-1]


def _chain_data(plan: SubstitutionPlan, t: np.ndarray):
    """(T_1..T_m, t_1..t_m) with T_m := 0 and t_m := sum t_i, one column
    longer than the padded t."""
    pad = np.zeros(t.shape[:-1] + (1,))
    big_t = _live_only(plan.m, np.concatenate([_skew_times(t), pad], axis=-1))
    last = np.arange(t.shape[-1] + 1) == np.asarray(plan.m)[..., None] - 1
    return big_t, np.where(last, t.sum(axis=-1)[..., None],
                           np.concatenate([t, pad], axis=-1))


def _check_finite(**values) -> None:
    for name, v in values.items():
        if not np.isfinite(v).all():
            raise DomainError(f"{name} must be finite, "
                              f"got {v[~np.isfinite(v)][0].item()!r}")


def _json(v):
    """Arrays as lists, complex numbers as [re, im], numpy scalars as Python
    numbers."""
    if isinstance(v, complex):
        return [float(v.real), float(v.imag)]
    return v.tolist() if isinstance(v, (np.ndarray, np.generic)) else v


# ---------------------------------------------------------------------------
# chain-of-kernels phase and frame identities
# ---------------------------------------------------------------------------

def _phase_sum(ys: np.ndarray) -> np.ndarray:
    """The y-only double sum sum_{i<j} <y_i|J y_j> of the chain phase, per
    row of the steps ys (..., m-1, 2)."""
    before = np.zeros_like(ys)
    before[:, 1:] = np.cumsum(ys[:, :-1], axis=1)
    return symplectic(before, ys).sum(axis=-1)


@_quiet
def _batch_phase(m, x, ys):
    """Telescoped symplectic phase of an m-step kernel chain.

    sum_i <x_i|J x_{i+1}> over the cycle equals the y-only double sum; for
    m = 2 both sides vanish.
    """
    # x_0 = x, x_i = x - y_0 - ... - y_{i-1} for i < m, then x_i = x, where
    # the terms <x|J x> vanish
    x = x[:, None]
    pts = np.concatenate([x, x - np.cumsum(ys, axis=1), x], axis=1)
    pts = np.where(np.arange(pts.shape[1])[:, None] >= m[:, None, None], x, pts)
    lhs = symplectic(pts[:, :-1], pts[:, 1:]).sum(axis=-1)
    rhs = _phase_sum(ys)
    scale = 1.0 + np.abs(ys).max(axis=(1, 2)) ** 2 + np.abs(x).max(axis=(1, 2)) ** 2
    return np.abs(lhs - rhs), 1e-12 * scale, dict(m=m, x=x[:, 0], ys=ys,
                                                   lhs=lhs, rhs=rhs)


@_quiet
def _batch_frame(m, ys, normal):
    """Tangent/normal decomposition y = -z Jn + t n and the skew phase form."""
    n = (normal / np.linalg.norm(normal, axis=-1, keepdims=True))[:, None]
    jn = np.stack([n[..., 1], -n[..., 0]], axis=-1)  # J n
    z = -symplectic(ys, n)  # -<y, J n>
    t = np.sum(ys * n, axis=-1)
    rec = -z[..., None] * jn + t[..., None] * n
    err = np.maximum(np.abs(rec - ys).max(axis=(1, 2)),
                     np.abs(np.sum(ys * ys, axis=-1) - (z ** 2 + t ** 2)).max(axis=1))
    err = np.maximum(err, np.abs(_phase_sum(ys) - np.sum(z * _skew_times(t), axis=-1)))
    return err, 1e-12 * (1.0 + np.abs(ys).max(axis=(1, 2)) ** 2), dict(
        m=m, ys=ys, normal=n[:, 0])


# ---------------------------------------------------------------------------
# the B.1/B.2 substitution-chain identities
# ---------------------------------------------------------------------------

@_quiet
def _batch_exponent(m, q, xi, tau):
    """Quadratic-form identity of the exponent under the substitution chain.

    m xi0^2 + xi0 sum T_i + (sum T_i^2)/4 + (sum t_i^2)/4, evaluated at the
    reconstructed original variables, must equal xi^2 + sum_j (xi + tau_j)^2.
    """
    plan = SubstitutionPlan(m=m, q=q)
    xi0, t = plan.original_variables(xi, tau)
    big_t, t_full = _chain_data(plan, t)
    lhs = (m * xi0 ** 2 + xi0 * big_t.sum(axis=1)
           + 0.25 * np.sum(big_t ** 2, axis=1) + 0.25 * np.sum(t_full ** 2, axis=1))
    rhs = xi ** 2 + np.sum(_live_only(m, xi[:, None] + tau) ** 2, axis=1)
    return np.abs(lhs - rhs), 1e-11 * (1.0 + np.abs(lhs) + np.abs(rhs)), dict(
        m=m, q=q, xi=xi, tau=tau, lhs=lhs, rhs=rhs, xi0=xi0, t=t)


@_quiet
def _batch_t_tables(m, q, tau):
    """Closed four-branch forms of T_j in the tau variables (q <= m-2).

    Checks the plain, post-sign-flip, and post-shift (tilde) tables, plus the
    tilde-t table.
    """
    if np.any(q > m - 2):
        raise DomainError("the four-branch tables assume 1 <= q <= m-2")
    plan = SubstitutionPlan(m=m, q=q)
    j = np.arange(1, tau.shape[1] + 1)  # factor j sits in column j-1
    t_plain = _a_inverse_times(plan, tau)
    t_flip = _a_inverse_times(plan, np.where(j <= q[:, None], tau, -tau))
    big_plain, big_flip = _skew_times(t_plain), _skew_times(t_flip)
    # tau_{j-2}, tau_{j-1}, tau_j (0-based) by column; the wrapped entries
    # sit in branches the select drops
    prv, cur, nxt = np.roll(tau, 1, axis=1), tau, np.roll(tau, -1, axis=1)
    first, last = tau[:, :1], _at(tau, m - 2)[:, None]
    at_q, after_q = _at(tau, q - 1)[:, None], _at(tau, q)[:, None]
    branch = [j <= q[:, None] - 1, j == q[:, None], j == q[:, None] + 1]
    table = lambda *forms: np.select(branch, forms[:3], forms[3])
    gaps = [
        big_plain - table(first - cur - nxt - last, first - at_q - last,
                          first + after_q - last, first + prv + cur - last),
        big_flip - table(first - cur - nxt + last, first - at_q + last,
                         first - after_q + last, first - prv - cur + last),
        big_flip - (first + last) - table(-cur - nxt, -at_q, -after_q, -prv - cur),
        t_flip - table(cur - nxt, at_q, -after_q, prv - cur)]
    err = _live_only(m, np.abs(gaps).max(axis=0)).max(axis=1)
    return err, 1e-12 * (1.0 + np.abs(tau).max(axis=1)), dict(m=m, q=q, tau=tau)


def _claimed_laguerre_argument(plan: SubstitutionPlan, j: int, omega, xi,
                               tau: np.ndarray):
    """The claimed two-root product of Laguerre factor j: plan.m, plan.q,
    omega and xi are one value or one per row of tau."""
    m, q = plan.m, plan.q
    root = lambda k: omega - 2.0j * _at(tau, k)
    root_xi = omega - 2.0j * xi
    return np.select(
        [j <= q - 1, j == q,
         # for q = m-1 the closing factor supplies the second xi root
         (j == m) & (q == m - 1), j == m, j == q + 1],
        [root(j - 1) * root(j), root_xi * root(q - 1), root_xi * root(0),
         root(0) * root(m - 2), root_xi * root(q)],
        root(j - 2) * root(j - 1))


@_quiet
def _batch_laguerre_maps(m, q, omega, xi, tau):
    """Product forms of the Laguerre arguments after the full chain.

    Factor j's pre-substitution argument (omega + i(2 xi0 + T_j))^2 + t_j^2,
    evaluated at the reconstructed originals (including the final global
    tau -> tau - xi shift), must equal the claimed two-root product.
    """
    plan = SubstitutionPlan(m=m, q=q)
    xi0, t = plan.original_variables(xi, tau, undo_tau_shift=True)
    big_t, t_full = _chain_data(plan, t)
    pre = (omega[:, None] + 1j * (2.0 * xi0[:, None] + big_t)) ** 2 + t_full ** 2
    err = np.zeros(len(m))
    for j in range(1, pre.shape[1] + 1):
        gap = np.abs(pre[:, j - 1] - _claimed_laguerre_argument(plan, j, omega, xi, tau))
        err = np.where(j <= m, np.maximum(err, gap), err)
    scale = 1.0 + np.abs(omega) ** 2 + np.abs(tau).max(axis=1) ** 2 + xi * xi
    return err, 1e-11 * scale, dict(m=m, q=q, omega=omega, xi=xi, tau=tau)


# ---------------------------------------------------------------------------
# special-function identities
# ---------------------------------------------------------------------------

@functools.cache
def _hermite_lhs_tables() -> tuple:
    """Exact coefficients of the Hermite-identity left side for ell = 0..12,
    scaled by ell! 2^ell: entry ell holds one (a, bs, cs) per power a of xi,
    and (2pi)^{-1/2} integral of L_ell((w-2i xi)(w-2i tau)/2) e^{-w^2/4} dw
    equals sqrt(2) sum c xi^a tau^b / (ell! 2^ell) over them.

    Built from the Laguerre coefficients (-1)^j C(ell, j) / j! and the
    Gaussian moments (2pi)^{-1/2} integral of w^{2m} e^{-w^2/4} dw =
    sqrt(2) 2^m (2m-1)!! alone (odd moments vanish). With u = i w the
    argument is z = -zz/2, zz = (u + 2 xi)(u + 2 tau), and u^{2m} has the
    moment sqrt(2) (-2)^m (2m-1)!!, so the moment of zz^j is one integer
    polynomial in (xi, tau) for every degree: its xi^a tau^b term comes with
    u^{2m}, 2m = 2j - a - b. Degree ell weighs it by
    c_j (-1/2)^j ell! 2^ell = C(ell, j) ell!/j! 2^(ell-j).
    """
    moments = [{(a, b): (math.comb(j, a) * math.comb(j, b) << a + b)
                * (-2) ** m * math.prod(range(1, 2 * m, 2))
                for a in range(j + 1) for b in range(a % 2, j + 1, 2)
                for m in [j - (a + b) // 2]} for j in range(13)]
    tables = []
    for ell in range(13):
        scaled: dict = {}
        for j, moment in enumerate(moments[:ell + 1]):
            weight = math.comb(ell, j) * math.perm(ell, ell - j) * 2 ** (ell - j)
            for key, v in moment.items():
                scaled[key] = scaled.get(key, 0) + weight * v
        rows: dict = {}
        for (a, b), c in scaled.items():
            if c:
                rows.setdefault(a, []).append((b, c))
        tables.append(tuple((a, *zip(*r)) for a, r in rows.items()))
    return tuple(tables)


def _hermite_lhs(ells: np.ndarray, xs: np.ndarray, ts: np.ndarray):
    """Exact Hermite-identity left sides at rows (ells, xs, ts), each row of
    its own degree, and their floors 1e-13 sqrt(2) (term mass), as two arrays."""
    # xi = p/2^j and tau = r/2^k; no power exceeds ell, so the sum is one
    # integer over ell! 2^ell 2^(j ell) 2^(k ell); the terms of one power of
    # xi share one sum over the powers of tau
    tables = _hermite_lhs_tables()
    out = []
    for ell, xi, tau in zip(ells.tolist(), xs.tolist(), ts.tolist()):
        p, q = xi.as_integer_ratio()
        r, s = tau.as_integer_ratio()
        j, k = q.bit_length() - 1, s.bit_length() - 1
        tp = [r ** b << k * (ell - b) for b in range(ell + 1)]
        num = mass = 0
        for a, bs, cs in tables[ell]:
            xa = p ** a << j * (ell - a)
            terms = list(map(operator.mul, cs, map(tp.__getitem__, bs)))
            num += xa * sum(terms)
            mass += abs(xa) * sum(map(abs, terms))
        full = math.factorial(ell) << (1 + j + k) * ell
        try:
            lhs = math.sqrt(2.0) * (num / full)
            floor = 1e-13 * math.sqrt(2.0) * (mass / full)
        except OverflowError:
            lhs = math.inf
        if math.isinf(lhs):
            raise DomainError(f"Hermite-identity left side or its term mass "
                              f"overflows a double at (ell={ell}, xi={xi!r}, "
                              f"tau={tau!r})")
        out.append((lhs, floor))
    return np.array(out).T


@_quiet
def _batch_hermite(ell, xi, tau):
    """Gaussian integral of a two-root Laguerre argument against Hermite pairs.

    (2pi)^{-1/2} integral of L_ell((w-2i xi)(w-2i tau)/2) e^{-w^2/4} dw equals
    sqrt(2) H_ell(xi) H_ell(tau) / (2^ell ell!), the right side from one
    `hermite_sweep` of both arguments to the block's top degree, each row
    read at its own degree. The left side is evaluated exactly
    from `_hermite_lhs_tables` at the float inputs: every coefficient is an
    integer over ell! 2^ell and every double is an integer over a power of
    two, so the sum is one integer numerator over one integer denominator,
    and their division rounds it once, correctly. A degree outside 0..12,
    non-finite inputs, and inputs whose left side or term mass overflows a
    double raise DomainError. Relative tolerance 1e-9 with a floor of 1e-13
    times the term mass, the same sum over absolute terms, which scales the
    rounding of a double evaluation where the terms cancel (near the Hermite
    zeros).
    """
    if np.any((ell < 0) | (ell > 12)):
        raise DomainError(f"the Hermite identity tables hold 0 <= ell <= 12, "
                          f"got {ell[(ell < 0) | (ell > 12)][0]}")
    _check_finite(xi=xi, tau=tau)
    h = np.array(list(hermite_sweep(int(ell.max()), np.stack([xi, tau]))))
    h_x, h_t = np.take_along_axis(h, np.broadcast_to(ell, h.shape[1:])[None],
                                  0)[0]
    rhs = math.sqrt(2.0) * h_x * h_t
    lhs, floor = _hermite_lhs(ell, xi, tau)
    return np.abs(lhs - rhs), np.maximum(1e-9 * np.abs(rhs), floor), dict(
        ell=ell, xi=xi, tau=tau, lhs=np.stack([lhs, np.zeros_like(lhs)], axis=1), rhs=rhs)


def _mehler_closed(xi: float, tau: float, t: float) -> float:
    try:
        return (1.0 - t * t) ** -0.5 * math.exp(
            2.0 * xi * tau * t / (1.0 - t) - t * t * (xi + tau) ** 2 / (1.0 - t * t))
    except OverflowError:
        raise DomainError(f"Mehler closed form overflows a double at "
                          f"(xi={xi!r}, tau={tau!r}, t={t!r})") from None


@_quiet
def _batch_mehler(xi, tau, t, n_cap: int = 200):
    """Hermite product generating function against its Gaussian closed form.

    Partial sums run in the normalized-Hermite basis (term_l = htilde_l(xi)
    htilde_l(tau) t^l); a row stops after six successive terms past l = 8
    below 1e-13 max(1, |partial sum|), and a row still running at n_cap
    terms raises NumericError. Tolerance 1e-9 max(1, |closed form|) plus
    1e-15 times the sum of |terms|. Needs |t| < 1; non-finite inputs, and
    inputs whose closed form overflows a double, raise DomainError.
    """
    if not (np.abs(t) < 1.0).all():
        raise DomainError(f"Mehler series needs |t| < 1, got {t[~(np.abs(t) < 1.0)][0]}")
    _check_finite(xi=xi, tau=tau)
    closed = np.array(list(map(_mehler_closed, xi.tolist(), tau.tolist(),
                               t.tolist())))
    # normalized recurrence, so H_l(x) t^l / (2^l l!)-type terms stay bounded
    pairs = hermite_sweep(n_cap, np.stack([xi, tau]))  # one sweep of both
    h_x, h_t = next(pairs)
    total = h_x * h_t
    mass = np.abs(total)  # cancellation mass: sum of |terms|
    power, small_run, running = 1.0, 0, True
    for ell, (h_x, h_t) in enumerate(pairs, start=1):
        power = power * t
        term = h_x * h_t * power
        total = np.where(running, total + term, total)
        mass = np.where(running, mass + np.abs(term), mass)
        # h-tilde oscillates in ell, so one small term proves nothing; a row
        # stops at a run of six before trusting the tail to be gone
        small = (np.abs(term) < 1e-13 * np.maximum(1.0, np.abs(total))) & (ell > 8)
        small_run = np.where(small, small_run + 1, 0)
        running = running & (small_run < 6)
        if not running.any():
            break
    else:
        i = np.flatnonzero(running)[0]
        raise NumericError(f"Mehler series not converged within {n_cap} terms "
                           f"at (xi={xi[i]}, tau={tau[i]}, t={t[i]})")
    return np.abs(total - closed), \
        1e-9 * np.maximum(1.0, np.abs(closed)) + 1e-15 * mass, \
        dict(xi=xi, tau=tau, t=t, series=total, closed=closed)


@_quiet
def _batch_christoffel_darboux(n, tau, taup):
    """Direct normalized Hermite sum against the divided-difference quotient.

    One `hermite_sweep` of both arguments to degree n + 2 serves the direct
    sum, the quotient and, at tau == taup, its confluent form. The tolerance is
    1e-10 relative with a floor, off the confluent diagonal, of
    1e-13 sqrt((n+1)/2) max_k |h_k(tau)| max_k |h_k(taup)| / |tau - taup|
    over k <= n + 1, the rounding of the quotient's cancelling products.
    A degree outside 0..20, non-finite inputs, and inputs whose Hermite
    values overflow a double raise DomainError.
    """
    if np.any((n < 0) | (n > 20)):
        raise DomainError(f"Christoffel-Darboux check needs 0 <= n <= 20, "
                          f"got {n[(n < 0) | (n > 20)][0]}")
    _check_finite(tau=tau, taup=taup)
    h = np.array(list(hermite_sweep(int(n.max()) + 2, np.stack([tau, taup]))))
    at = lambda v, k: np.take_along_axis(v, np.broadcast_to(k, v.shape[1:])[None], 0)[0]
    direct = at(np.cumsum(h[:, 0] * h[:, 1], axis=0), n)  # in degree order
    (h_n, p_n), (h_n1, p_n1), (h_n2, _) = at(h, n), at(h, n + 1), at(h, n + 2)
    np.maximum.accumulate(np.abs(h, out=h), axis=0, out=h)  # the envelopes
    confluent = tau == taup
    gap = np.where(confluent, 1.0, tau - taup)
    root = np.sqrt((n + 1.0) / 2.0)
    quot = np.where(
        confluent,
        (n + 1.0) * h_n1 * h_n1 - np.sqrt((n + 1.0) * (n + 2.0)) * h_n * h_n2,
        root * (p_n * h_n1 - h_n * p_n1) / gap)
    bad = np.flatnonzero(~(np.isfinite(direct) & np.isfinite(quot)))
    if bad.size:
        i = bad[0]
        raise DomainError(f"normalized Hermite values overflow a double at "
                          f"(n={n[i]}, tau={tau[i].item()!r}, "
                          f"taup={taup[i].item()!r})")
    # the quotient cancels to rounding of its products over |tau - taup|:
    # the floor scales that rounding by the largest h_k, k <= n + 1, of
    # either argument (h_n alone can sit at a zero)
    env_t, env_p = at(h, n + 1)
    floor = np.where(confluent, 0.0, 1e-13 * root * env_t * env_p / np.abs(gap))
    return np.abs(direct - quot), \
        np.maximum(1e-10 * np.maximum(1.0, np.abs(direct)), floor), \
        dict(n=n, tau=tau, taup=taup, direct=direct, quotient=quot)


# ---------------------------------------------------------------------------
# randomized suites: each draws one block of BLOCK cases from its generator
# and returns its batched evaluator with the case columns; a failing case's
# dump is its row of the columns that evaluator returned
# ---------------------------------------------------------------------------

def _suite_phase(rng):
    m = rng.integers(2, M_CAP + 1, BLOCK)
    x = rng.normal(size=(BLOCK, 2))
    ys = _live_only(m, rng.normal(size=(BLOCK, M_CAP - 1, 2)))
    return _batch_phase, (m, x, ys)


def _suite_frame(rng):
    m = rng.integers(2, M_CAP + 1, BLOCK)
    ys = _live_only(m, rng.normal(size=(BLOCK, M_CAP - 1, 2)))
    ang = rng.uniform(0, 2 * math.pi, BLOCK)
    return _batch_frame, (m, ys, np.stack([np.cos(ang), np.sin(ang)], axis=1))


def _suite_exponent(rng):
    m = rng.integers(2, M_CAP + 1, BLOCK)
    q, xi = rng.integers(1, m), rng.normal(size=BLOCK)
    tau = _live_only(m, rng.uniform(0.05, 3.0, size=(BLOCK, M_CAP - 1)))
    return _batch_exponent, (m, q, xi, tau)


def _suite_t_tables(rng):
    m = rng.integers(3, M_CAP + 1, BLOCK)
    q = rng.integers(1, m - 1)
    tau = _live_only(m, rng.uniform(0.05, 3.0, size=(BLOCK, M_CAP - 1)))
    return _batch_t_tables, (m, q, tau)


def _suite_laguerre_maps(rng):
    m = rng.integers(2, M_CAP + 1, BLOCK)
    q, (re, im, xi) = rng.integers(1, m), rng.normal(size=(3, BLOCK))
    tau = _live_only(m, rng.uniform(0.05, 3.0, size=(BLOCK, M_CAP - 1)))
    return _batch_laguerre_maps, (m, q, re + 1j * im, xi, tau)


def _suite_hermite_identity(rng):
    ell = rng.integers(0, 13, BLOCK)
    return _batch_hermite, (ell, *rng.uniform(-4, 4, size=(2, BLOCK)))


def _suite_mehler(rng):
    xi, tau = rng.uniform(-3, 3, size=(2, BLOCK))
    return _batch_mehler, (xi, tau, rng.uniform(-0.8, 0.8, BLOCK))


def _suite_cd(rng):
    n = rng.integers(0, 21, BLOCK)
    tau, other = rng.uniform(-3, 3, size=(2, BLOCK))
    taup = np.where(rng.random(BLOCK) < 0.15, tau, other)
    return _batch_christoffel_darboux, (n, tau, taup)


def _row(columns: dict, i: int) -> dict:
    """Row i of an evaluator's columns as JSON values, the chain variables
    ys, tau and t cut to the row's m-1 live entries."""
    row = {k: v[i] for k, v in columns.items()}
    if "m" in row:
        row |= {k: row[k][:row["m"] - 1] for k in ("ys", "tau", "t") if k in row}
    return {k: _json(v) for k, v in row.items()}


SUITES = {
    "phase-telescoping": _suite_phase,
    "local-frame": _suite_frame,
    "exponent": _suite_exponent,
    "t-tables": _suite_t_tables,
    "laguerre-maps": _suite_laguerre_maps,
    "hermite-identity": _suite_hermite_identity,
    "mehler": _suite_mehler,
    "christoffel-darboux": _suite_cd,
}


def run_suite(name: str, cases: int = 1000, seed: int = 0) -> dict:
    """Run one randomized suite; returns a JSON-ready report.

    Case i is drawn in block i // BLOCK from the generator keyed
    (seed, crc32(name), block), so it is the same for every case count and
    whether the suite runs alone or in `run_all_suites`. Each block is
    evaluated once; a failing case's dump is its row of the evaluator's
    columns with its error, tolerance and case number, and running the same
    seed with `cases = case + 1` reproduces it as the last case.
    """
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}; known: {sorted(SUITES)}")
    for label, value, low in (("cases", cases, 1), ("seed", seed, 0)):
        if not isinstance(value, (int, np.integer)) or value < low:
            raise DomainError(f"{label} must be an integer >= {low}, got {value!r}")
    failures = []
    max_err = max_ratio = 0.0
    for start in range(0, cases, BLOCK):
        rng = np.random.default_rng([seed, zlib.crc32(name.encode()), start // BLOCK])
        evaluate, columns = SUITES[name](rng)
        err, tol, out = evaluate(*(c[:cases - start] for c in columns))
        max_err = max(max_err, float(err.max()))
        max_ratio = max(max_ratio, float((err / np.maximum(tol, 1e-300)).max()))
        for i in np.flatnonzero(~(err <= tol)).tolist():
            failures.append(_row(out, i) | {"max_error": float(err[i]),
                                            "tolerance": float(tol[i]),
                                            "case": start + i})
    return {"identity": name, "cases": cases, "seed": seed,
            "failures": failures, "max_error": max_err,
            "max_error_over_tolerance": max_ratio,
            "passed": not failures}


def run_all_suites(cases: int = 1000, seed: int = 0) -> dict:
    reports = {name: run_suite(name, cases=cases, seed=seed) for name in SUITES}
    return {"suites": reports,
            "passed": all(r["passed"] for r in reports.values())}
