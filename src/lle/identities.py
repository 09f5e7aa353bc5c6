"""Executable verification of the substitution-chain and special-function identities.

Each verifier checks one identity pointwise at given inputs and returns a
result carrying the inputs and the achieved error, so a failing case is
immediately reproducible. The randomized suites draw per-case seeds from one
master seed and report as JSON.

The change-of-variables checks run in the inverse direction: starting from
the final variables (xi, tau) they reconstruct the original ones and compare
both sides, which turns the interleaved integral renamings into a pure
pointwise algebra check. For the branch q = m-1 (hence for all of m = 2) the
xi-shift is tau_1/2 rather than (tau_1 + tau_{m-1})/2; with that reading every
identity holds for all m >= 2.

The special-function checks run on Python floats: one `hermite_sweep` per
argument gives every Hermite degree a check needs, and the exact
Hermite-identity left side is one integer numerator over one integer
denominator, rounded once by the integer division.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DomainError, NumericError
from .landau import symplectic
from .specfun import hermite_poly_normalized, hermite_sweep

M_CAP = 8  # randomized suites stop here: all index-branch patterns occur by m = 8


# ---------------------------------------------------------------------------
# integer substitution data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubstitutionPlan:
    """Integer matrices of the sector-q substitution chain for chain length m."""

    m: int
    q: int

    def __post_init__(self):
        if self.m < 2:
            raise DomainError(f"chain length must be >= 2, got {self.m}")
        if not 1 <= self.q <= self.m - 1:
            raise DomainError(f"branch index must lie in 1..{self.m - 1}")

    @property
    def skew(self) -> np.ndarray:
        """S with -1 above, 0 on, +1 below the diagonal ((m-1) x (m-1))."""
        i = np.arange(self.m - 1)
        return np.sign(i[:, None] - i[None, :])

    @property
    def a_inverse(self) -> np.ndarray:
        m, q = self.m, self.q
        ai = np.eye(m - 1, dtype=int)
        ai[np.arange(q - 1), np.arange(1, q)] = -1
        ai[np.arange(q + 1, m - 1), np.arange(q, m - 2)] = -1
        return ai

    @property
    def flip(self) -> np.ndarray:
        """+1 on the first q variables, -1 on the other m-1-q."""
        return np.array([1.0] * self.q + [-1.0] * (self.m - 1 - self.q))

    def xi_shift(self, tau: np.ndarray) -> float:
        # for q = m-1 the negative block is empty and t_m collapses to tau_1
        if self.q == self.m - 1:
            return 0.5 * float(tau[0])
        return 0.5 * float(tau[0] + tau[-1])

    def original_variables(self, xi: float, tau: np.ndarray,
                           undo_tau_shift: bool = False):
        """Invert the chain: final (xi, tau) -> original (xi0, t)."""
        tau = np.asarray(tau, dtype=float)
        if tau.size != self.m - 1:
            raise DomainError(f"tau must have {self.m - 1} components")
        if undo_tau_shift:
            tau = tau - xi
        t = self.a_inverse @ (self.flip * tau)
        xi0 = -xi - self.xi_shift(tau)
        return xi0, t


@dataclass
class VerifyResult:
    """Outcome of one identity check with reproduction data."""

    ok: bool
    max_error: float
    tolerance: float
    inputs: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok


def _check_finite(**values) -> None:
    for name, v in values.items():
        if not math.isfinite(v):
            raise DomainError(f"{name} must be finite, got {v!r}")


def _result(err: float, tol: float, **inputs) -> VerifyResult:
    clean = {k: (v.tolist() if isinstance(v, np.ndarray)
                 else [v.real, v.imag] if isinstance(v, complex) else v)
             for k, v in inputs.items()}
    return VerifyResult(ok=bool(err <= tol), max_error=float(err),
                        tolerance=float(tol), inputs=clean)


# ---------------------------------------------------------------------------
# chain-of-kernels phase and frame identities
# ---------------------------------------------------------------------------

def _phase_sum(ys: np.ndarray) -> float:
    """The y-only double sum sum_{i<j} <y_i|J y_j> of the chain phase."""
    return sum((symplectic(ys[:i].sum(axis=0), ys[i])
                for i in range(1, ys.shape[0])), 0.0)


def verify_phase_telescoping(m: int, x, ys) -> VerifyResult:
    """Telescoped symplectic phase of an m-step kernel chain.

    sum_i <x_i|J x_{i+1}> over the cycle equals the y-only double sum; for
    m = 2 both sides vanish.
    """
    if m < 2:
        raise DomainError(f"chain length must be >= 2, got {m}")
    x = np.asarray(x, dtype=float)
    ys = np.asarray(ys, dtype=float).reshape(m - 1, 2)
    pts = [x]
    for i in range(m - 1):
        pts.append(pts[-1] - ys[i])
    pts.append(x)  # x_m := x
    lhs = sum(symplectic(pts[i], pts[i + 1]) for i in range(m))
    rhs = _phase_sum(ys)
    scale = 1.0 + float(np.max(np.abs(ys))) ** 2 + float(np.max(np.abs(x))) ** 2
    return _result(abs(lhs - rhs), 1e-12 * scale, m=m, x=x, ys=ys,
                   lhs=lhs, rhs=rhs)


def verify_local_frame_reduction(ys, normal) -> VerifyResult:
    """Tangent/normal decomposition y = -z Jn + t n and the skew phase form."""
    ys = np.asarray(ys, dtype=float).reshape(-1, 2)
    m = ys.shape[0] + 1
    n = np.asarray(normal, dtype=float)
    n = n / np.linalg.norm(n)
    jn = np.array([n[1], -n[0]])  # J n
    z = -ys @ jn
    t = ys @ n
    err = 0.0
    for i in range(m - 1):
        rec = -z[i] * jn + t[i] * n
        err = max(err, float(np.max(np.abs(rec - ys[i]))))
        err = max(err, abs(float(ys[i] @ ys[i]) - (z[i] ** 2 + t[i] ** 2)))
    lhs = _phase_sum(ys)
    rhs = float(z @ (SubstitutionPlan(m=m, q=1).skew @ t))
    err = max(err, abs(lhs - rhs))
    scale = 1.0 + float(np.max(np.abs(ys))) ** 2
    return _result(err, 1e-12 * scale, m=m, ys=ys, normal=n)


# ---------------------------------------------------------------------------
# the B.1/B.2 substitution-chain identities
# ---------------------------------------------------------------------------

def _chain_data(plan: SubstitutionPlan, t: np.ndarray):
    big_t = plan.skew @ t
    big_t_full = np.concatenate([big_t, [0.0]])          # T_m := 0
    t_full = np.concatenate([t, [t.sum()]])              # t_m := sum t_i
    return big_t_full, t_full


def verify_exponent_identity(m: int, q: int, xi: float, tau) -> VerifyResult:
    """Quadratic-form identity of the exponent under the substitution chain.

    m xi0^2 + xi0 sum T_i + (sum T_i^2)/4 + (sum t_i^2)/4, evaluated at the
    reconstructed original variables, must equal xi^2 + sum_j (xi + tau_j)^2.
    """
    plan = SubstitutionPlan(m=m, q=q)
    tau = np.asarray(tau, dtype=float)
    xi0, t = plan.original_variables(xi, tau)
    big_t, t_full = _chain_data(plan, t)
    lhs = (m * xi0 ** 2 + xi0 * big_t.sum()
           + 0.25 * np.sum(big_t ** 2) + 0.25 * np.sum(t_full ** 2))
    rhs = xi ** 2 + float(np.sum((xi + tau) ** 2))
    scale = 1.0 + abs(lhs) + abs(rhs)
    return _result(abs(lhs - rhs), 1e-11 * scale, m=m, q=q, xi=xi, tau=tau,
                   lhs=float(lhs), rhs=float(rhs), xi0=xi0, t=t)


def verify_T_in_tau(m: int, q: int, tau) -> VerifyResult:
    """Closed four-branch forms of T_j in the tau variables (q <= m-2).

    Checks the plain, post-sign-flip, and post-shift (tilde) tables, plus the
    tilde-t table.
    """
    if not 1 <= q <= m - 2:
        raise DomainError("the four-branch tables assume 1 <= q <= m-2")
    plan = SubstitutionPlan(m=m, q=q)
    tau = np.asarray(tau, dtype=float)
    ainv, s = plan.a_inverse, plan.skew
    err = 0.0

    t_plain = ainv @ tau
    big_plain = s @ t_plain
    t_flip = ainv @ (plan.flip * tau)
    big_flip = s @ t_flip
    shift = tau[0] + tau[-1]
    for j in range(1, m):
        tj = tau[j - 1]
        if j <= q - 1:
            plain = tau[0] - tj - tau[j] - tau[-1]
            flp = tau[0] - tj - tau[j] + tau[-1]
            tilde_t = tau[j - 1] - tau[j]
        elif j == q:
            plain = tau[0] - tau[q - 1] - tau[-1]
            flp = tau[0] - tau[q - 1] + tau[-1]
            tilde_t = tau[q - 1]
        elif j == q + 1:
            plain = tau[0] + tau[q] - tau[-1]
            flp = tau[0] - tau[q] + tau[-1]
            tilde_t = -tau[q]
        else:
            plain = tau[0] + tau[j - 2] + tau[j - 1] - tau[-1]
            flp = tau[0] - tau[j - 2] - tau[j - 1] + tau[-1]
            tilde_t = tau[j - 2] - tau[j - 1]
        err = max(err, abs(big_plain[j - 1] - plain))
        err = max(err, abs(big_flip[j - 1] - flp))
        err = max(err, abs(big_flip[j - 1] - shift - (flp - shift)))
        err = max(err, abs(t_flip[j - 1] - tilde_t))
    scale = 1.0 + float(np.max(np.abs(tau)))
    return _result(err, 1e-12 * scale, m=m, q=q, tau=tau)


def _claimed_laguerre_argument(plan: SubstitutionPlan, j: int, omega, xi: float,
                               tau: np.ndarray):
    m, q = plan.m, plan.q
    root = lambda v: omega - 2.0j * v
    if j <= q - 1:
        return root(tau[j - 1]) * root(tau[j])
    if j == q:
        return root(xi) * root(tau[q - 1])
    if j == m:
        # for q = m-1 the closing factor supplies the second xi root
        if q == m - 1:
            return root(xi) * root(tau[0])
        return root(tau[0]) * root(tau[m - 2])
    if j == q + 1:
        return root(xi) * root(tau[q])
    return root(tau[j - 2]) * root(tau[j - 1])


def verify_laguerre_argument_maps(m: int, q: int, omega, xi: float,
                                  tau) -> VerifyResult:
    """Product forms of the Laguerre arguments after the full chain.

    Factor j's pre-substitution argument (omega + i(2 xi0 + T_j))^2 + t_j^2,
    evaluated at the reconstructed originals (including the final global
    tau -> tau - xi shift), must equal the claimed two-root product.
    """
    plan = SubstitutionPlan(m=m, q=q)
    tau = np.asarray(tau, dtype=float)
    xi0, t = plan.original_variables(xi, tau, undo_tau_shift=True)
    big_t, t_full = _chain_data(plan, t)
    err = 0.0
    scale = 1.0 + abs(complex(omega)) ** 2 + float(np.max(np.abs(tau))) ** 2 + xi * xi
    for j in range(1, m + 1):
        pre = (omega + 1j * (2.0 * xi0 + big_t[j - 1])) ** 2 + t_full[j - 1] ** 2
        claimed = _claimed_laguerre_argument(plan, j, omega, xi, tau)
        err = max(err, abs(pre - claimed))
    return _result(err, 1e-11 * scale, m=m, q=q, omega=complex(omega), xi=xi,
                   tau=tau)


# ---------------------------------------------------------------------------
# special-function identities
# ---------------------------------------------------------------------------

@functools.cache
def _hermite_lhs_table(ell: int) -> dict:
    """Exact coefficients {(a, b): c} of the Hermite-identity left side.

    (2pi)^{-1/2} integral of L_ell((w-2i xi)(w-2i tau)/2) e^{-w^2/4} dw equals
    sqrt(2) sum c xi^a tau^b. Built from the Laguerre coefficients
    (-1)^j C(ell, j) / j! and the Gaussian moments (2pi)^{-1/2} integral of
    w^{2m} e^{-w^2/4} dw = sqrt(2) 2^m (2m-1)!! alone (odd moments vanish).
    With u = i w the argument is the real polynomial
    -(u^2 + 2u(xi + tau) + 4 xi tau)/2 and u^{2m} has the moment
    sqrt(2) (-2)^m (2m-1)!!.
    """
    # z = -zz/2 with the integer polynomial zz, keys (u, xi, tau); the sums
    # run in integers scaled by ell! 2^ell
    zz = {(2, 0, 0): 1, (1, 1, 0): 2, (1, 0, 1): 2, (0, 1, 1): 4}
    power = {(0, 0, 0): 1}
    scaled: dict = {}
    for j in range(ell + 1):
        # c_j (-1/2)^j ell! 2^ell with c_j = (-1)^j C(ell, j) / j!
        weight = math.comb(ell, j) * math.perm(ell, ell - j) * 2 ** (ell - j)
        for (k, a, b), v in power.items():
            if k % 2 == 0:
                m = k // 2
                moment = (-2) ** m * math.prod(range(1, 2 * m, 2))
                scaled[a, b] = scaled.get((a, b), 0) + weight * v * moment
        nxt: dict = {}
        for (k1, a1, b1), v1 in power.items():
            for (k2, a2, b2), v2 in zz.items():
                key = (k1 + k2, a1 + a2, b1 + b2)
                nxt[key] = nxt.get(key, 0) + v1 * v2
        power = nxt
    denom = math.factorial(ell) * 2 ** ell
    return {key: Fraction(v, denom) for key, v in scaled.items() if v}


def verify_hermite_identity(ell: int, xi: float, tau: float) -> VerifyResult:
    """Gaussian integral of a two-root Laguerre argument against Hermite pairs.

    (2pi)^{-1/2} integral of L_ell((w-2i xi)(w-2i tau)/2) e^{-w^2/4} dw equals
    sqrt(2) H_ell(xi) H_ell(tau) / (2^ell ell!). The left side is evaluated
    exactly from `_hermite_lhs_table` at the float inputs: every coefficient
    has a denominator dividing ell! 2^ell and every double is an integer over
    a power of two, so the sum is one integer numerator over one integer
    denominator, and their division rounds it once, correctly. Non-finite
    inputs, and inputs whose left side or term mass overflows a double,
    raise DomainError. Relative tolerance 1e-9 with a floor of 1e-13 times
    the term mass, the same sum over absolute terms, which scales the
    rounding of a double evaluation where the terms cancel (near the Hermite
    zeros).
    """
    if ell > 12:
        raise DomainError("the Hermite identity tables stop at ell = 12")
    _check_finite(xi=xi, tau=tau)
    # sqrt(2) H_l(xi) H_l(tau) / (2^l l!) in the normalized basis
    hx = hermite_poly_normalized(ell, xi)
    ht = hermite_poly_normalized(ell, tau)
    rhs = math.sqrt(2.0) * hx * ht
    # xi = p/q and tau = r/s; no power exceeds ell, so the sum is one integer
    # over ell! 2^ell q^ell s^ell
    denom = math.factorial(ell) * 2 ** ell
    p, q = float(xi).as_integer_ratio()
    r, s = float(tau).as_integer_ratio()
    xp = [p ** a * q ** (ell - a) for a in range(ell + 1)]
    tp = [r ** b * s ** (ell - b) for b in range(ell + 1)]
    num = mass = 0
    for (a, b), c in _hermite_lhs_table(ell).items():
        term = c.numerator * (denom // c.denominator) * xp[a] * tp[b]
        num += term
        mass += abs(term)
    full = denom * q ** ell * s ** ell
    try:
        lhs = math.sqrt(2.0) * (num / full)
        floor = 1e-13 * math.sqrt(2.0) * (mass / full)
    except OverflowError:
        lhs = math.inf
    if math.isinf(lhs):
        raise DomainError(f"Hermite-identity left side or its term mass "
                          f"overflows a double at (ell={ell}, xi={xi!r}, "
                          f"tau={tau!r})")
    tol = max(1e-9 * abs(rhs), floor)
    return _result(abs(lhs - rhs), tol, ell=ell, xi=xi, tau=tau,
                   lhs=[lhs, 0.0], rhs=rhs)


def verify_mehler(xi: float, tau: float, t: float,
                  n_cap: int = 200) -> VerifyResult:
    """Hermite product generating function against its Gaussian closed form.

    Partial sums run in the normalized-Hermite basis (term_l = htilde_l(xi)
    htilde_l(tau) t^l) until they stabilize; requires |t| < 1 and caps the
    series length. Non-finite inputs, and inputs whose closed form overflows
    a double, raise DomainError.
    """
    if not abs(t) < 1.0:
        raise DomainError(f"Mehler series needs |t| < 1, got {t}")
    _check_finite(xi=xi, tau=tau)
    try:
        closed = (1.0 - t * t) ** -0.5 * math.exp(
            2.0 * xi * tau * t / (1.0 - t) - t * t * (xi + tau) ** 2 / (1.0 - t * t))
    except OverflowError:
        raise DomainError(f"Mehler closed form overflows a double at "
                          f"(xi={xi!r}, tau={tau!r}, t={t!r})") from None
    # normalized recurrence, so H_l(x) t^l / (2^l l!)-type terms stay bounded
    pairs = zip(hermite_sweep(n_cap, xi), hermite_sweep(n_cap, tau))
    h_x, h_t = next(pairs)
    total = h_x * h_t
    mass = abs(total)  # cancellation mass: sum of |terms|
    power = 1.0
    small_run = 0
    converged = False
    for ell, (h_x, h_t) in enumerate(pairs, start=1):
        power *= t
        total += h_x * h_t * power
        mass += abs(h_x * h_t * power)
        # h-tilde oscillates in ell, so one small term proves nothing; demand
        # a run of six before trusting the tail to be gone
        if abs(h_x * h_t * power) < 1e-13 * max(1.0, abs(total)) and ell > 8:
            small_run += 1
            if small_run >= 6:
                converged = True
                break
        else:
            small_run = 0
    if not converged:
        raise NumericError(f"Mehler series not converged within {n_cap} terms "
                           f"at (xi={xi}, tau={tau}, t={t})")
    err = abs(total - closed)
    # the accumulated-roundoff floor 1e-15 * mass is the best doubles can do
    return _result(err, 1e-9 * max(1.0, abs(closed)) + 1e-15 * mass,
                   xi=xi, tau=tau, t=t, series=total, closed=closed)


def verify_christoffel_darboux(n: int, tau: float, taup: float) -> VerifyResult:
    """Direct normalized Hermite sum against the divided-difference quotient.

    One `hermite_sweep` to degree n + 2 per argument serves the direct sum,
    the quotient and, at tau == taup, its confluent form. Non-finite inputs,
    and inputs whose Hermite values overflow a double, raise DomainError.
    """
    if n > 20:
        raise DomainError("Christoffel-Darboux check capped at n = 20")
    if n < 0:
        raise DomainError(f"top degree must be >= 0, got {n}")
    _check_finite(tau=tau, taup=taup)
    ht = list(hermite_sweep(n + 2, tau))
    hp = list(hermite_sweep(n + 2, taup))
    direct = sum(a * b for a, b in zip(ht[:n + 1], hp))
    if tau == taup:
        quot = (n + 1.0) * ht[n + 1] * ht[n + 1] \
            - math.sqrt((n + 1.0) * (n + 2.0)) * ht[n] * ht[n + 2]
    else:
        quot = math.sqrt((n + 1.0) / 2.0) * (
            hp[n] * ht[n + 1] - ht[n] * hp[n + 1]) / (tau - taup)
    if not (math.isfinite(direct) and math.isfinite(quot)):
        raise DomainError(f"normalized Hermite values overflow a double at "
                          f"(n={n}, tau={tau!r}, taup={taup!r})")
    err = abs(direct - quot)
    return _result(err, 1e-10 * max(1.0, abs(direct)), n=n, tau=tau, taup=taup,
                   direct=direct, quotient=quot)


# ---------------------------------------------------------------------------
# randomized suites
# ---------------------------------------------------------------------------

def _suite_phase(rng) -> VerifyResult:
    m = int(rng.integers(2, M_CAP + 1))
    return verify_phase_telescoping(m, rng.normal(size=2),
                                    rng.normal(size=(m - 1, 2)))


def _suite_frame(rng) -> VerifyResult:
    m = int(rng.integers(2, M_CAP + 1))
    ang = rng.uniform(0, 2 * math.pi)
    return verify_local_frame_reduction(rng.normal(size=(m - 1, 2)),
                                        (math.cos(ang), math.sin(ang)))


def _suite_exponent(rng) -> VerifyResult:
    m = int(rng.integers(2, M_CAP + 1))
    q = int(rng.integers(1, m))
    return verify_exponent_identity(m, q, float(rng.normal()),
                                    rng.uniform(0.05, 3.0, size=m - 1))


def _suite_t_tables(rng) -> VerifyResult:
    m = int(rng.integers(3, M_CAP + 1))
    q = int(rng.integers(1, m - 1))
    return verify_T_in_tau(m, q, rng.uniform(0.05, 3.0, size=m - 1))


def _suite_laguerre_maps(rng) -> VerifyResult:
    m = int(rng.integers(2, M_CAP + 1))
    q = int(rng.integers(1, m))
    omega = complex(rng.normal(), rng.normal())
    return verify_laguerre_argument_maps(m, q, omega, float(rng.normal()),
                                         rng.uniform(0.05, 3.0, size=m - 1))


def _suite_hermite_identity(rng) -> VerifyResult:
    ell = int(rng.integers(0, 13))
    return verify_hermite_identity(ell, float(rng.uniform(-4, 4)),
                                   float(rng.uniform(-4, 4)))


def _suite_mehler(rng) -> VerifyResult:
    return verify_mehler(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)),
                         float(rng.uniform(-0.8, 0.8)))


def _suite_cd(rng) -> VerifyResult:
    n = int(rng.integers(0, 21))
    tau = float(rng.uniform(-3, 3))
    if rng.random() < 0.15:
        taup = tau
    else:
        taup = float(rng.uniform(-3, 3))
    return verify_christoffel_darboux(n, tau, taup)


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
    """Run one randomized suite; returns a JSON-ready report."""
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}; known: {sorted(SUITES)}")
    gen = SUITES[name]
    failures = []
    max_err = 0.0
    max_ratio = 0.0
    for case in range(cases):
        rng = np.random.default_rng([seed, case])
        res = gen(rng)
        max_err = max(max_err, res.max_error)
        max_ratio = max(max_ratio, res.max_error / max(res.tolerance, 1e-300))
        if not res.ok:
            failures.append(res.inputs | {"max_error": res.max_error,
                                          "tolerance": res.tolerance,
                                          "case": case})
    return {"identity": name, "cases": cases, "seed": seed,
            "failures": failures, "max_error": max_err,
            "max_error_over_tolerance": max_ratio,
            "passed": not failures}


def run_all_suites(cases: int = 1000, seed: int = 0) -> dict:
    reports = {name: run_suite(name, cases=cases, seed=seed) for name in SUITES}
    return {"suites": reports,
            "passed": all(r["passed"] for r in reports.values())}
