"""Output checks and independent accuracy references.

Each check parses one request's output and returns ``(ok, error, note)``:
``ok`` says whether the output is right, ``error`` is the worst relative
error against a reference computed here (``None`` where the request has no
reference), and ``note`` says what failed. No reference goes through the
``lle`` route being timed:

- coefficients: the Gram matrix of truncated Hermite overlaps in closed
  form (``erfc`` plus a Christoffel-Darboux sum on the diagonal, Wronskians
  off it) from scipy's Hermite polynomials, integrated on a Gauss-Legendre
  rule of its own;
- lowest-level disk entropies: ``sum_m h_alpha(P(m+1, B L^2/2))`` from scipy
  ``gammainc``;
- Nystrom spectra: the trace identity ``sum mu = (n+1) B L^2 |Lambda| / 2pi``
  with ``|Lambda|`` from the Fourier coefficients; the disk/Nystrom
  ``max_abs_diff`` the CLI reports for ``both``;
- translate intersections: the lens area for disks (and stars with only
  ``a0``), the rectangle area for the polygon.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import entr, erfc, eval_hermite, gammainc, gammaincc, gammaln

# reference Gauss-Legendre panels for the xi integrals
_PANEL_NODES, _PANEL_WEIGHTS = leggauss(40)
_PANEL_WIDTH = 0.5


# ---------------------------------------------------------------------------
# spectral functions and the truncated-Hermite Gram matrix
# ---------------------------------------------------------------------------

def spectral_function(spec: str):
    """(f, f(1)) for 'renyi:a' | 'monomial:m' | 'gtilde'.

    f takes t and s = 1 - t separately: near t = 1 the caller knows s to full
    relative precision, which t^alpha terms with alpha < 1 need.
    """
    if spec == "gtilde":
        return (lambda t, s: t * s), 0.0
    head, _, arg = spec.partition(":")
    if head == "monomial":
        m = int(arg)
        return (lambda t, s: t ** m), 1.0
    alpha = float(arg)
    if alpha == 1.0:
        return (lambda t, s: entr(t) + entr(s)), 0.0
    return (lambda t, s: np.log(t ** alpha + s ** alpha) / (1.0 - alpha)), 0.0


def hermite_functions(nmax: int, x: np.ndarray) -> np.ndarray:
    """psi_0..psi_nmax at x, shape (nmax+1, x.size), from scipy's H_n."""
    out = np.empty((nmax + 1, x.size))
    for n in range(nmax + 1):
        log_norm = -0.5 * (n * math.log(2.0) + gammaln(n + 1.0)
                           + 0.5 * math.log(math.pi))
        out[n] = eval_hermite(n, x) * np.exp(log_norm - 0.5 * x * x)
    return out


def overlap_gram(levels: list[int], xi: np.ndarray) -> np.ndarray:
    """G[i, a, b] = integral of psi_a psi_b over [xi_i, inf), closed form.

    Diagonal: lambda_n = erfc(xi)/2 + sum_{k<=n} psi_k psi_{k-1} / sqrt(2k).
    Off the diagonal: the Wronskian (psi_a' psi_b - psi_a psi_b') / (2(a-b)).
    """
    top = max(levels)
    psi = hermite_functions(top + 1, xi)
    k = np.arange(top + 1, dtype=float)
    lower = np.vstack([np.zeros((1, xi.size)), psi[:-2]])
    dpsi = np.sqrt(k / 2.0)[:, None] * lower \
        - np.sqrt((k + 1.0) / 2.0)[:, None] * psi[1:]
    steps = psi[1:top + 1] * psi[:top] / np.sqrt(2.0 * k[1:])[:, None]
    lam = 0.5 * erfc(xi)[None, :] + np.vstack(
        [np.zeros((1, xi.size)), np.cumsum(steps, axis=0)])
    g = np.empty((xi.size, len(levels), len(levels)))
    for i, a in enumerate(levels):
        g[:, i, i] = lam[a]
        for j in range(i + 1, len(levels)):
            b = levels[j]
            w = (dpsi[a] * psi[b] - psi[a] * dpsi[b]) / (2.0 * (a - b))
            g[:, i, j] = g[:, j, i] = w
    return g


def coefficient_reference(selector: str, fns: list[str]) -> list[float]:
    """M_l(f) or M_{<=n}(f): (1/2pi) integral of sum f(mu) - f(1) mu over xi."""
    kind, _, idx = selector.partition(":")
    n = int(idx)
    levels = [n] if kind == "single" else list(range(n + 1))
    cutoff = 10.0 + math.sqrt(2.0 * n + 1.0)
    edges = np.arange(-cutoff, cutoff + _PANEL_WIDTH, _PANEL_WIDTH)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    xi = (mid[:, None] + half[:, None] * _PANEL_NODES[None, :]).ravel()
    wts = (half[:, None] * _PANEL_WEIGHTS[None, :]).ravel()
    # eigenvalues above 1/2 are taken as 1 - nu from the small eigenvalues nu
    # of G(-xi) = 1 - D G(xi) D (parity, D = diag((-1)^l)), so that 1 - mu
    # keeps its digits where f(mu) needs them
    mu = np.clip(_gram_eigenvalues(levels, xi), 0.0, 1.0)
    nu = np.clip(_gram_eigenvalues(levels, -xi), 0.0, 1.0)
    low, high = mu <= 0.5, nu < 0.5
    out = []
    for spec in fns:
        f, f_one = spectral_function(spec)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.where(low, f(mu, 1.0 - mu), 0.0) \
                + np.where(high, f(1.0 - nu, nu), 0.0)
        integrand = np.sum(vals, axis=1) - f_one * np.sum(mu, axis=1)
        out.append(float(np.dot(wts, integrand)) / (2.0 * math.pi))
    return out


def _gram_eigenvalues(levels: list[int], xi: np.ndarray) -> np.ndarray:
    g = overlap_gram(levels, xi)
    return np.linalg.eigvalsh(g) if len(levels) > 1 else g[:, :, 0]


def _rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / max(abs(ref), 1.0)


# ---------------------------------------------------------------------------
# per-kind checks
# ---------------------------------------------------------------------------

# A reference comparison fails the request beyond this relative error. It
# only catches wrong answers: the achieved digits are the accuracy metric.
# (Renyi indices below 1 lose digits in (1 - t)^alpha next to t = 1, so
# coefficients with alpha = 0.5 reach only about 1e-6 at n = 45.)
REF_TOL = 1e-5


def check_coeff(params: dict, stdout: str, files: dict):
    rows = json.loads(stdout)["rows"]
    fns = params["fns"]
    if [r["f"] for r in rows] != [f"renyi:{float(s.split(':')[1]):g}"
                                   if s.startswith("renyi") else s for s in fns]:
        return False, None, "row labels do not match the requested functions"
    refs = coefficient_reference(params["selector"], fns)
    err = 0.0
    for row, ref in zip(rows, refs):
        if not (math.isfinite(row["value"]) and row["error"] >= 0.0):
            return False, None, f"bad value/error in row {row}"
        err = max(err, _rel_err(row["value"], ref))
    if err > REF_TOL:
        return False, err, f"coefficient off its reference by {err:.2e}"
    return True, err, ""


def _lowest_level_entropies(b: float, alpha: float, scales, cutoff: float):
    f, _ = spectral_function(f"renyi:{alpha!r}")
    out = []
    for scale in scales:
        x = 0.5 * b * scale * scale
        m = np.arange(1.0, x + 40.0 * math.sqrt(x + 1.0) + 200.0)
        mu, rest = gammainc(m, x), gammaincc(m, x)
        keep = mu >= cutoff
        out.append(float(np.sum(f(mu[keep], rest[keep]))))
    return out


def check_scaling(params: dict, stdout: str, files: dict):
    report = json.loads(stdout)
    scales = report["config"]["L"]
    if len(scales) != params["count"]:
        return False, None, f"{len(scales)} scales, expected {params['count']}"
    fit = report["fit"]
    if not (math.isfinite(fit["c1"]) and 0.9 < report["ratio"] < 1.1):
        return False, None, f"area-law slope ratio {report['ratio']}"
    # the coefficient is checked here; its digits are coeff-table's metric
    sel = params["selector"]
    m_ref = coefficient_reference(sel, [f"renyi:{params['alpha']!r}"])[0]
    m_err = _rel_err(report["coefficient"]["M"], m_ref)
    if m_err > REF_TOL:
        return False, None, f"coefficient M off its reference by {m_err:.2e}"
    if sel != "upto:0":
        return True, None, ""
    series = list(csv.reader(io.StringIO(files[params["csv"]])))[1:]
    values = [float(v) for _, v in series]
    refs = _lowest_level_entropies(params["B"], params["alpha"], scales,
                                   report["config"]["cutoff"])
    err = max(_rel_err(v, r) for v, r in zip(values, refs))
    if len(values) != len(refs) or err > REF_TOL:
        return False, err, f"entropy series off its reference by {err:.2e}"
    return True, err, ""


def _region_area(region: dict) -> float:
    if region["type"] == "disk":
        return math.pi * region["R"] ** 2
    c = region["coeffs"]
    return math.pi * c[0] ** 2 + 0.5 * math.pi * sum(v * v for v in c[1:])


def _spectrum_trace_error(spec: dict, params: dict) -> float:
    mu = np.asarray(spec["eigenvalues"])
    if mu.size and (mu.min() < 0.0 or mu.max() > 1.0 or np.any(np.diff(mu) > 0)):
        return math.inf
    count = 1 if params["selector"].startswith("single") else \
        int(params["selector"].split(":")[1]) + 1
    trace = count * params["B"] * params["L"] ** 2 \
        * _region_area(params["region"]) / (2.0 * math.pi)
    return abs(float(mu.sum()) - trace) / trace


def check_nystrom2d(params: dict, stdout: str, files: dict):
    spec = json.loads(stdout)["result"]
    err = _spectrum_trace_error(spec, params)
    if not spec["solver"].startswith("nystrom2d/") or err > REF_TOL:
        return False, err, f"trace identity off by {err:.2e}"
    return True, err, ""


def check_both(params: dict, stdout: str, files: dict):
    res = json.loads(stdout)["result"]
    err = max(_spectrum_trace_error(res["nystrom2d"], params),
              _spectrum_trace_error(res["disk"], params),
              res["max_abs_diff"])
    if res["count_diff"] != 0 or err > REF_TOL:
        return False, err, (f"solvers disagree: count_diff {res['count_diff']}, "
                            f"worst error {err:.2e}")
    return True, err, ""


def _rocca_rows(stdout: str):
    rows = list(csv.reader(io.StringIO(stdout)))
    if rows[0] != ["eps", "exact_removed", "first_order", "second_order",
                   "residual_over_eps2"]:
        raise ValueError("unexpected rocca header")
    return rows[1:]


def _lens_removed(radius: float, d: float) -> float:
    inter = 2.0 * radius ** 2 * math.acos(d / (2.0 * radius)) \
        - 0.5 * d * math.sqrt(4.0 * radius ** 2 - d * d)
    return math.pi * radius ** 2 - inter


def _check_rows(params: dict, stdout: str, exact):
    lo, hi = params["eps_exps"]
    rows = _rocca_rows(stdout)
    if len(rows) != hi - lo + 1:
        return False, None, f"{len(rows)} eps rows, expected {hi - lo + 1}"
    err = 0.0 if exact else None
    vmax = max(math.hypot(*v) for v in params["vectors"])
    for row in rows:
        eps, removed, first = (float(v) for v in row[:3])
        if not (removed > 0.0 and abs(removed - first) <= 2.0 * eps * first):
            return False, err, f"removed area {removed} vs first order {first}"
        if row[4] and abs(float(row[4])) > 5.0 * eps * vmax ** 3:
            return False, err, f"second-order residual {row[4]} at eps {eps}"
        if exact is not None:
            ref = exact(eps)
            err = max(err, abs(removed - ref) / ref)
    if err is not None and err > REF_TOL:
        return False, err, f"removed area off its closed form by {err:.2e}"
    return True, err, ""


def check_rocca_star(params: dict, stdout: str, files: dict):
    return _check_rows(params, stdout, None)


def check_rocca_lens(params: dict, stdout: str, files: dict):
    d = math.hypot(*params["vectors"][0])
    return _check_rows(params, stdout,
                       lambda eps: _lens_removed(params["radius"], eps * d))


def check_rocca_polygon(params: dict, stdout: str, files: dict):
    v = np.asarray(params["vertices"])
    e1, e2 = v[1] - v[0], v[3] - v[0]
    w, h = np.linalg.norm(e1), np.linalg.norm(e2)
    vec = np.asarray(params["vectors"][0])
    a, b = abs(vec @ e1) / w, abs(vec @ e2) / h
    return _check_rows(params, stdout,
                       lambda eps: w * h - (w - eps * a) * (h - eps * b))


def check_verify(params: dict, stdout: str, files: dict):
    report = json.loads(stdout)
    suites = report["suites"]
    if any(s["cases"] != 1000 or s["passed"] != (not s["failures"])
           for s in suites.values()):
        return False, None, "inconsistent suite report"
    if not report["passed"] or report["config"]["seed"] != params["seed"]:
        return False, None, "verification report says failed"
    return True, None, ""


CHECKS = {
    "coeff": check_coeff,
    "scaling": check_scaling,
    "nystrom2d": check_nystrom2d,
    "both": check_both,
    "rocca-star": check_rocca_star,
    "rocca-lens": check_rocca_lens,
    "rocca-disk": check_rocca_lens,
    "rocca-polygon": check_rocca_polygon,
    "verify": check_verify,
}


def check(request, stdout: str, files: dict):
    """Run the request kind's check; a malformed output is a failed check."""
    try:
        return CHECKS[request.kind](request.params, stdout, files)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return False, None, f"unparseable output: {type(exc).__name__}: {exc}"
