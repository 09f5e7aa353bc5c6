"""Command-line front end: coefficients, spectra, scaling fits, verification.

Exit codes are a stable contract: 0 success, 1 verification failure, 2 usage
error, 3 numeric/capability error. Every output embeds the fully resolved
configuration, and repeated runs are byte-identical for fixed inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import coeffs, geometry, region_sim
from .disk_spectra import disk_spectrum, entropy_from_spectrum
from .errors import AccuracyError, DomainError, LleError, UsageError
from .landau import LevelSelector, MagneticSetup, nu_from_mu

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

# most scales one `lle scaling` request may ask for; each is a disk solve
_MAX_SCALES = 10_000


def _parse_selector(text: str) -> LevelSelector:
    head, sep, arg = text.partition(":")
    if not sep or head not in ("single", "upto"):
        raise UsageError(f"selector must be single:<l> or upto:<n>, got {text!r}")
    try:
        idx = int(arg)
    except ValueError as exc:
        raise UsageError(f"bad level index in {text!r}") from exc
    return LevelSelector(head, idx)


def _parse_region(text: str) -> geometry.Region:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"region is not valid JSON: {exc}") from exc
    return geometry.region_from_json(obj)


def _write(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        # a path that cannot be written is the caller's error, not a failed
        # verification: exit 1 is reserved for that
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _check_writable(*paths):
    """`_write`'s UsageError, before a request writes any of its files, for
    a path that is a directory or whose parent directory is missing."""
    for path in filter(lambda p: p not in (None, "-"), paths):
        if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
            raise UsageError(f"cannot write {path}: not a file in a directory")


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, default=float)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_coeff(args) -> int:
    selectors = [_parse_selector(s) for s in args.levels.split(",")]
    fns = [coeffs.spectral_function_from_spec(s) for s in args.f.split(",")]
    rows = []
    for sel in selectors:
        results = coeffs.coeff_with_error(sel, fns, tol=args.tol)
        rows += [{"levels": f"{sel.kind}:{sel.index}", "f": fn.label,
                  "value": value, "error": err}
                 for fn, (value, err) in zip(fns, results)]
    config = {"levels": args.levels, "f": args.f, "tol": args.tol}
    if args.format == "csv":
        lines = ["levels,f,value,error"]
        lines += [f"{r['levels']},{r['f']},{r['value']:.12g},{r['error']:.3g}"
                  for r in rows]
        _write(args.out, "\n".join(lines) + "\n")
    else:
        _write(args.out, _dump({"config": config, "rows": rows}))
    return EXIT_OK


def cmd_spectrum(args) -> int:
    region = _parse_region(args.region)
    setup = MagneticSetup(args.B)
    selector = _parse_selector(args.levels)
    config = {"region": geometry.region_to_json(region), "B": args.B,
              "levels": args.levels, "L": args.L, "solver": args.solver,
              "cutoff": args.cutoff}
    # looked up per call, so that a name patched on its module is the one run
    solvers = {"disk": disk_spectrum, "nystrom2d": region_sim.region_spectrum}
    names = ("disk", "nystrom2d") if args.solver == "both" else (args.solver,)
    result = {name: solvers[name](setup, selector, region, args.L,
                                  cutoff=args.cutoff).to_json() for name in names}
    if args.solver == "both":
        a, b = (np.asarray(result[name]["eigenvalues"]) for name in names)
        a, b = a[a > 1e-6], b[b > 1e-6]
        n = min(a.size, b.size)
        result["max_abs_diff"] = float(np.max(np.abs(a[:n] - b[:n]))) if n else 0.0
        result["count_diff"] = abs(a.size - b.size)
    payload = result[args.solver] if args.solver != "both" else result
    _write(args.out, _dump({"config": config, "result": payload}))
    return EXIT_OK


def cmd_scaling(args) -> int:
    region = _parse_region(args.region)
    setup = MagneticSetup(args.B)
    # the ground state at chemical potential mu fills the levels up to nu
    levels = args.levels if args.mu is None else f"upto:{nu_from_mu(args.mu, args.B)}"
    selector = _parse_selector(levels)
    if not args.L_step > 0.0:
        raise UsageError(f"--L-step must be positive, got {args.L_step}")
    if not (math.isfinite(args.L_min) and math.isfinite(args.L_max)):
        raise UsageError(f"the L range must be finite, got {args.L_min}..{args.L_max}")
    # the count np.arange would allocate, refused before it does; a step far
    # below the span overflows the quotient to inf
    stop = args.L_max + 1e-9
    if not (stop - args.L_min) / args.L_step <= _MAX_SCALES:
        raise UsageError(f"the L range {args.L_min}..{args.L_max} in steps of "
                         f"{args.L_step} holds more than {_MAX_SCALES} scales")
    scales = np.arange(args.L_min, stop, args.L_step)
    if scales.size < 3:
        raise UsageError("need at least 3 scales in the L range")
    f = coeffs.SpectralFunction.renyi(args.alpha)
    values = [entropy_from_spectrum(disk_spectrum(setup, selector, region,
                                                  float(L), cutoff=args.cutoff), f)
              for L in scales]
    fit = region_sim.scaling_fit(scales, values, model="linear")
    [(m_coeff, m_err)] = coeffs.coeff_with_error(selector, [f], tol=1e-8)
    predicted = math.sqrt(args.B) * geometry.perimeter(region) * m_coeff
    config = {"region": geometry.region_to_json(region), "B": args.B,
              "levels": levels, "alpha": args.alpha,
              "L": [float(v) for v in scales], "cutoff": args.cutoff}
    if args.mu is not None:
        config["mu"] = args.mu
    report = {
        "config": config,
        "fit": fit.to_json(),
        "coefficient": {"M": m_coeff, "error": m_err},
        "predicted_c1": predicted,
        "ratio": fit.c1 / predicted,
    }
    _check_writable(args.csv, args.out)
    if args.csv:
        rows = [f"{L:.12g},{v:.16g}" for L, v in zip(scales, values)]
        _write(args.csv, "\n".join(["L,value"] + rows) + "\n")
    _write(args.out, _dump(report))
    return EXIT_OK


def cmd_verify(args) -> int:
    # loaded here alone: no other subcommand pays for compiling it
    from . import identities

    if args.suite == "all":
        report = identities.run_all_suites(cases=args.cases, seed=args.seed)
    else:
        report = identities.run_suite(args.suite, cases=args.cases,
                                      seed=args.seed)
    passed = report["passed"]
    report = {"config": {"suite": args.suite, "cases": args.cases,
                         "seed": args.seed}} | report
    _write(args.out, _dump(report))
    return EXIT_OK if passed else EXIT_VERIFY_FAIL


def _check_resolved(region, vectors, t1: float, smooth: bool, ks) -> None:
    """AccuracyError if some eps = 2^-k in ks leaves a row to roundoff.

    The removed area is area - intersection, whose budget is delta, 64 ulps
    of the area: the first order eps t1 must stay above 2^20 delta, and on a
    smooth region the residual's roundoff delta/eps^2 below its O(eps) size
    eps max|v|^3. Zero vectors remove nothing and are exact.
    """
    v_max = max(math.hypot(x, y) for x, y in vectors)
    if v_max == 0.0:
        return
    delta = 2.0 ** -46 * geometry.area(region)
    for k in ks:
        eps = 2.0 ** -k
        c = eps * v_max
        if eps * t1 < 2.0 ** 20 * delta or (smooth and delta > c * c * c):
            raise AccuracyError(
                f"eps = 2^-{k}: area - intersection carries a roundoff of "
                f"about {delta:.2g}, which the first order {eps * t1:.2g} "
                f"(and on a smooth region the residual term "
                f"eps^3 max|v|^3 = {c * c * c:.2g}) does not resolve",
                achieved=delta)


def cmd_rocca(args) -> int:
    region = _parse_region(args.region)
    try:
        vectors = json.loads(args.vectors)
        vectors = [(float(x), float(y)) for x, y in vectors]
    except (json.JSONDecodeError, TypeError, ValueError) as exc:
        raise UsageError(f"vectors must be JSON [[x,y],...]: {exc}") from exc
    if args.eps_min_exp > args.eps_max_exp:
        raise UsageError(f"empty eps range: --eps-min-exp {args.eps_min_exp} > "
                         f"--eps-max-exp {args.eps_max_exp}")
    # eps^2 = 2^-2k must stay below the overflow threshold 2^max_exp and at or
    # above the smallest subnormal 2^(min_exp - mant_dig); eps then does too
    fmt = sys.float_info
    k_lo, k_hi = -((fmt.max_exp - 1) // 2), (fmt.mant_dig - fmt.min_exp) // 2
    if args.eps_min_exp < k_lo or args.eps_max_exp > k_hi:
        raise UsageError(f"eps = 2^-k needs {k_lo} <= k <= {k_hi}, so that eps "
                         f"and eps^2 are finite and nonzero doubles")
    t1 = geometry.roccaforte_first_order(region, vectors)
    smooth = not isinstance(region, geometry.Polygon)  # polygons: no curvature
    _check_resolved(region, vectors, t1, smooth,
                    range(args.eps_min_exp, args.eps_max_exp + 1))
    t2 = geometry.roccaforte_second_order(region, vectors) if smooth else None
    lines = ["eps,exact_removed,first_order,second_order,residual_over_eps2"]
    for k in range(args.eps_min_exp, args.eps_max_exp + 1):
        eps = 2.0 ** -k
        fam = geometry.TranslateFamily(vectors=tuple(vectors), eps=eps)
        _, removed = geometry.intersect_translates_area(region, fam)
        first = eps * t1
        if t2 is None:
            lines.append(f"{eps:.10g},{removed:.15g},{first:.15g},,")
        else:
            second = eps * t1 + eps * eps * t2
            resid = (removed - second) / (eps * eps)
            lines.append(f"{eps:.10g},{removed:.15g},{first:.15g},"
                         f"{second:.15g},{resid:.6g}")
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lle",
        description="Boundary coefficients and spectra of localized "
                    "Landau-level projections")
    parser.add_argument("--threads", type=int, default=1,
                        help="no effect: every request runs on the calling "
                             "thread; accepted for existing scripts and the "
                             "benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeff", help="boundary coefficients M(f)")
    p.add_argument("--levels", required=True,
                   help="comma list of single:<l> / upto:<n>")
    p.add_argument("--f", required=True,
                   help="comma list of renyi:<a> / monomial:<m> / gtilde")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default="-")

    p = sub.add_parser("spectrum", help="localized-projection eigenvalues")
    p.add_argument("--region", required=True, help="region JSON")
    p.add_argument("--B", type=float, required=True)
    p.add_argument("--levels", required=True)
    p.add_argument("--L", type=float, required=True)
    p.add_argument("--solver", choices=("disk", "nystrom2d", "both"),
                   default="disk")
    p.add_argument("--cutoff", type=float, default=1e-12)
    p.add_argument("--out", default="-")

    p = sub.add_parser("scaling", help="entropy area-law scaling fit")
    p.add_argument("--region", required=True)
    p.add_argument("--B", type=float, required=True)
    levels = p.add_mutually_exclusive_group(required=True)
    levels.add_argument("--levels", help="single:<l> or upto:<n>")
    levels.add_argument("--mu", type=float,
                        help="chemical potential: the levels up to "
                             "nu = floor((mu/B - 1)/2)")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--L-min", type=float, required=True)
    p.add_argument("--L-max", type=float, required=True)
    p.add_argument("--L-step", type=float, default=2.0)
    p.add_argument("--cutoff", type=float, default=1e-12)
    p.add_argument("--csv", default=None, help="also write the (L, S) series")
    p.add_argument("--out", default="-")

    p = sub.add_parser("verify", help="identity verification suites")
    p.add_argument("--suite", default="all",
                   help="all or the name of one suite (an unknown name is "
                        "refused with the list of suites)")
    p.add_argument("--cases", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")

    p = sub.add_parser("rocca", help="translate-intersection area expansion")
    p.add_argument("--region", required=True)
    p.add_argument("--vectors", required=True, help="JSON [[x,y],...]")
    p.add_argument("--eps-min-exp", type=int, default=3,
                   help="smallest k in eps = 2^-k")
    p.add_argument("--eps-max-exp", type=int, default=9)
    p.add_argument("--out", default="-")
    return parser


# built once per process: it holds no request data, and main dispatches on
# the subcommand's name, so the parser pins no cmd_* function
_PARSER = build_parser()


def main(argv=None) -> int:
    """Run one lle request given its arguments; return the exit code.

    0 success; 1 a verification suite failed (``lle verify`` alone); 2 usage
    error: a bad flag or value, a region or level outside the domain
    (``UsageError``, ``DomainError``), or an ``--out``/``--csv`` path that
    cannot be written; 3 any other numeric or capability error (``LleError``).
    ``--help`` returns 0. A usage error or an ``LleError`` prints one message
    to stderr and returns its code; it does not raise. main may be called
    repeatedly in one process: every call parses with the one module parser,
    which keeps nothing of a request.
    """
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors and 0 for --help; keep the contract
        return int(exc.code or 0)
    # looked up per call, so that a name patched on this module is the one run
    commands = {"coeff": cmd_coeff, "spectrum": cmd_spectrum,
                "scaling": cmd_scaling, "verify": cmd_verify, "rocca": cmd_rocca}
    try:
        return commands[args.command](args)
    except (UsageError, DomainError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LleError as exc:
        print(f"numeric/capability error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
