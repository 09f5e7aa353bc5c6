"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line. Criterion 5 is split: its O(1)-band
half passes; the decay-refinement half is asserted faithfully as stated and
is expected red for the cubic moments at levels 1 and 2. With exact disk
eigenvalues those residuals converge to nonzero region-independent
constants (e.g. +0.045944 at the lowest level) that match the
boundary-curvature term of the translate-intersection expansion in closed
form, so no solver or tolerance change can make them decay below 0.05.
"""

import json
import math
import time

import numpy as np
import pytest

from lle import coeffs as cf
from lle import disk_spectra as ds
from lle import geometry as ge
from lle import identities as idn
from lle import region_sim as rs
from lle.cli import main
from lle.landau import LevelSelector, MagneticSetup

import oracles

SETUP = MagneticSetup(1.0)
DISK = ge.Disk(1.0)
STAR15 = ge.SmoothStar((1.0, 0.0, 0.0, 0.0, 0.0, 0.15))
SCALES = np.arange(10.0, 41.0, 2.0)


def _report(num, ok, desc):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    return ok


def _linear_slope(scales, values):
    fit = rs.scaling_fit(scales, values, model="linear")
    return fit.c1


def _entropy_series(selector, alpha, scales=SCALES):
    f = cf.SpectralFunction.renyi(alpha)
    return np.array([ds.entropy_from_spectrum(
        ds.disk_spectrum(SETUP, selector, DISK, float(L)), f) for L in scales])


def test_criterion_1_coefficient_reproduction(capsys):
    start = time.perf_counter()
    code = main(["coeff", "--levels", "single:0", "--f", "renyi:1"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    row = json.loads(out)["rows"][0]
    ok = (code == 0 and abs(row["value"] - 0.203) <= 2e-3
          and row["error"] < 2e-3 and elapsed < 10.0)
    with capsys.disabled():
        _report(1, ok, f"M0(h1) = {row['value']:.6f} (+-{row['error']:.1e}) "
                       f"vs 0.203+-2e-3, {elapsed:.2f}s < 10s")
    assert ok


def test_criterion_2_degenerate_coincidence(capsys):
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0):
        f = cf.SpectralFunction.renyi(alpha)
        [(upto, _)] = cf.coeff_with_error(LevelSelector.upto(0), [f])
        [(single, _)] = cf.coeff_with_error(LevelSelector.single(0), [f])
        worst = max(worst, abs(upto - single))
    ok = worst <= 1e-9
    with capsys.disabled():
        _report(2, ok, f"max |M_<=0 - M_0| = {worst:.2e} <= 1e-9 over alpha in (0.5,1,2)")
    assert ok


def test_criterion_3_entropy_area_law_slope(capsys):
    start = time.perf_counter()
    ratios = {}
    for nu in (0, 1):
        sel = LevelSelector.upto(nu)
        slope = _linear_slope(SCALES, _entropy_series(sel, 1.0))
        [(m, _)] = cf.coeff_with_error(sel, [cf.SpectralFunction.renyi(1.0)])
        ratios[nu] = slope / (2.0 * math.pi * m)
    elapsed = time.perf_counter() - start
    ok = all(0.99 <= r <= 1.01 for r in ratios.values()) and elapsed < 300.0
    with capsys.disabled():
        _report(3, ok, f"slope/(2pi M): nu=0 -> {ratios[0]:.5f}, "
                       f"nu=1 -> {ratios[1]:.5f} in [0.99, 1.01]; "
                       f"{elapsed:.1f}s < 300s")
    assert ok


def test_criterion_4_single_level_slopes(capsys):
    devs = {}
    for ell in (1, 2):
        sel = LevelSelector.single(ell)
        for alpha in (1.0, 2.0):
            slope = _linear_slope(SCALES, _entropy_series(sel, alpha))
            [(m, _)] = cf.coeff_with_error(sel, [cf.SpectralFunction.renyi(alpha)])
            devs[(ell, alpha)] = abs(slope / (2.0 * math.pi * m) - 1.0)
    worst = max(devs.values())
    ok = worst <= 0.015
    with capsys.disabled():
        _report(4, ok, f"worst slope deviation {worst:.4%} <= 1.5% "
                       f"over ell in (1,2), alpha in (1,2)")
    assert ok


def _moment_residuals():
    out = {}
    for ell in (0, 1, 2):
        for m in (2, 3):
            [(j, _)] = cf.coeff_with_error(LevelSelector.single(ell),
                                           [cf.SpectralFunction.monomial(m)])
            res = {}
            for L in SCALES:
                tr = oracles.disk_trace_moment(SETUP, LevelSelector.single(ell),
                                               float(L), m)
                res[L] = tr - L * L * math.pi / (2 * math.pi) \
                    - L * 2.0 * math.pi * j
            out[(ell, m)] = res
    return out


RESIDUALS = _moment_residuals()


def test_criterion_5_moment_band(capsys):
    worst = max(abs(r) for res in RESIDUALS.values() for r in res.values())
    ok = worst < 0.5
    with capsys.disabled():
        _report("5a", ok, f"moment residual band: max |r| = {worst:.3f} < 0.5 "
                          f"over m in (2,3), ell in (0,1,2), L in [10,40]")
    assert ok


def test_criterion_5_refinement_decay(capsys):
    # faithful to the criterion as stated: |r(40)| < |r(10)| and |r(40)| < 0.05
    # for every (ell, m). Expected red for m=3 at ell in {1, 2}: the residual
    # converges to the nonzero boundary-curvature constant rather than to 0
    # (see the module docstring).
    failures = []
    for (ell, m), res in sorted(RESIDUALS.items()):
        r10, r40 = res[10.0], res[40.0]
        if not (abs(r40) < abs(r10) and abs(r40) < 0.05):
            failures.append(f"ell={ell} m={m}: |r(40)|={abs(r40):.4f} "
                            f"(|r(10)|={abs(r10):.4f})")
    ok = not failures
    with capsys.disabled():
        _report("5b", ok, "refinement decay |r(40)| < min(|r(10)|, 0.05)"
                + ("" if ok else "; blocked cases: " + "; ".join(failures)
                   + " [residual converges to a nonzero universal constant]"))
    assert ok, ("second-order refinement fails for cubic moments: "
                + "; ".join(failures))


def test_criterion_6_identity_suites(capsys):
    start = time.perf_counter()
    report = idn.run_all_suites(cases=1000, seed=20_08)
    elapsed = time.perf_counter() - start
    ok = report["passed"] and elapsed < 120.0
    with capsys.disabled():
        _report(6, ok, f"8 identity suites x 1000 seeded cases, "
                       f"{elapsed:.1f}s < 120s")
    assert ok


def test_criterion_7_roccaforte_expansion(capsys):
    exps = range(3, 10)
    checks = []
    for region, vectors in ((DISK, [(1.0, 0.0)]),
                            (STAR15, [(1.0, 0.2), (-0.3, 0.7)])):
        t1 = ge.roccaforte_first_order(region, vectors)
        t2 = ge.roccaforte_second_order(region, vectors)
        r1, r2 = [], []
        for k in exps:
            eps = 2.0 ** -k
            fam = ge.TranslateFamily(vectors=tuple(vectors), eps=eps)
            _, removed = ge.intersect_translates_area(region, fam)
            r1.append(abs(removed - eps * t1) / eps)
            r2.append(abs(removed - eps * t1 - eps * eps * t2) / eps ** 2)
        checks.append(bool(np.all(np.diff(r1) < 0) and np.all(np.diff(r2) < 0)))
    fam = ge.TranslateFamily(vectors=((1.0, 0.0),), eps=0.125)
    square = ge.Polygon(((0, 0), (1, 0), (1, 1), (0, 1)))
    _, removed = ge.intersect_translates_area(square, fam)
    slab_exact = abs(removed - 0.125 * ge.roccaforte_first_order(
        square, [(1.0, 0.0)])) < 1e-14
    ok = all(checks) and slab_exact
    with capsys.disabled():
        _report(7, ok, f"residual/eps and residual/eps^2 decrease monotonically "
                       f"(disk: {checks[0]}, star: {checks[1]}); "
                       f"polygon slab exact: {slab_exact}")
    assert ok


def test_criterion_8_schatten_linear_growth(capsys):
    ratios = {}
    for p in (0.5, 1.0):
        vals = []
        for L in (10.0, 20.0, 30.0, 40.0):
            spec = ds.disk_spectrum(SETUP, LevelSelector.single(0), DISK, L)
            cross = ds.entropy_from_spectrum(
                spec, lambda mu: (mu * (1.0 - mu)) ** (0.5 * p))
            vals.append(cross / L)
        vals = np.asarray(vals)
        ratios[p] = float(vals.max() / vals.min())
    ok = all(r < 1.25 for r in ratios.values())
    with capsys.disabled():
        _report(8, ok, f"schatten norm^p / L max/min: p=1/2 -> {ratios[0.5]:.4f}, "
                       f"p=1 -> {ratios[1.0]:.4f} < 1.25")
    assert ok


def test_criterion_9_cross_solver_equivalence(capsys):
    sel = LevelSelector.upto(1)
    nys = rs.region_spectrum(SETUP, sel, DISK, 4.0)
    sector = ds.disk_spectrum(SETUP, sel, DISK, 4.0)
    a = nys.eigenvalues[nys.eigenvalues > 1e-6]
    b = sector.eigenvalues[sector.eigenvalues > 1e-6]
    n = min(a.size, b.size)
    max_diff = float(np.max(np.abs(a[:n] - b[:n])))
    trace = oracles.region_trace_moment(SETUP, sel, DISK, 4.0, 1)
    trace_dev = abs(trace / (2 * 16.0 / 2.0) - 1.0)
    ok = a.size == b.size and max_diff < 1e-4 and trace_dev < 1e-3
    with capsys.disabled():
        _report(9, ok, f"eigenvalue multisets (> 1e-6): {a.size} vs {b.size}, "
                       f"max diff {max_diff:.2e} < 1e-4; "
                       f"trace deviation {trace_dev:.2e} < 1e-3")
    assert ok


def test_criterion_10_boundary_coefficient_universality(capsys):
    sel = LevelSelector.single(0)
    scales = np.array([3.0, 3.75, 4.5, 5.25, 6.0])
    norm = {}
    c2_dev = {}
    for region, name in ((DISK, "disk"), (STAR15, "star")):
        vals = [oracles.region_trace_moment(SETUP, sel, region, float(L), 2)
                for L in scales]
        fit = rs.scaling_fit(scales, vals, model="quadratic")
        norm[name] = fit.c1 / (math.sqrt(SETUP.b) * ge.perimeter(region))
        c2_dev[name] = abs(fit.c2 / (SETUP.b * ge.area(region) / (2 * math.pi))
                           - 1.0)
    agreement = abs(norm["star"] / norm["disk"] - 1.0)
    ok = agreement < 0.02 and all(d < 0.005 for d in c2_dev.values())
    with capsys.disabled():
        _report(10, ok, f"normalized c1: disk {norm['disk']:.6f} vs star "
                        f"{norm['star']:.6f} (off by {agreement:.2%} < 2%); "
                        f"c2 within 0.5% of the area law")
    assert ok
