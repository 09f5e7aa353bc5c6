import functools
import math

import numpy as np
import pytest

import oracles
from lle import coeffs as cf
from lle import disk_spectra as ds
from lle import geometry as ge
from lle import region_sim as rs
from lle.errors import CapabilityError, DomainError, FitError, WindowError
from lle.landau import LevelSelector, MagneticSetup

SETUP = MagneticSetup(1.0)
DISK = ge.Disk(1.0)


def unit_area_star():
    base = ge.SmoothStar((1.0, 0.0, 0.0, 0.0, 0.0, 0.15))
    return oracles.scale_region(base, 1.0 / math.sqrt(ge.area(base)))


# ---------------------------------------------------------------------------
# scaling fits
# ---------------------------------------------------------------------------

def test_scaling_fit_exact_line():
    fit = rs.scaling_fit(np.array([1.0, 2.0, 3.0, 4.0]),
                         np.array([5.0, 7.0, 9.0, 11.0]), model="linear")
    assert fit.c1 == pytest.approx(2.0, abs=1e-12)
    assert fit.c0 == pytest.approx(3.0, abs=1e-12)
    assert fit.residual_norm == pytest.approx(0.0, abs=1e-12)
    assert fit.drift == pytest.approx([2.0, 2.0, 2.0])


def test_scaling_fit_exact_quadratic():
    scales = np.array([2.0, 3.0, 4.0, 5.0, 6.0])
    fit = rs.scaling_fit(scales, 0.5 * scales ** 2 - 1.5 * scales + 0.25,
                         model="quadratic")
    assert fit.c2 == pytest.approx(0.5, abs=1e-10)
    assert fit.c1 == pytest.approx(-1.5, abs=1e-10)
    assert fit.c0 == pytest.approx(0.25, abs=1e-9)


def test_scaling_fit_guards():
    scales, values = np.array([1.0, 2.0]), np.array([1.0, 2.0])
    with pytest.raises(FitError):
        rs.scaling_fit(scales, values, model="linear")
    with pytest.raises(FitError):
        rs.scaling_fit(np.array([1e8, 1e8 + 1e-4, 1e8 + 2e-4]),
                       np.array([1.0, 1.0, 1.0]), model="linear")
    with pytest.raises(DomainError):
        rs.scaling_fit(scales, values, model="cubic")


def test_scaling_fit_validation():
    # decreasing, repeated, too short, misaligned
    for scales, values in (([2.0, 1.0], [0.0, 0.0]),
                           ([1.0, 1.0, 2.0], [0.0, 0.0, 0.0]),
                           ([1.0], [0.0]),
                           ([1.0, 2.0, 3.0], [0.0, 0.0])):
        with pytest.raises(DomainError):
            rs.scaling_fit(np.array(scales), np.array(values))


# ---------------------------------------------------------------------------
# 2-D Nystrom solver
# ---------------------------------------------------------------------------

def test_trace_identity_unit_area_star():
    star = unit_area_star()
    sel = LevelSelector.upto(1)
    tr = oracles.region_trace_moment(SETUP, sel, star, 4.0, 1)
    expect = sel.count * SETUP.b * 16.0 * ge.area(star) / (2 * math.pi)
    assert tr == pytest.approx(expect, rel=1e-3)


def test_cross_solver_agreement_small():
    sel = LevelSelector.upto(1)
    nys = rs.region_spectrum(SETUP, sel, DISK, 3.0, resolution=(32, 56))
    sector = ds.disk_spectrum(SETUP, sel, DISK, 3.0)
    a = nys.eigenvalues[nys.eigenvalues > 1e-6]
    b = sector.eigenvalues[sector.eigenvalues > 1e-6]
    assert a.size == b.size
    assert np.max(np.abs(a - b)) < 1e-6


@pytest.mark.parametrize("sel", ["upto:0", "upto:1", "upto:2", "single:1"])
def test_region_spectrum_on_the_second_profile_route(sel, monkeypatch):
    # the nodal profiles by the unnormalized Laguerre sweep and its
    # log-factorial norm give the same spectra on a star
    star = ge.SmoothStar((1.0, 0.0, 0.0, 0.0, 0.0, 0.15))
    kind, index = sel.split(":")
    selector = LevelSelector(kind, int(index))
    scales = (0.6, 0.8, 3.0, 5.5)
    library = [rs.region_spectrum(SETUP, selector, star, L) for L in scales]
    monkeypatch.setattr(rs, "_level_profiles", oracles.level_profiles)
    for L, spec in zip(scales, library):
        second = rs.region_spectrum(SETUP, selector, star, L)
        assert second.eigenvalues.size == spec.eigenvalues.size
        assert second.dropped_count == spec.dropped_count
        assert np.max(np.abs(second.eigenvalues - spec.eigenvalues),
                      initial=0.0) <= 1e-13


def test_resolution_convergence():
    # doubling the resolution moves eigenvalues above 1e-4 by < 1e-5
    sel = LevelSelector.single(0)
    lo = rs.region_spectrum(SETUP, sel, DISK, 2.5, resolution=(26, 36))
    hi = rs.region_spectrum(SETUP, sel, DISK, 2.5, resolution=(52, 72))
    a = lo.eigenvalues[lo.eigenvalues > 1e-4]
    b = hi.eigenvalues[hi.eigenvalues > 1e-4]
    n = min(a.size, b.size)
    assert abs(a.size - b.size) <= 1
    assert np.max(np.abs(a[:n] - b[:n])) < 1e-5


def test_dimension_guard():
    with pytest.raises(CapabilityError):
        rs.region_spectrum(SETUP, LevelSelector.single(0), DISK, 12.0)


@pytest.mark.parametrize("m", [2, 3])
def test_trace_moment_dimension_guard(m, monkeypatch):
    # the angular factor has dim rows; past the guard it is never built
    star = ge.SmoothStar((1.0, 0.0, 0.0, 0.0, 0.0, 0.15))

    def built(*args):
        raise AssertionError("angular factor built past the guard")
    monkeypatch.setattr(rs, "_angular_factor", built)
    with pytest.raises(CapabilityError):
        oracles.region_trace_moment(SETUP, LevelSelector.upto(3), star, 12.0,
                                    m)
    with pytest.raises(CapabilityError):
        oracles.region_trace_moment(SETUP, LevelSelector.single(0), DISK, 2.0,
                                    m, resolution=(61, 100))


def test_trace_moment_first_order_not_guarded():
    # m = 1 integrates the kernel diagonal and builds no factor, so the
    # guard does not apply: tr P = B R^2 / 2 per level on the polar rule
    tr = oracles.region_trace_moment(SETUP, LevelSelector.single(0), DISK,
                                     12.0, 1)
    assert tr == pytest.approx(72.0, rel=1e-12)


@pytest.mark.parametrize("L, resolution", [(1e7, None), (1.0, (10**6, 1))])
def test_trace_moment_first_order_polar_rule_budget(L, resolution, monkeypatch):
    # leggauss would build an (n_radial, n_radial) matrix: refused before it
    def built(*args):
        raise AssertionError("Gauss-Legendre rule built past the budget")
    monkeypatch.setattr(rs, "gauss_legendre", built)
    with pytest.raises(CapabilityError, match="layout budget"):
        oracles.region_trace_moment(SETUP, LevelSelector.upto(0), DISK, L, 1,
                                    resolution=resolution)


def test_polygon_not_supported():
    square = ge.Polygon(((0, 0), (1, 0), (1, 1), (0, 1)))
    with pytest.raises(CapabilityError):
        rs.region_spectrum(SETUP, LevelSelector.single(0), square, 2.0)


def test_hs_cross_term_matches_moment_prediction():
    # sum mu(1-mu) = tr P - tr P^2 against the boundary-coefficient law
    sel = LevelSelector.single(0)
    L = 4.0
    spec = rs.region_spectrum(SETUP, sel, DISK, L, resolution=(32, 64))
    mu = spec.eigenvalues
    hs = float(np.sum(mu * (1 - mu)))
    [(j2, _)] = cf.coeff_with_error(LevelSelector.single(0),
                                    [cf.SpectralFunction.monomial(2)])
    predicted = -L * math.sqrt(SETUP.b) * ge.perimeter(DISK) * j2
    assert abs(hs - predicted) < 0.5  # O(1) band of the moment law


def test_trace_moment_m3_matches_eigensolve():
    sel = LevelSelector.upto(1)
    res = (28, 48)
    tr3 = oracles.region_trace_moment(SETUP, sel, DISK, 2.5, 3,
                                      resolution=res)
    spec = rs.region_spectrum(SETUP, sel, DISK, 2.5, resolution=res)
    assert tr3 == pytest.approx(float(np.sum(spec.eigenvalues ** 3)), abs=1e-8)


# the angular factor against the dense kernel-matrix oracle, on a star and a
# disk: (region, selector, L, resolution)
FACTOR_CASES = [(region, sel, 2.5, (28, 40))
                for region in ("star", "disk")
                for sel in ("single:0", "single:3", "upto:1", "upto:2")]


def _factor_case(region, sel, *_):
    reg = unit_area_star() if region == "star" else DISK
    kind, index = sel.split(":")
    return reg, LevelSelector(kind, int(index))


@functools.lru_cache(maxsize=None)
def _dense_oracle(region, sel, L, res):
    reg, selector = _factor_case(region, sel, L, res)
    mat, _, _ = oracles.region_kernel_matrix(SETUP, selector, reg, L, res)
    return mat


@pytest.mark.parametrize("case", FACTOR_CASES, ids=lambda c: f"{c[0]}-{c[1]}")
def test_angular_factor_reproduces_dense_kernel_matrix(case):
    reg, selector = _factor_case(*case)
    a = rs._angular_factor(SETUP, selector, reg, case[2], case[3], 1e-12)
    mat = _dense_oracle(*case)
    assert a.shape[0] == mat.shape[0] and a.shape[1] < a.shape[0]
    scale = np.max(np.abs(mat))
    assert np.max(np.abs(a @ a.conj().T - mat)) <= 1e-14 * scale


@pytest.mark.parametrize("case", FACTOR_CASES, ids=lambda c: f"{c[0]}-{c[1]}")
def test_region_spectrum_matches_dense_eigensolve(case):
    reg, selector = _factor_case(*case)
    spec = rs.region_spectrum(SETUP, selector, reg, case[2], resolution=case[3])
    dense = np.linalg.eigvalsh(_dense_oracle(*case))[::-1]
    keep = dense[dense >= spec.cutoff]
    assert spec.solver == f"nystrom2d/{case[3][0]}x{case[3][1]}"
    assert spec.eigenvalues.size == keep.size
    assert spec.dropped_count == dense.size - keep.size
    assert np.max(np.abs(spec.eigenvalues - keep)) <= 1e-12


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("case", [FACTOR_CASES[2], FACTOR_CASES[5]],
                         ids=lambda c: f"{c[0]}-{c[1]}")
def test_trace_moment_matches_dense_oracle(case, m):
    reg, selector = _factor_case(*case)
    mat = _dense_oracle(*case)
    power = mat
    for _ in range(m - 2):
        power = power @ mat
    dense = float(np.real(np.sum(power * mat.T)))
    tr = oracles.region_trace_moment(SETUP, selector, reg, case[2], m,
                                     resolution=case[3])
    assert tr == pytest.approx(dense, rel=1e-12)


# the default rules have n_theta = 36 to 90, so k j wraps past n_theta, and
# single:l and upto:l with l >= 1 reach the negative sectors k >= -l
@pytest.mark.parametrize("b, L", [(0.02, 1.0), (0.6, 3.0), (2.5, 4.0)])
@pytest.mark.parametrize("sel", ["upto:0", "upto:1", "upto:2", "upto:3",
                                 "single:1", "single:2", "single:3"])
@pytest.mark.parametrize("region", ["star", "disk"])
def test_angular_factor_phases_equal_direct_exponentials(region, sel, b, L):
    reg, selector = _factor_case(region, sel)
    setup = MagneticSetup(b)
    res = rs.default_resolution(setup, reg, L)
    got = rs._angular_factor(setup, selector, reg, L, res, 1e-12)
    want = oracles.angular_factor_direct(setup, selector, reg, L, res, 1e-12)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_angular_factor_window_error():
    # the top sector holds a tiny but nonzero mass; a cutoff below it is
    # not exhausted by the window
    with pytest.raises(WindowError):
        rs.region_spectrum(SETUP, LevelSelector.upto(1), DISK, 2.0,
                           resolution=(26, 36), cutoff=1e-300)


@pytest.mark.parametrize("cutoff", [0.0, -1.0, math.nan, math.inf])
def test_region_spectrum_rejects_nonpositive_cutoff(cutoff):
    with pytest.raises(DomainError):
        rs.region_spectrum(SETUP, LevelSelector.single(0), DISK, 2.0,
                           cutoff=cutoff)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("L", [-2.0, 0.0, math.nan, math.inf])
def test_trace_moment_rejects_bad_scale(L, m):
    with pytest.raises(DomainError):
        oracles.region_trace_moment(SETUP, LevelSelector.single(0), DISK, L,
                                    m)


def test_second_order_probe_trace_identity():
    # f(t) = t gives an identically vanishing residual on the disk solver
    sel = LevelSelector.upto(1)
    f = cf.SpectralFunction.monomial(1)
    area_coeff = sel.count * SETUP.b * math.pi / (2 * math.pi)
    resid = [ds.entropy_from_spectrum(
                 ds.disk_spectrum(SETUP, sel, DISK, L, cutoff=1e-14), f)
             - area_coeff * L * L for L in (4.0, 8.0, 12.0)]
    assert np.max(np.abs(resid)) < 1e-7


def test_mc_cross_hs_on_square_lipschitz_spot():
    # Monte Carlo kernel quadrature on a polygon vs the smooth-region
    # boundary law; tolerance is empirical (corners + MC noise)
    square = ge.Polygon(((-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)))
    L = 10.0
    est = oracles.mc_cross_hs_norm(SETUP, LevelSelector.single(0), square, L,
                                   n_samples=600_000, seed=12)
    [(j2, _)] = cf.coeff_with_error(LevelSelector.single(0),
                                    [cf.SpectralFunction.monomial(2)])
    predicted = -L * math.sqrt(SETUP.b) * ge.perimeter(square) * j2
    assert est > 0
    assert abs(est / predicted - 1.0) < 0.25

