import json
import math

import numpy as np
import pytest

from lle import coeffs as cf
from lle import disk_spectra as ds
from lle import geometry as ge
from lle.errors import DomainError, WindowError
from lle.landau import LevelSelector, MagneticSetup
from lle.specfun import poisson_ladder

import oracles

SETUP = MagneticSetup(1.0)
DISK = ge.Disk(1.0)


# ---------------------------------------------------------------------------
# sector kernel: the angular Fourier oracle against the closed-form rows
# ---------------------------------------------------------------------------

def test_sector_kernel_fourier_completeness():
    # sum over |k| <= K of kernel(k, r, r) recovers the kernel diagonal
    sel = LevelSelector.upto(1)
    r = 1.3
    at = np.array([[r, 0.0]])
    diag = oracles.kernel_block(SETUP, sel, at, at)[0, 0].real
    total = sum(oracles.radial_sector_kernel(SETUP, sel, k, r, r)
                for k in range(-3, 26))
    assert total == pytest.approx(diag, abs=1e-10)


def test_sector_kernel_origin_modes():
    sel = LevelSelector.single(0)
    for k in (1, -2):
        assert oracles.radial_sector_kernel(SETUP, sel, k, 0.0, 0.0) \
            == pytest.approx(0.0, abs=1e-14)


def test_sector_kernel_adaptive_oracle():
    # independent adaptive quadrature of the same Fourier integral
    sel = LevelSelector.single(0)
    k, r, s = 1, 1.0, 2.0
    val = oracles.radial_sector_kernel(SETUP, sel, k, r, s)

    def integrand(phi):
        phi = np.atleast_1d(phi)
        ring = np.stack([s * np.cos(phi), s * np.sin(phi)], axis=1)
        return oracles.kernel_block(SETUP, sel, np.array([[r, 0.0]]), ring)[0] \
            * np.exp(-1j * k * phi)

    oracle = oracles.adaptive_quad(integrand, 0.0, 2.0 * math.pi, tol=1e-13)
    assert val == pytest.approx(complex(oracle).real / (2 * math.pi), abs=1e-10)


def test_sector_kernel_matches_closed_form():
    rng = np.random.default_rng(6)
    for _ in range(12):
        ell = int(rng.integers(0, 4))
        sel = LevelSelector.single(ell) if rng.random() < 0.5 \
            else LevelSelector.upto(ell)
        k = int(rng.integers(-ell - 1, 9))
        r, s = rng.uniform(0.1, 3.0, size=2)
        rows_r = oracles.sector_kernel_closed_form(SETUP, sel, k, np.array([r]))
        rows_s = oracles.sector_kernel_closed_form(SETUP, sel, k, np.array([s]))
        closed = float(np.sum(rows_r[:, 0] * rows_s[:, 0]))
        fft = oracles.radial_sector_kernel(SETUP, sel, k, float(r), float(s))
        assert fft == pytest.approx(closed, abs=1e-12)


# ---------------------------------------------------------------------------
# disk spectra
# ---------------------------------------------------------------------------

def test_disk_spectrum_trace():
    for sel, r in [(LevelSelector.single(0), 8.0), (LevelSelector.upto(2), 6.0)]:
        spec = ds.disk_spectrum(SETUP, sel, DISK, r)
        expect = sel.count * SETUP.b * r * r / 2.0
        assert np.sum(spec.eigenvalues) == pytest.approx(expect, rel=1e-6)


@pytest.mark.parametrize("n", range(11))
def test_disk_spectrum_domain_sweep(n):
    # every level up to the cap and every radius the windows allow: the
    # sector eigenvalues stay inside the clamp and the trace identity holds
    sel = LevelSelector.upto(n)
    for r in (10.0, 40.0, 100.0):
        spec = ds.disk_spectrum(SETUP, sel, DISK, r)
        assert np.all((spec.eigenvalues >= 0.0) & (spec.eigenvalues <= 1.0))
        expect = sel.count * SETUP.b * r * r / 2.0
        assert np.sum(spec.eigenvalues) == pytest.approx(expect, rel=1e-6)


def test_disk_spectrum_lowest_level_value():
    # B R^2/2 = 1: top k=0 eigenvalue is 1 - e^{-1}
    r = math.sqrt(2.0)
    _, g = oracles.sector_gram(SETUP, LevelSelector.single(0), 0, r)
    assert g[0, 0] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
    assert g[0, 0] == pytest.approx(0.6321206, abs=1e-7)


def test_disk_spectrum_exhaustion():
    # at fixed k the top sector eigenvalue tends to 1 with growing radius
    _, g = oracles.sector_gram(SETUP, LevelSelector.single(0), 3, 14.0)
    assert g[0, 0] == pytest.approx(1.0, abs=1e-8)


def test_disk_spectrum_gram_vs_nystrom():
    for sel in (LevelSelector.upto(1), LevelSelector.single(2)):
        a = ds.disk_spectrum(SETUP, sel, DISK, 6.0).eigenvalues
        b = oracles.disk_spectrum_nystrom(SETUP, sel, 6.0)
        n = min(a.size, b.size)
        assert np.max(np.abs(a[:n] - b[:n])) < 1e-9


def test_disk_spectrum_nystrom_rank_assertion_runs():
    vals = oracles.disk_spectrum_nystrom(SETUP, LevelSelector.upto(1), 3.0)
    # at most n+1 eigenvalues above 1e-8 per sector is asserted internally;
    # globally the count above 1e-8 is bounded by (n+1) * sector count
    assert vals.size > 0


@pytest.mark.parametrize("region", [
    ge.SmoothStar((1.0, 0.0, 0.0, 0.0, 0.0, 0.15)),
    ge.Polygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))],
    ids=["star", "polygon"])
def test_disk_spectrum_refuses_other_regions(region):
    with pytest.raises(DomainError, match="needs a disk region"):
        ds.disk_spectrum(SETUP, LevelSelector.single(0), region, 2.0)


def test_disk_spectrum_window_error(monkeypatch):
    monkeypatch.setattr(ds, "sector_window", lambda b, r, n: 3)
    with pytest.raises(WindowError):
        ds.disk_spectrum(SETUP, LevelSelector.single(0), DISK, 6.0)


def test_disk_spectrum_field_strength_scaling():
    # trace scales with B at fixed radius
    setup = MagneticSetup(2.4)
    spec = ds.disk_spectrum(setup, LevelSelector.single(0), DISK, 4.0)
    assert np.sum(spec.eigenvalues) == pytest.approx(2.4 * 16.0 / 2.0, rel=1e-6)


def test_local_spectrum_json_roundtrip():
    spec = ds.disk_spectrum(SETUP, LevelSelector.upto(1), DISK, 3.0)
    text = json.dumps(spec.to_json(), sort_keys=True)
    back = json.loads(text)
    np.testing.assert_allclose(back["eigenvalues"], spec.eigenvalues)
    assert LevelSelector(back["selector"]["type"],
                         back["selector"]["index"]) == spec.selector
    assert json.dumps(back, sort_keys=True) == text


# ---------------------------------------------------------------------------
# closed-form sector Gram matrices against their oracles
# ---------------------------------------------------------------------------

GRAM_SELECTORS = [LevelSelector.upto(n) for n in range(11)] \
    + [LevelSelector.single(n) for n in range(11)]


@pytest.mark.parametrize("sel", GRAM_SELECTORS,
                         ids=lambda s: f"{s.kind}:{s.index}")
def test_sector_grams_match_quadrature_oracle(sel):
    n_top = max(sel.levels())
    levels = np.array(sel.levels())
    for x in (1.0, 50.0, 450.0, 3200.0):
        kmax = ds.sector_window(1.0, math.sqrt(2.0 * x), n_top)
        ks = np.arange(-n_top, kmax + 1)
        closed = ds._sector_grams(ks, oracles.radial_numbers(sel, ks), x)
        quad = oracles.sector_grams_quadrature(sel, ks, x)
        assert closed.shape == (ks.size, sel.count, sel.count)
        assert np.max(np.abs(closed - quad)) <= 2e-11
        # absent levels (l + k < 0) stay decoupled with a -1 diagonal
        sec, lev = np.nonzero(levels[None, :] + ks[:, None] < 0)
        assert np.all(closed[sec, lev, lev] == -1.0)
        off = closed[sec, lev].copy()
        off[np.arange(sec.size), lev] = 0.0
        assert np.all(off == 0.0)


@pytest.mark.parametrize("x, k, sel", [
    (1.0, -2, LevelSelector.upto(4)), (1.0, 3, LevelSelector.upto(4)),
    (50.0, 0, LevelSelector.upto(4)), (50.0, 47, LevelSelector.upto(4)),
    (50.0, -3, LevelSelector.upto(4)), (450.0, 430, LevelSelector.upto(6)),
    (3200.0, 3100, LevelSelector.upto(4)), (3200.0, 3200, LevelSelector.upto(4)),
    (3200.0, 3300, LevelSelector.upto(4))])
def test_sector_grams_match_extended_precision(x, k, sel):
    # rows of the present levels: radial quantum numbers 0..n_top - |k|
    # for k < 0, 0..n_top for k >= 0, all at weight |k|
    ks = np.array([k])
    g = ds._sector_grams(ks, oracles.radial_numbers(sel, ks), x)[0]
    first = max(0, -k)
    exact = oracles.sector_gram_mp(max(sel.levels()) - first, abs(k), x)
    assert np.max(np.abs(g[first:, first:] - exact)) <= 1e-11


@pytest.mark.parametrize("sel", [LevelSelector.upto(2), LevelSelector.single(3)],
                         ids=lambda s: f"{s.kind}:{s.index}")
@pytest.mark.parametrize("x", [2975.5, 3200.0])
def test_sector_grams_to_roundoff_where_the_log_norms_cancelled(sel, x):
    # near X = 3000 the log-space profile norms lost 2.6e-12 on these
    # selectors; magnitudes from the Poisson weights keep every entry of the
    # sectors across X +- 4 sqrt(X) within 1e-14 of 60-digit arithmetic
    ks = np.unique(np.linspace(x - 4.0 * math.sqrt(x), x + 4.0 * math.sqrt(x),
                               9).astype(int))
    grams = ds._sector_grams(ks, oracles.radial_numbers(sel, ks), x)
    first = min(sel.levels())
    for k, g in zip(ks, grams):
        exact = oracles.sector_gram_mp(max(sel.levels()), int(k), x)
        assert np.max(np.abs(g - exact[first:, first:])) <= 1e-14


@pytest.mark.parametrize("n, x, ks", [(200, 2000.0, [0, 2450, 3260]),
                                       (100, 4.8e4, [47000, 49000]),
                                       (800, 3200.0, [0, 500])],
                         ids=["single:200", "single:100", "single:800"])
def test_edge_profiles_of_high_levels_against_mpmath(n, x, ks):
    # a norm 1/C(kappa+n, n) overflows from kappa ~ 2450 at n = 200,
    # X = 2000 and from X ~ 4.6e4 at n = 100, where these profiles are of
    # order 1e-2; at n = 800, X = 3200 the weights of sectors 0 and 500
    # underflow to 0, and their log seeds carry p_800 = 0.03 and -0.0096
    weight, _ = poisson_ladder(max(ks), x)
    prof = ds._radial_profiles(n, np.arange(weight.size, dtype=float), x,
                               weight)
    for k in ks:
        for a in (0, n // 2, n):
            dps = int(a * math.log10(max(x, k) + a + 1.0)) + 60
            ref = oracles.radial_profile_mp(a, k, x, dps=dps)
            assert abs(prof[a, k] - ref) <= 1e-14
            if abs(ref) > 1e-290:
                assert abs(prof[a, k] - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("n", [100, 200])
def test_high_level_disk_trace_at_x_2000(n):
    # the trace of the localized projection onto one level is X: it failed
    # by the sectors kappa ~ 2450..3260 whose profiles read 0 at n = 200
    x = 2000.0
    spec = ds.disk_spectrum(SETUP, LevelSelector.single(n), DISK,
                            math.sqrt(2.0 * x))
    assert np.all(np.isfinite(spec.eigenvalues))
    assert abs(math.fsum(spec.eigenvalues) - x) \
        <= 1e-12 * x + spec.cutoff * spec.dropped_count


DEFLATION_SELECTORS = [LevelSelector.upto(1), LevelSelector.upto(2),
                       LevelSelector.upto(3), LevelSelector.single(3)]


@pytest.mark.parametrize("sel", DEFLATION_SELECTORS,
                         ids=lambda s: f"{s.kind}:{s.index}")
@pytest.mark.parametrize("x", [1.0, 50.0, 800.0, 3200.0])
def test_deflated_sector_eigenvalues_match_eigvalsh_of_every_sector(sel, x):
    r = math.sqrt(2.0 * x)
    x_cut = ds._edge_x(SETUP.b, r)
    ks, a = ds._sector_layout(SETUP.b, r, sel)
    grams = ds._sector_grams(ks, a, x_cut)
    full = np.linalg.eigvalsh(grams)
    vals = ds._sector_eigenvalues(grams)
    assert np.max(np.abs(np.sort(vals, axis=1) - full)) <= 4e-15
    # disk_spectrum keeps and drops what eigvalsh of the whole stack would
    present = a >= 0
    full_kept = np.sort(full[present][full[present] >= 1e-12])[::-1]
    spec = ds.disk_spectrum(SETUP, sel, DISK, r, cutoff=1e-12)
    assert spec.eigenvalues.size == full_kept.size
    assert spec.dropped_count == np.count_nonzero(present) - full_kept.size
    assert np.max(np.abs(spec.eigenvalues - np.clip(full_kept, 0.0, 1.0))) \
        <= 4e-15


def test_eigvalsh_sees_only_the_coupled_sectors(monkeypatch):
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def spy(stack, *args, **kwargs):
        sizes.append(np.shape(stack)[0])
        return eigvalsh(stack, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    # one level per sector: no off-diagonal, no eigvalsh
    for n in range(5):
        for x in (1.0, 50.0, 800.0, 3200.0):
            ds.disk_spectrum(SETUP, LevelSelector.single(n), DISK,
                             math.sqrt(2.0 * x))
    assert sizes == []
    # upto:2 at X = 3200 has 4064 sectors, about a quarter of them coupled
    ds.disk_spectrum(SETUP, LevelSelector.upto(2), DISK, 80.0)
    assert len(sizes) == 1 and 0 < sizes[0] <= 1100


@pytest.mark.parametrize("sel", [LevelSelector.upto(0), LevelSelector.single(0)],
                         ids=lambda s: f"{s.kind}:{s.index}")
@pytest.mark.parametrize("x", [1.0, 50.0, 800.0, 3200.0])
def test_lowest_level_disk_spectrum_is_the_ladder_bitwise(sel, x):
    r = math.sqrt(2.0 * x)
    spec = ds.disk_spectrum(SETUP, sel, DISK, r)
    _, p = poisson_ladder(ds.sector_window(SETUP.b, r, 0),
                          ds._edge_x(SETUP.b, r))
    keep = np.sort(p[p >= spec.cutoff])[::-1]
    assert spec.eigenvalues.tobytes() == keep.tobytes()
    assert spec.dropped_count == p.size - keep.size


@pytest.mark.parametrize("x", [0.5, 3.0, 40.0, 800.0, 3200.0, 6000.0])
def test_radial_profiles_against_mpmath_up_to_kappa_6400(x):
    # the magnitude is exp of a sum of logs of size kappa log x and
    # log kappa!, so a few of their ulps set the relative error: 4.8e-12 at
    # x = 3200 and 8.5e-12 at x = 6000, as with scipy's gammaln in place of
    # log_factorial
    from scipy.special import gammaln
    kappa = np.array([0, 1, 2, 7, 14, 15, 16, 30, 100, 799, 800, 801, 3000,
                      3200, 3300, 6000, 6400])
    a = np.arange(4)[:, None]
    ref = np.array([[oracles.radial_profile_mp(i, int(k), x) for k in kappa]
                    for i in a[:, 0]])
    lag = np.stack(list(oracles.laguerre_sweep(3, kappa, x)))
    scipy_norm = lag * np.exp(0.5 * kappa * math.log(x) - 0.5 * x
                              + 0.5 * (gammaln(a + 1.0) - gammaln(a + kappa + 1.0)))
    kept = np.abs(ref) > 1e-290
    err = np.abs(oracles.radial_profiles(3, kappa, x) - ref)[kept] \
        / np.abs(ref[kept])
    err_scipy = np.abs(scipy_norm - ref)[kept] / np.abs(ref[kept])
    assert err.max() <= 1.01 * err_scipy.max()
    assert err.max() <= 1e-11
    # the library's nodal route: weights from the same log terms, then the
    # normalized recurrence
    nodal = ds._level_profiles(kappa, np.tile(a.T, (kappa.size, 1)),
                               np.full((kappa.size, 1), x))[:, :, 0].T
    assert np.max(np.abs(nodal - ref)[kept] / np.abs(ref[kept])) <= 1e-11


def test_nodal_profiles_of_level_800_at_x_3200_against_mpmath():
    # the unnormalized sweep overflows here and its log-norm product read
    # NaN; the weights of both sectors underflow, so both take log seeds
    ks = np.array([0, 500])
    prof = ds._level_profiles(ks, np.full((2, 1), 800), np.full((2, 1), 3200.0))
    assert np.all(np.isfinite(prof))
    for k, p in zip(ks, prof[:, 0, 0]):
        ref = oracles.radial_profile_mp(800, int(k), 3200.0,
                                        dps=int(800 * math.log10(4001.0)) + 60)
        assert abs(p - ref) <= 1e-14 and abs(p - ref) <= 1e-12 * abs(ref)


def test_nodal_profiles_bitwise_equal_to_per_node_calls():
    # every entry is its own recurrence: 257 nodes at once, x = 0 included,
    # give the bytes of one call per node, across log-seeded sectors too
    ks, a = ds._sector_layout(1.0, math.sqrt(480.0), LevelSelector.upto(30))
    x = np.linspace(0.0, 240.0, 257)[None, :]
    rows = ds._level_profiles(ks, a, x)
    assert rows.shape == (ks.size, 31, 257) and np.all(np.isfinite(rows))
    for j in range(x.size):
        assert rows[:, :, j].tobytes() \
            == ds._level_profiles(ks, a, x[:, j:j + 1])[:, :, 0].tobytes()


def test_diagonal_ladder_against_adaptive_quadrature():
    # D(a+1, kappa-1) - D(a, kappa) = sqrt(X/(a+1)) p_{a+1}^{kappa-1} p_a^kappa
    # at X, and D(0, m) = P(m+1, X), with D the integral of p_a^2 over [0, X]
    def diag(a, kappa, x):
        return oracles.adaptive_quad(
            lambda t: oracles.radial_profiles(a, kappa, t)[a] ** 2, 0.0, x,
            tol=1e-14)

    for x in (0.5, 4.0, 20.0):
        for kappa in range(4):
            assert diag(0, kappa, x) == pytest.approx(
                oracles.reg_lower_gamma_mp(kappa + 1, x), abs=1e-13)
        for a in range(4):
            for kappa in range(1, 4):
                step = math.sqrt(x / (a + 1)) \
                    * oracles.radial_profiles(a + 1, kappa - 1, x)[a + 1] \
                    * oracles.radial_profiles(a, kappa, x)[a]
                assert diag(a + 1, kappa - 1, x) - diag(a, kappa, x) \
                    == pytest.approx(float(step), abs=1e-12)


@pytest.mark.parametrize("r", [1.5, 3.0, 10.0, 40.0])
def test_lowest_level_disk_spectrum_is_incomplete_gamma(r):
    # single:0 sectors are the 1 x 1 Gram entries P(k+1, B R^2/2) themselves
    spec = ds.disk_spectrum(SETUP, LevelSelector.single(0), DISK, r)
    lll = oracles.lll_disk_eigenvalues(SETUP.b, r, ds.sector_window(SETUP.b, r, 0))
    keep = np.sort(lll[lll >= spec.cutoff])[::-1]
    assert spec.eigenvalues.size == keep.size
    assert spec.dropped_count == lll.size - keep.size
    assert np.max(np.abs(spec.eigenvalues - keep)) <= 1e-15


@pytest.mark.parametrize("sel, r", [
    (LevelSelector.upto(20), 52.0), (LevelSelector.upto(30), 21.0),
    (LevelSelector.single(45), 16.0), (LevelSelector.single(60), 15.0)],
    ids=lambda v: f"{v.kind}:{v.index}" if isinstance(v, LevelSelector) else v)
def test_sector_window_reaches_the_turning_point_of_high_levels(sel, r):
    # level n reaches into sector k down to its inner turning point near
    # k - 2 sqrt(n k), so a window of x + O(sqrt x) alone left these spectra
    # with a top sector above the cutoff
    spec = ds.disk_spectrum(SETUP, sel, DISK, r)
    assert spec.eigenvalues.size > 0


@pytest.mark.parametrize("r", [0.1, 1.5, 3.0, 10.0, 40.0, 80.0])
def test_lowest_level_sector_window_unchanged(r):
    x = SETUP.b * r * r / 2.0
    assert ds.sector_window(SETUP.b, r, 0) \
        == int(math.ceil(x + 12.0 * math.sqrt(x + 1.0) + 20))


def test_top_sector_mass_of_a_high_level_is_inside_the_window():
    # single:30 at L = 22 still holds 1.84e-12 in sector k = 480, above the
    # default cutoff: the window must reach past it
    sel = LevelSelector.single(30)
    ks, _ = ds._sector_layout(SETUP.b, 22.0, sel)
    assert ks[-1] > 480
    g = oracles.sector_grams_quadrature(sel, np.array([480]), 0.5 * 22.0 ** 2)
    assert g[0, 0, 0] == pytest.approx(1.84e-12, rel=0.01)


@pytest.mark.parametrize("sel", [LevelSelector.upto(2), LevelSelector.single(3)],
                         ids=lambda s: f"{s.kind}:{s.index}")
def test_disk_spectrum_window_error_closed_form(sel, monkeypatch):
    # a window that stops inside the transition leaves its top sector full
    monkeypatch.setattr(ds, "sector_window", lambda b, r, n: 20)
    with pytest.raises(WindowError):
        ds.disk_spectrum(SETUP, sel, DISK, 6.0)


# ---------------------------------------------------------------------------
# lowest-level eigenvalues in closed form
# ---------------------------------------------------------------------------

def test_lll_head_and_monotone_tail():
    b, r = 1.0, 3.0
    vals = oracles.lll_disk_eigenvalues(b, r, 40)
    assert vals[0] == pytest.approx(1.0 - math.exp(-b * r * r / 2.0), abs=1e-13)
    x = b * r * r / 2.0
    shoulder = int(x + 3 * math.sqrt(x))
    assert np.all(np.diff(vals[shoulder:]) < 0)
    # incomplete-gamma oracle (extended precision)
    for m in (0, 3, 11):
        assert vals[m] == pytest.approx(oracles.reg_lower_gamma_mp(m + 1, x),
                                        abs=5e-13)


def test_lll_validated_against_sector_solver():
    r = math.sqrt(2.0)
    vals = oracles.lll_disk_eigenvalues(1.0, r, 40)
    sector = [oracles.sector_gram(SETUP, LevelSelector.single(0), m, r)[1][0, 0]
              for m in range(41)]
    assert np.max(np.abs(vals - np.array(sector))) <= 1e-7
    assert vals[0] == pytest.approx(0.6321206, abs=1e-7)


# ---------------------------------------------------------------------------
# entropy and Schatten functionals
# ---------------------------------------------------------------------------

def test_entropy_trace_functional():
    sel = LevelSelector.upto(1)
    spec = ds.disk_spectrum(SETUP, sel, DISK, 5.0)
    ident = cf.SpectralFunction.monomial(1)
    total = ds.entropy_from_spectrum(spec, ident)
    assert total == pytest.approx(sel.count * SETUP.b * 25.0 / 2.0, rel=1e-6)


def test_entropy_vanishes_on_binary_spectrum():
    spec = ds.LocalSpectrum(eigenvalues=np.array([1.0, 1.0, 0.0]), b=1.0,
                            selector=LevelSelector.single(0), region={},
                            scale=1.0, solver="synthetic", cutoff=1e-12)
    f = cf.SpectralFunction.renyi(1.0)
    assert ds.entropy_from_spectrum(spec, f) == 0.0


def test_entropy_stable_under_cutoff_halving():
    f = cf.SpectralFunction.renyi(1.0)
    s1 = ds.entropy_from_spectrum(ds.disk_spectrum(SETUP, LevelSelector.single(0),
                                                   DISK, 20.0, cutoff=1e-12), f)
    s2 = ds.entropy_from_spectrum(ds.disk_spectrum(SETUP, LevelSelector.single(0),
                                                   DISK, 20.0, cutoff=5e-13), f)
    assert s1 == pytest.approx(s2, abs=1e-6)
    assert s1 > 0.0 and math.isfinite(s1)


def test_entropy_bias_reported():
    f = cf.SpectralFunction.renyi(0.5)
    spec = ds.disk_spectrum(SETUP, LevelSelector.single(0), DISK, 10.0)
    val = ds.entropy_from_spectrum(spec, f)
    # |f(cutoff)| per dropped eigenvalue plus an allowance for the window tail
    bias = (spec.dropped_count + 32) * abs(float(f(np.array([spec.cutoff]))[0]))
    assert val > 0 and bias >= 0
    assert bias < 1e-3


def test_entropy_finite_all_alpha():
    for alpha in (0.5, 1.0, 2.0):
        f = cf.SpectralFunction.renyi(alpha)
        for r in (5.0, 12.0):
            spec = ds.disk_spectrum(SETUP, LevelSelector.upto(1), DISK, r)
            val = ds.entropy_from_spectrum(spec, f)
            assert math.isfinite(val) and val > 0.0


def schatten_cross(p):
    """(mu(1-mu))^{p/2}: summed over the localized spectrum, the p-th
    Schatten power of the inside/outside cross operator."""
    return lambda mu: (mu * (1.0 - mu)) ** (0.5 * p)


def test_schatten_cross_norm():
    spec = ds.LocalSpectrum(eigenvalues=np.array([1.0, 0.0, 1.0]), b=1.0,
                            selector=LevelSelector.single(0), region={},
                            scale=1.0, solver="synthetic", cutoff=1e-12)
    assert ds.entropy_from_spectrum(spec, schatten_cross(0.5)) == 0.0
    real = ds.disk_spectrum(SETUP, LevelSelector.single(0), DISK, 9.0)
    hs = ds.entropy_from_spectrum(real, schatten_cross(2.0))
    mu = real.eigenvalues
    assert hs == pytest.approx(float(np.sum(mu * (1 - mu))), abs=1e-13)


def test_schatten_linear_growth_ratio():
    vals = {}
    for r in (20.0, 40.0):
        spec = ds.disk_spectrum(SETUP, LevelSelector.single(0), DISK, r)
        vals[r] = ds.entropy_from_spectrum(spec, schatten_cross(1.0))
    assert 1.8 <= vals[40.0] / vals[20.0] <= 2.2


# ---------------------------------------------------------------------------
# moment asymptotics spot checks (full sweep in the acceptance suite)
# ---------------------------------------------------------------------------

def test_moment_residual_band_spot():
    [(J, _)] = cf.coeff_with_error(LevelSelector.single(0),
                                   [cf.SpectralFunction.monomial(2)])
    for L in (10.0, 25.0):
        tr = oracles.disk_trace_moment(SETUP, LevelSelector.single(0), L, 2)
        resid = tr - L * L * math.pi / (2 * math.pi) - L * 2 * math.pi * J
        assert abs(resid) < 0.5
