import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from lle import coeffs as cf
from lle import disk_spectra as ds
from lle import specfun as sf
from lle.errors import CapabilityError, DomainError, NumericError
from lle.landau import LevelSelector

import oracles


# ---------------------------------------------------------------------------
# Hermite polynomials and functions
# ---------------------------------------------------------------------------

def test_hermite_poly_degree_zero_and_one():
    assert oracles.hermite_poly(0, 3.7) == 1.0
    assert oracles.hermite_poly(1, 2.0) == 4.0


def test_hermite_poly_against_explicit_sum():
    # extended-precision explicit-sum oracle, spot value included
    assert oracles.hermite_poly(5, 0.7) == pytest.approx(
        oracles.hermite_explicit(5, 0.7), rel=1e-13)
    rng = np.random.default_rng(1)
    for _ in range(60):
        ell = int(rng.integers(0, 21))
        t = float(rng.uniform(-5, 5))
        exact = oracles.hermite_explicit(ell, t)
        assert oracles.hermite_poly(ell, t) == pytest.approx(exact, rel=1e-11, abs=1e-11)


def test_hermite_poly_cap():
    with pytest.raises(CapabilityError):
        oracles.hermite_poly(61, 0.3)
    # overflow-safe inside the cap
    assert math.isfinite(oracles.hermite_poly(60, 12.0))


def test_hermite_fn_values():
    assert oracles.hermite_fn(0, 0.0) == pytest.approx(math.pi ** -0.25, abs=1e-15)
    assert oracles.hermite_fn(1, 0.0) == 0.0


def test_hermite_fn_oscillator_equation():
    # -psi'' + t^2 psi = (2l+1) psi at l=4, t=1.3, via finite differences
    ell, t = 4, 1.3
    psi = lambda x: oracles.hermite_fn(ell, x)
    lhs = -oracles.fd_second_derivative(psi, t) + t * t * psi(t)
    assert lhs == pytest.approx((2 * ell + 1) * psi(t), abs=1e-6)


def test_hermite_orthonormality():
    rule = sf.gauss_legendre(400, -20.0, 20.0)
    tab = sf.hermite_fn_table(12, rule.nodes)
    gram = np.einsum("k,ik,jk->ij", rule.weights, tab, tab)
    assert np.max(np.abs(gram - np.eye(13))) < 1e-10


def test_hermite_normalized_matches_plain():
    for ell in (0, 3, 11):
        t = np.linspace(-4, 4, 7)
        ratio = math.sqrt(2.0 ** ell * math.factorial(ell))
        np.testing.assert_allclose(list(sf.hermite_sweep(ell, t))[-1] * ratio,
                                   oracles.hermite_poly(ell, t), rtol=1e-12)


_SWEEP_POINTS = [0.0, -0.0, 4.0, -4.0, 5e-324, -2.5e-310, 0.7, -1.3,
                 3.141592653589793, 11.0]


def test_hermite_sweep_bitwise_against_per_degree_oracle():
    # a float sweeps as a 0-d array, and every degree up to the cap agrees
    # bitwise with the array sweep and with the one-degree-per-call numpy
    # recurrence it replaced
    arr = np.array(_SWEEP_POINTS)
    arr_sweep = list(sf.hermite_sweep(sf.LEVEL_CAP, arr))
    assert len(arr_sweep) == sf.LEVEL_CAP + 1
    for i, t in enumerate(_SWEEP_POINTS):
        sweep = list(sf.hermite_sweep(sf.LEVEL_CAP, t))
        for ell, h in enumerate(sweep):
            assert np.ndim(h) == 0
            want = oracles.hermite_poly_normalized_array(ell, t).hex()
            assert float(h).hex() == want, (ell, t)
            assert float(arr_sweep[ell][i]).hex() == want, (ell, t)
    for ell in range(sf.LEVEL_CAP + 1):
        want = oracles.hermite_poly_normalized_array(ell, arr)
        assert arr_sweep[ell].tobytes() == want.tobytes()


def test_hermite_sweep_scalar_kinds():
    # ints, numpy scalars and 0-d arrays give the values of the float
    for t in (2, np.float64(2.0), np.array(2.0)):
        assert list(sf.hermite_sweep(5, t)) == list(sf.hermite_sweep(5, 2.0))
    assert np.ndim(list(sf.hermite_sweep(3, np.array(2.0)))[-1]) == 0
    with pytest.raises(DomainError):
        list(sf.hermite_sweep(-1, 0.5))


# ---------------------------------------------------------------------------
# Laguerre polynomials
# ---------------------------------------------------------------------------

def test_laguerre_trivial_values():
    for ell, k in [(2, 0), (3, 1), (4, 2), (3, -2)]:
        assert oracles.laguerre(ell, k, 0.0) == pytest.approx(math.comb(ell + k, ell))
    z = 0.3 + 1.1j
    assert oracles.laguerre(0, 0, z) == pytest.approx(1.0)


def test_laguerre_against_explicit_sum():
    val = oracles.laguerre(3, 1, 0.5 + 0.25j)
    assert val == pytest.approx(oracles.laguerre_explicit(3, 1, 0.5 + 0.25j),
                                rel=1e-13)
    rng = np.random.default_rng(2)
    for _ in range(40):
        ell = int(rng.integers(0, 15))
        k = int(rng.integers(-ell, 6))
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        assert oracles.laguerre(ell, k, z) == pytest.approx(
            oracles.laguerre_explicit(ell, k, z), rel=1e-11, abs=1e-11)


def test_laguerre_domain_error():
    with pytest.raises(DomainError):
        oracles.laguerre(2, -3, 1.0)


def test_laguerre_array_superscript_broadcasts():
    k = np.array([[0.0], [3.0], [40.0]])
    x = np.linspace(0.0, 50.0, 6)
    vals = oracles.laguerre(6, k, x)
    assert vals.shape == (3, 6) and vals.dtype == float
    for i, kk in enumerate((0, 3, 40)):
        for j, xx in enumerate(x):
            assert vals[i, j] == pytest.approx(
                oracles.laguerre_explicit(6, kk, xx).real, rel=1e-11, abs=1e-9)


def test_clamp_unit_names_worst_value_of_2d_array():
    vals = np.array([[0.5, 1.0 + 3e-9], [-2e-3, 0.25]])
    with pytest.raises(NumericError, match="-0.002"):
        sf.clamp_unit(vals, 1e-9, "test")
    inside = np.array([[-1e-10, 0.5], [1.0 + 1e-10, 0.0]])
    np.testing.assert_array_equal(sf.clamp_unit(inside, 1e-9, "test"),
                                  [[0.0, 0.5], [1.0, 0.0]])


# ---------------------------------------------------------------------------
# log-gamma and the incomplete gamma of integer order
# ---------------------------------------------------------------------------

def test_log_factorial_matches_the_c_library_lgamma():
    # integers and fractions on both sides of the switch to the Stirling
    # series at kappa = 15, out to 1e7
    kappa = np.concatenate([np.arange(0.0, 200.0), np.linspace(0.0, 40.0, 801),
                            [14.999999, 15.0, 15.000001],
                            np.geomspace(1.0, 1e7, 400)])
    np.testing.assert_allclose(sf.log_factorial(kappa),
                               [math.lgamma(k + 1.0) for k in kappa],
                               rtol=1e-15, atol=0.0)
    # the shape of kappa, a 0-d input included
    assert sf.log_factorial(np.zeros((3, 1))).shape == (3, 1)
    assert float(sf.log_factorial(20.0)) == pytest.approx(math.lgamma(21.0),
                                                          rel=1e-16)


@pytest.mark.parametrize("x", [0.2, 0.9, 3.0, 15.5, 50.0, 123.4, 800.0,
                               3200.0, 6400.0])
def test_incomplete_gamma_p_against_mpmath_across_the_sector_window(x):
    # N over the disk's whole lowest-level sector window at x = B R^2/2 and
    # through the transition x +- 3 sqrt(x); scipy's gammainc misses this
    # bound at every x here, by 1.2e-14 to 1.6e-13
    n_max = ds.sector_window(1.0, math.sqrt(2.0 * x), 0)
    _, p = sf.poisson_ladder(n_max, x)
    assert p.shape == (n_max + 1,)
    lo = max(0, math.floor(x - 3.0 * math.sqrt(x)))
    hi = min(n_max, math.ceil(x + 3.0 * math.sqrt(x)))
    ns = sorted(set(range(0, n_max + 1, max(1, n_max // 40)))
                | set(range(lo, hi + 1, max(1, (hi - lo) // 60))) | {n_max})
    ref = np.array([oracles.reg_lower_gamma_mp(n + 1, x) for n in ns])
    np.testing.assert_allclose(p[ns], ref, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("x", [0.2, 0.9, 3.0, 15.5, 50.0, 123.4, 800.0,
                               3200.0, 6400.0])
def test_poisson_weights_against_mpmath_across_the_sector_window(x):
    # w_j = x^j e^-x / j! over the window of level 3, through x +- 14 sqrt(x)
    # where the disk Grams read their profile magnitudes; relative wherever
    # the weight is a normal double well above the subnormals
    n_max = ds.sector_window(1.0, math.sqrt(2.0 * x), 3) + 3
    w, p = sf.poisson_ladder(n_max, x)
    assert w.shape == p.shape == (n_max + 1,)
    lo = max(0, math.floor(x - 14.0 * math.sqrt(x)))
    hi = min(n_max, math.ceil(x + 14.0 * math.sqrt(x)))
    js = sorted(set(range(0, n_max + 1, max(1, n_max // 40)))
                | set(range(lo, hi + 1, max(1, (hi - lo) // 80))) | {n_max})
    with mp.workdps(60):
        ref = np.array([float(mp.power(mp.mpf(x), j) * mp.exp(-mp.mpf(x))
                              / mp.factorial(j)) for j in js])
    kept = ref > 1e-290
    assert np.count_nonzero(kept) >= 0.8 * len(js)
    np.testing.assert_allclose(w[js][kept], ref[kept], rtol=1e-14, atol=0.0)


def _incomplete_gamma_p_unsplit(n_max, x):
    # the incomplete gamma P(N+1, x) as it was computed before the ladder
    # returned its weights too, operation for operation
    x = float(x)
    j0 = math.floor(x)
    if j0 == 0:
        w0 = math.exp(-x)
    else:
        stirlerr = (sf._STIRLERR[j0] if j0 < len(sf._STIRLERR)
                    else sf._stirling_series(float(j0)))
        w0 = math.exp(-stirlerr - sf._bd0(float(j0), x)) \
            / math.sqrt(2.0 * math.pi * j0)
    top = max(n_max + 1 + math.ceil(12.0 * math.sqrt(x)) + 40, j0)
    w = np.empty(top + 1)
    w[j0] = w0
    np.cumprod(x / np.arange(j0 + 1.0, top + 1.0), out=w[j0 + 1:])
    w[j0 + 1:] *= w0
    if j0:
        np.cumprod(np.arange(j0, 0.0, -1.0) / x, out=w[j0 - 1::-1])
        w[:j0] *= w0
    below = 1.0 - np.cumsum(w[:n_max + 1])
    above = np.cumsum(w[::-1])[-2:-n_max - 3:-1]
    return np.where(np.arange(1.0, n_max + 2.0) < x, below, above)


@pytest.mark.parametrize("x", [0.0, 1e-3, 0.2, 0.9, 1.0, 3.0, 15.5, 16.0,
                               20.0, 50.0, 123.4, 800.0, 3200.0, 6400.0,
                               51200.0])
def test_incomplete_gamma_p_is_the_unsplit_ladder_bitwise(x):
    # the P of poisson_ladder has the bytes of the incomplete gamma before
    # the split, at n_max below, at and past x
    for n_max in (0, 5, int(x), ds.sector_window(1.0, math.sqrt(2.0 * x), 2)):
        _, got = sf.poisson_ladder(n_max, x)
        assert got.tobytes() == _incomplete_gamma_p_unsplit(n_max, x).tobytes()


def test_incomplete_gamma_p_edge_cases():
    assert np.array_equal(sf.poisson_ladder(5, 0.0)[1], np.zeros(6))
    # all of N below x: the lower branch alone, to 1 - e^-x at N = 0
    _, p = sf.poisson_ladder(3, 1000.0)
    assert np.array_equal(p, np.ones(4))
    assert sf.poisson_ladder(0, 5.0)[1][0] == pytest.approx(
        -math.expm1(-5.0), rel=1e-15)
    # an integer x puts the mode on N + 1 = x, where the upper branch starts
    _, p = sf.poisson_ladder(40, 20.0)
    np.testing.assert_allclose(p[18:21], [oracles.reg_lower_gamma_mp(n, 20.0)
                                          for n in (19, 20, 21)],
                               rtol=1e-15, atol=0.0)
    assert np.all(np.diff(p) < 0.0)


def test_incomplete_gamma_p_tail_bound_of_its_docstring():
    # the weights left out past J = n_max + 1 + K, K = ceil(12 sqrt(x)) + 40,
    # are at most x^K x! / (x+K)! * x/(K+1) of P(n_max+1, x)
    for x in np.geomspace(1e-3, 1e7, 2001):
        k = math.ceil(12.0 * math.sqrt(x)) + 40
        log_bound = (k * math.log(x) + math.lgamma(x + 1.0)
                     - math.lgamma(x + k + 1.0) + math.log(x / (k + 1)))
        assert log_bound < math.log(1e-24), x


# ---------------------------------------------------------------------------
# Gauss-Legendre rules and adaptive quadrature
# ---------------------------------------------------------------------------

def test_gauss_legendre_one_point():
    rule = sf.gauss_legendre(1, -1.0, 1.0)
    assert rule.nodes[0] == pytest.approx(0.0)
    assert rule.weights[0] == pytest.approx(2.0)
    # exact to degree 2n - 1 = 1
    assert np.dot(rule.weights, rule.nodes) == pytest.approx(0.0, abs=1e-15)


def test_gauss_legendre_exactness_invariant():
    for n, a, b in [(5, -1.0, 1.0), (8, 0.0, 2.5), (13, -0.3, 4.0)]:
        rule = sf.gauss_legendre(n, a, b)
        assert np.all(rule.weights > 0)
        assert np.all(np.diff(rule.nodes) > 0)
        assert rule.nodes[0] >= a and rule.nodes[-1] <= b
        for k in range(2 * n):
            exact = (b ** (k + 1) - a ** (k + 1)) / (k + 1)
            got = np.dot(rule.weights, rule.nodes ** k)
            assert got == pytest.approx(exact, rel=1e-13, abs=1e-14)


def test_gauss_legendre_t8():
    rule = sf.gauss_legendre(5, -1.0, 1.0)
    assert np.dot(rule.weights, rule.nodes ** 8) == pytest.approx(2.0 / 9.0, abs=1e-14)


def test_gauss_legendre_panels_are_exact_on_every_panel():
    edges = np.array([-1.0, -0.2, 0.5, 3.0])
    rule = sf.gauss_legendre_panels(edges)
    shape = (3, sf.NODES_PER_PANEL)
    assert rule.nodes.size == rule.weights.size == 3 * sf.NODES_PER_PANEL
    assert np.all(np.diff(rule.nodes) > 0) and np.all(rule.weights > 0)
    for a, b, nodes, weights in zip(edges[:-1], edges[1:], rule.nodes.reshape(shape),
                                    rule.weights.reshape(shape)):
        assert np.all((a < nodes) & (nodes < b))
        assert weights.sum() == pytest.approx(b - a, abs=1e-14)
    for k in range(2 * sf.NODES_PER_PANEL):
        exact = (edges[-1] ** (k + 1) - edges[0] ** (k + 1)) / (k + 1)
        assert np.dot(rule.weights, rule.nodes ** k) == pytest.approx(exact, rel=1e-13)


def test_kronrod_table_matches_the_mpmath_oracle():
    # the table is the 80-digit Gauss-Kronrod rule of tests/oracles rounded
    # to doubles; that rule is exact through degree 3n + 1 = 49
    nodes, kronrod, gauss = oracles.gauss_kronrod_mp(16)
    for table, exact in ((sf._KRONROD_NODES, nodes), (sf._KRONROD_WEIGHTS, kronrod),
                         (sf._KRONROD_GAUSS_WEIGHTS, gauss)):
        assert len(table) == len(exact)
        assert max(abs(mp.mpf(v) - e) for v, e in zip(table, exact)) <= 2e-16
    with mp.workdps(80):
        for k in (0, 17, 48, 49):
            got = mp.fsum(w * x ** k for w, x in zip(kronrod, nodes))
            assert abs(got - mp.mpf(1) / (k + 1)) < mp.mpf(10) ** -70
    assert float(min(kronrod)) == pytest.approx(0.0047 / 2, rel=0.01)


def test_kronrod_embedded_nodes_are_the_gauss_legendre_nodes():
    x, _ = np.polynomial.legendre.leggauss(sf.NODES_PER_PANEL)
    nodes = np.array(sf._KRONROD_NODES)
    np.testing.assert_allclose(nodes[1::2], 0.5 * x + 0.5, rtol=0.0, atol=2.3e-16)
    # the nodes the extension adds interlace with them, strictly inside (0, 1)
    assert np.all(np.diff(nodes) > 0.0) and 0.0 < nodes[0] and nodes[-1] < 1.0


def test_kronrod_weights_are_positive():
    for weights in (sf._KRONROD_WEIGHTS, sf._KRONROD_GAUSS_WEIGHTS):
        assert min(weights) > 0.0
        assert math.fsum(weights) == pytest.approx(1.0, abs=4e-16)


def test_gauss_kronrod_panels_are_exact_on_every_panel():
    # the Kronrod sum integrates every Legendre polynomial of degree <= 49
    # and the embedded Gauss sum every one of degree <= 31 on each panel;
    # the Gauss weights vanish at the added nodes
    edges = np.array([-1.0, -0.2, 0.5, 3.0])
    rule = sf.gauss_kronrod_panels(edges)
    shape = (3, 2 * sf.NODES_PER_PANEL + 1)
    assert rule.nodes.size == rule.weights.size == rule.gauss_weights.size == 99
    assert np.all(np.diff(rule.nodes) > 0.0) and np.all(rule.weights > 0.0)
    for a, b, nodes, weights, gauss in zip(
            edges[:-1], edges[1:], rule.nodes.reshape(shape),
            rule.weights.reshape(shape), rule.gauss_weights.reshape(shape)):
        assert np.all((a < nodes) & (nodes < b))
        assert np.all(gauss[0::2] == 0.0) and np.all(gauss[1::2] > 0.0)
        t = (2.0 * nodes - a - b) / (b - a)
        for k in range(50):
            p_k = np.polynomial.legendre.legval(t, np.eye(k + 1)[k])
            exact = (b - a) if k == 0 else 0.0
            assert abs(np.dot(weights, p_k) - exact) < 1e-14 * (b - a), k
            if k < 2 * sf.NODES_PER_PANEL:
                assert abs(np.dot(gauss, p_k) - exact) < 1e-14 * (b - a), k


def test_gauss_legendre_vs_adaptive_oracle():
    rule = sf.gauss_legendre(64, 0.0, 3.0)
    fixed = np.dot(rule.weights, np.exp(-rule.nodes ** 2))
    adaptive = oracles.adaptive_quad(lambda t: np.exp(-t * t), 0.0, 3.0, tol=1e-14)
    assert fixed == pytest.approx(adaptive, abs=1e-13)
    # closed form (sqrt(pi)/2) erf(3)
    assert fixed == pytest.approx(0.886207348259521, abs=1e-13)


def test_adaptive_quad_rejects_empty_interval():
    with pytest.raises(DomainError):
        oracles.adaptive_quad(lambda t: t, 1.0, 1.0)


# ---------------------------------------------------------------------------
# occupation integrals: the per-xi quadrature oracle and the overlap table
# ---------------------------------------------------------------------------

def test_lambda_full_line():
    for ell in (0, 2, 5):
        assert oracles.lambda_ell(ell, -20.0) == pytest.approx(1.0, abs=1e-12)


def test_lambda_zero_and_erfc_relation():
    assert oracles.lambda_ell(0, 0.0) == pytest.approx(0.5, abs=1e-12)
    # lambda_0(1) is half the complementary error function
    val = oracles.lambda_ell(0, 1.0)
    assert val == pytest.approx(0.5 * oracles.erfc_mp(1.0), abs=1e-12)
    assert val == pytest.approx(0.0786496, abs=5e-8)


@given(st.integers(0, 8), st.floats(-6.0, 6.0))
def test_lambda_symmetry(ell, xi):
    total = oracles.lambda_ell(ell, xi) + oracles.lambda_ell(ell, -xi)
    assert abs(total - 1.0) < 1e-10


def test_lambda_strictly_decreasing():
    grid = np.linspace(-6.0, 6.0, 41)
    for ell in (0, 1, 4):
        vals = [oracles.lambda_ell(ell, x) for x in grid]
        assert np.all(np.diff(vals) < 0)


def test_lambda_tail_bound():
    # lambda_ell <= C e^{-0.9 xi^2} on [2, 8] with a fitted C: the ratio
    # lambda e^{0.9 xi^2} must stay finite, turn over inside the window, and
    # be well off its peak by the right edge (the Gaussian has won)
    grid = np.linspace(2.0, 8.0, 25)
    for ell in range(7):
        ratio = np.array([oracles.lambda_ell(ell, x) * math.exp(0.9 * x * x)
                          for x in grid])
        assert np.all(np.isfinite(ratio))
        peak = int(np.argmax(ratio))
        assert peak < grid.size - 1
        assert np.all(np.diff(ratio[peak:]) <= 0)
        # the fitted constant bounds the whole window
        assert np.all(ratio <= ratio[peak] * (1 + 1e-12))


def test_overlap_diagonal_and_orthogonality():
    assert oracles.overlap_lambda(3, 3, 0.7) == pytest.approx(oracles.lambda_ell(3, 0.7),
                                                         abs=1e-12)
    assert abs(oracles.overlap_lambda(0, 1, -20.0)) < 1e-12


def test_overlap_refined_quadrature_oracle():
    # doubled-node composite rule as an independent check
    val = oracles.overlap_lambda(0, 2, 0.5)
    rule = sf.gauss_legendre(600, 0.5, 11.0)
    refined = np.dot(rule.weights, oracles.hermite_fn(0, rule.nodes)
                     * oracles.hermite_fn(2, rule.nodes))
    assert val == pytest.approx(refined, abs=1e-12)


def test_overlap_table_invariants():
    grid = np.linspace(-6.0, 6.0, 49)
    table = sf.build_overlap_table(3, grid)
    vals = table.values
    assert np.max(np.abs(vals - np.transpose(vals, (1, 0, 2)))) < 1e-14
    assert np.max(np.abs(vals)) <= 1.0 + 1e-10
    for ell in range(4):
        diag = vals[ell, ell]
        assert np.all(diag >= -1e-12) and np.all(diag <= 1.0 + 1e-12)
        assert np.all(np.diff(diag) < 1e-14)  # nonincreasing in xi


def test_overlap_table_matches_adaptive_op():
    grid = np.linspace(-5.0, 5.0, 11)
    table = sf.build_overlap_table(2, grid)
    for i in (0, 4, 7, 10):
        for l1 in range(3):
            for l2 in range(3):
                assert table.values[l1, l2, i] == pytest.approx(
                    oracles.overlap_lambda(l1, l2, grid[i]), abs=1e-12)


def _coefficient_nodes(n, panel_width=cf.PANEL_WIDTH):
    # the Gauss-Kronrod nodes on [0, Xi] for gtilde at level index n; at the
    # default panel width, the nodes coeff_with_error integrates it over
    [(cutoff, _)] = cf._xi_cutoffs(LevelSelector.upto(n),
                                   [cf.SpectralFunction.gtilde()], 1e-8)
    edges = np.linspace(0.0, cutoff, int(math.ceil(cutoff / panel_width)) + 1)
    return sf.gauss_kronrod_panels(edges).nodes


@pytest.mark.parametrize("panel_width", [0.25, 0.5])
def test_overlap_table_matches_panel_sweep_on_coefficient_grids(panel_width):
    # the coefficient grid (0.5) and its refinement (0.25), with their
    # reflections onto xi < 0
    nodes = _coefficient_nodes(48, panel_width)
    nodes = np.concatenate([-nodes[::-1], nodes])
    closed = sf.build_overlap_table(48, nodes).values
    panel = oracles.overlap_table_panel(48, nodes).values
    assert np.max(np.abs(closed - panel)) < 1e-14


def test_overlap_table_against_mpmath_up_to_the_cap():
    levels = (0, 1, 12, 48, 60)
    xis = (-20.0, -4.5, 0.0, 3.3, 20.0)
    table = sf.build_overlap_table(sf.LEVEL_CAP, np.array(xis)).values
    for l1, l2 in itertools.combinations_with_replacement(levels, 2):
        for i, xi in enumerate(xis):
            assert abs(table[l1, l2, i] - oracles.overlap_mp(l1, l2, xi)) < 1e-14


@pytest.mark.parametrize("n", [0, 3, 20, sf.LEVEL_CAP])
def test_overlap_table_and_occupations_reflect(n):
    # psi_j(-t) = (-1)^j psi_j(t) gives G(-xi) = I - S G(xi) S with
    # S = diag((-1)^k), so lambda_l(-xi) = 1 - lambda_l(xi)
    x = _coefficient_nodes(n)
    sign = (-1.0) ** np.arange(n + 1)
    table = sf.build_overlap_table(n, x).values
    mirrored = np.eye(n + 1)[:, :, None] - sign[:, None, None] * table * sign[None, :, None]
    reflected = sf.build_overlap_table(n, -x[::-1]).values
    assert np.max(np.abs(reflected - mirrored[:, :, ::-1])) <= 1e-15
    lam = sf.occupations(n, x)
    assert np.max(np.abs(sf.occupations(n, -x[::-1]) - (1.0 - lam[:, ::-1]))) <= 1e-15


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_overlap_evaluators_refuse_non_finite_nodes(bad):
    for grid in ([bad], [-1.0, bad, 2.0]):
        with pytest.raises(DomainError, match="finite"):
            sf.occupations(3, grid)
        with pytest.raises(DomainError, match="finite"):
            sf.build_overlap_table(3, np.array(grid))


@pytest.mark.parametrize("n", [0, 3, 20, sf.LEVEL_CAP])
def test_overlap_evaluators_are_pointwise_in_the_nodes(n):
    # a reversed grid gives the reversed table bit for bit
    x = np.linspace(-7.0, 30.0, 301)
    np.testing.assert_array_equal(sf.occupations(n, x[::-1]),
                                  sf.occupations(n, x)[:, ::-1])
    np.testing.assert_array_equal(sf.build_overlap_table(n, x[::-1]).values,
                                  sf.build_overlap_table(n, x).values[:, :, ::-1])


def test_lowest_occupation_takes_erfc_to_a_few_ulp():
    # lambda_0 = erfc(xi)/2 against 40-digit mpmath, from 1 down to 1e-296
    # at xi = 26; scipy's erfc is off by up to 5.7e-14 relative there
    xi = np.linspace(-6.0, 26.0, 1601)
    np.testing.assert_allclose(sf.occupations(0, xi)[0],
                               [0.5 * oracles.erfc_mp(x) for x in xi],
                               rtol=1e-15, atol=0.0)


def test_occupations_ladder_against_erfc_and_quadrature():
    xi = np.linspace(-7.0, 7.0, 57)
    lam = sf.occupations(9, xi)
    np.testing.assert_allclose(lam[0], [0.5 * oracles.erfc_mp(x) for x in xi],
                               rtol=1e-14, atol=1e-16)
    for ell in (1, 5, 9):
        for i in (3, 28, 40):
            assert lam[ell, i] == pytest.approx(oracles.lambda_ell(ell, xi[i]),
                                                abs=1e-12)
