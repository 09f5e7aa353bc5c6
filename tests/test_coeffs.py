import math
import re

import mpmath as mp
import numpy as np
import pytest
from scipy.special import erfc

from lle import coeffs as cf
from lle import specfun as sf
from lle.errors import AccuracyError, CapabilityError, DomainError
from lle.landau import LevelSelector

import oracles


# ---------------------------------------------------------------------------
# Renyi entropy function
# ---------------------------------------------------------------------------

def test_renyi_endpoints_and_closed_values():
    for alpha in (0.5, 1.0, 2.0, 3.7):
        assert cf.renyi_h(alpha, 0.0) == 0.0
        assert cf.renyi_h(alpha, 1.0) == 0.0
    assert cf.renyi_h(1.0, 0.5) == pytest.approx(math.log(2.0), abs=1e-15)
    assert cf.renyi_h(2.0, 0.25) == pytest.approx(math.log(8.0 / 5.0), abs=1e-15)


def test_renyi_h_stays_finite_past_alpha_1074():
    # t^a + (1-t)^a underflows to 0 at t = 1/2 from a ~ 1074 on, where the
    # plain formula gave inf and the envelope fit refused renyi:1100;
    # h_a(1/2) = ln 2 for every a
    assert cf.renyi_h(1100.0, 0.5) == pytest.approx(math.log(2.0), rel=1e-15)
    t = [0.3, 0.49, 0.5, 0.52]
    exact = [float(mp.log(mp.mpf(v) ** 1100 + (1 - mp.mpf(v)) ** 1100) / -1099)
             for v in t]
    np.testing.assert_allclose(cf.renyi_h(1100.0, np.array(t)), exact,
                               rtol=1e-15)
    fn = cf.SpectralFunction.renyi(1100.0)
    assert fn.label == "renyi:1100"
    assert fn(0.5) == pytest.approx(math.log(2.0), rel=1e-15)


def test_renyi_limit_branch():
    t = np.linspace(0.01, 0.99, 23)
    near = cf.renyi_h(1.0 + 1e-9, t)
    exact = cf.renyi_h(1.0, t)
    np.testing.assert_allclose(near, exact, atol=1e-8)


def test_renyi_domain_error():
    with pytest.raises(DomainError):
        cf.renyi_h(1.0, 1.1)
    with pytest.raises(DomainError):
        cf.renyi_h(0.0, 0.5)
    # within the 1e-10 slack is fine
    assert cf.renyi_h(1.0, 1.0 + 5e-11) == 0.0


def _renyi_h_direct(alpha, t):
    # h_alpha written out plainly: range check, clip, the two branches, and
    # +0.0 forced at both ends
    if not alpha > 0.0:
        raise DomainError(f"Renyi index must be positive, got {alpha}")
    t = np.asarray(t, dtype=float)
    if np.any(t < -cf.CLAMP) or np.any(t > 1.0 + cf.CLAMP):
        raise DomainError("argument outside [0,1] beyond the 1e-10 slack")
    tc = np.clip(t, 0.0, 1.0)
    if abs(alpha - 1.0) < 1e-8:
        with np.errstate(divide="ignore", invalid="ignore"):
            val = -np.where(tc > 0.0, tc * np.log(tc), 0.0) \
                  - np.where(tc < 1.0, (1.0 - tc) * np.log1p(-tc), 0.0)
    else:
        total = tc ** alpha + (1.0 - tc) ** alpha
        with np.errstate(divide="ignore"):
            val = np.log(total) / (1.0 - alpha)
        # where the sum leaves the normal doubles (alpha past 1023) the
        # larger power comes out of the logarithm
        big = np.maximum(tc, 1.0 - tc)
        factored = (alpha * np.log(big) + np.log1p(
            (np.minimum(tc, 1.0 - tc) / big) ** alpha)) / (1.0 - alpha)
        val = np.where(total < np.finfo(float).tiny, factored, val)
    val = np.where((tc == 0.0) | (tc == 1.0), 0.0, val)
    return val if val.ndim else float(val)


_RENYI_EDGES = np.array([0.0, -0.0, 1.0, -1e-10, 1.0 + 1e-10, -5e-11,
                         1.0 + 5e-11, 5e-324, 1e-300, 1e-20, 1e-16,
                         1.0 - 2.0 ** -53, 1.0 - 1e-16, 0.5])
_RENYI_GRID = np.concatenate([
    _RENYI_EDGES, np.linspace(0.0, 1.0, 257), np.logspace(-30.0, -1.0, 60),
    1.0 - np.logspace(-16.0, -1.0, 40),
    np.random.default_rng(30).uniform(0.0, 1.0, 200)])


@pytest.mark.parametrize("alpha", [0.02, 0.25, 0.5, 1.0 - 5e-9, 1.0,
                                   1.0 + 5e-9, 1.5, 2.0, 3.0, 3.7, 50.0,
                                   1100.0])
def test_renyi_h_bitwise_equal_to_the_direct_formula(alpha):
    # arrays with and without end points, subsets, reversed and strided
    # views (a disk spectrum is a reversed view), scalars and 2-D shapes in
    # either order all give the bytes of the plain formula, signed zeros
    # included
    inner = _RENYI_GRID[14:]
    block = _RENYI_GRID[:240].reshape(12, 20)
    for t in (_RENYI_GRID, inner, _RENYI_EDGES[:3], block, block.T,
              np.asfortranarray(block), inner[::-1], inner[::3],
              np.sort(inner)[::-1], _RENYI_GRID[::-2], np.array([]),
              np.array([0.3, 0.7]), np.array([2.0 ** -60, 0.25])):
        got = np.asarray(cf.renyi_h(alpha, t))
        want = np.asarray(_renyi_h_direct(alpha, t))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    for t in _RENYI_EDGES.tolist():
        got, want = cf.renyi_h(alpha, t), _renyi_h_direct(alpha, t)
        assert type(got) is float and math.copysign(1.0, got) \
            == math.copysign(1.0, want) and got == want


def test_renyi_h_gives_the_nan_results_of_the_direct_formula():
    # NaN passes the range check; the Shannon branch maps it to -0.0 and
    # the others keep it, as the plain formula does
    for alpha in (0.5, 1.0, 2.0):
        got = cf.renyi_h(alpha, math.nan)
        want = _renyi_h_direct(alpha, math.nan)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        t = np.array([0.25, math.nan, 1.0, 0.0])
        assert cf.renyi_h(alpha, t).tobytes() \
            == _renyi_h_direct(alpha, t).tobytes()
    assert math.isnan(cf.renyi_h(2.0, math.nan))
    assert math.copysign(1.0, cf.renyi_h(1.0, math.nan)) == -1.0


@pytest.mark.parametrize("t", [-1.001e-10, 1.0 + 1.001e-10, -0.5,
                               2.0, -math.inf, math.inf])
def test_renyi_h_refuses_what_the_direct_formula_refuses(t):
    for alpha in (0.5, 1.0, 2.0):
        for arg in (t, np.array([0.5, t, 0.25])):
            with pytest.raises(DomainError, match="beyond the 1e-10 slack"):
                _renyi_h_direct(alpha, arg)
            with pytest.raises(DomainError, match="beyond the 1e-10 slack"):
                cf.renyi_h(alpha, arg)


# ---------------------------------------------------------------------------
# SpectralFunction admission
# ---------------------------------------------------------------------------

def test_spectral_function_rejects_nonvanishing_origin():
    with pytest.raises(DomainError):
        cf.SpectralFunction(fn=lambda t: t + 1.0, value_at_one=2.0,
                            endpoint_exponent=1.0)


def test_spectral_function_holder_fit():
    f = cf.SpectralFunction.renyi(0.5)
    assert f.endpoint_exponent == 0.5
    assert math.isfinite(f.holder_constant) and f.holder_constant > 0
    g = cf.SpectralFunction.monomial(1)
    assert g.holder_constant == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DomainError):
        cf.SpectralFunction.monomial(0)


_HOLDER_SPECS = ("renyi:0.01", "renyi:0.1", "renyi:0.5", "renyi:0.9", "renyi:0.999",
                 "renyi:1", "renyi:1.5", "renyi:2", "renyi:3.778", "renyi:50",
                 "monomial:1", "monomial:2", "monomial:5", "gtilde")


@pytest.mark.parametrize("spec", _HOLDER_SPECS)
def test_holder_constant_is_a_supremum_on_a_dense_log_grid(spec):
    # 1e5 points log-spaced toward both ends of [1e-12, 1 - 1e-12], and the
    # closed-form limit at the ends, stay below the constant, which exceeds
    # neither by more than its 1e-3 margin and the grid's own miss
    f = cf.spectral_function_from_spec(spec)
    u = np.logspace(-12.0, math.log10(0.5), 50000)
    t = np.concatenate([u, 1.0 - u[::-1]])
    q = f.endpoint_exponent
    ratio = np.abs(f(t) - f.value_at_one * t) / (t ** q * (1.0 - t) ** q)
    sup = max(float(np.max(ratio)), f.end_limit)
    assert sup <= f.holder_constant <= 1.002 * sup


def test_holder_constant_reaches_the_end_limits():
    # a 1000-point fit read 5.49, 1.94, 2.94 and 3.967 for these: the first
    # three suprema are limits at the ends, the last a peak near 1 - 1.25e-4
    for spec, sup in (("renyi:0.9", 10.0), ("renyi:0.5", 2.0),
                      ("renyi:1.5", 3.0), ("renyi:1", 4.066)):
        assert cf.spectral_function_from_spec(spec).holder_constant >= sup
    # within 1e-8 of alpha = 1 renyi_h is the Shannon entropy, and so are its
    # exponent and end limit
    f = cf.SpectralFunction.renyi(1.0 - 1e-9)
    assert (f.endpoint_exponent, f.end_limit) == (0.9, 0.0)


def test_spectral_function_spec_parsing():
    assert cf.spectral_function_from_spec("renyi:2").label == "renyi:2"
    assert cf.spectral_function_from_spec("monomial:3").label == "monomial:3"
    assert cf.spectral_function_from_spec("gtilde").label == "gtilde"
    with pytest.raises(DomainError):
        cf.spectral_function_from_spec("fourier:2")


# ---------------------------------------------------------------------------
# Gram matrix and spectrum: the per-xi quadrature oracle and the grid field
# ---------------------------------------------------------------------------

def test_gram_rank_one_case():
    g = oracles.gram_matrix(0, 0.4)
    assert g.shape == (1, 1)
    assert g[0, 0] == pytest.approx(oracles.lambda_ell(0, 0.4), abs=1e-13)


def test_gram_identity_at_far_left():
    g = oracles.gram_matrix(3, -20.0)
    assert np.max(np.abs(g - np.eye(4))) < 1e-10


def test_gram_spectrum_invariants():
    for xi in (-3.0, 0.0, 1.7):
        vals = oracles.gram_spectrum(3, xi)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        direct = sum(oracles.lambda_ell(ell, xi) for ell in range(4))
        assert vals.sum() == pytest.approx(direct, abs=1e-10)


def _nystrom_k_eigs(n, xi, nodes=200):
    # upper limit as in the occupation integrals: max(xi, 0) + 10
    rule = sf.gauss_legendre(nodes, xi, max(xi, 0.0) + 10.0)
    kern = oracles.k_kernel_matrix(n, xi, rule.nodes)
    sq = np.sqrt(rule.weights)
    mat = sq[:, None] * kern * sq[None, :]
    return np.linalg.eigvalsh(mat)[::-1][: n + 1]


def test_gram_vs_nystrom_oracle():
    vals = oracles.gram_spectrum(2, 0.3)
    nys = _nystrom_k_eigs(2, 0.3, nodes=200)
    np.testing.assert_allclose(vals, nys, atol=1e-8)


def test_gram_vs_nystrom_across_grid():
    # tr f(K) from gram eigenvalues vs a 300-node Nystrom diagonalization
    f = cf.SpectralFunction.renyi(1.0)
    for n in range(5):
        for xi in (-6.0, -1.5, 0.0, 2.0, 6.0):
            mu = oracles.gram_spectrum(n, xi)
            nys = np.clip(_nystrom_k_eigs(n, xi, nodes=300), 0.0, 1.0)
            tr_gram = float(np.sum(f(mu)))
            tr_nys = float(np.sum(f(nys)))
            assert tr_gram == pytest.approx(tr_nys, abs=1e-7)


_SELECTORS = [LevelSelector.single(3), LevelSelector.upto(3)]


def _selector_id(sel):
    return f"{sel.kind}:{sel.index}"


def _cutoff(sel, spec="gtilde"):
    # the panel edge below which coeff_with_error integrates f at tol 1e-8
    [(cutoff, _)] = cf._xi_cutoffs(sel, [cf.spectral_function_from_spec(spec)], 1e-8)
    return cutoff


def _rule(n, spec="gtilde", kind="upto"):
    # the half rule that coeff_with_error integrates f over at level index n
    return cf._half_rule(_cutoff(LevelSelector(kind, n), spec))


def _full_nodes(rule):
    # the half rule's nodes and their reflections onto xi < 0, increasing
    return np.concatenate([-rule.nodes[::-1], rule.nodes])


def test_gram_eigen_field_matches_per_xi_oracle():
    # the production field (the occupation ladder, or one overlap-table sweep
    # per grid) against the per-xi adaptive-quadrature Gram spectrum at
    # scattered nodes on both sides of 0
    nodes = _full_nodes(_rule(3))
    for sel in _SELECTORS:
        field = cf.gram_eigen_field(sel, nodes)
        for i in range(0, nodes.size, 97):
            xi = nodes[i]
            want = ([oracles.lambda_ell(3, xi)] if sel.kind == "single"
                    else oracles.gram_spectrum(3, xi))
            np.testing.assert_allclose(field[i], want, atol=1e-11)


@pytest.mark.parametrize("n, panel_width",
                         [(3, 0.25), (3, 0.5), (45, 0.25), (45, 0.5)])
def test_half_rule_is_the_positive_half_of_the_panel_rule(n, panel_width):
    # Gauss-Kronrod panels of width at most panel_width on [0, Xi] are the
    # upper half of those on [-Xi, Xi], and their embedded Gauss rule is the
    # upper half of the Gauss-Legendre panel rule on [-Xi, Xi]; at
    # PANEL_WIDTH (22 and 36 panels at n = 3 and 45) that half is _half_rule
    cutoff = 8.0 + math.sqrt(2.0 * n + 1.0)
    n_panels = math.ceil(cutoff / panel_width)
    edges = np.linspace(0.0, cutoff, n_panels + 1)
    half = sf.gauss_kronrod_panels(edges)
    assert half.nodes.size == 33 * n_panels
    assert np.all(half.nodes > 0.0) and np.all(half.nodes < cutoff)
    assert np.all(np.diff(half.nodes) > 0.0)
    if panel_width == cf.PANEL_WIDTH:
        rule = cf._half_rule(cutoff)
        for name in ("nodes", "weights", "gauss_weights"):
            assert np.array_equal(getattr(half, name), getattr(rule, name))
    # the whole-line Kronrod rule: upper half to roundoff, lower half its
    # reflection
    full = sf.gauss_kronrod_panels(np.linspace(-cutoff, cutoff, 2 * n_panels + 1))
    upper = full.nodes.size - half.nodes.size
    assert upper == half.nodes.size
    assert np.max(np.abs(full.nodes[upper:] - half.nodes)) < 1e-14
    assert np.max(np.abs(full.nodes[:upper] + half.nodes[::-1])) < 1e-14
    for name in ("weights", "gauss_weights"):
        w_full, w_half = getattr(full, name), getattr(half, name)
        assert np.max(np.abs(w_full[upper:] - w_half)) < 1e-15
        assert np.max(np.abs(w_full[:upper] - w_half[::-1])) < 1e-15
    # the embedded Gauss rule is the composite Gauss-Legendre rule on the
    # same panels, the upper half of the one on [-Xi, Xi], to roundoff
    gauss = half.gauss_weights > 0.0
    assert gauss.sum() == n_panels * sf.NODES_PER_PANEL
    for panels in (sf.gauss_legendre_panels(edges), sf.gauss_legendre_panels(
            np.linspace(-cutoff, cutoff, 2 * n_panels + 1))):
        upper = panels.nodes.size - gauss.sum()
        assert np.max(np.abs(panels.nodes[upper:] - half.nodes[gauss])) < 1e-14
        assert np.max(np.abs(panels.weights[upper:]
                             - half.gauss_weights[gauss])) < 1e-15


@pytest.mark.parametrize("panel_width", [0.25, 0.5])
def test_half_rule_integrates_the_whole_line(panel_width):
    # sum w [F(xi) + F(-xi)] on the half rule, with its Kronrod and with its
    # Gauss weights, is the whole-line Gauss-Legendre panel rule's sum w F at
    # panel width 0.25 and 0.5
    cutoff = 8.0 + math.sqrt(7.0)
    rule = cf._half_rule(cutoff)
    n_panels = int(math.ceil(2.0 * cutoff / panel_width))
    full = sf.gauss_legendre_panels(np.linspace(-cutoff, cutoff, n_panels + 1))
    for F in (lambda x: 0.5 * erfc(x) ** 2, lambda x: np.exp(-(x - 0.3) ** 2),
              lambda x: (1.0 + x + x ** 3) * np.exp(-x * x)):
        whole = float(np.dot(full.weights, F(full.nodes)))
        for weights in (rule.weights, rule.gauss_weights):
            halves = float(np.dot(weights, F(rule.nodes) + F(-rule.nodes)))
            assert abs(halves - whole) <= 1e-15 * abs(whole)


def _spy_on_field_builders(monkeypatch):
    # the nodes of every occupations / build_overlap_table call in coeffs
    seen = []

    def spy(fn):
        def wrapper(max_level, xi_grid):
            seen.append(np.array(xi_grid))
            return fn(max_level, xi_grid)
        return wrapper

    monkeypatch.setattr(cf, "occupations", spy(sf.occupations))
    monkeypatch.setattr(cf, "build_overlap_table", spy(sf.build_overlap_table))
    return seen


@pytest.mark.parametrize("sel", _SELECTORS, ids=_selector_id)
def test_gram_eigen_field_evaluates_the_positive_half_only(sel, monkeypatch):
    seen = _spy_on_field_builders(monkeypatch)
    rule = _rule(3)
    field = cf.gram_eigen_field(sel, rule.nodes)
    # one occupation sweep, or overlap tables of FIELD_BLOCK nodes
    sizes = [block.size for block in seen]
    if sel.kind == "single":
        assert sizes == [rule.nodes.size]
    else:
        assert sizes[:-1] == [cf.FIELD_BLOCK] * (len(sizes) - 1)
        assert 0 < sizes[-1] <= cf.FIELD_BLOCK
    assert np.array_equal(np.concatenate(seen), rule.nodes)
    # the eigenvalues at -xi are 1 minus those at xi, in reversed order
    seen.clear()
    reflected = cf.gram_eigen_field(sel, -rule.nodes)
    assert np.max(np.abs(reflected - (1.0 - field[:, ::-1]))) < 1e-14


@pytest.mark.parametrize("n", [9, 27, 45])
def test_blocked_field_equals_the_whole_grid_bitwise(n):
    # each node's table column and eigenvalues depend on that node alone
    nodes = _rule(n).nodes
    assert nodes.size > 3 * cf.FIELD_BLOCK
    table = sf.build_overlap_table(n, nodes).values
    whole = np.linalg.eigvalsh(np.moveaxis(table, 2, 0))[:, ::-1]
    np.testing.assert_array_equal(cf.gram_eigen_field(LevelSelector.upto(n), nodes),
                                  sf.clamp_unit(whole, cf.CLAMP, "whole grid"))


@pytest.mark.parametrize("sel", _SELECTORS, ids=_selector_id)
def test_coeff_with_error_hands_only_positive_nodes_to_the_field(sel,
                                                                 monkeypatch):
    seen = _spy_on_field_builders(monkeypatch)
    build, fields = cf.gram_eigen_field, []
    monkeypatch.setattr(cf, "gram_eigen_field", lambda s, xi: (
        fields.append(xi) or build(s, xi)))
    # one field on the rule of the larger cutoff, 5.5 against 20.0 (single:3)
    # or 20.5 (upto:3); the smaller rule is a prefix of it
    specs = ("renyi:1", "renyi:0.05")
    cf.coeff_with_error(sel, [cf.spectral_function_from_spec(s) for s in specs])
    small, large = (_rule(3, s, sel.kind).nodes for s in specs)
    assert len(fields) == 1 and np.array_equal(fields[0], large)
    assert np.array_equal(large[:small.size], small)
    assert np.all(np.concatenate(seen) > 0.0)
    assert np.array_equal(np.concatenate(seen), large)


# ---------------------------------------------------------------------------
# the xi cutoff: the levels' Hermite tail
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k, xi", [(0, 1.5), (0, 6.0), (3, 3.0), (3, 9.0),
                                   (45, 9.6), (45, 13.0), (60, 11.5), (60, 20.0)])
def test_riccati_decay_past_the_turning_point(k, xi):
    # -psi_k'/psi_k >= sqrt(xi^2 - (2k+1)) past sqrt(2k+1), in 50 digits, with
    # psi_k' = -xi psi_k + sqrt(2k) psi_{k-1}
    import mpmath as mp
    with mp.workdps(50):
        t = mp.mpf(xi)
        psi = oracles._hermite_fn_table_mp(t, 50)
        deriv = -t * psi[k] + (mp.sqrt(2 * k) * psi[k - 1] if k else 0)
        assert psi[k] > 0 and -deriv / psi[k] >= mp.sqrt(t * t - (2 * k + 1))


def _hermite_tail_mp(sel):
    # (X, log(K/2s), log s) at every panel edge X from the first past the
    # turning point sqrt(2n+1) up to the cap, with K the levels' sum of
    # 50-digit psi_k(X)^2 and s = sqrt(X^2 - (2n+1))
    c = 2 * sel.index + 1
    first = math.isqrt(4 * c) + 1  # (j/2)^2 > c
    rows = []
    with mp.workdps(50):
        for j in range(first, int(cf.XI_CAP / cf.PANEL_WIDTH) + 1):
            t = mp.mpf(j) / 2
            psi = oracles._hermite_fn_table_mp(t, 50)
            s = mp.sqrt(t * t - c)
            k = mp.fsum(psi[level] ** 2 for level in sel.levels())
            rows.append((float(t), float(mp.log(k / (2 * s))), float(mp.log(s))))
    return rows


@pytest.mark.parametrize("sel", [LevelSelector.single(0), LevelSelector.single(48),
                                 LevelSelector.upto(3), LevelSelector.upto(45),
                                 LevelSelector.upto(sf.LEVEL_CAP)], ids=_selector_id)
def test_hermite_tail_envelopes(sel):
    # at every edge up to the cap, the log(K / 2s) the cutoff search uses
    # against 50 digits, though K itself is far below the doubles there
    edges, log_env, log_s = cf._hermite_tail(sel)
    want = _hermite_tail_mp(sel)
    assert edges.tolist() == [x for x, _, _ in want]
    assert edges[-1] == cf.XI_CAP
    np.testing.assert_allclose(log_env, [env for _, env, _ in want],
                               rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(log_s, [ls for _, _, ls in want],
                               rtol=0.0, atol=1e-14)


def _bound_mp(sel, f, log_env, log_s):
    # 2C m^(1-q) (K/2s)^q / (2 s q) / 2pi at one edge of `_hermite_tail_mp`
    q = min(f.endpoint_exponent, 1.0)
    return (2.0 * f.holder_constant * sel.count ** (1.0 - q)
            * math.exp(q * log_env - log_s) / (2.0 * q) / (2.0 * math.pi))


@pytest.mark.parametrize("sel", [LevelSelector.single(0), LevelSelector.single(17),
                                 LevelSelector.upto(2), LevelSelector.upto(30)],
                         ids=_selector_id)
def test_each_cutoff_is_the_first_edge_whose_bound_passes(sel):
    # against every edge from the turning point to the cap, whatever the
    # other functions of the call
    specs = ("renyi:0.05", "renyi:0.3", "renyi:1", "renyi:2.5", "monomial:3", "gtilde")
    fns = [cf.spectral_function_from_spec(s) for s in specs]
    edges = _hermite_tail_mp(sel)
    for tol in (1e-4, 1e-8, 1e-12):
        rows = cf._xi_cutoffs(sel, fns, tol)
        assert rows == cf._xi_cutoffs(sel, fns[::-1], tol)[::-1]
        for f, (cutoff, bound) in zip(fns, rows):
            bounds = [(x, _bound_mp(sel, f, env, ls)) for x, env, ls in edges]
            x, want = next((x, b) for x, b in bounds if b <= 0.1 * tol)
            assert cutoff == x
            assert bound == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("sel", [LevelSelector.single(48), LevelSelector.upto(45)],
                         ids=_selector_id)
def test_one_hermite_sweep_per_call(monkeypatch, sel):
    # the cutoffs of the coeff-table benchmark's six functions come from one
    # sweep over every edge; a level past the cap is refused before any
    sweep, calls = cf.hermite_sweep, []
    monkeypatch.setattr(cf, "hermite_sweep", lambda *args: (
        calls.append(args) or sweep(*args)))
    fns = [cf.spectral_function_from_spec(s) for s in (
        "renyi:1", "renyi:0.5", "renyi:1.234", "renyi:3.5", "monomial:4", "gtilde")]
    cf.coeff_with_error(sel, fns)
    assert len(calls) == 1
    calls.clear()
    with pytest.raises(CapabilityError):
        cf.coeff_with_error(LevelSelector(sel.kind, sf.LEVEL_CAP + 1), fns)
    assert calls == []


@pytest.mark.parametrize("sel", [LevelSelector.single(0), LevelSelector.single(48),
                                 LevelSelector.upto(3), LevelSelector.upto(45)],
                         ids=_selector_id)
@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 1.0, 2.0])
def test_tail_bound_covers_what_the_rule_leaves_out(sel, alpha):
    # past the cutoff the integrand is at least h(mu_max) >= h(max_k lambda_k):
    # the largest diagonal entry of G is at most its top eigenvalue, which
    # stays below 1/2 there, where h_alpha increases. Its integral up to
    # xi = 26, before erfc turns subnormal, is a lower bound of what the rule
    # leaves out, and the reported tail must reach it.
    f = cf.SpectralFunction.renyi(alpha)
    [(cutoff, tail)] = cf._xi_cutoffs(sel, [f], 1e-8)
    rule = sf.gauss_legendre_panels(
        np.linspace(cutoff, 26.0, int(math.ceil((26.0 - cutoff) / 0.25)) + 1))
    lam = sf.occupations(sel.index, rule.nodes)
    top = lam[sel.index] if sel.kind == "single" else lam.max(axis=0)
    assert np.all(top < 0.5)
    left_out = float(np.dot(rule.weights, f(top))) / (2.0 * math.pi)
    assert 0.0 < left_out <= tail


def test_coeff_table_shape_builds_one_short_field(monkeypatch):
    # the six-function shape of the coeff-table benchmark at upto:45 cuts at
    # 11.5 and 13.0 and hands gram_eigen_field one field of 26 panels; a
    # renyi:0.05 row next to renyi:1 adds no second field
    build, sizes = cf.gram_eigen_field, []
    monkeypatch.setattr(cf, "gram_eigen_field", lambda s, xi: (
        sizes.append(xi.size) or build(s, xi)))
    fns = [cf.spectral_function_from_spec(s) for s in (
        "renyi:1", "renyi:0.5", "renyi:1.234", "renyi:3.5", "monomial:4", "gtilde")]
    cf.coeff_with_error(LevelSelector.upto(45), fns)
    assert sizes == [26 * 33]
    sizes.clear()
    cf.coeff_with_error(LevelSelector.upto(3), [cf.SpectralFunction.renyi(1.0),
                                                cf.SpectralFunction.renyi(0.05)])
    assert len(sizes) == 1


def test_gram_eigenvalues_vs_jacobi_oracle():
    g = oracles.gram_matrix(3, 0.8)
    ours = oracles.gram_spectrum(3, 0.8)
    jac = oracles.jacobi_eigvalsh(g)
    np.testing.assert_allclose(ours, jac, atol=1e-11)


# ---------------------------------------------------------------------------
# coefficient integrals
# ---------------------------------------------------------------------------

def test_m_ell_vanishes_for_identity():
    f = cf.SpectralFunction.monomial(1)
    assert cf.coeff_with_error(LevelSelector.single(0), [f])[0][0] == pytest.approx(0.0, abs=1e-12)
    assert cf.coeff_with_error(LevelSelector.upto(2), [f])[0][0] == pytest.approx(0.0, abs=1e-11)


def test_m0_h1_paper_value():
    [(value, _)] = cf.coeff_with_error(LevelSelector.single(0),
                                       [cf.SpectralFunction.renyi(1.0)])
    assert value == pytest.approx(0.203, abs=2e-3)


def test_m0_h1_convergence_digits():
    # our own convergence study pins further digits than the three published;
    # at tol 1e-12 the cut leaves a tail bound of at most 1e-13
    [(v_fine, err)] = cf.coeff_with_error(LevelSelector.single(0),
                                          [cf.SpectralFunction.renyi(1.0)],
                                          tol=1e-12)
    assert err < 1e-10
    assert v_fine == pytest.approx(0.2032908132265638, abs=1e-12)


def test_m0_t2_dense_grid_oracle():
    # sign is trivial (lambda^2 - lambda <= 0), magnitude from a trapezoid
    # oracle on lambda_0 = erfc/2
    [(value, _)] = cf.coeff_with_error(LevelSelector.single(0),
                                       [cf.SpectralFunction.monomial(2)])
    assert value < 0.0
    xi = np.linspace(-10.0, 10.0, 400001)
    lam = 0.5 * erfc(xi)
    dense = np.trapezoid(lam ** 2 - lam, xi) / (2 * math.pi)
    assert value == pytest.approx(dense, abs=1e-9)


def test_m_le_0_equals_m_0():
    for alpha in (0.5, 1.0, 2.0):
        f = cf.SpectralFunction.renyi(alpha)
        [(upto, _)] = cf.coeff_with_error(LevelSelector.upto(0), [f])
        [(single, _)] = cf.coeff_with_error(LevelSelector.single(0), [f])
        assert upto == pytest.approx(single, abs=1e-9)


def test_m_le_1_h1_series_sandwich_oracle():
    # polynomial approximation of h1 through its positive series
    # h1(t) = sum_j (1/j) [t^j (1-t) + (1-t)^j t], truncated at J, evaluated
    # through the trace-moment field; the truncation tail is bounded by
    # (1/(J+1)) integral of tr[K^{J+1} + (1-K)^{J+1} K]
    J = 2000
    for sel in (LevelSelector.single(1), LevelSelector.upto(1)):
        [(target, _)] = cf.coeff_with_error(sel, [cf.SpectralFunction.renyi(1.0)])
        rule = _rule(1, "renyi:1")
        # the eigenvalues at xi > 0 and, side by side, those at -xi
        mu = cf.gram_eigen_field(sel, rule.nodes)
        mu = np.concatenate([mu, 1.0 - mu], axis=1)
        approx = np.zeros(mu.shape[0])
        for j in range(1, J + 1):
            term = mu ** j * (1.0 - mu) + (1.0 - mu) ** j * mu
            approx += term.sum(axis=1) / j
        series_value = float(np.dot(rule.weights, approx)) / (2 * math.pi)
        tail = (mu ** (J + 1) + (1.0 - mu) ** (J + 1) * mu).sum(axis=1)
        tail_bound = float(np.dot(rule.weights, tail)) / (2 * math.pi) / (J + 1)
        assert abs(target - series_value) <= tail_bound + 1e-8
        assert tail_bound < 5e-3


def test_monotone_quadrature_convergence():
    # a finer rule, 16-node Gauss-Legendre panels of width 0.125 on [0, Xi],
    # changes M by less than the reported estimate: at level 1 and at the
    # coeff-table extremes single:48 and upto:45. alpha < 1 is left out, as
    # its estimate omits the roundoff of 1 - mu.
    cases = [(sel, "renyi:1") for sel in (LevelSelector.single(1),
                                          LevelSelector.upto(1))]
    cases += [(sel, spec) for sel in (LevelSelector.single(48), LevelSelector.upto(45))
              for spec in ("renyi:1", "renyi:2", "renyi:3.778", "monomial:3", "gtilde")]
    fields = {}
    for sel, spec in cases:
        f = cf.spectral_function_from_spec(spec)
        [(value, err)] = cf.coeff_with_error(sel, [f])
        cutoff = _cutoff(sel, spec)
        key = (sel, cutoff)
        if key not in fields:
            edges = np.linspace(0.0, cutoff, int(math.ceil(cutoff / 0.125)) + 1)
            finer = sf.gauss_legendre_panels(edges)
            mu = cf.gram_eigen_field(sel, finer.nodes)
            fields[key] = finer, np.concatenate([mu, 1.0 - mu], axis=1)  # xi, -xi
        finer, mu = fields[key]
        trace = np.asarray(f(mu)).sum(axis=1) - f.value_at_one * mu.sum(axis=1)
        v_finer = float(np.dot(finer.weights, trace)) / (2 * math.pi)
        assert abs(v_finer - value) <= err + 1e-14, (sel, spec)


@pytest.mark.parametrize("spec, bound", [("renyi:0.25", 5e-5),
                                         ("renyi:0.5", 1e-8)])
def test_renyi_below_one_against_mpmath_on_the_same_grid(spec, bound):
    # h_alpha amplifies the roundoff of eigenvalues near 0 and 1; against a
    # 40-digit evaluation of the same quadrature sum the production value
    # must hold these bounds. h_alpha(1 - t) = h_alpha(t), so the half-rule
    # integrand f(mu) + f(1 - mu) is twice f(mu).
    import mpmath as mp
    n = 3
    f = cf.spectral_function_from_spec(spec)
    alpha = mp.mpf(spec.partition(":")[2])
    rule = _rule(n, spec)
    with mp.workdps(40):
        total = mp.mpf(0)
        for xi, w in zip(rule.nodes, rule.weights):
            for t in mp.eigsy(oracles.gram_matrix_mp(n, float(xi)),
                              eigvals_only=True):
                if 0 < t < 1:
                    total += w * mp.log(t ** alpha + (1 - t) ** alpha) / (1 - alpha)
        reference = float(total / mp.pi)
    [(value, _)] = cf.coeff_with_error(LevelSelector.upto(n), [f])
    assert abs(value - reference) <= bound * reference


def test_positivity_of_entropy_coefficients():
    for n in range(4):
        for alpha in (0.5, 1.0, 2.0):
            f = cf.SpectralFunction.renyi(alpha)
            assert cf.coeff_with_error(LevelSelector.upto(n), [f])[0][0] > 0.0


def test_trace_norm_gaussian_tail_bound():
    # ||f(K) - f(1) K||_1 from eigenvalues decays like exp(-0.9 q xi^2)
    for f in (cf.SpectralFunction.gtilde(), cf.SpectralFunction.renyi(1.0)):
        rate = 0.9 * min(f.endpoint_exponent, 1.0)
        grid = np.linspace(2.0, 6.0, 17)
        norms = []
        for xi in grid:
            mu = oracles.gram_spectrum(2, xi)
            norms.append(float(np.sum(np.abs(np.asarray(f(mu))
                                             - f.value_at_one * mu))))
        ratio = np.asarray(norms) * np.exp(rate * grid * grid)
        peak = int(np.argmax(ratio))
        assert peak < grid.size - 1
        assert np.all(np.diff(ratio[peak:]) <= 1e-12)


# ---------------------------------------------------------------------------
# trace moments and moment coefficients
# ---------------------------------------------------------------------------

def test_trace_moment_rank_one_power():
    for m in (1, 2, 5):
        a, b = oracles.trace_moment_K(0, 0.3, m)
        lam = oracles.lambda_ell(0, 0.3)
        assert a == pytest.approx(lam ** m, abs=1e-12)
        assert b == pytest.approx(lam ** m, abs=1e-12)


def test_trace_moment_first_is_occupation_sum():
    a, b = oracles.trace_moment_K(2, -0.4, 1)
    direct = sum(oracles.lambda_ell(ell, -0.4) for ell in range(3))
    assert a == pytest.approx(direct, abs=1e-10)
    assert b == pytest.approx(direct, abs=1e-10)


def test_trace_moment_routes_agree():
    a, b = oracles.trace_moment_K(2, 0.7, 3)
    assert a == pytest.approx(b, abs=1e-10)


def test_trace_moment_refuses_blowup():
    with pytest.raises(DomainError):
        oracles.trace_moment_K(3, 0.0, 12)


def test_poly_boundary_coeff():
    # M_ell(t^m): the integral of (lambda_ell^m - lambda_ell) / 2pi
    moment = lambda ell, m: cf.coeff_with_error(
        LevelSelector.single(ell), [cf.SpectralFunction.monomial(m)])[0][0]
    assert moment(2, 1) == pytest.approx(0.0, abs=1e-12)
    rule = _rule(0)
    lam = cf.gram_eigen_field(LevelSelector.single(0), rule.nodes)[:, 0]
    lam = np.concatenate([lam, 1.0 - lam])  # xi and -xi
    weights = np.concatenate([rule.weights, rule.weights])
    assert moment(0, 2) == pytest.approx(
        float(np.dot(weights, lam ** 2 - lam)) / (2 * math.pi), abs=1e-10)
    # dense-grid oracle for level 1, fourth moment: lambda_1 by reverse
    # cumulative trapezoid of psi_1^2 on a fine grid
    xi = np.linspace(-12.0, 12.0, 800001)
    psi2 = oracles.hermite_fn(1, xi) ** 2
    h = xi[1] - xi[0]
    seg = 0.5 * (psi2[:-1] + psi2[1:]) * h
    lam = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
    dense = np.trapezoid(lam ** 4 - lam, xi) / (2 * math.pi)
    assert moment(1, 4) == pytest.approx(dense, abs=1e-9)


def test_shared_fields_match_one_function_calls(monkeypatch):
    # renyi:0.05 pushes the cutoff to 20.0 (single:3) or 20.5 (upto:3)
    # against 5.5 and 5.0 for the other two, so the call builds one field on
    # the largest rule; integrating the others over its prefixes must not
    # change a single bit of any row
    fns = [cf.spectral_function_from_spec(s)
           for s in ("renyi:1", "renyi:0.05", "gtilde")]
    build, half_rule = cf.gram_eigen_field, cf._half_rule
    for sel, largest in zip(_SELECTORS, (20.0, 20.5)):
        builds, fields = [], []
        monkeypatch.setattr(cf, "_half_rule", lambda cutoff: (
            builds.append(cutoff) or half_rule(cutoff)))
        monkeypatch.setattr(cf, "gram_eigen_field", lambda s, xi: (
            fields.append(xi.size) or build(s, xi)))
        rows = cf.coeff_with_error(sel, fns)
        assert builds == [largest] and fields == [33 * int(2 * largest)]
        assert [cutoff for cutoff, _ in cf._xi_cutoffs(sel, fns, 1e-8)] == \
            [5.5, largest, 5.0]
        for f, row in zip(fns, rows):
            assert row == cf.coeff_with_error(sel, [f])[0]


_SIX_FUNCTIONS = ("renyi:1", "renyi:0.5", "renyi:2", "gtilde", "monomial:2",
                  "monomial:3")


def test_one_grid_per_cutoff_and_panel_width(monkeypatch):
    # the six functions cut at 9.0 to 10.5 at single:24, so the call builds
    # one grid of 21 Gauss-Kronrod panels on [0, 10.5], not one per function
    # or cutoff; its Kronrod and Gauss weights give both the value and the
    # error bar
    fns = [cf.spectral_function_from_spec(s) for s in _SIX_FUNCTIONS]
    sel = LevelSelector.single(24)
    assert [cutoff for cutoff, _ in cf._xi_cutoffs(sel, fns, 1e-8)] == \
        [9.5, 10.5, 9.0, 9.0, 9.0, 9.0]
    panels = cf.gauss_kronrod_panels
    built = []
    monkeypatch.setattr(cf, "gauss_kronrod_panels", lambda edges: (
        built.append((edges[0], edges[-1], len(edges))) or panels(edges)))
    cf.coeff_with_error(sel, fns)
    assert built == [(0.0, 10.5, 22)]


def test_each_function_is_evaluated_once_per_call():
    # f runs once on the (mu, 1 - mu) pairs of its field; the Kronrod value
    # and the Gauss sum of the error bar share those values
    fns = [cf.spectral_function_from_spec(s)
           for s in _SIX_FUNCTIONS + ("renyi:0.05",)]
    calls = {f.label: [] for f in fns}
    for f in fns:
        f.fn = lambda t, fn=f.fn, seen=calls[f.label]: seen.append(np.size(t)) or fn(t)
    for sel in _SELECTORS:
        for seen in calls.values():
            seen.clear()
        cf.coeff_with_error(sel, fns)
        for f in fns:
            nodes = _rule(3, f.label, sel.kind).nodes.size
            width = 1 if sel.kind == "single" else 4
            assert calls[f.label] == [2 * width * nodes], f.label


@pytest.mark.parametrize("sel", [LevelSelector.single(24), LevelSelector.upto(5)],
                         ids=_selector_id)
def test_six_function_rows_equal_one_function_calls(sel):
    fns = [cf.spectral_function_from_spec(s) for s in _SIX_FUNCTIONS]
    rows = cf.coeff_with_error(sel, fns)
    for f, row in zip(fns, rows):
        assert row == cf.coeff_with_error(sel, [f])[0]


@pytest.mark.parametrize("sel", [LevelSelector.single(0), LevelSelector.upto(45)],
                         ids=_selector_id)
def test_capped_cutoff_with_a_missed_tail_bound_raises(sel):
    # at alpha = 0.01 the tail bound at the cap of 40 is 4.3e-8 (single:0)
    # and 2.0e-5 (upto:45) against tol/10 = 1e-9
    f = cf.SpectralFunction.renyi(0.01)
    with pytest.raises(AccuracyError, match="tail bound") as info:
        cf.coeff_with_error(sel, [f])
    assert info.value.achieved > 4e-8


def test_level_above_the_cap_is_a_capability_error():
    # past LEVEL_CAP the turning point moves past XI_CAP; the cutoff search
    # refuses the level before it sweeps
    for sel in (LevelSelector.single(sf.LEVEL_CAP + 1), LevelSelector.upto(1000)):
        with pytest.raises(CapabilityError):
            cf.coeff_with_error(sel, [cf.SpectralFunction.renyi(1.0)])


@pytest.mark.parametrize("sel, cutoff", [(LevelSelector.single(0), 31.5),
                                         (LevelSelector.upto(45), 37.5)],
                         ids=["single:0", "upto:45"])
def test_renyi_0_02_meets_its_tail_bound_below_the_cap(sel, cutoff):
    f = cf.SpectralFunction.renyi(0.02)
    [(got, tail)] = cf._xi_cutoffs(sel, [f], 1e-8)
    assert got == cutoff and tail <= 1e-9
    [(value, error)] = cf.coeff_with_error(sel, [f])
    assert math.isfinite(value) and error > 0.0


@pytest.mark.parametrize("sel", [LevelSelector.single(10), LevelSelector.upto(10)],
                         ids=_selector_id)
def test_one_function_builds_one_field_for_value_and_error(sel, monkeypatch):
    build, half_rule = cf.gram_eigen_field, cf._half_rule
    for spec in ("renyi:1", "renyi:0.05", "monomial:3"):
        f = cf.spectral_function_from_spec(spec)
        builds, fields = [], []
        monkeypatch.setattr(cf, "_half_rule", lambda cutoff: (
            builds.append(cutoff) or half_rule(cutoff)))
        monkeypatch.setattr(cf, "gram_eigen_field", lambda s, xi: (
            fields.append(xi.size) or build(s, xi)))
        [(value, err)] = cf.coeff_with_error(sel, [f])
        assert len(builds) == len(fields) == 1
        assert math.isfinite(value) and err > 0.0


@pytest.mark.parametrize("sel", _SELECTORS, ids=_selector_id)
def test_writing_into_a_returned_field_leaves_coefficients_unchanged(sel):
    f = cf.SpectralFunction.renyi(1.0)
    [before] = cf.coeff_with_error(sel, [f])
    cf.gram_eigen_field(sel, _rule(3, "renyi:1").nodes)[:] = 0.5
    assert cf.coeff_with_error(sel, [f]) == [before]


def test_clamp_violation_aborts():
    from lle.errors import NumericError
    with pytest.raises(NumericError):
        sf.clamp_unit(np.array([1.0 + 1e-8, 0.5]), cf.CLAMP, "test")


def test_gram_eigen_field_aborts_on_broken_table(monkeypatch):
    # a diagonal 1e-8 above 1 is an assembly fault, not roundoff to clip, in
    # the single-level field and in the multi-level field alike
    from lle.errors import NumericError

    def broken_occupations(max_level, xi_grid):
        return np.full((max_level + 1, len(xi_grid)), 1.0 + 1e-8)

    def broken_table(max_level, xi_grid):
        n = max_level + 1
        vals = np.zeros((n, n, len(xi_grid)))
        vals[range(n), range(n)] = 1.0 + 1e-8
        return sf.OverlapTable(values=vals)

    monkeypatch.setattr(cf, "occupations", broken_occupations)
    monkeypatch.setattr(cf, "build_overlap_table", broken_table)
    for sel in (LevelSelector.single(2), LevelSelector.upto(2)):
        with pytest.raises(NumericError,
                           match=re.escape(f"gram_eigen_field({_selector_id(sel)})")):
            cf.gram_eigen_field(sel, _rule(2).nodes)


def test_gram_field_at_the_level_cap_on_the_widest_grid():
    # a small Hoelder exponent pushes the cutoff to its cap of 40; wide
    # panels keep the (61, 61, N) table small
    nodes = _full_nodes(sf.gauss_legendre_panels(np.linspace(0.0, cf.XI_CAP, 21)))
    assert nodes[-1] > 39.0
    table = sf.build_overlap_table(sf.LEVEL_CAP, nodes).values
    assert np.all(np.isfinite(table))
    # gram_eigen_field passes every row through clamp_unit, which raises on
    # a violation
    for sel, width in ((LevelSelector.single(sf.LEVEL_CAP), 1),
                       (LevelSelector.upto(sf.LEVEL_CAP), sf.LEVEL_CAP + 1)):
        field = cf.gram_eigen_field(sel, nodes)
        assert field.shape == (nodes.size, width)
