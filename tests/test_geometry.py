import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lle import geometry as ge
from lle import region_sim as rs
from lle.errors import CapabilityError, DomainError

import oracles

DISK = ge.Disk(1.0)
STAR = ge.SmoothStar((1.0, 0.0, 0.0, 0.0, 0.0, 0.2))          # 1 + 0.2 cos 3t
STAR_SMALL = ge.SmoothStar((1.0, 0.0, 0.0, 0.0, 0.0, 0.15))   # 1 + 0.15 cos 3t
SQUARE = ge.Polygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
LOPSIDED = ge.SmoothStar((1.0, 0.1, 0.0, 0.0, 0.2))          # 1 + 0.1 cos t + 0.2 cos 2t


# ---------------------------------------------------------------------------
# region data model
# ---------------------------------------------------------------------------

def test_disk_measures():
    d = ge.Disk(2.5)
    assert ge.area(d) == pytest.approx(math.pi * 6.25, abs=1e-12)
    assert ge.perimeter(d) == pytest.approx(5 * math.pi, abs=1e-12)


def test_star_measures_spectral_consistency():
    # constructor validates 2048- vs 4096-node trapezoid agreement to 1e-10
    a = ge.area(STAR)
    p = ge.perimeter(STAR)
    # closed forms for r = 1 + eps cos(3t): area = pi (1 + eps^2/2)
    assert a == pytest.approx(math.pi * (1 + 0.5 * 0.2 ** 2), abs=1e-12)
    assert p > 2 * math.pi


def test_star_positive_radius_required():
    with pytest.raises(DomainError):
        ge.SmoothStar((1.0, 1.2))


def test_polygon_validation():
    with pytest.raises(DomainError):
        ge.Polygon(((0, 0), (1, 0)))
    with pytest.raises(DomainError):  # clockwise
        ge.Polygon(((0, 0), (0, 1), (1, 1), (1, 0)))
    with pytest.raises(DomainError):  # bowtie
        ge.Polygon(((0, 0), (1, 1), (1, 0), (0, 1)))
    assert ge.area(SQUARE) == pytest.approx(1.0)
    assert ge.perimeter(SQUARE) == pytest.approx(4.0)


def test_region_json_roundtrip_and_rejection():
    for region in (DISK, STAR, SQUARE):
        assert ge.region_from_json(ge.region_to_json(region)) == region
    with pytest.raises(DomainError):
        ge.region_from_json({"type": "disk", "R": 1.0, "colour": "red"})
    with pytest.raises(DomainError):
        ge.region_from_json({"type": "blob"})


# ---------------------------------------------------------------------------
# accessors
# ---------------------------------------------------------------------------

def test_disk_accessors():
    assert ge.curvature(ge.Disk(2.0), 0.3) == pytest.approx(0.5)
    n = ge.inward_normal(DISK, 0.0)
    np.testing.assert_allclose(n, [-1.0, 0.0], atol=1e-15)
    # the boundary of the origin-centred disk passes through (R, 0)
    assert ge.arc_element(ge.Disk(2.0), 0.0) == 2.0
    assert ge.contains(ge.Disk(2.0), [[2.0, 0.0], [2.0 + 1e-12, 0.0]]).tolist() \
        == [True, False]


@pytest.mark.parametrize("R", [0.8, 1.0, 1.3, 2.0, 7.5])
def test_disk_is_the_star_of_constant_profile(R):
    # disk and star share the boundary-profile route; the disk's closed
    # forms still hold, the normal to one ulp of its unit length
    disk, star = ge.Disk(R), ge.SmoothStar((R,))
    th = np.linspace(0.0, 2.0 * math.pi, 100001)
    normal = np.stack([-np.cos(th), -np.sin(th)], axis=-1)
    for region in (disk, star):
        np.testing.assert_allclose(ge.inward_normal(region, th), normal,
                                   rtol=0.0, atol=np.finfo(float).eps)
        assert np.array_equal(ge.curvature(region, th), np.full(th.shape, 1.0 / R))
        assert np.array_equal(ge.arc_element(region, th), np.full(th.shape, R))
        assert rs._radial_profile_max(region) == R
    assert np.array_equal(ge.inward_normal(disk, th), ge.inward_normal(star, th))
    pts = np.random.default_rng(0).uniform(-1.5 * R, 1.5 * R, size=(4000, 2))
    inside = np.linalg.norm(pts, axis=1) <= R
    assert np.array_equal(ge.contains(disk, pts), inside)
    assert np.array_equal(ge.contains(star, pts), inside)


@pytest.mark.parametrize("coeffs", [
    (1.0, 0.1, -0.05, 0.07, 0.02),
    (1.0, 0.1, -0.05, 0.07, 0.02, 0.03),  # a_3 closes the list: b_3 = 0
])
@pytest.mark.parametrize("k", range(6))
def test_star_radius_derivatives_match_shifted_phase_sum(coeffs, k):
    # d^k/dtheta^k of cos(j theta) is j^k cos(j theta + k pi/2), likewise sin
    theta = np.linspace(0.0, 2.0 * math.pi, 37)
    a, b = coeffs[1::2], coeffs[2::2]
    b = b + (0.0,) * (len(a) - len(b))
    want = sum(j ** k * (aj * np.cos(j * theta + k * math.pi / 2)
                         + bj * np.sin(j * theta + k * math.pi / 2))
               for j, (aj, bj) in enumerate(zip(a, b), start=1))
    if k == 0:
        want = want + coeffs[0]
    got = ge.SmoothStar(coeffs).radius(theta, k)
    assert np.max(np.abs(got - want)) < 1e-13 * 3 ** k


def test_fused_orders_equal_single_order_calls():
    # one cos/sin table serves every order of a tuple, with the operations
    # of the single-order call in the same order
    theta = np.linspace(0.0, 2.0 * math.pi, 1001)
    for region in (LOPSIDED, STAR, ge.Disk(1.3)):
        fused = ge.boundary_radius(region, theta, (0, 1, 2, 5))
        for k, got in zip((0, 1, 2, 5), fused):
            np.testing.assert_array_equal(got, ge.boundary_radius(region, theta, k))
    r, rp = LOPSIDED.radius(0.7, (0, 1))
    assert (r, rp) == (LOPSIDED.radius(0.7), LOPSIDED.radius(0.7, 1))
    assert isinstance(r, float) and isinstance(rp, float)


def test_star_curvature_matches_finite_differences():
    for th0 in (0.0, 0.77, 2.3, 4.9):
        p = lambda t: STAR.radius(t) * np.array([math.cos(t), math.sin(t)])
        h = 1e-4
        d1 = (p(th0 + h) - p(th0 - h)) / (2 * h)
        d2 = (p(th0 + h) - 2 * p(th0) + p(th0 - h)) / h ** 2
        kappa_fd = (d1[0] * d2[1] - d1[1] * d2[0]) / np.linalg.norm(d1) ** 3
        assert ge.curvature(STAR, th0) == pytest.approx(kappa_fd, abs=1e-6)


def test_curvature_holds_at_every_size():
    # r^3 overflows past about 5.6e102, yet the curvature of L * region is
    # the curvature of the region over L; a disk gives 1/R exactly
    assert np.array_equal(ge.curvature(ge.Disk(1e150), [0.0]), [1e-150])
    assert ge.curvature(ge.Disk(1e-150), 0.3) == 1e150
    th = np.linspace(0.0, 2.0 * math.pi, 37)
    unit = ge.SmoothStar((1.0, 0.1, 0.05))
    for size in (1e-150, 1e150):
        star = ge.SmoothStar(tuple(size * c for c in unit.coeffs))
        np.testing.assert_allclose(size * ge.curvature(star, th),
                                   ge.curvature(unit, th), rtol=1e-15, atol=0.0)
        assert size * ge.curvature(star, 0.77) == pytest.approx(
            ge.curvature(unit, 0.77), rel=1e-15)
    # the second-order term is scale-free: -1/2 for two orthogonal unit
    # vectors on any disk
    vectors = [(1.0, 0.0), (0.0, 1.0)]
    for radius in (1e-150, 1e150):
        assert ge.roccaforte_second_order(ge.Disk(radius), vectors) \
            == pytest.approx(ge.roccaforte_second_order(DISK, vectors), rel=1e-15)
    assert ge.roccaforte_second_order(ge.Disk(1e150), vectors) \
        == pytest.approx(-0.5, rel=1e-15)


def test_polygon_curvature_is_capability_error():
    with pytest.raises(CapabilityError):
        ge.curvature(SQUARE, 0.1)


# ---------------------------------------------------------------------------
# translate intersections
# ---------------------------------------------------------------------------

def test_intersection_eps_zero():
    fam = ge.TranslateFamily(vectors=((1.0, 0.0),), eps=0.0)
    inter, removed = ge.intersect_translates_area(STAR, fam)
    assert removed == 0.0
    assert inter == pytest.approx(ge.area(STAR))


def test_disk_lens_matches_monte_carlo():
    fam = ge.TranslateFamily(vectors=((1.0, 0.0),), eps=0.25)
    _, removed = ge.intersect_translates_area(DISK, fam)
    est, se = oracles.mc_intersect_area(DISK, fam, n_samples=10_000_000, seed=11)
    assert abs(removed - est) < 3.0 * se


def test_square_slab_exact():
    fam = ge.TranslateFamily(vectors=((1.0, 0.0),), eps=0.125)
    _, removed = ge.intersect_translates_area(SQUARE, fam)
    assert removed == pytest.approx(0.125, abs=1e-14)


def test_square_two_vector_clip():
    fam = ge.TranslateFamily(vectors=((1.0, 0.0), (0.0, 1.0)), eps=0.25)
    inter, removed = ge.intersect_translates_area(SQUARE, fam)
    # intersection is the [0.25,1]^2 square
    assert inter == pytest.approx(0.75 ** 2, abs=1e-14)
    assert removed == pytest.approx(1 - 0.75 ** 2, abs=1e-14)


HEXAGON = ge.Polygon(tuple((math.cos(t), math.sin(t))
                           for t in np.arange(6) * math.pi / 3))
TRIANGLE = ge.Polygon(((0.0, 0.0), (2.0, 0.3), (0.6, 1.5)))


@pytest.mark.parametrize("region, vectors, eps, seed", [
    (HEXAGON, ((1.0, 0.2), (-0.3, 0.7)), 0.15, 21),
    (HEXAGON, ((1.0, 0.2), (-0.3, 0.7), (0.1, -0.9)), 0.3, 22),
    (TRIANGLE, ((0.5, 0.5), (-1.0, 0.1)), 0.2, 23),
    (TRIANGLE, ((0.5, 0.5), (-1.0, 0.1), (0.2, -0.8)), 0.1, 24),
])
def test_polygon_intersection_matches_monte_carlo(region, vectors, eps, seed):
    fam = ge.TranslateFamily(vectors=vectors, eps=eps)
    _, removed = ge.intersect_translates_area(region, fam)
    est, se = oracles.mc_intersect_area(region, fam, n_samples=2_000_000, seed=seed)
    assert abs(removed - est) < 3.5 * se


@pytest.mark.parametrize("vector", [(1.0, 0.5), (-0.7, 0.3), (0.2, -1.3), (0.0, 1.0)])
@pytest.mark.parametrize("eps", [0.25, 2.0 ** -7])
def test_rectangle_one_vector_exact(vector, eps):
    w, h = 3.0, 2.0
    x, y = -1.0, 0.5
    rect = ge.Polygon(((x, y), (x + w, y), (x + w, y + h), (x, y + h)))
    fam = ge.TranslateFamily(vectors=(vector,), eps=eps)
    _, removed = ge.intersect_translates_area(rect, fam)
    a, b = abs(vector[0]), abs(vector[1])
    want = w * h - (w - eps * a) * (h - eps * b)
    assert removed == pytest.approx(want, rel=1e-13)


def test_polygon_with_subnormal_edge_has_finite_first_order():
    # the last edge is 1e-300 long: its length must not square to 0
    poly = ge.Polygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 1e-300)))
    assert ge.roccaforte_first_order(poly, [(1.0, 0.5)]) == 1.5
    assert ge.perimeter(poly) == 4.0


def test_nonconvex_polygon_clip_refused():
    arrow = ge.Polygon(((0, 0), (2, 0), (2, 2), (1, 0.5), (0, 2)))
    with pytest.raises(CapabilityError):
        ge.intersect_translates_area(
            arrow, ge.TranslateFamily(vectors=((1.0, 0.0),), eps=0.1))


def test_star_intersection_matches_monte_carlo():
    fam = ge.TranslateFamily(vectors=((1.0, 0.2), (-0.3, 0.7)), eps=0.11)
    _, removed = ge.intersect_translates_area(STAR, fam)
    est, se = oracles.mc_intersect_area(STAR, fam, n_samples=4_000_000, seed=3)
    assert abs(removed - est) < 3.5 * se


def test_disk_multivector_radial_vs_monte_carlo():
    fam = ge.TranslateFamily(vectors=((1.0, 0.0), (0.0, 1.0)), eps=0.2)
    _, removed = ge.intersect_translates_area(DISK, fam)
    est, se = oracles.mc_intersect_area(DISK, fam, n_samples=4_000_000, seed=4)
    assert abs(removed - est) < 3.5 * se


def test_radial_method_agrees_with_lens_formula():
    # force the radial path with a duplicated-direction two-vector family
    fam2 = ge.TranslateFamily(vectors=((1.0, 0.0), (0.5, 0.0)), eps=0.2)
    _, removed2 = ge.intersect_translates_area(DISK, fam2)
    # the 0.5-vector translate is a superset: removal governed by (1,0) alone
    assert removed2 == pytest.approx(ge._lens_removed_area(1.0, 0.2), abs=1e-11)


def test_ray_solve_reaches_star_radius():
    # the bracket must hold the whole star: on this star the maximum of r
    # sampled on 2048 nodes falls short of the true one by ~1e-6
    th = np.linspace(0.0, 2.0 * math.pi, 65536, endpoint=False)
    rho = ge._star_translate_radius(LOPSIDED, np.zeros(2), th)
    np.testing.assert_allclose(rho, LOPSIDED.radius(th), rtol=0.0, atol=1e-14)


# non-convex stars whose translates by up to 0.6 stay star-shaped about the
# origin, so that every ray meets the boundary once
WAVY5 = ge.SmoothStar((1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.1))  # 1 + 0.1 cos 5t
WAVY24 = ge.SmoothStar((1.0, 0.0, 0.0, 0.15, 0.0, 0.0, 0.0, 0.0, 0.08))  # 1 + 0.15 cos 2t + 0.08 sin 4t
# translates by (0.3, 0.1) are not star-shaped about the origin: on the rays
# theta in [1.82, 1.87] Newton converges to the boundary point behind it
FOLDED = ge.SmoothStar((1.0, 0.3, 0.0, 0.0, 0.25, 0.0, 0.0, 0.0, 0.15))


@pytest.mark.parametrize("star", [LOPSIDED, STAR, WAVY5, WAVY24],
                         ids=["lopsided", "star", "wavy5", "wavy24"])
def test_ray_solve_matches_bisection(star):
    th = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    for mag in (0.0, 0.2, 0.4, 0.6):
        for ang in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False):
            shift = mag * np.array([math.cos(ang), math.sin(ang)])
            bound = oracles.translate_bound(star, shift)
            np.testing.assert_allclose(
                ge._star_translate_radius(star, shift, th),
                oracles.bisect_translate_radius(star, shift, th),
                rtol=0.0, atol=1e-14 * bound)


def test_ray_solve_falls_back_to_bisection_on_failed_rays(monkeypatch):
    shift = np.array([0.3, 0.1])
    th = np.concatenate([np.linspace(0.0, 1.6, 40), np.linspace(1.83, 1.86, 8),
                         np.linspace(2.0, 6.2, 40)])
    bound = oracles.translate_bound(FOLDED, shift)
    newton = oracles.newton_translate_radius(FOLDED, shift, th)
    failed = ~((newton > 0.0) & (newton <= bound))
    assert np.count_nonzero(failed) == 8
    find_root, solved = ge._bracketed_root, []

    def spy(f, a, b, fa, fb):
        out = find_root(f, a, b, fa, fb)
        solved.append(out)
        return out

    monkeypatch.setattr(ge, "_bracketed_root", spy)
    rho = ge._star_translate_radius(FOLDED, shift, th)
    assert len(solved) == 1
    np.testing.assert_array_equal(solved[0], rho[failed])
    np.testing.assert_allclose(
        rho, oracles.bisect_translate_radius(FOLDED, shift, th),
        rtol=0.0, atol=1e-14 * bound)


def test_ray_solve_round_star_needs_no_fallback(monkeypatch):
    # the unshifted ray lands exactly on the bound a0
    def no_fallback(f, a, b, fa, fb):
        raise AssertionError("a ray fell back to the bracketed search")

    monkeypatch.setattr(ge, "_bracketed_root", no_fallback)
    star = ge.SmoothStar((1.0408,))
    th = np.linspace(0.0, 2.0 * math.pi, 1024, endpoint=False)
    rho = ge._star_translate_radius(star, np.zeros(2), th)
    np.testing.assert_array_equal(rho, star.radius(th))


# ---------------------------------------------------------------------------
# the bracketed root finder, against 64-step bisection (oracles.bisect_root)
# ---------------------------------------------------------------------------

ROOTS = np.array([1.0 / 3.0, 0.1, 0.7071, 0.9, 0.999, 1e-3])
UNIT = np.zeros(ROOTS.size), np.ones(ROOTS.size)
EPS = np.finfo(float).eps


def _search(f, a, b):
    """_bracketed_root on f over [a, b] with numpy's float errors raised
    (so no step may divide by 0 or form 0 * inf); also returns every
    (point, value) pair f was evaluated at, the ends included."""
    seen = []

    def spy(x):
        y = f(x)
        seen.append((x.copy(), y.copy()))
        return y

    with np.errstate(divide="raise", over="raise", invalid="raise"):
        fa, fb = f(a), f(b)
        root = ge._bracketed_root(spy, a, b, fa, fb)
    return root, [(a, fa), (b, fb)] + seen, len(seen)


def _assert_certified(root, seen, a, b):
    # each root is an evaluated exact zero, or the midpoint of a bracket of
    # evaluated points, f <= 0 at its left end and > 0 at its right, no wider
    # than 2 tol with tol = 4 eps max(|a|, |b|); a found root is evaluated
    # again while other elements search, so its own point is no bracket end
    x = np.array([p for p, _ in seen])
    y = np.array([v for _, v in seen])
    tol = 4.0 * EPS * np.maximum(np.abs(a), np.abs(b))
    for i in range(root.size):
        if np.any((x[:, i] == root[i]) & (y[:, i] == 0.0)):
            continue
        lo = np.max(x[:, i][(x[:, i] < root[i]) & (y[:, i] <= 0.0)])
        hi = np.min(x[:, i][(x[:, i] > root[i]) & (y[:, i] > 0.0)])
        assert hi - lo <= 2.0 * tol[i] and root[i] == 0.5 * (lo + hi)


@pytest.mark.parametrize("f, most", [
    (lambda x: x - ROOTS, 2),
    (lambda x: x ** 3 + x - (ROOTS ** 3 + ROOTS), 8),
    (lambda x: np.exp(20.0 * (x - ROOTS)) - 1.0, 12),
    # no interpolation helps here: the ITP bound allows 10 evaluations beyond
    # what halving to the final bracket needs, 60 in all, against bisection's 64
    (lambda x: (x - ROOTS) ** 3, 60),  # flat at the root
    (lambda x: np.where(x <= ROOTS, -1.0, 1.0), 60),
], ids=["linear", "cubic", "exponential", "flat-at-root", "step"])
def test_bracketed_root_matches_bisection(f, most):
    root, seen, evals = _search(f, *UNIT)
    _assert_certified(root, seen, *UNIT)
    np.testing.assert_allclose(root, oracles.bisect_root(f, *UNIT),
                               rtol=0.0, atol=4.0 * EPS)
    assert evals <= most


@pytest.mark.parametrize("slope", [1.0, 1e-3])
def test_bracketed_root_on_a_noisy_function(slope):
    # 1e-16 of noise makes a band of sign changes 2e-16 / slope wide
    def f(x):
        return slope * (x - ROOTS) + 1e-16 * np.sin(1e17 * x)

    root, seen, evals = _search(f, *UNIT)
    _assert_certified(root, seen, *UNIT)
    assert np.all(np.abs(root - ROOTS) <= 2e-16 / slope + 4.0 * EPS)
    assert evals <= 16


def test_bracketed_root_ties_and_exact_zeros():
    a, b = UNIT
    # f(b) == 0, an argmax tie at the right end of a kink cell: bisection
    # converges to b, and so must the search, without evaluating f
    root, _, evals = _search(lambda x: x - 1.0, a, b)
    assert evals == 0
    np.testing.assert_array_equal(root, b)
    np.testing.assert_array_equal(oracles.bisect_root(lambda x: x - 1.0, a, b), b)
    # an exact zero at an iterate ends the search there: the secant step of
    # x - 1/2 lands on 1/2
    root, _, evals = _search(lambda x: x - 0.5, a, b)
    assert evals == 1
    np.testing.assert_array_equal(root, 0.5)
    # f(a) == 0 and f > 0 beyond: within tol of a, as bisection
    root, seen, _ = _search(lambda x: x, a, b)
    _assert_certified(root, seen, a, b)
    assert np.all(root <= 4.0 * EPS)
    # empty brackets and brackets already within tol cost nothing
    c = np.array([0.3, 0.3])
    root, _, evals = _search(lambda x: x - 0.3, c, c + np.array([0.0, EPS]))
    assert evals == 0
    np.testing.assert_allclose(root, 0.3, rtol=0.0, atol=EPS)


def test_leader_changes_match_bisection_through_an_argmax_tie():
    # rows [0; sin c - sin t] tie exactly at the grid angle c = pi/4, where
    # the argmax falls to row 0: the kink cell ends on the tie, f(b) == 0
    c = 512 * 2.0 * math.pi / 4096

    def rows(t):
        return np.vstack([np.zeros(np.size(t)), math.sin(c) - np.sin(t)])

    kinks = ge._leader_changes(rows)
    np.testing.assert_allclose(kinks, oracles.bisect_leader_changes(rows),
                               rtol=0.0, atol=16.0 * EPS)
    np.testing.assert_allclose(kinks, [c, math.pi - c], rtol=0.0, atol=16.0 * EPS)


KINK_FAMILIES = [((1.0, 0.2), (-0.3, 0.7), (-0.6, -0.8)), ((1.0, 0.0),),
                 ((1.0, 0.2), (-0.3, 0.7))]


@pytest.mark.parametrize("star", [LOPSIDED, WAVY5, WAVY24],
                         ids=["lopsided", "wavy5", "wavy24"])
def test_kink_searches_take_few_evaluations(monkeypatch, star):
    # one call evaluates every kink of a search, so a count per call bounds
    # every kink's; bisection took 64
    find_root, evals = ge._bracketed_root, []

    def spy(f, a, b, fa, fb):
        evals.append(0)

        def counted(x):
            evals[-1] += 1
            return f(x)

        return find_root(counted, a, b, fa, fb)

    monkeypatch.setattr(ge, "_bracketed_root", spy)
    for vectors in KINK_FAMILIES:
        ge._boundary_rule.cache_clear()
        ge.roccaforte_first_order(star, vectors)
        for k in range(3, 10):
            ge.intersect_translates_area(
                star, ge.TranslateFamily(vectors=vectors, eps=2.0 ** -k))
    assert len(evals) == 3 * 8
    assert max(evals) <= 8 and np.median(evals) <= 6
    # below eps = 2^-9 the band where rounding decides the sign of the gap
    # between two translates widens like 1/eps, and its last steps halve
    del evals[:]
    for vectors in KINK_FAMILIES:
        for k in (2, 10, 11, 12):
            ge.intersect_translates_area(
                star, ge.TranslateFamily(vectors=vectors, eps=2.0 ** -k))
    assert max(evals) <= 12


@pytest.mark.parametrize("vectors, k", [
    (((1.0, 0.2), (-0.3, 0.7), (-0.6, -0.8)), 3),
    (((1.0, 0.2), (-0.3, 0.7), (-0.6, -0.8)), 9),
    (((1.0, 0.0),), 6),
])
def test_kink_split_area_matches_dense_trapezoid(vectors, k):
    # the reference integrates 1/2 rho_min^2 with the 2^18-node trapezoid on
    # Newton ray solves: no kink events, no panels, no bisection; its own
    # error from the kinks is O(h^2) and measures 4e-12 at k = 3
    fam = ge.TranslateFamily(vectors=vectors, eps=2.0 ** -k)
    inter, _ = ge.intersect_translates_area(LOPSIDED, fam)
    assert inter == pytest.approx(
        oracles.trapezoid_intersection_area(LOPSIDED, fam), abs=1e-11)


def test_large_translate_monte_carlo_fallback():
    # shifts beyond the radial representation are refused
    fam = ge.TranslateFamily(vectors=((1.0, 0.0), (0.0, 1.0)), eps=0.9)
    with pytest.raises(CapabilityError):
        ge.intersect_translates_area(STAR, fam)


# ---------------------------------------------------------------------------
# Roccaforte boundary integrals
# ---------------------------------------------------------------------------

def test_first_order_zero_vector():
    assert ge.roccaforte_first_order(STAR, [(0.0, 0.0)]) == 0.0


def test_first_order_disk_value():
    # integral of max(0, cos) over the circle = 2, via adaptive oracle too
    t1 = ge.roccaforte_first_order(DISK, [(1.0, 0.0)])
    oracle = oracles.adaptive_quad(lambda t: np.maximum(0.0, np.cos(t)),
                                   -0.5 * math.pi, 0.5 * math.pi, tol=1e-13)
    assert t1 == pytest.approx(2.0, abs=1e-12)
    assert t1 == pytest.approx(oracle, abs=1e-10)


def test_first_order_rotation_invariance():
    vs = np.array([[1.0, 0.3], [-0.4, 0.8], [0.2, -0.9]])
    base = ge.roccaforte_first_order(DISK, vs)
    for ang in (0.63, 2.2):
        rot = np.array([[math.cos(ang), -math.sin(ang)],
                        [math.sin(ang), math.cos(ang)]])
        assert ge.roccaforte_first_order(DISK, vs @ rot.T) == pytest.approx(
            base, abs=1e-10)


@given(st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
                min_size=1, max_size=4))
def test_first_order_positivity(vectors):
    # T1 >= 0 always, and T1 = 0 exactly when every vector vanishes
    t1 = ge.roccaforte_first_order(DISK, vectors)
    if all(vx == 0 and vy == 0 for vx, vy in vectors):
        assert t1 == 0.0
    else:
        assert t1 > 0.0


def test_second_order_disk_single_vector():
    # the curvature term vanishes for a single unit vector on the unit disk:
    # 1/2 int_{-pi/2}^{pi/2} (1 - 2 cos^2) = 0, confirmed by the lens series
    t2 = ge.roccaforte_second_order(DISK, [(1.0, 0.0)])
    oracle = 0.5 * oracles.adaptive_quad(
        lambda u: 1.0 - 2.0 * np.cos(u) ** 2, -0.5 * math.pi, 0.5 * math.pi,
        tol=1e-13)
    assert t2 == pytest.approx(oracle, abs=1e-10)
    assert t2 == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("region", [LOPSIDED, WAVY24, DISK],
                         ids=["lopsided", "wavy24", "disk"])
def test_boundary_integrals_share_one_rule_bitwise(region):
    # the cached rule gives the integrals the unshared route gives
    vectors = [(1.0, 0.2), (-0.3, 0.7), (-0.6, -0.8)]
    ge._boundary_rule.cache_clear()
    shared = (ge.roccaforte_first_order(region, vectors),
              ge.roccaforte_second_order(region, vectors))
    assert ge._boundary_rule.cache_info().misses == 1
    unshared = []
    for integral in (ge.roccaforte_first_order, ge.roccaforte_second_order):
        ge._boundary_rule.cache_clear()
        unshared.append(integral(region, vectors))
    assert shared == tuple(unshared)
    t, w, g = ge._boundary_rule(region, tuple(vectors))
    assert not (t.flags.writeable or w.flags.writeable or g.flags.writeable)


def test_second_order_degenerate_family_flagged():
    from lle.errors import NumericError
    with pytest.raises(NumericError):
        ge.roccaforte_second_order(DISK, [(1.0, 0.0), (1.0, 0.0)])


def test_boundary_integrals_parallel_vectors():
    # (0.5, 0) never leads where <v|n> > 0, so it changes neither integral;
    # its kinks coincide with those of (1, 0) and must not be counted twice
    single, pair = [(1.0, 0.0)], [(1.0, 0.0), (0.5, 0.0)]
    for region in (DISK, STAR):
        assert ge.roccaforte_first_order(region, pair) == pytest.approx(
            ge.roccaforte_first_order(region, single), abs=1e-13)
        assert ge.roccaforte_second_order(region, pair) == pytest.approx(
            ge.roccaforte_second_order(region, single), abs=1e-13)


@pytest.mark.parametrize("vectors", [[], [[1.0, 0.0, 2.0]], [[float("nan"), 0.0]],
                                     [[1, 0], [1]]])
def test_boundary_integrals_reject_bad_vectors(vectors):
    with pytest.raises(DomainError):
        ge.roccaforte_first_order(STAR, vectors)
    with pytest.raises(DomainError):
        ge.roccaforte_second_order(STAR, vectors)


@pytest.mark.parametrize("vectors, eps", [
    (((float("nan"), 0.0),), 0.1), (((1.0, 0.0),), float("nan")),
    (((1.0, 0.0),), float("inf")), (((1.0, 0.0, 0.0),), 0.1),
    ((), 0.1), (((1.0, 0.0),), -0.1), (((1.0, 0.0), (1.0,)), 0.1),
])
def test_translate_family_rejects_unusable_translates(vectors, eps):
    # the check the boundary integrals use, so no region sees them
    with pytest.raises(DomainError):
        ge.TranslateFamily(vectors=vectors, eps=eps)


def test_polygon_first_order_slab():
    t1 = ge.roccaforte_first_order(SQUARE, [(1.0, 0.0)])
    assert t1 == pytest.approx(1.0, abs=1e-14)
    for eps in (0.125, 0.03125):
        fam = ge.TranslateFamily(vectors=((1.0, 0.0),), eps=eps)
        _, removed = ge.intersect_translates_area(SQUARE, fam)
        assert removed - eps * t1 == pytest.approx(0.0, abs=1e-14)


def _expansion_residuals(region, vectors, exps):
    t1 = ge.roccaforte_first_order(region, vectors)
    t2 = ge.roccaforte_second_order(region, vectors)
    r1, r2 = [], []
    for k in exps:
        eps = 2.0 ** -k
        fam = ge.TranslateFamily(vectors=tuple(vectors), eps=eps)
        _, removed = ge.intersect_translates_area(region, fam)
        r1.append((removed - eps * t1) / eps)
        r2.append((removed - eps * t1 - eps * eps * t2) / eps ** 2)
    return np.asarray(r1), np.asarray(r2)


def test_first_and_second_order_laws_star():
    vectors = [(1.0, 0.2), (-0.3, 0.7)]
    r1, r2 = _expansion_residuals(STAR_SMALL, vectors, exps=(3, 5, 7, 9))
    assert np.all(np.diff(np.abs(r1)) < 0)
    assert np.all(np.diff(np.abs(r2)) < 0)
    assert abs(r1[-1]) < 1e-3 and abs(r2[-1]) < 1e-3


def test_expansion_random_families_disk():
    rng = np.random.default_rng(9)
    for _ in range(2):
        r = int(rng.integers(1, 5))
        vectors = [tuple(rng.uniform(-1, 1, size=2)) for _ in range(r)]
        r1, r2 = _expansion_residuals(DISK, vectors, exps=(3, 6, 9))
        assert abs(r1[-1]) < abs(r1[0]) + 1e-12
        assert abs(r1[-1]) < 5e-3
        assert abs(r2[-1]) < 5e-3
