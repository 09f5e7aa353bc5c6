import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lle import geometry as ge
from lle import landau as lk
from lle import specfun as sf
from lle.errors import DomainError

import oracles


def test_nu_from_mu_steps():
    assert lk.nu_from_mu(1.0, 1.0) == 0
    assert lk.nu_from_mu(2.9, 1.0) == 0
    assert lk.nu_from_mu(3.0, 1.0) == 1  # jump at mu = (2l+1) B
    assert lk.nu_from_mu(7.3, 1.0) == 3
    assert lk.nu_from_mu(2.9 * 0.4, 0.4) == 0


def test_nu_from_mu_rejects_empty_projection():
    with pytest.raises(DomainError):
        lk.nu_from_mu(0.5, 1.0)


@pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
def test_nu_from_mu_rejects_a_non_finite_potential(mu):
    # NaN passes the mu < B test and floor() of NaN or inf is no level index
    with pytest.raises(DomainError, match="finite"):
        lk.nu_from_mu(mu, 1.0)


def p_ell(setup, ell, x, y):
    """The ell-th level's projection kernel at one point pair."""
    return oracles.kernel_block(setup, lk.LevelSelector.single(ell),
                                np.array([x], dtype=float),
                                np.array([y], dtype=float))[0, 0]


def test_p_ell_diagonal():
    setup = lk.MagneticSetup(2.3)
    x = (0.7, -1.1)
    for ell in (0, 1, 5):
        assert p_ell(setup, ell, x, x) == pytest.approx(2.3 / (2 * math.pi))


def test_p_ell_hermitian():
    setup = lk.MagneticSetup(1.4)
    rng = np.random.default_rng(0)
    for _ in range(10):
        x, y = rng.normal(size=2), rng.normal(size=2)
        assert p_ell(setup, 2, x, y) == pytest.approx(
            np.conj(p_ell(setup, 2, y, x)), abs=1e-15)


def test_p_ell_idempotence_by_quadrature():
    # projection property: integral of p(x,z) p(z,y) dz reproduces p(x,y)
    setup = lk.MagneticSetup(1.0)
    sel = lk.LevelSelector.single(1)
    x = np.array([0.4, 0.1])
    y = np.array([-0.3, 0.6])
    rule = sf.gauss_legendre(90, -9.0, 9.0)
    zx, zy = np.meshgrid(rule.nodes, rule.nodes, indexing="ij")
    w2 = np.outer(rule.weights, rule.weights)
    pts = np.stack([zx.ravel(), zy.ravel()], axis=1)
    left = oracles.kernel_block(setup, sel, x[None, :], pts)[0]
    right = oracles.kernel_block(setup, sel, pts, y[None, :])[:, 0]
    composed = np.sum(w2.ravel() * left * right)
    assert composed == pytest.approx(p_ell(setup, 1, x, y), abs=1e-8)


def test_p_le_n_diagonal_and_direct_sum():
    setup = lk.MagneticSetup(0.8)
    rng = np.random.default_rng(5)

    def p_le_n(n, x, y):
        return oracles.kernel_block(setup, lk.LevelSelector.upto(n),
                                    x[None, :], y[None, :])[0, 0]

    x = rng.normal(size=2)
    for n in range(7):
        assert p_le_n(n, x, x) == pytest.approx(
            (n + 1) * 0.8 / (2 * math.pi), abs=1e-13)
    for _ in range(8):
        x, y = rng.normal(size=2), rng.normal(size=2)
        n = int(rng.integers(0, 7))
        direct = sum(p_ell(setup, ell, x, y) for ell in range(n + 1))
        assert p_le_n(n, x, y) == pytest.approx(direct, abs=1e-12)
    assert p_le_n(0, x, y) == pytest.approx(p_ell(setup, 0, x, y))


def test_magnetic_translation_covariance_of_modulus():
    # |p_l(x, y)| depends only on |x - y|
    setup = lk.MagneticSetup(1.7)
    rng = np.random.default_rng(7)
    for _ in range(10):
        x, y, shift = rng.normal(size=2), rng.normal(size=2), rng.normal(size=2)
        a = abs(p_ell(setup, 3, x, y))
        b = abs(p_ell(setup, 3, x + shift, y + shift))
        assert a == pytest.approx(b, abs=1e-14)
        ang = rng.uniform(0, 2 * math.pi)
        rot = np.array([[math.cos(ang), -math.sin(ang)],
                        [math.sin(ang), math.cos(ang)]])
        c = abs(p_ell(setup, 3, rot @ x, rot @ y))
        assert a == pytest.approx(c, abs=1e-14)


@given(st.floats(0.2, 5.0), st.integers(0, 6))
def test_field_scaling_covariance(b, ell):
    x = np.array([0.37, -0.82])
    y = np.array([-0.11, 0.45])
    setup_b = lk.MagneticSetup(b)
    setup_1 = lk.MagneticSetup(1.0)
    scaled = b * p_ell(setup_1, ell, math.sqrt(b) * x, math.sqrt(b) * y)
    assert p_ell(setup_b, ell, x, y) == pytest.approx(scaled, rel=1e-12, abs=1e-14)


def test_k_kernel_truncation_and_rank_one():
    assert oracles.k_kernel(2, 0.5, 0.2, 1.0) == 0.0
    assert oracles.k_kernel(2, 0.5, 1.0, 0.2) == 0.0
    assert oracles.k_kernel(0, -20.0, 0.0, 0.0) == pytest.approx(1 / math.sqrt(math.pi))


def test_k_kernel_bitwise_against_per_degree_oracle():
    # one sweep per argument changes no bit of k_kernel, on the quotient and
    # on the confluent branch (|tau - taup| < 1e-7, taken at the midpoint)
    pts = [-4.0, -1.3, -0.0, 0.0, 5e-324, 0.4, 0.4 + 3e-8, 0.4 + 2e-7, 2.9]
    confluent = 0
    for n in range(21):
        for tau in pts:
            for taup in pts:
                got = oracles.k_kernel(n, -5.0, tau, taup)
                gauss = math.exp(-0.5 * (tau * tau + taup * taup)) / math.sqrt(math.pi)
                want = gauss * oracles.cd_sum_per_degree(n, tau, taup)
                assert got.hex() == want.hex(), (n, tau, taup)
                confluent += abs(tau - taup) < oracles._CONFLUENT_EPS
    assert 0 < confluent < 21 * len(pts) ** 2


def test_k_kernel_matches_hermite_sum():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(0, 7))
        xi = float(rng.uniform(-2, 2))
        tau = float(rng.uniform(xi, xi + 6))
        taup = float(rng.uniform(xi, xi + 6))
        direct = sum(oracles.hermite_fn(ell, tau) * oracles.hermite_fn(ell, taup)
                     for ell in range(n + 1))
        assert oracles.k_kernel(n, xi, tau, taup) == pytest.approx(direct, abs=1e-10)


def test_k_kernel_symmetric_positive_semidefinite():
    tau = np.linspace(0.3, 9.0, 60)
    for n in (0, 2, 5):
        mat = oracles.k_kernel_matrix(n, 0.3, tau)
        assert np.max(np.abs(mat - mat.T)) < 1e-14
        w = np.linalg.eigvalsh(mat)
        assert w.min() >= -1e-9


def test_k_kernel_confluent_branch_continuity():
    # values on both sides of the 1e-7 switching threshold agree
    for n in (1, 6):
        near = oracles.k_kernel(n, 0.0, 1.1, 1.1 + 9e-8)
        far = oracles.k_kernel(n, 0.0, 1.1, 1.1 + 2e-7)
        assert near == pytest.approx(far, abs=5e-7)
        mat = oracles.k_kernel_matrix(
            n, 0.0, np.array([1.1, 1.1 + 9e-8, 1.1 + 2e-7]))
        assert mat[0, 1] == pytest.approx(near, abs=1e-12)


def test_point_validation():
    # points reach the library as polygon vertices and translate vectors,
    # and are checked there
    with pytest.raises(DomainError):
        ge.Polygon(((np.nan, 0.0), (1.0, 0.0), (0.0, 1.0)))
    with pytest.raises(DomainError):
        ge.roccaforte_first_order(ge.Disk(1.0), [(np.nan, 0.0)])
    with pytest.raises(DomainError):
        lk.MagneticSetup(-1.0)
