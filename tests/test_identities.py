import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lle import identities as idn
from lle.cli import main
from lle.errors import DomainError, NumericError

import oracles


# ---------------------------------------------------------------------------
# integer substitution data (exact arithmetic)
# ---------------------------------------------------------------------------

def test_integer_matrices_exact():
    for m in range(2, 9):
        for q in range(1, m):
            plan = idn.SubstitutionPlan(m, q)
            a = oracles.a_matrix(plan)
            ai = oracles.a_inverse(plan)
            prod = a @ ai
            assert (prod == np.eye(m - 1, dtype=object)).all()
            assert (ai @ a == np.eye(m - 1, dtype=object)).all()
            assert oracles.det_a(plan) == 1
            s = oracles.skew(plan)
            assert (s == -s.T).all()
            flip = oracles.sign_flip(plan)
            assert (flip @ flip == np.eye(m - 1, dtype=object)).all()


def test_plan_validation():
    with pytest.raises(DomainError):
        idn.SubstitutionPlan(1, 1)
    with pytest.raises(DomainError):
        idn.SubstitutionPlan(4, 4)


def test_shifted_differences_equal_the_integer_matrices():
    # every (m, q) pattern as one block of plans, padded to M_CAP - 1
    m, q = np.array([(m, q) for m in range(2, idn.M_CAP + 1)
                     for q in range(1, m)]).T
    v = idn._live_only(m, np.random.default_rng(6).normal(size=(len(m), 7)))
    inv = idn._a_inverse_times(idn.SubstitutionPlan(m=m, q=q), v)
    skew = idn._skew_times(v)
    for i, (mi, qi) in enumerate(zip(m.tolist(), q.tolist())):
        plan = idn.SubstitutionPlan(mi, qi)
        assert (inv[i, :mi - 1] == oracles.a_inverse(plan) @ v[i, :mi - 1]).all()
        assert (inv[i, mi - 1:] == 0.0).all()
        assert np.allclose(skew[i, :mi - 1], oracles.skew(plan) @ v[i, :mi - 1],
                           rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# phase telescoping and the local frame
# ---------------------------------------------------------------------------

def test_phase_telescoping_m2_both_sides_zero():
    res = oracles.one_row(idn._batch_phase, 2, (0.3, -0.8), [(1.2, 0.4)])
    assert res.ok
    assert res.inputs["lhs"] == pytest.approx(0.0, abs=1e-14)
    assert res.inputs["rhs"] == 0.0


def test_phase_telescoping_zero_ys():
    res = oracles.one_row(idn._batch_phase, 4, (1.0, 2.0), np.zeros((3, 2)))
    assert res.ok and res.max_error == 0.0


@given(st.integers(2, 8))
def test_phase_telescoping_random(m):
    rng = np.random.default_rng(m)
    res = oracles.one_row(idn._batch_phase, m, rng.normal(size=2),
                          rng.normal(size=(m - 1, 2)))
    assert res.ok


def test_local_frame_axis_aligned():
    ys = np.array([[0.3, 1.7], [-0.2, 0.9]])
    res = oracles.one_row(idn._batch_frame, 3, ys, (0.0, 1.0))
    assert res.ok


def test_local_frame_random():
    rng = np.random.default_rng(3)
    for m in (2, 5):
        ang = rng.uniform(0, 2 * math.pi)
        res = oracles.one_row(idn._batch_frame, m, rng.normal(size=(m - 1, 2)),
                              (math.cos(ang), math.sin(ang)))
        assert res.ok


# ---------------------------------------------------------------------------
# substitution-chain identities
# ---------------------------------------------------------------------------

def test_exponent_identity_spot_value():
    # m=3, q=1 at xi=1, tau=(1,1): both sides equal
    # 3 xi^2 + 2 xi (tau1+tau2) + tau1^2 + tau2^2 = 9
    res = oracles.one_row(idn._batch_exponent, 3, 1, 1.0, [1.0, 1.0])
    assert res.ok
    assert res.inputs["lhs"] == pytest.approx(9.0, abs=1e-12)
    assert res.inputs["rhs"] == pytest.approx(9.0, abs=1e-12)


def test_exponent_identity_zero_tau():
    res = oracles.one_row(idn._batch_exponent, 4, 2, 0.7, [0.0, 0.0, 0.0])
    assert res.ok
    assert res.inputs["lhs"] == pytest.approx(4 * 0.7 ** 2, abs=1e-12)


def test_exponent_identity_all_branches():
    rng = np.random.default_rng(11)
    for m in range(2, 9):
        for q in range(1, m):
            for _ in range(20):
                res = oracles.one_row(
                    idn._batch_exponent, m, q, float(rng.normal()),
                    rng.uniform(0.05, 3.0, size=m - 1))
                assert res.ok, (m, q, res.inputs)


def test_t_tables_branch_values():
    # j=q branch reads tau_1 - tau_q - tau_{m-1}
    res = oracles.one_row(idn._batch_t_tables, 5, 2, [0.5, 1.5, 0.7, 2.2])
    assert res.ok
    # m=3, q=1: T_1 = -t_2 expressed in tau
    res = oracles.one_row(idn._batch_t_tables, 3, 1, [1.1, 0.4])
    assert res.ok
    with pytest.raises(DomainError):
        # q = m-1 excluded
        oracles.one_row(idn._batch_t_tables, 4, 3, [1.0, 1.0, 1.0])


def test_laguerre_maps_all_branches():
    rng = np.random.default_rng(17)
    for m in range(2, 9):
        for q in range(1, m):
            res = oracles.one_row(
                idn._batch_laguerre_maps, m, q,
                complex(rng.normal(), rng.normal()),
                float(rng.normal()), rng.uniform(0.05, 3.0, size=m - 1))
            assert res.ok, (m, q, res.inputs)


def test_laguerre_maps_claimed_factor_forms():
    # j = q factor equals (w - 2i xi)(w - 2i tau_q), j = m factor equals
    # (w - 2i tau_1)(w - 2i tau_{m-1}); checked through the public verifier
    # at a deterministic point plus directly against the claim helper
    plan = idn.SubstitutionPlan(5, 2)
    omega = 0.7 + 0.4j
    tau = np.array([0.5, 1.0, 1.5, 2.0])
    xi = 0.3
    got_q = idn._claimed_laguerre_argument(plan, 2, omega, xi, tau)
    assert got_q == pytest.approx((omega - 2j * xi) * (omega - 2j * 1.0))
    got_m = idn._claimed_laguerre_argument(plan, 5, omega, xi, tau)
    assert got_m == pytest.approx((omega - 2j * 0.5) * (omega - 2j * 2.0))
    assert oracles.one_row(idn._batch_laguerre_maps, 5, 2, omega, xi, tau).ok


# ---------------------------------------------------------------------------
# special-function identities
# ---------------------------------------------------------------------------

def test_hermite_identity_ell0_is_sqrt2():
    res = oracles.one_row(idn._batch_hermite, 0, 0.9, -2.2)
    assert res.ok
    assert res.inputs["rhs"] == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert res.inputs["lhs"][0] == pytest.approx(math.sqrt(2.0), abs=1e-10)


def test_hermite_identity_odd_zero():
    res = oracles.one_row(idn._batch_hermite, 1, 0.0, 0.0)
    assert res.ok
    assert abs(complex(*res.inputs["lhs"])) < 1e-11


def test_hermite_identity_spot():
    assert oracles.one_row(idn._batch_hermite, 7, 1.3, -0.4).ok
    with pytest.raises(DomainError):
        oracles.one_row(idn._batch_hermite, 13, 0.0, 0.0)


def _lhs_table(ell: int) -> dict:
    """The library's integer table of one degree as {(a, b): c}, over its
    scale ell! 2^ell."""
    return {(a, b): Fraction(c, math.factorial(ell) << ell)
            for a, bs, cs in idn._hermite_lhs_tables()[ell] for b, c in zip(bs, cs)}


def test_hermite_lhs_table_low_degrees():
    # L_1(z) = 1 - z with E[z] = sqrt(2) (1 - 2 xi tau): the left side is
    # 2 sqrt(2) xi tau
    assert _lhs_table(1) == {(1, 1): 2}
    # L_2 at xi = tau = 0: z = -u^2/2, so 1 - 2 E[z] + E[z^2]/2 over sqrt(2)
    # is 1 - 2 + 3/2
    assert _lhs_table(2)[0, 0] == Fraction(1, 2)
    res = oracles.one_row(idn._batch_hermite, 2, 0.3, -1.1)
    assert res.ok and res.inputs["lhs"][1] == 0.0


@pytest.mark.parametrize("ell", range(13))
def test_hermite_lhs_table_equals_fraction_oracle(ell):
    # every coefficient of the one integer table, over ell! 2^ell, against
    # the oracle's per-degree Fraction build
    assert _lhs_table(ell) == oracles.hermite_lhs_table_fraction(ell)


def test_import_builds_no_hermite_table():
    code = ("import numpy as np, lle, lle.cli\n"
            "from lle import identities\n"
            "from lle.identities import _hermite_lhs_tables\n"
            "assert _hermite_lhs_tables.cache_info().currsize == 0\n"
            "assert not [k for k, v in vars(identities).items()\n"
            "            if isinstance(v, np.ndarray)]\n")
    env = dict(os.environ, PYTHONPATH=str(Path(idn.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("suite", ["hermite-identity", "mehler",
                                   "christoffel-darboux"])
def test_one_hermite_sweep_per_block(suite, monkeypatch):
    # one block makes one sweep of both arguments, whatever its degrees
    calls = []
    sweep = idn.hermite_sweep
    monkeypatch.setattr(idn, "hermite_sweep",
                        lambda *args: calls.append(args) or sweep(*args))
    assert idn.run_suite(suite, cases=idn.BLOCK, seed=5)["passed"]
    assert len(calls) == 1


@pytest.mark.parametrize("seed", range(20))
def test_hermite_identity_suite_every_seed(seed):
    report = idn.run_suite("hermite-identity", cases=1000, seed=seed)
    assert report["passed"], report["failures"][:1]


def test_mehler_trivial_and_even():
    res = oracles.one_row(idn._batch_mehler, 1.3, -0.7, 0.0)
    assert res.ok and res.inputs["series"] == pytest.approx(1.0)
    res = oracles.one_row(idn._batch_mehler, 0.0, 0.0, 0.55)
    assert res.ok
    assert res.inputs["closed"] == pytest.approx((1 - 0.55 ** 2) ** -0.5, abs=1e-12)


def test_mehler_spot():
    assert oracles.one_row(idn._batch_mehler, 1.0, 0.5, 0.6).ok
    with pytest.raises(DomainError):
        oracles.one_row(idn._batch_mehler, 0.0, 0.0, 1.0)


def test_christoffel_darboux_cases():
    assert oracles.one_row(idn._batch_christoffel_darboux, 0, 0.7, -1.3).ok
    assert oracles.one_row(idn._batch_christoffel_darboux, 9, 0.3, -1.1).ok
    conf = oracles.one_row(idn._batch_christoffel_darboux, 6, 1.4, 1.4)
    assert conf.ok  # confluent branch against the direct sum
    with pytest.raises(DomainError):
        oracles.one_row(idn._batch_christoffel_darboux, 21, 0.0, 0.0)


def test_hermite_identity_rejects_nonfinite_and_negative_degree():
    with pytest.raises(DomainError):
        oracles.one_row(idn._batch_hermite, 3, math.nan, 0.2)
    with pytest.raises(DomainError):
        oracles.one_row(idn._batch_hermite, 3, 0.2, math.inf)
    with pytest.raises(DomainError):
        oracles.one_row(idn._batch_hermite, -1, 0.0, 0.0)


def test_hermite_identity_left_side_overflow():
    with pytest.raises(DomainError):
        oracles.one_row(idn._batch_hermite, 12, 1e30, 2.0)


def test_hermite_identity_floor_stays_below_the_left_side():
    # a floor from the product of the Hermite magnitudes was 1.0e296 here,
    # against a left side of -2.36e16; the term mass leaves the relative
    # tolerance 2.4e7 in charge
    res = oracles.one_row(idn._batch_hermite, 11, 1e28, 1e-290)
    lhs = res.inputs["lhs"][0]
    assert lhs == pytest.approx(-2.3570226e16, rel=1e-7)
    assert res.ok and res.tolerance < abs(lhs)
    assert res.tolerance == 1e-9 * abs(res.inputs["rhs"])


def test_hermite_identity_floor_catches_an_error_of_1e_11_of_the_mass(monkeypatch):
    # at the zero 1/sqrt(2) of H_2 the right side vanishes and the floor,
    # 1e-13 sqrt(2) times the term mass, is in charge: a right side off by
    # 1e-11 of that mass must fail (a 1e-10 factor would pass it)
    ell, xi, tau = 2, 2 ** -0.5, 1.0
    assert oracles.one_row(idn._batch_hermite, ell, xi, tau).ok
    mass = math.sqrt(2.0) * sum(abs(float(c)) * abs(xi) ** a * abs(tau) ** b
                                for (a, b), c in _lhs_table(ell).items())
    shift = 1e-11 * mass / (math.sqrt(2.0)
                            * oracles.hermite_poly_normalized_array(ell, tau))
    sweep = idn.hermite_sweep

    def shifted(top, t, h0=1.0):
        # h_ell(xi) alone moves: the right side by 1e-11 of the mass
        for k, value in enumerate(sweep(top, t, h0)):
            yield value + (k == ell) * np.where(t == xi, shift, 0.0)
    monkeypatch.setattr(idn, "hermite_sweep", shifted)
    res = oracles.one_row(idn._batch_hermite, ell, xi, tau)
    assert res.max_error == pytest.approx(1e-11 * mass, rel=1e-3)
    assert res.tolerance == pytest.approx(1e-13 * mass, rel=1e-12)
    assert not res.ok


def test_hermite_identity_term_mass_overflow():
    # near the top zero of H_12 the left side 2.8e292 is a double, but the
    # sum of its absolute terms is not
    with pytest.raises(DomainError):
        oracles.one_row(idn._batch_hermite, 12, 3.889724897869777, 3e25)


# tau, where the first failing case was found, and a point where h_16 is
# near a zero, so that a floor from the two products alone misses
_CD_NEAR_CONFLUENT = [(n, -2.4873271207466656, d)
                      for n in (0, 5, 16, 20) for d in (1e-6, 1e-8, 1e-10)] \
    + [(16, -2.55, 1.2e-10)]


@pytest.mark.parametrize("n, tau, d", _CD_NEAR_CONFLUENT)
def test_christoffel_darboux_near_confluence(n, tau, d):
    # the quotient's rounding grows like 1/|tau - taup|; the floor follows it
    res = oracles.one_row(idn._batch_christoffel_darboux, n, tau, tau + d)
    assert res.ok, res
    want = oracles.verify_christoffel_darboux_per_degree(n, tau, tau + d)
    assert _bits(dataclasses.asdict(res)) == _bits(dataclasses.asdict(want))


def test_christoffel_darboux_floor_catches_an_error_of_1e_11_of_the_mass(
        monkeypatch):
    # near confluence the floor, 1e-13 times the mass
    # sqrt((n+1)/2) max|h_k(tau)| max|h_k(taup)| / |tau - taup|, is in
    # charge: a direct sum off by 1e-11 of that mass must fail
    n, tau, taup = 5, -2.4873271207466656, -2.4873271207466656 + 1e-6
    assert oracles.one_row(idn._batch_christoffel_darboux, n, tau, taup).ok
    h = oracles.hermite_poly_normalized_array
    mass = (math.sqrt((n + 1) / 2) * max(abs(h(k, tau)) for k in range(n + 2))
            * max(abs(h(k, taup)) for k in range(n + 2)) / abs(tau - taup))
    sweep = idn.hermite_sweep

    def shifted(ell, t, h0=1.0):
        # h_0(tau) enters the direct sum alone, never the quotient (n >= 2)
        for k, value in enumerate(sweep(ell, t, h0)):
            yield value + (k == 0) * np.where(t == tau, 1e-11 * mass, 0.0)
    monkeypatch.setattr(idn, "hermite_sweep", shifted)
    res = oracles.one_row(idn._batch_christoffel_darboux, n, tau, taup)
    assert res.max_error == pytest.approx(1e-11 * mass, rel=1e-2)
    assert res.tolerance == pytest.approx(1e-13 * mass, rel=1e-12)
    assert not res.ok


def test_christoffel_darboux_rejects_nan_and_negative_degree():
    with pytest.raises(DomainError):
        oracles.one_row(idn._batch_christoffel_darboux, 3, math.nan, 0.2)
    with pytest.raises(DomainError):
        oracles.one_row(idn._batch_christoffel_darboux, -1, 0.2, 0.3)


def test_christoffel_darboux_overflow():
    with pytest.raises(DomainError):
        oracles.one_row(idn._batch_christoffel_darboux, 20, 1e200, 2.0)


def test_mehler_rejects_nan_and_overflow():
    with pytest.raises(DomainError):
        oracles.one_row(idn._batch_mehler, math.nan, 0.1, 0.2)
    with pytest.raises(DomainError):
        oracles.one_row(idn._batch_mehler, 400.0, 400.0, 0.5)


# signed zeros, subnormals of both signs and the suite's edges +-4
_EDGE_POINTS = [0.0, -0.0, 4.0, -4.0, 5e-324, -2.5e-310]


def _bits(obj):
    """Floats as hex, recursively, so that == compares bit patterns."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {k: _bits(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_bits(v) for v in obj]
    return obj


def _points(seed, count):
    rng = np.random.default_rng(seed)
    return _EDGE_POINTS + [float(v) for v in rng.uniform(-4, 4, size=count)]


@pytest.mark.parametrize("ell", range(13))
def test_hermite_identity_bitwise_against_fraction_oracle(ell):
    pts = _points(ell, 5)
    for xi, tau in itertools.product(pts, pts):
        got = oracles.one_row(idn._batch_hermite, ell, xi, tau)
        want = oracles.verify_hermite_identity_fraction(ell, xi, tau)
        assert _bits(dataclasses.asdict(got)) == _bits(dataclasses.asdict(want)), \
            (ell, xi, tau)


@pytest.mark.parametrize("n", range(21))
def test_christoffel_darboux_bitwise_against_per_degree_oracle(n):
    pts = _points(100 + n, 4)
    for tau, taup in itertools.product(pts, pts):
        got = oracles.one_row(idn._batch_christoffel_darboux, n, tau, taup)
        want = oracles.verify_christoffel_darboux_per_degree(n, tau, taup)
        assert _bits(dataclasses.asdict(got)) == _bits(dataclasses.asdict(want)), \
            (n, tau, taup)


def _fail_every_row(evaluate):
    """`evaluate` with every row's tolerance one ulp below its error, or -1
    where the error is 0, so that every row fails."""
    def failing(*columns, **options):
        err, tol, out = evaluate(*columns, **options)
        return err, np.where(err == 0.0, -1.0, np.nextafter(err, -np.inf)), out
    return failing


@pytest.mark.parametrize("seed", range(3))
def test_suite_reports_equal_oracle_reports(seed, monkeypatch):
    # the reports agree, and so do their dumps when every row fails
    oracle_of = {"_batch_hermite": oracles.verify_hermite_identity_fraction,
                 "_batch_mehler": oracles.verify_mehler_scalar,
                 "_batch_christoffel_darboux":
                     oracles.verify_christoffel_darboux_per_degree}

    def reports(fail):
        with monkeypatch.context() as patch:
            if fail:
                for name in oracle_of:
                    patch.setattr(idn, name, _fail_every_row(getattr(idn, name)))
            return json.dumps(idn.run_all_suites(200, seed), sort_keys=True,
                              default=float)
    fast, fast_failing = reports(False), reports(True)
    assert len(json.loads(fast_failing)["suites"]["mehler"]["failures"]) == 200
    for name, verify in oracle_of.items():
        monkeypatch.setattr(idn, name, oracles.batch_of(verify))
    assert reports(False) == fast
    assert reports(True) == fast_failing


def test_laguerre_sum_relation_pointwise():
    t = np.linspace(0.0, 40.0, 801)
    for n in range(11):
        assert oracles.laguerre_sum_relation_error(n, t) < 1e-12


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def test_all_suites_quick():
    report = idn.run_all_suites(cases=150, seed=3)
    assert report["passed"], {k: v["failures"][:1]
                              for k, v in report["suites"].items()
                              if not v["passed"]}


def test_suite_reports_failures_with_inputs():
    # a failing case must carry its inputs for reproduction
    report = idn.run_suite("mehler", cases=5, seed=1)
    assert report["passed"]
    bad = oracles._result(1.0, 1e-9, xi=0.5)
    assert not bad.ok and bad.inputs["xi"] == 0.5


def test_unknown_suite_rejected():
    with pytest.raises(DomainError):
        idn.run_suite("nope", cases=1)


def test_suites_deterministic():
    a = idn.run_suite("exponent", cases=40, seed=9)
    b = idn.run_suite("exponent", cases=40, seed=9)
    assert a == b


def test_mehler_convergence_error_path(monkeypatch):
    monkeypatch.setattr(idn, "MEHLER_TERMS", 5)
    with pytest.raises(NumericError):
        oracles.one_row(idn._batch_mehler, 3.0, 3.0, 0.8)


# suite -> (its batched evaluator, the relative tolerance factor of its
# chain identity or None for a bitwise check, the per-case oracle on the
# row's unpadded inputs)
_SUITE_ORACLES = {
    "phase-telescoping": ("_batch_phase", 1e-12, lambda m, x, ys:
                          oracles.verify_phase_telescoping_scalar(m, x, ys[:m - 1])),
    "local-frame": ("_batch_frame", 1e-12, lambda m, ys, normal:
                    oracles.verify_local_frame_reduction_scalar(ys[:m - 1], normal)),
    "exponent": ("_batch_exponent", 1e-11, lambda m, q, xi, tau:
                 oracles.verify_exponent_identity_scalar(m, q, xi, tau[:m - 1])),
    "t-tables": ("_batch_t_tables", 1e-12, lambda m, q, tau:
                 oracles.verify_T_in_tau_scalar(m, q, tau[:m - 1])),
    "laguerre-maps": ("_batch_laguerre_maps", 1e-11, lambda m, q, omega, xi, tau:
                      oracles.verify_laguerre_argument_maps_scalar(
                          m, q, omega, xi, tau[:m - 1])),
    "hermite-identity": ("_batch_hermite", None,
                         oracles.verify_hermite_identity_fraction),
    "mehler": ("_batch_mehler", None, oracles.verify_mehler_scalar),
    "christoffel-darboux": ("_batch_christoffel_darboux", None,
                            oracles.verify_christoffel_darboux_per_degree),
}


def _record(monkeypatch, name):
    """Patch the batched evaluator `name` to record its input columns and its
    (error, tolerance, columns) output, call by call."""
    calls = []
    evaluate = getattr(idn, name)

    def recording(*columns, **options):
        out = evaluate(*columns, **options)
        calls.append((columns, out))
        return out
    monkeypatch.setattr(idn, name, recording)
    return calls


@pytest.mark.parametrize("suite", sorted(_SUITE_ORACLES))
def test_batched_evaluator_agrees_with_per_case_oracle(suite, monkeypatch):
    # every drawn row of two blocks, checked again one case at a time: the
    # same pass/fail everywhere; bitwise where both sides take the same
    # operations, else within 1e-12 of the identity's scale
    name, rel, oracle = _SUITE_ORACLES[suite]
    calls = _record(monkeypatch, name)
    idn.run_suite(suite, cases=idn.BLOCK + 76, seed=11)
    assert [len(cols[0]) for cols, _ in calls] == [idn.BLOCK, 76]
    for columns, (err, tol, sides) in calls:
        for i in range(len(err)):
            want = oracle(*(c[i].tolist() for c in columns))
            assert bool(err[i] <= tol[i]) == want.ok
            if rel is None:
                got = oracles._result(err[i], tol[i],
                                      **{k: v[i] for k, v in sides.items()})
                assert _bits(dataclasses.asdict(got)) == \
                    _bits(dataclasses.asdict(want)), (suite, i)
            else:
                scale = want.tolerance / rel
                assert abs(err[i] - want.max_error) <= 1e-12 * scale, (suite, i)
                assert tol[i] == pytest.approx(want.tolerance, rel=1e-12)


def _drawn_rows(monkeypatch, suite, cases, seed=4):
    """The input rows a suite run draws, as lists, in case order."""
    calls = _record(monkeypatch, _SUITE_ORACLES[suite][0])
    idn.run_suite(suite, cases=cases, seed=seed)
    monkeypatch.undo()
    return [[c[i].tolist() for c in cols]
            for cols, _ in calls for i in range(len(cols[0]))]


@pytest.mark.parametrize("suite", sorted(_SUITE_ORACLES))
def test_case_draws_are_prefix_stable_across_the_block_edge(suite, monkeypatch):
    longest = _drawn_rows(monkeypatch, suite, idn.BLOCK + 1)
    for cases in (40, idn.BLOCK - 1, idn.BLOCK):
        assert _drawn_rows(monkeypatch, suite, cases) == longest[:cases]
    # another seed draws other cases
    assert _drawn_rows(monkeypatch, suite, 40, seed=5) != longest[:40]


def test_one_suite_equals_its_entry_of_all_suites(monkeypatch):
    every = idn.run_all_suites(cases=300, seed=8)["suites"]
    for suite in idn.SUITES:
        assert idn.run_suite(suite, cases=300, seed=8) == every[suite]
    # a suite's cases do not depend on which other suites exist
    monkeypatch.delitem(idn.SUITES, "phase-telescoping")
    assert idn.run_all_suites(cases=300, seed=8)["suites"] == {
        k: v for k, v in every.items() if k != "phase-telescoping"}


def test_suite_dumps_failing_rows_only(monkeypatch):
    # cases 3 and BLOCK + 2 fail; each block is evaluated once, and a dump
    # is the failing row as that evaluation returned it
    cases, seed = idn.BLOCK + 5, 2
    rows = _drawn_rows(monkeypatch, "christoffel-darboux", cases, seed)
    bad = {tuple(rows[3]), tuple(rows[idn.BLOCK + 2])}
    evaluate = idn._batch_christoffel_darboux
    blocks = []

    def failing(n, tau, taup):
        err, tol, sides = evaluate(n, tau, taup)
        blocks.append(len(n))
        hit = [tuple(r) in bad for r in zip(n.tolist(), tau.tolist(),
                                             taup.tolist())]
        return np.where(hit, 2.0 * tol, err), tol, sides
    monkeypatch.setattr(idn, "_batch_christoffel_darboux", failing)
    report = idn.run_suite("christoffel-darboux", cases=cases, seed=seed)
    assert not report["passed"] and blocks == [idn.BLOCK, 5]
    assert [f["case"] for f in report["failures"]] == [3, idn.BLOCK + 2]
    assert report["max_error_over_tolerance"] == 2.0
    for failure, row in zip(report["failures"], sorted(bad)):
        assert set(failure) == {"n", "tau", "taup", "direct", "quotient",
                                "max_error", "tolerance", "case"}
        assert failure["max_error"] == 2.0 * failure["tolerance"]
        again = oracles.one_row(evaluate, *[failure[k] for k in
                                            ("n", "tau", "taup")])
        assert again.inputs == {k: failure[k] for k in again.inputs}


@pytest.mark.parametrize("suite", sorted(_SUITE_ORACLES))
def test_a_dump_is_the_row_that_failed(suite, monkeypatch):
    # every row fails by one ulp: each dump carries its own row's error and
    # tolerance, bit for bit, and its chain variables without the padding
    name = _SUITE_ORACLES[suite][0]
    monkeypatch.setattr(idn, name, _fail_every_row(getattr(idn, name)))
    calls = _record(monkeypatch, name)
    report = idn.run_suite(suite, cases=idn.BLOCK + 76, seed=11)
    assert [len(err) for _, (err, _, _) in calls] == [idn.BLOCK, 76]
    rows = [(err[i], tol[i], {k: v[i] for k, v in out.items()})
            for _, (err, tol, out) in calls for i in range(len(err))]
    assert [f["case"] for f in report["failures"]] == list(range(len(rows)))
    for failure, (err, tol, row) in zip(report["failures"], rows):
        assert _bits(failure["max_error"]) == _bits(float(err))
        assert _bits(failure["tolerance"]) == _bits(float(tol))
        assert failure["max_error"] > failure["tolerance"]
        for k, v in row.items():
            if "m" in row and k in ("ys", "tau", "t"):
                assert len(failure[k]) == row["m"] - 1
                v = v[:row["m"] - 1]
            assert _bits(failure[k]) == _bits(idn._json(v)), (suite, k)


@pytest.mark.parametrize("suite", sorted(_SUITE_ORACLES))
def test_a_failure_is_reproduced_by_its_case_count(suite, monkeypatch, capsys):
    # case i of a run is the last case of the same seed's run of i + 1 cases
    name = _SUITE_ORACLES[suite][0]
    monkeypatch.setattr(idn, name, _fail_every_row(getattr(idn, name)))

    def dumps(cases):
        assert main(["verify", "--suite", suite, "--cases", str(cases),
                     "--seed", "6"]) == 1
        return json.loads(capsys.readouterr().out)["failures"]
    every = dumps(idn.BLOCK + 10)
    for i in (7, idn.BLOCK + 3):
        assert _bits(dumps(i + 1)[-1]) == _bits(every[i])


@pytest.mark.parametrize("kwargs", [
    {"cases": 0}, {"cases": -5}, {"cases": 2.5}, {"seed": -1}, {"seed": 1.5},
])
def test_suites_reject_bad_case_counts_and_seeds(kwargs):
    with pytest.raises(DomainError):
        idn.run_suite("mehler", **kwargs)
    with pytest.raises(DomainError):
        idn.run_all_suites(**kwargs)


def test_batched_rows_outside_the_domain_name_their_inputs(monkeypatch):
    with pytest.raises(DomainError, match="1e\\+200"):
        idn._batch_christoffel_darboux(np.array([3, 20]), np.array([0.1, 1e200]),
                                       np.array([0.2, 2.0]))
    with pytest.raises(DomainError, match="xi=400.0"):
        idn._batch_mehler(np.array([0.5, 400.0]), np.array([0.1, 400.0]),
                          np.array([0.2, 0.5]))
    # the first row converges within 20 terms, the second does not
    monkeypatch.setattr(idn, "MEHLER_TERMS", 20)
    with pytest.raises(NumericError, match="xi=3.0"):
        idn._batch_mehler(np.array([0.0, 3.0]), np.array([0.0, 3.0]),
                          np.array([0.0, 0.8]))
