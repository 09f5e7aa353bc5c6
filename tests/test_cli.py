import argparse
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from lle import cli, geometry
from lle import identities as idn
from lle.cli import main

DISK = '{"type":"disk","R":1.0}'
SQUARE = '{"type":"polygon","vertices":[[0,0],[1,0],[1,1],[0,1]]}'


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_coeff_renyi_table(capsys):
    code, out, _ = run_cli(capsys, "coeff", "--levels", "single:0",
                           "--f", "renyi:1", "--format", "csv")
    assert code == 0
    value = float(out.strip().split("\n")[1].split(",")[2])
    assert value == pytest.approx(0.203, abs=2e-3)


def test_coeff_upto_equals_single(capsys):
    code, out, _ = run_cli(capsys, "coeff", "--levels", "single:0,upto:0",
                           "--f", "renyi:1")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[0]["value"] == pytest.approx(rows[1]["value"], abs=1e-9)


def test_coeff_renyi_labels_round_trip(capsys):
    # two nearby indices keep two labels; short labels stay short
    code, out, _ = run_cli(capsys, "coeff", "--levels", "single:0", "--f",
                           "renyi:2.0000001,renyi:2,renyi:1,renyi:0.5,renyi:1.234")
    assert code == 0
    labels = [row["f"] for row in json.loads(out)["rows"]]
    assert labels == ["renyi:2.0000001", "renyi:2", "renyi:1", "renyi:0.5",
                      "renyi:1.234"]


def test_coeff_monomial_identity_zero(capsys):
    code, out, _ = run_cli(capsys, "coeff", "--levels", "single:2",
                           "--f", "monomial:1", "--format", "csv")
    assert code == 0
    assert float(out.strip().split("\n")[1].split(",")[2]) == 0.0


def test_coeff_bad_spec_exits_2(capsys):
    code, _, err = run_cli(capsys, "coeff", "--levels", "single:0",
                           "--f", "exp:1")
    assert code == 2
    assert "usage error" in err


@pytest.mark.parametrize("spec", ["renyi:abc", "monomial:x"])
def test_coeff_unparsable_argument_exits_2(capsys, spec):
    code, _, err = run_cli(capsys, "coeff", "--levels", "upto:2", "--f", spec)
    assert code == 2
    assert "usage error" in err


_SCALING = ("scaling", "--region", DISK, "--B", "1", "--levels", "upto:0",
            "--L-min", "4", "--L-max", "12", "--alpha")


# a monomial degree m whose m - 1 overflows a double, and a non-finite Renyi
# index, are refused before f is sampled: no traceback, no RuntimeWarning
@pytest.mark.parametrize("argv", [
    ("coeff", "--levels", "single:0", "--f", "monomial:1" + "0" * 400),
    ("coeff", "--levels", "single:0", "--f", "renyi:inf"),
    ("coeff", "--levels", "single:0", "--f", "renyi:1e400"),
    _SCALING + ("inf",),
    _SCALING + ("1e400",),
])
def test_inadmissible_spectral_function_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "usage error" in err and "Warning" not in err and out == ""


# a non-positive index is named as such, not as the Hoelder exponent q it
# would become
@pytest.mark.parametrize("spec, index", [("renyi:0", "0.0"), ("renyi:-1", "-1.0"),
                                         ("renyi:-inf", "-inf")])
def test_nonpositive_renyi_index_exits_2_naming_the_index(capsys, spec, index):
    code, out, err = run_cli(capsys, "coeff", "--levels", "single:0", "--f", spec)
    assert code == 2 and out == ""
    assert f"Renyi index must be positive and finite, got {index}" in err
    assert "exponent" not in err


def test_nystrom_spectrum_evaluates_the_star_profile_grid_once(capsys,
                                                               monkeypatch):
    # the positivity check and the rule's largest radius share the star's
    # one 4096-angle profile
    sizes = []
    radius = geometry.SmoothStar.radius

    def spy(self, theta, order=0):
        sizes.append(np.size(theta))
        return radius(self, theta, order)

    monkeypatch.setattr(geometry.SmoothStar, "radius", spy)
    code, _, _ = run_cli(capsys, "spectrum", "--region",
                         '{"type":"star","coeffs":[1.0,0.05,-0.03,0.02]}',
                         "--B", "1", "--levels", "upto:1", "--L", "2",
                         "--solver", "nystrom2d")
    assert code == 0
    assert sizes.count(4096) == 1


def test_spectrum_trace_and_determinism(capsys):
    args = ("spectrum", "--region", DISK, "--B", "1", "--levels", "upto:1",
            "--L", "12", "--solver", "disk")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2  # byte-identical repeat
    payload = json.loads(out1)["result"]
    trace = sum(payload["eigenvalues"])
    assert trace == pytest.approx(2 * 144 / 2, rel=1e-6)


def test_spectrum_cross_solver_diff(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--region", DISK, "--B", "1",
                           "--levels", "upto:1", "--L", "3",
                           "--solver", "both")
    assert code == 0
    res = json.loads(out)["result"]
    assert res["max_abs_diff"] < 1e-4
    assert res["count_diff"] == 0


def test_spectrum_upto3_l40_exits_0(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--region", DISK, "--B", "1",
                             "--levels", "upto:3", "--L", "40")
    assert code == 0, err
    eig = np.array(json.loads(out)["result"]["eigenvalues"])
    assert np.all((eig >= 0.0) & (eig <= 1.0))


def test_spectrum_polygon_nystrom_exits_3(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--region", SQUARE, "--B", "1",
                           "--levels", "single:0", "--L", "2",
                           "--solver", "nystrom2d")
    assert code == 3
    assert "capability" in err


def test_scaling_report(tmp_path, capsys):
    csv_path = tmp_path / "series.csv"
    code, out, _ = run_cli(capsys, "--threads", "2", "scaling",
                           "--region", DISK, "--B", "1",
                           "--levels", "upto:0", "--alpha", "1",
                           "--L-min", "10", "--L-max", "24", "--L-step", "2",
                           "--csv", str(csv_path))
    assert code == 0
    report = json.loads(out)
    assert 0.99 < report["ratio"] < 1.01
    assert report["config"]["alpha"] == 1.0
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "L,value"
    assert lines[1].startswith("10,")
    assert len(lines) == 9
    # the entropy grows with the disk
    values = np.array([float(line.split(",")[1]) for line in lines[1:]])
    assert np.all(np.diff(values) > 0)


STAR = '{"type":"star","coeffs":[1.0,0.0,0.0,0.0,0.0,0.15]}'


@pytest.mark.parametrize("argv", [
    ("spectrum", "--region", STAR, "--B", "1", "--levels", "upto:0",
     "--L", "2", "--solver", "disk"),
    ("spectrum", "--region", STAR, "--B", "1", "--levels", "upto:0",
     "--L", "2", "--solver", "both"),
    ("scaling", "--region", STAR, "--B", "1", "--levels", "upto:0",
     "--alpha", "1", "--L-min", "10", "--L-max", "14"),
    ("scaling", "--region", SQUARE, "--B", "1", "--levels", "upto:0",
     "--alpha", "1", "--L-min", "10", "--L-max", "14"),
], ids=["spectrum-disk-star", "spectrum-both-star", "scaling-star",
        "scaling-polygon"])
def test_disk_solver_on_other_regions_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "usage error: the disk sector solver needs a disk region\n"


def test_solvers_run_through_their_module_names(capsys, monkeypatch):
    # perfbench traces the solvers by patching these names, so the CLI must
    # look them up there on every call
    from lle import cli, region_sim
    calls = []

    def spy(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)
    spy(cli, "disk_spectrum")
    spy(region_sim, "region_spectrum")
    spy(region_sim, "scaling_fit")
    code, _, _ = run_cli(capsys, "spectrum", "--region", DISK, "--B", "1",
                         "--levels", "upto:0", "--L", "2", "--solver", "both")
    assert code == 0 and calls == ["disk_spectrum", "region_spectrum"]
    calls.clear()
    code, _, _ = run_cli(capsys, "--threads", "1", "scaling", "--region", DISK,
                         "--B", "1", "--levels", "upto:0", "--alpha", "1",
                         "--L-min", "4", "--L-max", "8")
    assert code == 0 and calls == ["disk_spectrum"] * 3 + ["scaling_fit"]


# 1e-300 asks for about 1e301 scales and 0.0014 for just over the cap of
# cli._MAX_SCALES; both are refused before any array is allocated
@pytest.mark.parametrize("step", ["0", "-2", "1e-300", "0.0014"])
def test_scaling_bad_step_exits_2(capsys, step):
    code, _, err = run_cli(capsys, "scaling", "--region", DISK, "--B", "1",
                           "--levels", "upto:0", "--alpha", "1",
                           "--L-min", "10", "--L-max", "24", "--L-step", step)
    assert code == 2
    assert "usage error" in err


def test_scaling_runs_on_the_calling_thread(tmp_path, capsys, monkeypatch):
    # --threads is accepted but changes nothing, and no thread is started
    def refuse(self):
        raise AssertionError("lle started a thread")
    monkeypatch.setattr(threading.Thread, "start", refuse)
    runs = []
    for threads in ("1", "3"):
        csv_path = tmp_path / f"series-{threads}.csv"
        code, out, err = run_cli(capsys, "--threads", threads, "scaling",
                                 "--region", DISK, "--B", "1",
                                 "--levels", "upto:1", "--alpha", "2",
                                 "--L-min", "4", "--L-max", "12",
                                 "--csv", str(csv_path))
        assert code == 0, err
        runs.append((out, csv_path.read_bytes()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("cutoff", ["0", "-1", "inf"])
def test_spectrum_nonpositive_cutoff_exits_2(capsys, cutoff):
    code, _, err = run_cli(capsys, "spectrum", "--region", DISK, "--B", "1",
                           "--levels", "upto:0", "--L", "3",
                           "--cutoff", cutoff)
    assert code == 2
    assert "usage error" in err


@pytest.mark.parametrize("cutoff", ["nan", "inf"])
def test_nystrom_nonfinite_cutoff_exits_2(capsys, cutoff):
    code, out, err = run_cli(capsys, "spectrum", "--region", DISK, "--B", "1",
                             "--levels", "upto:0", "--L", "2",
                             "--solver", "nystrom2d", "--cutoff", cutoff)
    assert code == 2
    assert "usage error" in err and out == ""


@pytest.mark.parametrize("cutoff", ["0", "-1"])
def test_nystrom_nonpositive_cutoff_exits_2(capsys, cutoff):
    code, out, err = run_cli(capsys, "spectrum", "--region", DISK, "--B", "1",
                             "--levels", "upto:0", "--L", "2",
                             "--solver", "nystrom2d", "--cutoff", cutoff)
    assert code == 2
    assert "usage error" in err and out == ""


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_coeff_bad_tolerance_exits_2(capsys, tol):
    code, out, err = run_cli(capsys, "coeff", "--levels", "single:0",
                             "--f", "renyi:1", "--tol", tol)
    assert code == 2
    assert "usage error" in err and out == ""


def test_coeff_capped_cutoff_exits_3(capsys):
    # renyi:0.01 misses its tail bound at the xi cap (4.3e-8 against tol/10 =
    # 1e-9 at single:0); renyi:0.02 does not
    code, out, err = run_cli(capsys, "coeff", "--levels", "single:0",
                             "--f", "renyi:0.01")
    assert code == 3
    assert "tail bound of 4.31e-08" in err and out == ""
    # a subnormal index puts the bound past the doubles
    code, out, err = run_cli(capsys, "coeff", "--levels", "single:0",
                             "--f", "renyi:1e-320")
    assert code == 3
    assert "tail bound of inf" in err and out == ""
    code, _, _ = run_cli(capsys, "coeff", "--levels", "single:0,upto:45",
                         "--f", "renyi:0.02")
    assert code == 0


def test_scaling_zero_cutoff_exits_2(capsys):
    code, _, err = run_cli(capsys, "scaling", "--region", DISK, "--B", "1",
                           "--levels", "upto:0", "--alpha", "1",
                           "--L-min", "10", "--L-max", "14", "--L-step", "2",
                           "--cutoff", "0")
    assert code == 2
    assert "usage error" in err


def test_scaling_single_level_against_coefficient(capsys):
    code, out, _ = run_cli(capsys, "scaling", "--region", DISK, "--B", "1",
                           "--levels", "single:1", "--alpha", "1",
                           "--L-min", "10", "--L-max", "24", "--L-step", "2")
    assert code == 0
    report = json.loads(out)
    assert 0.98 < report["ratio"] < 1.02
    assert report["coefficient"]["M"] == pytest.approx(0.3350585866, abs=1e-8)


_MU_SCALING = ("scaling", "--region", DISK, "--alpha", "1",
               "--L-min", "6", "--L-max", "10", "--L-step", "2")


@pytest.mark.parametrize("mu, b, levels", [("3", "1", "upto:1"), ("2.999", "1", "upto:0"),
                                           ("1", "1", "upto:0"), ("7", "1", "upto:3"),
                                           ("1.5", "0.5", "upto:1"), ("2.5", "0.5", "upto:2")])
def test_scaling_mu_resolves_to_the_filled_levels(capsys, mu, b, levels):
    # level nu fills at mu/B = 2 nu + 1; the run is the --levels upto:nu run
    # with mu echoed in the config
    code, out, _ = run_cli(capsys, *_MU_SCALING, "--B", b, "--mu", mu)
    assert code == 0
    report = json.loads(out)
    assert report["config"].pop("mu") == float(mu)
    assert report["config"]["levels"] == levels
    code, out, _ = run_cli(capsys, *_MU_SCALING, "--B", b, "--levels", levels)
    assert code == 0 and json.loads(out) == report


@pytest.mark.parametrize("extra", [("--mu", "0.5"), ("--mu", "0.999"),
                                   ("--mu", "nan"), ("--mu", "inf"),
                                   ("--mu", "3", "--levels", "upto:1"), ()])
def test_scaling_mu_below_the_field_or_with_levels_exits_2(capsys, extra):
    # mu < B leaves no level filled, a non-finite mu names no level; --mu and
    # --levels exclude each other, and one of them is required
    code, out, err = run_cli(capsys, *_MU_SCALING, "--B", "1", *extra)
    assert code == 2 and out == ""


def test_verify_pass_and_fail_paths(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "hermite-identity",
                           "--cases", "40", "--seed", "42")
    assert code == 0
    assert json.loads(out)["passed"]
    code, _, err = run_cli(capsys, "verify", "--suite", "bogus")
    assert code == 2


def test_verify_refuses_an_unknown_suite_with_the_list_of_suites(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "bogus")
    assert code == 2 and out == ""
    assert "unknown suite 'bogus'" in err
    assert all(name in err for name in idn.SUITES)


def test_verify_failure_exits_1_with_dump(capsys, monkeypatch):
    def failing(xi, tau, t, n_cap=200):
        return (np.full(len(xi), 1.0), np.full(len(xi), 1e-9),
                {"xi": np.full(len(xi), 0.25), "tau": np.full(len(xi), -1.5)})
    monkeypatch.setattr(idn, "_batch_mehler", failing)
    dump = {"case": 0, "xi": 0.25, "tau": -1.5, "max_error": 1.0,
            "tolerance": 1e-9}
    code, out, _ = run_cli(capsys, "verify", "--suite", "mehler",
                           "--cases", "2", "--seed", "7")
    assert code == 1
    report = json.loads(out)
    assert not report["passed"]
    assert report["failures"] == [dump, dump | {"case": 1}]
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--cases", "1")
    assert code == 1
    report = json.loads(out)
    assert report["suites"]["mehler"]["failures"] == [dump]
    assert [name for name, r in report["suites"].items()
            if not r["passed"]] == ["mehler"]


def test_verify_laguerre_maps_failure_exits_1_with_dump(capsys, monkeypatch):
    # omega is complex: the dump writes it as [re, im]
    claimed = idn._claimed_laguerre_argument
    monkeypatch.setattr(idn, "_claimed_laguerre_argument",
                        lambda *args: claimed(*args) + 1.0)
    code, out, _ = run_cli(capsys, "verify", "--suite", "laguerre-maps",
                           "--cases", "3")
    assert code == 1
    report = json.loads(out)
    assert not report["passed"]
    assert [f["case"] for f in report["failures"]] == [0, 1, 2]
    for failure in report["failures"]:
        re_im = failure["omega"]
        assert len(re_im) == 2 and all(isinstance(v, float) for v in re_im)
        assert failure["max_error"] > failure["tolerance"]


def test_verify_repeats_byte_for_byte_and_one_suite_matches_all(capsys):
    # 1030 cases reach into a second block of draws
    argv = ("verify", "--suite", "all", "--cases", "1030", "--seed", "3")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second
    for suite in ("local-frame", "mehler"):
        _, one, _ = run_cli(capsys, "verify", "--suite", suite,
                            "--cases", "1030", "--seed", "3")
        one = json.loads(one)
        assert one.pop("config") == {"suite": suite, "cases": 1030, "seed": 3}
        assert one == json.loads(first)["suites"][suite]


def test_verify_all_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--cases", "25",
                           "--seed", "5")
    assert code == 0
    report = json.loads(out)
    assert set(report["suites"]) == {
        "phase-telescoping", "local-frame", "exponent", "t-tables",
        "laguerre-maps", "hermite-identity", "mehler", "christoffel-darboux"}


def test_rocca_square_slab_exact(capsys):
    code, out, _ = run_cli(capsys, "rocca", "--region", SQUARE,
                           "--vectors", "[[1,0]]",
                           "--eps-min-exp", "3", "--eps-max-exp", "5")
    assert code == 0
    rows = out.strip().split("\n")[1:]
    for row in rows:
        eps, removed, first, *_ = row.split(",")
        assert float(removed) == pytest.approx(float(eps), abs=1e-14)
        assert float(first) == pytest.approx(float(eps), abs=1e-14)


def test_rocca_polygon_with_subnormal_edge(capsys):
    # the edge from (0, 1e-300) to the origin is 1e-300 long
    region = '{"type":"polygon","vertices":[[0,0],[1,0],[1,1],[0,1],[0,1e-300]]}'
    code, out, _ = run_cli(capsys, "rocca", "--region", region,
                           "--vectors", "[[1,0.5]]",
                           "--eps-min-exp", "3", "--eps-max-exp", "3")
    assert code == 0
    eps, removed, first, *_ = out.strip().split("\n")[1].split(",")
    assert float(eps) == 0.125 and float(first) == 0.1875


def test_rocca_disk_residual_trend(capsys):
    code, out, _ = run_cli(capsys, "rocca", "--region", DISK,
                           "--vectors", "[[1,0]]",
                           "--eps-min-exp", "3", "--eps-max-exp", "6")
    assert code == 0
    resid = [abs(float(r.split(",")[4])) for r in out.strip().split("\n")[1:]]
    assert np.all(np.diff(resid) < 0)


def test_rocca_eps_zero_row():
    # eps = 2^0 = 1 is allowed; the zero-vector family gives zero rows
    code = main(["rocca", "--region", DISK, "--vectors", "[[0,0]]",
                 "--eps-min-exp", "3", "--eps-max-exp", "3"])
    assert code == 0


ROCCA_STAR = '{"type":"star","coeffs":[1,0.1,0.05,0,0.08]}'
ROCCA_VECTORS = "[[1,0.3],[-0.4,0.9]]"


def test_rocca_star_residual_stays_first_order_down_to_2_pow_14(capsys):
    # residual_over_eps2 halves with eps while area - intersection still
    # resolves it; from 2^-16 on it is roundoff over eps^2
    code, out, _ = run_cli(capsys, "rocca", "--region", ROCCA_STAR,
                           "--vectors", ROCCA_VECTORS,
                           "--eps-min-exp", "8", "--eps-max-exp", "14")
    assert code == 0
    resid = [float(r.split(",")[4]) for r in out.strip().split("\n")[1:]]
    assert len(resid) == 7
    ratios = np.array(resid[1:]) / np.array(resid[:-1])
    assert np.all((0.49 < ratios) & (ratios < 0.51))


def test_rocca_star_finds_the_boundary_kinks_once(capsys, monkeypatch):
    # both boundary integrals read one kink search; each eps adds its own
    calls = []
    leader_changes = geometry._leader_changes

    def spy(rows):
        calls.append(1)
        return leader_changes(rows)

    monkeypatch.setattr(geometry, "_leader_changes", spy)
    geometry._boundary_rule.cache_clear()
    code, out, _ = run_cli(capsys, "rocca", "--region", ROCCA_STAR,
                           "--vectors", ROCCA_VECTORS,
                           "--eps-min-exp", "3", "--eps-max-exp", "5")
    assert code == 0 and len(out.strip().split("\n")) == 1 + 3
    assert len(calls) == 1 + 3


@pytest.mark.parametrize("region, vectors, k_min, k_max, first_refused", [
    (ROCCA_STAR, ROCCA_VECTORS, 8, 40, 15),
    (ROCCA_STAR, ROCCA_VECTORS, 8, 15, 15),
    (ROCCA_STAR, ROCCA_VECTORS, 535, 537, 535),
    # the removed area eps |dLambda| is under the roundoff of the area
    ('{"type":"disk","R":1e150}', "[[1,0]]", 3, 4, 3),
    ('{"type":"star","coeffs":[1e150,1e149]}', "[[1,0]]", 3, 4, 3),
], ids=["star-8-40", "star-8-15", "star-535-537", "disk-1e150", "star-1e150"])
def test_rocca_refuses_eps_below_the_area_roundoff(capsys, region, vectors,
                                                   k_min, k_max, first_refused):
    code, out, err = run_cli(capsys, "rocca", "--region", region,
                             "--vectors", vectors,
                             "--eps-min-exp", str(k_min),
                             "--eps-max-exp", str(k_max))
    assert code == 3 and out == ""
    assert f"eps = 2^-{first_refused}:" in err and "roundoff" in err


@pytest.mark.parametrize("text", [
    '{"type":"disk","R":1.5}', '{"type":"star","coeffs":[1.5,0.1,0,0.05]}',
    '{"type":"polygon","vertices":[[-1,-1],[1,-1],[1,1],[-1,1]]}'])
def test_rocca_check_leaves_unit_size_requests_a_wide_margin(text):
    # regions of unit size, |v| = 0.5 and eps down to 2^-9 still pass with
    # the first order cut by 5e3 and |v|^3 by 5e3
    region = geometry.region_from_json(json.loads(text))
    t1 = geometry.roccaforte_first_order(region, [(0.5, 0.0)])
    smooth = not isinstance(region, geometry.Polygon)
    v = 0.5 * 5e3 ** (-1.0 / 3.0)
    cli._check_resolved(region, [(v, 0.0)], t1 / 5e3, smooth, range(3, 10))


@pytest.mark.parametrize("region", [
    '{"type":"disk"}', '{"type":"disk","R":"x"}', '{"type":"disk","R":null}',
    '{"type":"star","coeffs":["a"]}', '{"type":"star","coeffs":5}',
    '{"type":"star","coeffs":[NaN]}', '{"type":"polygon","vertices":[1,2,3]}',
    '{"type":"polygon","vertices":[[0,0],[1,0],[Infinity,1]]}',
    '{"type":["disk"]}',
    # sizes whose area is not a finite double
    '{"type":"disk","R":1e155}', '{"type":"disk","R":1e309}',
    '{"type":"star","coeffs":[1e200,0.1]}',
    # r' overflows on the star's grid where r does not, and r < 0 there
    '{"type":"star","coeffs":[5e307,0,0,9.5e307]}',
    '{"type":"polygon","vertices":[[-1e200,-1e200],[1e200,-1e200],'
    '[1e200,1e200],[-1e200,1e200]]}',
    # an integer too large for a double
    '{"type":"disk","R":1' + '0' * 400 + '}',
])
def test_malformed_region_exits_2(capsys, region):
    code, _, err = run_cli(capsys, "rocca", "--region", region,
                           "--vectors", "[[1,0]]")
    assert code == 2
    assert "usage error" in err


@pytest.mark.parametrize("extra", [
    ("--vectors", "[]"),
    ("--vectors", "[[1,0]]", "--eps-min-exp", "3", "--eps-max-exp", "2"),
    # 2^1024 overflows; 2^-1076, the square of 2^-538, underflows to 0
    ("--vectors", "[[1,0]]", "--eps-min-exp", "-1024"),
    ("--vectors", "[[1,0]]", "--eps-max-exp", "538"),
    # |v|^2 overflows in the second order, and here the first order too
    ("--vectors", "[[1e200,0]]"),
    ("--vectors", "[[1e308,1e308]]"),
])
def test_rocca_empty_request_exits_2(capsys, extra):
    code, out, err = run_cli(capsys, "rocca", "--region", DISK, *extra)
    assert code == 2
    assert "usage error" in err and out == ""


@pytest.mark.parametrize("argv", [
    ("spectrum", "--region", DISK, "--B", "1", "--levels", "upto:0",
     "--L", "nan"),
    ("spectrum", "--region", DISK, "--B", "1", "--levels", "upto:0",
     "--L", "inf"),
    ("spectrum", "--region", DISK, "--B", "1", "--levels", "upto:0",
     "--L", "nan", "--solver", "nystrom2d"),
    ("spectrum", "--region", DISK, "--B", "1", "--levels", "upto:0",
     "--L", "inf", "--solver", "nystrom2d"),
    ("spectrum", "--region", DISK, "--B", "1", "--levels", "upto:0",
     "--L", "-1", "--solver", "nystrom2d"),
    ("scaling", "--region", DISK, "--B", "1", "--levels", "upto:0",
     "--alpha", "1", "--L-min", "4", "--L-max", "nan"),
    ("verify", "--cases", "0"),
    ("verify", "--cases", "-1"),
    ("verify", "--seed", "-1"),
])
def test_bad_scale_or_case_count_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "usage error" in err and out == ""
    if argv[0] == "verify":
        # the suites' own check names the option
        assert "cases" in err or "seed" in err


def test_bad_flag_exits_2():
    assert main(["coeff", "--levels", "single:0"]) == 2  # missing --f
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize("argv, code", [
    (("spectrum", "--region", DISK, "--B", "1", "--levels", "single:0",
      "--L", "1e7"), 3),
    (("spectrum", "--region", DISK, "--B", "1e300", "--levels", "single:0",
      "--L", "1e10"), 2),
    (("spectrum", "--region", DISK, "--B", "1e300", "--levels", "single:0",
      "--L", "1e10", "--solver", "nystrom2d"), 2),
    (("scaling", "--region", DISK, "--B", "1", "--levels", "single:0",
      "--alpha", "1", "--L-min", "1e7", "--L-max", "1.000001e7"), 3),
    (("scaling", "--region", DISK, "--B", "1e300", "--levels", "single:0",
      "--alpha", "1", "--L-min", "1e10", "--L-max", "1.000001e10",
      "--L-step", "4000"), 2),
    # level indices past the budget are refused before a level is listed or
    # an index meets a float; mu/B overflowing is a usage error
    (("spectrum", "--region", DISK, "--B", "1", "--levels",
      "upto:99999999999999999999", "--L", "1"), 3),
    (("spectrum", "--region", DISK, "--B", "1", "--levels",
      "upto:99999999999999999999", "--L", "1", "--solver", "nystrom2d"), 3),
    (("spectrum", "--region", DISK, "--B", "1", "--levels",
      "single:" + "9" * 400, "--L", "1"), 3),
    (("spectrum", "--region", DISK, "--B", "1e300", "--levels", "single:5000",
      "--L", "1e4"), 3),
    (("scaling", "--region", DISK, "--B", "1", "--mu", "1e308", "--alpha", "1",
      "--L-min", "4", "--L-max", "8"), 3),
    (("scaling", "--region", DISK, "--B", "1e-308", "--mu", "1e308",
      "--alpha", "1", "--L-min", "4", "--L-max", "8"), 2),
])
def test_oversized_scale_exits_by_contract(capsys, argv, code):
    # an overflowing B L^2/2 is a usage error, a sector layout past the
    # budget a capability error; neither may escape as a traceback
    got, out, err = run_cli(capsys, *argv)
    assert got == code and out == ""
    assert err.startswith("usage error" if code == 2
                          else "numeric/capability error")
    assert "Traceback" not in err


@pytest.mark.parametrize("name, code", [
    ("LleError", 3), ("DomainError", 2), ("CapabilityError", 3),
    ("NumericError", 3), ("AccuracyError", 3), ("WindowError", 3),
    ("FitError", 3), ("UsageError", 2)])
def test_every_error_class_maps_to_its_exit_code(capsys, monkeypatch, name,
                                                 code):
    from lle import cli, errors

    def fail(args):
        raise getattr(errors, name)("injected")
    monkeypatch.setattr(cli, "cmd_coeff", fail)
    got, out, err = run_cli(capsys, "coeff", "--levels", "single:0",
                            "--f", "renyi:1")
    assert got == code and out == ""
    prefix = "usage error" if code == 2 else "numeric/capability error"
    assert err == f"{prefix}: injected\n"


# one cheap valid request per subcommand
_REQUESTS = {
    "coeff": ("coeff", "--levels", "single:0", "--f", "renyi:1"),
    "spectrum": ("spectrum", "--region", DISK, "--B", "1", "--levels",
                 "single:0", "--L", "2"),
    "scaling": ("scaling", "--region", DISK, "--B", "1", "--levels",
                "single:0", "--alpha", "1", "--L-min", "4", "--L-max", "8"),
    "verify": ("verify", "--cases", "3"),
    "rocca": ("rocca", "--region", DISK, "--vectors", "[[1,0]]"),
}


@pytest.mark.parametrize("name", sorted(_REQUESTS))
def test_main_runs_the_cmd_patched_on_the_module(capsys, monkeypatch, name):
    # the parser outlives every call, so it must not pin the cmd_* functions:
    # main looks each one up on lle.cli when it dispatches
    seen = []

    def spy(args):
        seen.append(args.command)
        return 0
    monkeypatch.setattr(cli, f"cmd_{name}", spy)
    code, out, err = run_cli(capsys, *_REQUESTS[name])
    assert (code, out, err) == (0, "", "") and seen == [name]


@pytest.mark.parametrize("name, flag", [
    *((name, "--out") for name in sorted(_REQUESTS)), ("scaling", "--csv")])
@pytest.mark.parametrize("target", ["missing", "directory"])
def test_unwritable_output_path_exits_2(capsys, tmp_path, name, flag, target):
    # exit 1 means a failed verification, so an output file that cannot be
    # opened is a usage error, like every other bad argument
    path = tmp_path / "missing" / "out.txt" if target == "missing" else tmp_path
    code, out, err = run_cli(capsys, *_REQUESTS[name], flag, str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"usage error: cannot write {path}: ")
    assert "Traceback" not in err


def _fresh_cli(argv):
    """Exit code and stdout of one request in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "lle.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout


_SPECTRUM = ("spectrum", "--region", DISK, "--B", "1", "--levels", "upto:1",
             "--L", "3")
_SCALING = ("scaling", "--region", DISK, "--B", "1", "--alpha", "1",
            "--L-min", "4", "--L-max", "8")


@pytest.mark.parametrize("first, first_code, later", [
    ((*_SPECTRUM, "--solver", "both"), 0, _SPECTRUM),
    ((*_SCALING, "--mu", "3.5"), 0, (*_SCALING, "--levels", "upto:1")),
    ((*_REQUESTS["coeff"], "--format", "xml"), 2, _REQUESTS["coeff"]),
    (("verify", "--help"), 0, _REQUESTS["verify"]),
], ids=["solver", "mu-then-levels", "usage-error", "help"])
def test_repeated_calls_in_one_process_share_no_state(capsys, first, first_code,
                                                      later):
    # an option of one call must not leak into the next through the parser
    # that both share: the later call prints what it prints in a fresh process
    assert run_cli(capsys, *first)[0] == first_code
    code, out, err = run_cli(capsys, *later)
    assert code == 0, err
    assert (code, out) == _fresh_cli(later)


def test_main_builds_no_parser_per_call(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for argv in [*_REQUESTS.values(), ("coeff", "--help"), ("frobnicate",)]:
        run_cli(capsys, *argv)
    assert built == []
