"""Self-tests of the benchmark: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
import run  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_request_lists_are_deterministic(workload):
    assert workloads.requests(workload, 5) == workloads.requests(workload, 5)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_inputs_not_count_or_sizes(workload):
    a, b = workloads.requests(workload, 1), workloads.requests(workload, 2)
    assert [(r.kind, r.size) for r in a] == [(r.kind, r.size) for r in b]
    assert all(ra.argv != rb.argv for ra, rb in zip(a, b))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_requests_and_warmup_share_no_inputs(workload):
    argvs = [tuple(r.argv) for r in workloads.requests(workload, 3)]
    assert len(set(argvs)) == len(argvs)
    assert not set(map(tuple, workloads.warmup(workload))) & set(argvs)


def test_star_requests_keep_one_nystrom_dimension():
    sys.path.insert(0, str(ROOT / "src"))
    from lle.cli import _parse_region
    from lle.landau import MagneticSetup
    from lle.region_sim import default_resolution
    dims = set()
    for seed in range(1, 11):
        for req in workloads.requests("star-region", seed):
            arg = dict(zip(req.argv, req.argv[1:]))
            n_radial, n_theta = default_resolution(
                MagneticSetup(float(arg["--B"])), _parse_region(arg["--region"]),
                float(arg["--L"]))
            dims.add(n_radial * n_theta)
    assert dims == {1102}


def test_metric_and_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == PER_LAYER


def test_latencies_are_scaled_by_the_probes_around_them():
    def outcome(seconds, probe_s):
        return run.Outcome(0, None, "", {}, seconds, probe_s)
    ref = run.PROBE_REF_S
    # the same request in a fast, a slow and a fast pass: the slow pass's
    # probes ran 1.5 times as long, so its scaled latency is the same
    passes = [(False, [outcome(1.0, ref)], 1.0),
              (False, [outcome(1.5, 1.5 * ref)], 1.5),
              (False, [outcome(1.2, ref)], 1.2)]
    assert run._latencies(passes, traced=False) == pytest.approx([1.0])
    assert run._latencies(passes, traced=False, scaled=False) == [1.2]


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "4", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    names = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "coeff-table", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
