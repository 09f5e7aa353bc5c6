"""Benchmark of the lle subcommands, run in-process through lle.cli.main.

    python3 perfbench/run.py --workload coeff-table --seed 1 --seconds 20 --trace 0

One client sends one request at a time (a closed loop) in this process. A
pass runs the workload's whole request list; passes repeat until about
``--seconds`` have been spent. Every request's output is checked (see
checks.py); outputs must be byte-identical across passes. The last line of
standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` untraced and traced
passes alternate and the metrics are the per-layer ones of the traced
passes, plus the tracing overhead. The outcome of every request (exit code,
exception type, output hash) and the span table go to ``.perfbench_out/``.

Times are scaled to the speed of a reference host. A fixed probe that runs
no lle code (HostProbe, about 15 ms) is timed before and after every
request, and the request's latency is multiplied by ``PROBE_REF_S`` over the
mean of those two probe times. Each request counts at its median scaled
latency over the passes: ``wall_s`` is their sum over the list,
``request_p50_s`` their median. On a shared machine whose speed changes by
half for seconds to minutes at a time, scaled times made in different
phases agree far better than raw ones, and a change to lle moves them as it
moves the raw times. Set-up (``import lle``, input generation, warm-up) is
timed in this process and in SETUP_PROBES fresh processes, each scaled by
the probe run right after it; ``setup_s`` is their median. The raw times
are in the info line and in ``outcomes.json``.
"""

from __future__ import annotations

import os
import time

_T_START = time.perf_counter()

# pin BLAS and OpenMP pools before numpy loads; requests also pass --threads 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 4
# HostProbe time on the reference host in its fast state: a 2-core x86-64
# VM, Python 3.11, numpy 2.4 with OpenBLAS on one thread
PROBE_REF_S = 0.015
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "request_p50_s": "s",
    "accuracy_digits": "digits",
    "peak_rss_mb": "MiB",
}


@dataclass
class Outcome:
    code: int | None       # exit code of lle.cli.main; None if it raised
    exception: str | None  # type of an exception escaping main
    stdout: str
    files: dict            # files the request wrote, path -> text
    seconds: float
    probe_s: float = PROBE_REF_S  # host probe time around the request

    @property
    def scaled(self) -> float:
        """Latency at the reference host speed."""
        return self.seconds * PROBE_REF_S / self.probe_s

    @property
    def digest(self) -> str:
        h = hashlib.sha256(self.stdout.encode())
        for path in sorted(self.files):
            h.update(path.encode() + b"\0" + self.files[path].encode())
        return h.hexdigest()


class HostProbe:
    """A fixed piece of work that runs no lle code, timed between requests.

    A virtual machine that shares its cores can flip between a fast and a
    slow state (on a 2-core x86-64 VM, about 1.5 times slower) that each last
    seconds to minutes; CPU time then equals wall time, so nothing in the
    process shows it. The probe mixes the kinds of work lle does (scalar
    Python, a complex Hermitian ``eigvalsh``, vectorized numpy on buffers it
    owns, so that no page faults enter) and takes about 15 ms, so the probes
    just before and just after a request tell the host's speed while it ran.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        a = rng.standard_normal((200, 200)) + 1j * rng.standard_normal((200, 200))
        self._np = np
        self._matrix = a + a.conj().T
        self._x = rng.standard_normal(100_000)
        self._buf = np.empty_like(self._x)
        self.samples: list[float] = []

    def run(self) -> float:
        np, x, buf = self._np, self._x, self._buf
        start = time.perf_counter()
        acc = 0.0
        for i in range(1, 50_000):
            acc += math.sqrt(i) * math.sin(i)
        np.linalg.eigvalsh(self._matrix)
        for _ in range(30):
            np.multiply(x, x, out=buf)
            np.exp(buf, out=buf)
            acc += float(buf.sum())
        seconds = time.perf_counter() - start
        self.samples.append(seconds)
        return seconds


def _reset_caches():
    """Empty every lle-level cache, so each request runs as in a fresh process."""
    for name, mod in list(sys.modules.items()):
        if not name.startswith("lle") or mod is None:
            continue
        for attr, value in vars(mod).items():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
            elif attr.endswith("_CACHE") and isinstance(value, dict):
                value.clear()


def execute(cli, request, tracer=None) -> Outcome:
    _reset_caches()
    paths = [request.params["csv"]] if "csv" in request.params else []
    for path in paths:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    code, exc = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                code = cli.main(list(request.argv))
            else:
                code = tracer.call("cli.main", cli.main, (list(request.argv),), {})
    except Exception as e:  # a crash of the program under test is an outcome
        exc = type(e).__name__
    seconds = time.perf_counter() - start
    files = {p: Path(p).read_text() for p in paths if Path(p).is_file()}
    outcome = Outcome(code, exc, out.getvalue(), files, seconds)
    if tracer is not None:
        tracer.count("cli.output_bytes", len(outcome.stdout.encode())
                     + sum(len(t.encode()) for t in files.values()))
        tracer.count("cli.crashes", int(exc is not None))
    return outcome


def run_pass(cli, requests, probe, tracer=None, tag=""):
    outcomes = []
    if tracer is not None:
        tracer.install()
    try:
        before = probe.run()
        for req in requests:
            if tracer is not None:
                tracer.request = req.rid + tag
            outcome = execute(cli, req, tracer)
            after = probe.run()
            outcome.probe_s = 0.5 * (before + after)
            outcomes.append(outcome)
            before = after
    finally:
        if tracer is not None:
            tracer.remove()
    return outcomes


def _smoke_subset(requests):
    seen, out = set(), []
    for req in requests:
        if req.kind not in seen:
            seen.add(req.kind)
            out.append(req)
    return out


def _setup_probes(args) -> list[tuple[float, float]]:
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0",
           "--setup-probe"]
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append((sample["setup_s"], sample["probe_s"]))
    return out


def _environment() -> dict:
    import numpy
    import scipy
    blas = "unknown"
    try:
        blas_cfg = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_cfg.get('name')} {blas_cfg.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in _THREAD_VARS}
        | {"lle --threads": "1"},
    }


def _latencies(passes, traced: bool, scaled: bool = True) -> list[float]:
    """Per request, the median latency over the (un)traced passes."""
    runs = [outs for t, outs, _ in passes if t == traced]
    return [statistics.median(outs[i].scaled if scaled else outs[i].seconds
                              for outs in runs) for i in range(len(runs[0]))]


def _percentile(values, q):
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time set-up only and print it (used internally)")
    parser.add_argument("--smoke", action="store_true",
                        help="one request per kind, one pass, no set-up probes")
    args = parser.parse_args(argv)

    if not (SRC / "lle" / "cli.py").is_file():
        print(f"perfbench: no lle sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import lle.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported lle from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    requests = workloads.requests(args.workload, args.seed)
    if args.smoke:
        requests = _smoke_subset(requests)
    for argv_ in workloads.warmup(args.workload):
        warm = execute(cli, workloads.Request("warmup", "warmup", argv_, ()))
        if warm.code != 0:
            print(f"perfbench: warm-up request failed: {argv_} "
                  f"(exit {warm.code}, {warm.exception})", file=sys.stderr)
            return 3
    setup_own = time.perf_counter() - _T_START
    probe = HostProbe()
    setup_probe_s = statistics.median(probe.run() for _ in range(3))
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_own, "probe_s": setup_probe_s}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    passes = []  # (traced, outcomes, wall seconds)
    begin = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        outcomes = run_pass(cli, requests, probe, tracer if traced else None,
                            f"#p{len(passes)}")
        passes.append((traced, outcomes, sum(o.seconds for o in outcomes)))
        elapsed = time.perf_counter() - begin
        n_traced = sum(t for t, _, _ in passes)
        n_plain = len(passes) - n_traced
        # at least two untraced passes, so every request is timed twice
        if args.smoke:
            if n_plain >= 1 and n_traced >= args.trace:
                break
        elif n_plain >= 2 and n_traced >= args.trace \
                and elapsed + 0.5 * passes[-1][2] >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import checks
    attempted = failed = 0
    correct = True
    worst_err = 0.0
    log = []
    for i, req in enumerate(requests):
        runs = [(k, traced, outs[i]) for k, (traced, outs, _) in enumerate(passes)]
        first = runs[0][2]
        ok, err = first.code == 0, None
        note = "" if ok else f"exit {first.code}, exception {first.exception}"
        if first.code == 0:
            ok, err, note = checks.check(req, first.stdout, first.files)
            correct &= ok  # exit 0 with a wrong answer
            if ok and err is not None:
                worst_err = max(worst_err, err)
        for k, traced, o in runs:
            same = (o.code, o.exception, o.digest) == \
                (first.code, first.exception, first.digest)
            if not same:
                correct = False  # repeated runs must give identical output
            attempted += 1
            failed += int(not (ok and same))
            log.append({"request": req.rid, "kind": req.kind, "pass": k,
                        "traced": traced, "exit_code": o.code,
                        "exception": o.exception, "sha256": o.digest,
                        "seconds": o.seconds, "check_ok": ok and same,
                        "note": note if same else "output differs from pass 0",
                        "error": err, "argv": req.argv})

    # each request counts at its median scaled latency over the passes
    scaled = _latencies(passes, traced=False)
    latencies = [o.seconds for traced, outs, _ in passes if not traced for o in outs]
    p90 = _percentile(latencies, 0.9)
    info = {"workload": args.workload, "seed": args.seed, "smoke": args.smoke,
            "passes": len(passes), "requests_per_pass": len(requests),
            "request_samples": len(latencies), "request_scaled_s": scaled,
            "request_p50_samples": len(scaled),
            "request_p90_s": p90,
            "samples_beyond_p90": sum(v > p90 for v in latencies),
            "environment": _environment()}
    if args.trace:
        layer = [tracer.metrics([r.rid + f"#p{k}" for r in requests])
                 for k, (traced, _, _) in enumerate(passes) if traced]
        values = {name: statistics.median(m[name] for m in layer)
                  for name in layer[0]}
        values["trace.overhead_s"] = \
            sum(_latencies(passes, traced=True)) - sum(scaled)
        from tracing import PER_LAYER
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        setups = [(setup_own, setup_probe_s)] \
            + ([] if args.smoke else _setup_probes(args))
        raw = _latencies(passes, traced=False, scaled=False)
        info |= {"setup_samples": setups,
                 "pass_request_s": [[(o.seconds, o.probe_s) for o in outs]
                                    for traced, outs, _ in passes if not traced],
                 "raw_setup_s": statistics.median(t for t, _ in setups),
                 "raw_wall_s": sum(raw), "raw_request_p50_s": statistics.median(raw)}
        values = {
            "setup_s": statistics.median(t * PROBE_REF_S / p for t, p in setups),
            "wall_s": sum(scaled),
            "request_p50_s": statistics.median(scaled),
            "accuracy_digits": -math.log10(max(worst_err, 1e-16)),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    out_dir = ROOT / workloads.OUT_DIR / "runs" / \
        f"{args.workload}-s{args.seed}-t{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "outcomes.json").write_text(json.dumps(
        {"info": info, "outcomes": log}, indent=1))
    if tracer is not None:
        (out_dir / "spans.json").write_text(json.dumps(tracer.span_table(), indent=1))
    print(json.dumps(info))
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
