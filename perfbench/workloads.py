"""Request lists of the benchmark workloads.

Every request is one ``lle`` argv list. The workload seed picks the inputs
(Renyi indices, field strengths, star shapes, translate vectors, verify
seeds); the number of requests and their sizes (levels, spectral-function
counts, sector-window extent ``x = B L^2 / 2``, Nystrom dimension, vector
and harmonic counts) are fixed per workload. ``Request.size`` records what
the seed must not change; ``Request.params`` carries what the output checks
need to recompute a reference.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("coeff-table", "disk-scaling", "star-region", "rocca-verify")

# Directory, relative to the checkout root, for files the requests write.
OUT_DIR = ".perfbench_out"


@dataclass
class Request:
    rid: str
    kind: str
    argv: list[str]
    size: tuple
    params: dict = field(default_factory=dict)


def _num(x: float, digits: int = 4) -> float:
    """Round a drawn value so the argv text and the checks see the same float."""
    return round(x, digits)


def _json_list(values) -> str:
    return "[" + ",".join(repr(float(v)) for v in values) + "]"


def _cli(*args) -> list[str]:
    return ["--threads", "1", *[str(a) for a in args]]


# ---------------------------------------------------------------------------
# coeff-table: one `lle coeff` per level selector
# ---------------------------------------------------------------------------

# single:l and upto:n spread over 0..48; level 1 is kept for the warm-up
_SINGLE_LEVELS = (0, 6, 12, 18, 24, 30, 36, 42, 48)
_UPTO_LEVELS = (3, 9, 15, 21, 27, 33, 39, 45)


def _coeff_table(rng: random.Random, seed: int) -> list[Request]:
    selectors = [f"single:{l}" for l in _SINGLE_LEVELS] \
        + [f"upto:{n}" for n in _UPTO_LEVELS]
    out = []
    for i, sel in enumerate(selectors):
        # renyi:0.5 is the hardest index for the xi integral (see checks.py)
        alphas = sorted(_num(rng.uniform(0.5, 4.0), 3) for _ in range(2))
        m = rng.randint(2, 6)
        fns = ["renyi:1", "renyi:0.5"] + [f"renyi:{a!r}" for a in alphas] \
            + [f"monomial:{m}", "gtilde"]
        out.append(Request(
            rid=f"coeff-table/{i:02d}", kind="coeff",
            argv=_cli("coeff", "--levels", sel, "--f", ",".join(fns)),
            size=(sel, len(fns)), params={"selector": sel, "fns": fns}))
    return out


# ---------------------------------------------------------------------------
# disk-scaling: `lle scaling` on disks
# ---------------------------------------------------------------------------

# (selector, x_max, scale count). x = B L^2 / 2 at the largest scale fixes
# the sector window and hence the cost; B is drawn and L follows from x. At
# B = 1 the long windows reach L = 80 (upto:3: L = 40, single:4: L = 60),
# the short ones L = 24..40. upto:2 and upto:3 on their long windows, and
# single:4 on its long one, run into the eigenvalue-clamp defect and fail.
_DISK_SLOTS = (
    ("upto:0", 3200.0, 15), ("upto:0", 450.0, 8),
    ("upto:1", 3200.0, 15), ("upto:1", 800.0, 8),
    ("upto:2", 3200.0, 15), ("upto:2", 800.0, 8),
    ("upto:3", 800.0, 12), ("upto:3", 288.0, 8),
    ("single:1", 3200.0, 15), ("single:1", 450.0, 8),
    ("single:2", 3200.0, 15), ("single:2", 800.0, 8),
    ("single:3", 3200.0, 15), ("single:3", 450.0, 8),
    ("single:4", 1800.0, 12), ("single:4", 800.0, 8),
)
_DISK_X_MIN = 50.0  # L = 10 at B = 1


def _disk_scaling(rng: random.Random, seed: int) -> list[Request]:
    out = []
    for i, (sel, x_max, count) in enumerate(_DISK_SLOTS):
        b = _num(rng.uniform(0.5, 2.0))
        # lowest-level entropies are checked eigenvalue by eigenvalue against
        # the incomplete-gamma closed form; for alpha < 1, h_alpha at the
        # retention cutoff is ~1e-6, so one eigenvalue landing on the other
        # side of the cutoff would swamp that comparison
        alpha = _num(rng.uniform(1.0 if sel == "upto:0" else 0.5, 3.0), 3)
        l_min = _num(math.sqrt(2.0 * _DISK_X_MIN / b))
        l_top = math.sqrt(2.0 * x_max / b)
        step = _num((l_top - l_min) / (count - 1))
        # unrounded, so the CLI's arange(L_min, L_max + 1e-9, L_step) yields
        # exactly `count` scales
        l_max = l_min + step * (count - 1)
        csv = f"{OUT_DIR}/csv/disk-scaling-s{seed}-{i:02d}.csv"
        out.append(Request(
            rid=f"disk-scaling/{i:02d}", kind="scaling",
            argv=_cli("scaling", "--region", '{"type":"disk","R":1.0}',
                      "--B", repr(b), "--levels", sel, "--alpha", repr(alpha),
                      "--L-min", repr(l_min), "--L-max", repr(l_max),
                      "--L-step", repr(step), "--csv", csv),
            size=(sel, x_max, count),
            params={"selector": sel, "B": b, "alpha": alpha, "count": count,
                    "csv": csv}))
    return out


# ---------------------------------------------------------------------------
# star-region: `lle spectrum --solver nystrom2d` on stars, `both` on disks
# ---------------------------------------------------------------------------

def star_coeffs(rng: random.Random, harmonics: int, a0: float = 1.0,
                budget: float = 0.35) -> list[float]:
    """Interleaved (a0, a1, b1, ...) with sum_j j^2 |c_j| = budget * a0.

    That keeps r > 0 and the curvature positive, so the region is convex and
    every small translate stays star-shaped about the origin.
    """
    weights = [rng.uniform(0.2, 1.0) for _ in range(harmonics)]
    total = sum(weights)
    coeffs = [a0]
    for j, w in enumerate(weights, start=1):
        rho = budget * a0 * w / total / (j * j)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        coeffs += [_num(rho * math.cos(phase), 6), _num(rho * math.sin(phase), 6)]
    return coeffs


def star_rmax(coeffs) -> float:
    """Largest radius on the 4096-point angle grid the Nystrom path samples."""
    import numpy as np
    th = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    a = np.asarray(coeffs[1::2], dtype=float)
    b = np.asarray(coeffs[2::2], dtype=float)
    j = np.arange(1, a.size + 1, dtype=float)
    arg = np.multiply.outer(th, j)
    return float(np.max(coeffs[0] + np.cos(arg) @ a + np.sin(arg) @ b))


# (solver, selector, sqrt(B) * L * r_max, harmonics). The product fixes the
# polar rule and thus the Nystrom dimension: 0.95 -> 29 x 38 = 1102 (clear
# of 1.0, where the radial count steps up), so every request costs about the
# same (about 0.4 s on one core) and the median request is one of many
# alike; the disk solver of `both` is comparatively free.
_STAR_SLOTS = (
    ("nystrom2d", "upto:0", 0.95, 2),
    ("nystrom2d", "upto:1", 0.95, 3),
    ("nystrom2d", "single:1", 0.95, 4),
    ("nystrom2d", "upto:0", 0.95, 5),
    ("nystrom2d", "upto:1", 0.95, 2),
    ("nystrom2d", "single:1", 0.95, 3),
    ("nystrom2d", "upto:0", 0.95, 4),
    ("nystrom2d", "upto:1", 0.95, 5),
    ("both", "upto:0", 0.95, 0),
    ("both", "upto:1", 0.95, 0),
)


def _star_region(rng: random.Random, seed: int) -> list[Request]:
    out = []
    for i, (solver, sel, rho, harmonics) in enumerate(_STAR_SLOTS):
        b = _num(rng.uniform(0.5, 2.0))
        if solver == "both":
            radius = _num(rng.uniform(0.5, 2.0))
            region = {"type": "disk", "R": radius}
            region_text = f'{{"type":"disk","R":{radius!r}}}'
            r_max = radius
        else:
            coeffs = star_coeffs(rng, harmonics)
            region = {"type": "star", "coeffs": coeffs}
            region_text = f'{{"type":"star","coeffs":{_json_list(coeffs)}}}'
            r_max = star_rmax(coeffs)
        scale = rho / math.sqrt(b) / r_max
        out.append(Request(
            rid=f"star-region/{i:02d}", kind=solver,
            argv=_cli("spectrum", "--region", region_text, "--B", repr(b),
                      "--levels", sel, "--L", repr(scale), "--solver", solver),
            size=(solver, sel, rho, harmonics),
            params={"selector": sel, "B": b, "L": scale, "region": region}))
    return out


# ---------------------------------------------------------------------------
# rocca-verify: `lle rocca` and `lle verify --suite all`
# ---------------------------------------------------------------------------

def _vector(rng: random.Random) -> list[float]:
    ang = rng.uniform(0.0, 2.0 * math.pi)
    length = rng.uniform(0.5, 1.5)
    return [_num(length * math.cos(ang)), _num(length * math.sin(ang))]


def _rocca(rid, region_text, vectors, eps_exps, kind, size, params):
    lo, hi = eps_exps
    vec_text = "[" + ",".join(_json_list(v) for v in vectors) + "]"
    return Request(
        rid=rid, kind=kind,
        argv=_cli("rocca", "--region", region_text, "--vectors", vec_text,
                  "--eps-min-exp", lo, "--eps-max-exp", hi),
        size=size, params=params | {"vectors": vectors, "eps_exps": eps_exps})


_ROCCA_STARS = 6


def _rocca_verify(rng: random.Random, seed: int) -> list[Request]:
    # one verify seed per run (about 3 s), so that a pass stays short enough
    # for several passes per run; the seed is drawn from the workload seed
    vseed = rng.randrange(1_000_000)
    out = [Request(
        rid="rocca-verify/00", kind="verify",
        argv=_cli("verify", "--suite", "all", "--seed", vseed),
        size=("verify", "all", 1000), params={"seed": vseed})]
    # general convex stars, one vector and one eps each (about 0.6 s): the
    # two translates' boundaries then cross exactly twice, so the kink
    # bisections, and with them the cost, do not depend on the drawn shape;
    # with the lens star they are seven requests of about equal cost, so the
    # median request is one of them
    for _ in range(_ROCCA_STARS):
        coeffs = star_coeffs(rng, 3, a0=_num(rng.uniform(0.8, 1.5)))
        k = rng.randint(3, 7)
        out.append(_rocca(
            f"rocca-verify/{len(out):02d}",
            f'{{"type":"star","coeffs":{_json_list(coeffs)}}}',
            [_vector(rng)], (k, k), "rocca-star", ("rocca-star", 3, 1, 1), {}))
    # a star with only a0 is a disk, so its radial route has the lens area
    # as closed form
    a0 = _num(rng.uniform(0.8, 1.5))
    k = rng.randint(3, 7)
    out.append(_rocca(
        f"rocca-verify/{len(out):02d}", f'{{"type":"star","coeffs":[{a0!r}]}}',
        [_vector(rng)], (k, k), "rocca-lens", ("rocca-lens", 0, 1, 1),
        {"radius": a0}))
    # the disk (exact lens) and the convex polygon (half-plane clipping)
    radius = _num(rng.uniform(0.8, 1.5))
    out.append(_rocca(
        f"rocca-verify/{len(out):02d}", f'{{"type":"disk","R":{radius!r}}}',
        [_vector(rng)], (3, 9), "rocca-disk", ("rocca-disk", 0, 1, 7),
        {"radius": radius}))
    w, h = _num(rng.uniform(0.8, 2.0)), _num(rng.uniform(0.8, 2.0))
    ang = rng.uniform(0.0, 0.5 * math.pi)
    ux, uy = math.cos(ang), math.sin(ang)
    corners = [(-w / 2, -h / 2), (w / 2, -h / 2), (w / 2, h / 2), (-w / 2, h / 2)]
    verts = [[_num(x * ux - y * uy, 12), _num(x * uy + y * ux, 12)]
             for x, y in corners]
    out.append(_rocca(
        f"rocca-verify/{len(out):02d}",
        '{"type":"polygon","vertices":['
        + ",".join(_json_list(v) for v in verts) + "]}",
        [_vector(rng)], (3, 9), "rocca-polygon", ("rocca-polygon", 4, 1, 7),
        {"vertices": verts}))
    return out


_GENERATORS = {
    "coeff-table": _coeff_table,
    "disk-scaling": _disk_scaling,
    "star-region": _star_region,
    "rocca-verify": _rocca_verify,
}


def requests(workload: str, seed: int) -> list[Request]:
    """The workload's request list for one seed (deterministic)."""
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng, seed)


def warmup(workload: str) -> list[list[str]]:
    """Small fixed requests that load each route before timing.

    Their inputs share no cache key with any timed request: coeff level 1,
    scaling x below every timed window, a disk scale far below the timed
    dimension. The runner also empties lle's caches before every request.
    """
    if workload == "coeff-table":
        return [_cli("coeff", "--levels", "single:1,upto:1",
                     "--f", "renyi:1.5,monomial:2,gtilde")]
    if workload == "disk-scaling":
        return [_cli("scaling", "--region", '{"type":"disk","R":1.0}',
                     "--B", "1.0", "--levels", "upto:1", "--alpha", "1.0",
                     "--L-min", "4", "--L-max", "8", "--L-step", "2")]
    if workload == "star-region":
        # `both` loads the disk solver and the Nystrom path in one call
        return [_cli("spectrum", "--region", '{"type":"disk","R":1.0}',
                     "--B", "1.0", "--levels", "upto:0", "--L", "0.5",
                     "--solver", "both")]
    return [_cli("verify", "--suite", "all", "--cases", "3", "--seed", "0"),
            _cli("rocca", "--region", '{"type":"disk","R":1.0}',
                 "--vectors", "[[1.0,0.0]]"),
            _cli("rocca", "--region",
                 '{"type":"polygon","vertices":[[0,0],[1,0],[1,1],[0,1]]}',
                 "--vectors", "[[1.0,0.5]]")]
