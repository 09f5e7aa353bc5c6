"""Bounded regions, boundary data, and small-translate intersection areas.

Regions come in three variants: disks, smooth star-shaped regions given by a
truncated Fourier radius profile, and simple polygons. Smooth variants carry
analytic normals and curvature so the asymptotic fits downstream are not
contaminated by geometric discretization error.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, CapabilityError, DomainError, NumericError
from .specfun import gauss_legendre

_R90 = np.array([[0.0, -1.0], [1.0, 0.0]])  # rotate tangent -> inward normal


@dataclass(frozen=True)
class Disk:
    radius: float
    center: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if not self.radius > 0.0:
            raise DomainError(f"disk radius must be positive, got {self.radius}")


@dataclass(frozen=True)
class SmoothStar:
    """Star-shaped region r(theta) = a0 + sum_j (a_j cos j theta + b_j sin j theta).

    Coefficients are stored interleaved as (a0, a1, b1, a2, b2, ...). The
    profile must stay strictly positive.
    """

    coeffs: tuple[float, ...]

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise DomainError("star region needs at least the constant coefficient")
        th = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
        if np.min(self.radius(th)) <= 0.0:
            raise DomainError("star radius profile must be positive everywhere")

    def _harmonics(self):
        a0 = self.coeffs[0]
        rest = self.coeffs[1:]
        a = np.array(rest[0::2], dtype=float)
        b = np.array(list(rest[1::2]) + [0.0] * (len(rest[0::2]) - len(rest[1::2])),
                     dtype=float)
        j = np.arange(1, a.size + 1, dtype=float)
        return float(a0), a, b, j

    def radius(self, theta, order: int = 0):
        """Radius profile or its theta-derivative of given order."""
        theta = np.asarray(theta, dtype=float)
        a0, a, b, j = self._harmonics()
        arg = np.multiply.outer(theta, j)
        jp = j ** order
        phase = order % 4
        if phase == 0:
            cos_part, sin_part = np.cos(arg), np.sin(arg)
        elif phase == 1:
            cos_part, sin_part = -np.sin(arg), np.cos(arg)
        elif phase == 2:
            cos_part, sin_part = -np.cos(arg), -np.sin(arg)
        else:
            cos_part, sin_part = np.sin(arg), -np.cos(arg)
        out = cos_part @ (jp * a) + sin_part @ (jp * b)
        if order == 0:
            out = out + a0
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class Polygon:
    vertices: tuple[tuple[float, float], ...]

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.shape[0] < 3:
            raise DomainError("polygon needs at least 3 vertices")
        if _polygon_signed_area(v) <= 0.0:
            raise DomainError("polygon vertices must be counterclockwise")
        if _polygon_self_intersects(v):
            raise DomainError("polygon must be simple (non-self-intersecting)")

    def vertex_array(self) -> np.ndarray:
        return np.asarray(self.vertices, dtype=float)


Region = Disk | SmoothStar | Polygon


def _polygon_signed_area(v: np.ndarray) -> float:
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _segments_intersect(p1, p2, p3, p4) -> bool:
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    d1, d2 = orient(p3, p4, p1), orient(p3, p4, p2)
    d3, d4 = orient(p1, p2, p3), orient(p1, p2, p4)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


def _polygon_self_intersects(v: np.ndarray) -> bool:
    n = v.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            if abs(i - j) in (0, 1) or (i == 0 and j == n - 1):
                continue
            if _segments_intersect(v[i], v[(i + 1) % n], v[j], v[(j + 1) % n]):
                return True
    return False


# ---------------------------------------------------------------------------
# areas, arc lengths, boundary accessors
# ---------------------------------------------------------------------------

_STAR_NODES = 2048


@functools.lru_cache(maxsize=256)
def _star_measures(star: SmoothStar) -> tuple[float, float]:
    def measures(n):
        th = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        r = star.radius(th)
        rp = star.radius(th, order=1)
        w = 2.0 * math.pi / n
        return (0.5 * float(np.sum(r * r)) * w,
                float(np.sum(np.sqrt(r * r + rp * rp))) * w)
    a1, p1 = measures(_STAR_NODES)
    a2, p2 = measures(2 * _STAR_NODES)
    err = max(abs(a1 - a2), abs(p1 - p2))
    if err > 1e-10:
        raise AccuracyError(
            "star profile too rough for the periodic trapezoid rule", achieved=err)
    return a2, p2


def area(region: Region) -> float:
    if isinstance(region, Disk):
        return math.pi * region.radius ** 2
    if isinstance(region, SmoothStar):
        return _star_measures(region)[0]
    return _polygon_signed_area(region.vertex_array())


def perimeter(region: Region) -> float:
    if isinstance(region, Disk):
        return 2.0 * math.pi * region.radius
    if isinstance(region, SmoothStar):
        return _star_measures(region)[1]
    v = region.vertex_array()
    return float(np.sum(np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1)))


def boundary_point(region: Region, theta):
    theta = np.asarray(theta, dtype=float)
    if isinstance(region, Disk):
        c = np.asarray(region.center)
        return np.stack([c[0] + region.radius * np.cos(theta),
                         c[1] + region.radius * np.sin(theta)], axis=-1)
    if isinstance(region, SmoothStar):
        r = region.radius(theta)
        return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
    raise CapabilityError("boundary_point by angle is defined for smooth variants")


def inward_normal(region: Region, theta):
    """Unit inward normal at the boundary point with polar angle theta."""
    theta = np.asarray(theta, dtype=float)
    if isinstance(region, Disk):
        return np.stack([-np.cos(theta), -np.sin(theta)], axis=-1)
    if isinstance(region, SmoothStar):
        r = region.radius(theta)
        rp = region.radius(theta, order=1)
        tx = rp * np.cos(theta) - r * np.sin(theta)
        ty = rp * np.sin(theta) + r * np.cos(theta)
        norm = np.sqrt(tx * tx + ty * ty)
        return np.stack([-ty / norm, tx / norm], axis=-1)
    raise CapabilityError("normals by angle are defined for smooth variants")


def curvature(region: Region, theta):
    """Signed curvature (positive where the region is locally convex)."""
    scalar = np.ndim(theta) == 0
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if isinstance(region, Disk):
        out = np.full(theta.shape, 1.0 / region.radius)
    elif isinstance(region, SmoothStar):
        r = region.radius(theta)
        rp = region.radius(theta, order=1)
        rpp = region.radius(theta, order=2)
        out = (r * r + 2.0 * rp * rp - r * rpp) / (r * r + rp * rp) ** 1.5
    else:
        raise CapabilityError("curvature requested on a polygon")
    return float(out[0]) if scalar else out


def arc_element(region: Region, theta):
    """|dA/dtheta| along the boundary of a smooth region."""
    scalar = np.ndim(theta) == 0
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if isinstance(region, Disk):
        out = np.full(theta.shape, float(region.radius))
    elif isinstance(region, SmoothStar):
        r = region.radius(theta)
        rp = region.radius(theta, order=1)
        out = np.sqrt(r * r + rp * rp)
    else:
        raise CapabilityError("arc element by angle is defined for smooth variants")
    return float(out[0]) if scalar else out


def scale_region(region: Region, factor: float) -> Region:
    if not factor > 0.0:
        raise DomainError(f"scale factor must be positive, got {factor}")
    if isinstance(region, Disk):
        return Disk(radius=factor * region.radius,
                    center=(factor * region.center[0], factor * region.center[1]))
    if isinstance(region, SmoothStar):
        return SmoothStar(coeffs=tuple(factor * c for c in region.coeffs))
    return Polygon(vertices=tuple((factor * x, factor * y)
                                  for x, y in region.vertices))


# ---------------------------------------------------------------------------
# JSON schema (fixed; also used by the CLI)
# ---------------------------------------------------------------------------

def region_from_json(obj: dict) -> Region:
    """{"type":"disk","R":..} | {"type":"star","coeffs":[..]} | {"type":"polygon","vertices":[[x,y],..]}"""
    if not isinstance(obj, dict) or "type" not in obj:
        raise DomainError("region JSON must be an object with a 'type' key")
    kind = obj["type"]
    keys = set(obj) - {"type"}
    if kind == "disk":
        if keys - {"R"}:
            raise DomainError(f"unknown disk keys {sorted(keys - {'R'})}")
        return Disk(radius=float(obj["R"]))
    if kind == "star":
        if keys - {"coeffs"}:
            raise DomainError(f"unknown star keys {sorted(keys - {'coeffs'})}")
        return SmoothStar(coeffs=tuple(float(c) for c in obj["coeffs"]))
    if kind == "polygon":
        if keys - {"vertices"}:
            raise DomainError(f"unknown polygon keys {sorted(keys - {'vertices'})}")
        return Polygon(vertices=tuple((float(x), float(y)) for x, y in obj["vertices"]))
    raise DomainError(f"unknown region type {kind!r}")


def region_to_json(region: Region) -> dict:
    if isinstance(region, Disk):
        return {"type": "disk", "R": region.radius}
    if isinstance(region, SmoothStar):
        return {"type": "star", "coeffs": list(region.coeffs)}
    return {"type": "polygon", "vertices": [list(v) for v in region.vertices]}


# ---------------------------------------------------------------------------
# translate families and intersection areas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TranslateFamily:
    """Vectors v_1..v_r and the scale eps of the translates Lambda + eps*v_q."""

    vectors: tuple[tuple[float, float], ...]
    eps: float

    def __post_init__(self):
        if len(self.vectors) < 1:
            raise DomainError("need at least one translate vector")
        if self.eps < 0.0:
            raise DomainError(f"eps must be >= 0, got {self.eps}")

    def shifts(self) -> np.ndarray:
        return self.eps * np.asarray(self.vectors, dtype=float)


def contains(region: Region, pts: np.ndarray) -> np.ndarray:
    """Vectorized indicator of the closed region."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if isinstance(region, Disk):
        c = np.asarray(region.center)
        return np.linalg.norm(pts - c, axis=1) <= region.radius
    if isinstance(region, SmoothStar):
        th = np.arctan2(pts[:, 1], pts[:, 0])
        return np.linalg.norm(pts, axis=1) <= region.radius(th)
    v = region.vertex_array()
    x, y = pts[:, 0], pts[:, 1]
    inside = np.zeros(pts.shape[0], dtype=bool)
    n = v.shape[0]
    for i in range(n):
        x1, y1 = v[i]
        x2, y2 = v[(i + 1) % n]
        crosses = (y1 > y) != (y2 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xin = (x2 - x1) * (y - y1) / (y2 - y1) + x1
        inside ^= crosses & (x < np.where(crosses, xin, np.inf))
    return inside


def _lens_removed_area(radius: float, d: float) -> float:
    # area of Disk(R) minus its intersection with a copy shifted by distance d
    if d <= 0.0:
        return 0.0
    if d >= 2.0 * radius:
        return math.pi * radius ** 2
    inter = (2.0 * radius ** 2 * math.acos(d / (2.0 * radius))
             - 0.5 * d * math.sqrt(4.0 * radius ** 2 - d * d))
    return math.pi * radius ** 2 - inter


def _clip_convex(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clip of `subject` against the convex CCW `clip`."""
    out = [tuple(p) for p in subject]
    n = clip.shape[0]
    for i in range(n):
        if not out:
            return np.zeros((0, 2))
        a, b = clip[i], clip[(i + 1) % n]
        edge = b - a

        def inside(p):
            return edge[0] * (p[1] - a[1]) - edge[1] * (p[0] - a[0]) >= -1e-14

        def intersect(p, q):
            d = np.asarray(q) - np.asarray(p)
            denom = edge[0] * d[1] - edge[1] * d[0]
            t = (edge[0] * (a[1] - p[1]) - edge[1] * (a[0] - p[0])) / denom
            return (p[0] + t * d[0], p[1] + t * d[1])

        new = []
        prev = out[-1]
        for cur in out:
            if inside(cur):
                if not inside(prev):
                    new.append(intersect(prev, cur))
                new.append(cur)
            elif inside(prev):
                new.append(intersect(prev, cur))
            prev = cur
        out = new
    return np.asarray(out) if out else np.zeros((0, 2))


def _polygon_is_convex(v: np.ndarray) -> bool:
    n = v.shape[0]
    cross = []
    for i in range(n):
        a, b, c = v[i], v[(i + 1) % n], v[(i + 2) % n]
        cross.append((b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0]))
    cross = np.asarray(cross)
    return bool(np.all(cross >= -1e-12))


def _star_translate_radius(region, shift: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Radial function of (region + shift) seen from the origin, per ray.

    Bisection on the region indicator along each ray; valid while the origin
    lies inside the translate, which the caller guarantees.
    """
    if isinstance(region, Disk):
        c = np.asarray(region.center) + shift
        ux, uy = np.cos(theta), np.sin(theta)
        proj = ux * c[0] + uy * c[1]
        disc = region.radius ** 2 - (c[0] ** 2 + c[1] ** 2 - proj ** 2)
        if np.any(disc <= 0.0):
            raise NumericError("translate lost sight of the origin")
        return proj + np.sqrt(disc)
    # smooth star: bracket [lo, hi] then bisect the boundary crossing
    ux, uy = np.cos(theta), np.sin(theta)
    rmax = float(np.max(region.radius(np.linspace(0, 2 * math.pi, 2048, endpoint=False))))
    snorm = float(np.linalg.norm(shift))
    lo = np.zeros_like(theta)
    hi = np.full_like(theta, rmax + snorm + 1e-9)

    def inside(t):
        px = t * ux - shift[0]
        py = t * uy - shift[1]
        return px * px + py * py <= region.radius(np.arctan2(py, px)) ** 2

    if not bool(np.all(inside(lo + 0.0))):
        raise NumericError("translate does not contain the origin")
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        good = inside(mid)
        lo = np.where(good, mid, lo)
        hi = np.where(good, hi, mid)
    return 0.5 * (lo + hi)


def _smooth_intersection_area(region, family: TranslateFamily,
                              n_coarse: int = 4096) -> float:
    shifts = np.vstack([np.zeros((1, 2)), family.shifts()])
    if isinstance(region, Disk):
        shifts = shifts + np.asarray(region.center)
        region = Disk(radius=region.radius)
    # origin must lie inside every translate for the radial representation
    if not bool(np.all(contains(region, -shifts).ravel())):
        raise CapabilityError(
            "translates too large for the radial method: the origin must lie "
            "inside every translate")
    th = np.linspace(0.0, 2.0 * math.pi, n_coarse, endpoint=False)
    rho = np.stack([_star_translate_radius(region, s, th) for s in shifts])
    leader = np.argmin(rho, axis=0)
    # kink angles: where the minimizing translate changes between grid nodes
    events = []
    for i in range(n_coarse):
        q1, q2 = leader[i], leader[(i + 1) % n_coarse]
        if q1 == q2:
            continue
        a = th[i]
        b = th[i] + 2.0 * math.pi / n_coarse

        def diff(t):
            t = np.atleast_1d(t)
            return (_star_translate_radius(region, shifts[q1], t)
                    - _star_translate_radius(region, shifts[q2], t))
        fa = float(diff(a)[0])
        lo_, hi_ = a, b
        for _ in range(60):
            mid = 0.5 * (lo_ + hi_)
            if (float(diff(mid)[0]) > 0) == (fa > 0):
                lo_ = mid
            else:
                hi_ = mid
        events.append(0.5 * (lo_ + hi_))
    if not events:
        events = [0.0]
    events = np.sort(np.mod(events, 2.0 * math.pi))
    # integrate 1/2 rho_min^2 piecewise between kinks with GL panels
    total = 0.0
    ref = gauss_legendre(16, 0.0, 1.0)
    for i in range(events.size):
        a = events[i]
        b = events[(i + 1) % events.size]
        if b <= a:
            b += 2.0 * math.pi
        n_panels = max(1, int(math.ceil((b - a) / (2.0 * math.pi / 64))))
        edges = np.linspace(a, b, n_panels + 1)
        for j in range(n_panels):
            t = edges[j] + (edges[j + 1] - edges[j]) * ref.nodes
            w = (edges[j + 1] - edges[j]) * ref.weights
            rho_all = np.stack([_star_translate_radius(region, s, t) for s in shifts])
            total += 0.5 * float(np.dot(w, np.min(rho_all, axis=0) ** 2))
    return total


def intersect_translates_area(region: Region, family: TranslateFamily
                              ) -> tuple[float, float]:
    """Areas (|Lambda_eps|, |Lambda \\ Lambda_eps|) of the translate intersection.

    Disk with a single vector uses the exact lens formula; polygons use exact
    iterated half-plane clipping (convex only); smooth regions use the radial
    min-representation with kink-splitting quadrature (~1e-12 accurate for the
    profiles used here). Translates too large for the radial representation
    raise CapabilityError.
    """
    base = area(region)
    shifts = family.shifts()
    if family.eps == 0.0 or np.max(np.abs(shifts)) == 0.0:
        return base, 0.0
    if isinstance(region, Disk) and shifts.shape[0] == 1:
        removed = _lens_removed_area(region.radius, float(np.linalg.norm(shifts[0])))
        return base - removed, removed
    if isinstance(region, Polygon):
        v = region.vertex_array()
        if not _polygon_is_convex(v):
            raise CapabilityError("iterated half-plane clipping needs a convex polygon")
        cur = v
        for s in shifts:
            cur = _clip_convex(cur, v + s)
            if cur.shape[0] < 3:
                return 0.0, base
        inter = _polygon_signed_area(cur)
        return inter, base - inter
    inter = _smooth_intersection_area(region, family)
    return inter, base - inter


# ---------------------------------------------------------------------------
# Roccaforte boundary integrals
# ---------------------------------------------------------------------------

_BOUNDARY_NODES = 2048


def _switch_angles(region: Region, vectors: np.ndarray) -> np.ndarray:
    """Angles where the leader of max{0, <v_q|n>} can change."""
    th = np.linspace(0.0, 2.0 * math.pi, _BOUNDARY_NODES, endpoint=False)
    nrm = inward_normal(region, th)
    g = vectors @ nrm.T  # (r, N)
    events = []
    funcs = [g[q] for q in range(vectors.shape[0])]
    funcs += [g[q] - g[p] for q in range(vectors.shape[0])
              for p in range(q + 1, vectors.shape[0])]

    def refine(fn, a, b):
        fa = fn(a)
        lo, hi = a, b
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if (fn(mid) > 0) == (fa > 0):
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    for idx, vals in enumerate(funcs):
        sign_change = np.where(np.sign(vals) != np.sign(np.roll(vals, -1)))[0]
        for i in sign_change:
            a = th[i]
            b = th[i] + 2.0 * math.pi / _BOUNDARY_NODES
            if idx < vectors.shape[0]:
                v = vectors[idx]
                events.append(refine(
                    lambda t: float(v @ np.atleast_2d(inward_normal(region, t)).ravel()), a, b))
            else:
                k = idx - vectors.shape[0]
                pairs = [(q, p) for q in range(vectors.shape[0])
                         for p in range(q + 1, vectors.shape[0])]
                q, p = pairs[k]
                dv = vectors[q] - vectors[p]
                events.append(refine(
                    lambda t: float(dv @ np.atleast_2d(inward_normal(region, t)).ravel()), a, b))
    if not events:
        events = [0.0]
    return np.sort(np.mod(np.asarray(events), 2.0 * math.pi))


def _boundary_panels(events: np.ndarray, total_nodes: int = _BOUNDARY_NODES):
    """GL panels covering [0, 2pi) split at the event angles."""
    ref = gauss_legendre(16, 0.0, 1.0)
    panels = []
    for i in range(events.size):
        a = events[i]
        b = events[(i + 1) % events.size]
        if b <= a:
            b += 2.0 * math.pi
        n_panels = max(1, int(round((b - a) / (2.0 * math.pi) * total_nodes / 16)))
        edges = np.linspace(a, b, n_panels + 1)
        for j in range(n_panels):
            t = edges[j] + (edges[j + 1] - edges[j]) * ref.nodes
            w = (edges[j + 1] - edges[j]) * ref.weights
            panels.append((t, w))
    return panels


def _require_smooth(region: Region, what: str):
    if isinstance(region, Polygon):
        raise CapabilityError(f"{what} requires a smooth region variant")


def roccaforte_first_order(region: Region, vectors) -> float:
    """Boundary integral of max{0, <v_1|n>, ..., <v_r|n>} over the arc length.

    Exact edge sums for polygons (the integrand is constant per edge);
    kink-split panel quadrature for smooth variants.
    """
    v = np.atleast_2d(np.asarray(vectors, dtype=float))
    if np.max(np.abs(v)) == 0.0:
        return 0.0
    if isinstance(region, Polygon):
        verts = region.vertex_array()
        total = 0.0
        n_vert = verts.shape[0]
        for i in range(n_vert):
            edge = verts[(i + 1) % n_vert] - verts[i]
            length = float(np.linalg.norm(edge))
            inward = np.array([-edge[1], edge[0]]) / length
            total += length * max(0.0, float(np.max(v @ inward)))
        return total
    events = _switch_angles(region, v)
    total = 0.0
    for t, w in _boundary_panels(events):
        nrm = inward_normal(region, t)
        g = v @ nrm.T
        integrand = np.maximum(0.0, np.max(g, axis=0))
        total += float(np.dot(w, integrand * arc_element(region, t)))
    return total


def roccaforte_second_order(region: Region, vectors) -> float:
    """Curvature correction: 1/2 sum_q over the arcs where v_q leads.

    Leader chosen by strict argmax, ties broken toward the lowest index (a
    measure-zero set); interior near-degenerate margins below 1e-9 abort.
    """
    _require_smooth(region, "the second-order boundary integral")
    v = np.atleast_2d(np.asarray(vectors, dtype=float))
    if np.max(np.abs(v)) == 0.0:
        return 0.0
    events = _switch_angles(region, v)
    total = 0.0
    norms2 = np.sum(v * v, axis=1)
    for t, w in _boundary_panels(events):
        nrm = inward_normal(region, t)
        g = v @ nrm.T  # (r, nodes)
        lead = np.argmax(g, axis=0)
        top = g[lead, np.arange(t.size)]
        if v.shape[0] > 1:
            sorted_g = np.sort(g, axis=0)
            margin = sorted_g[-1] - sorted_g[-2]
            interior = top > 1e-9
            if np.any(interior & (margin < 1e-9)):
                raise NumericError(
                    "near-degenerate argmax margin (<1e-9) inside an arc; "
                    "vector family is in the excluded measure-zero set")
        active = top > 0.0
        integrand = np.where(active,
                             curvature(region, t) * (norms2[lead] - 2.0 * top ** 2),
                             0.0)
        total += 0.5 * float(np.dot(w, integrand * arc_element(region, t)))
    return total
