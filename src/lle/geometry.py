"""Bounded regions, boundary data, and small-translate intersection areas.

Regions come in three variants: disks, smooth star-shaped regions given by a
truncated Fourier radius profile, and simple polygons. Smooth variants carry
analytic normals and curvature so the asymptotic fits downstream are not
contaminated by geometric discretization error. A star keeps one harmonic
table; a polygon's perimeter, convexity, first-order boundary integral and
translate intersection (its edges pushed inward) read one edge table.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, CapabilityError, DomainError, NumericError
from .specfun import gauss_legendre_panels


@dataclass(frozen=True)
class Disk:
    """Disk of the given radius centred at the origin."""

    radius: float

    def __post_init__(self):
        r = self.radius
        if not (r > 0.0 and math.isfinite(math.pi * r * r)):
            raise DomainError(f"disk radius must be positive with a finite area: {r}")


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
        if not np.all(np.isfinite(self.coeffs)):
            raise DomainError(f"star coefficients must be finite, got {self.coeffs}")
        th = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
        r = self.radius(th)
        if np.min(r) <= 0.0:
            raise DomainError("star radius profile must be positive everywhere")
        w = 2.0 * math.pi / th.size  # the finer of the two sums `area` takes
        _check_area("star", lambda: 0.5 * float(np.sum(r * r)) * w)

    @functools.cached_property
    def _harmonics(self):
        """(a0, a, b, j), read-only; b_j = 0 past the stored ones."""
        rest = self.coeffs[1:]
        a = np.array(rest[0::2], dtype=float)
        b = np.zeros_like(a)
        b[:len(rest) // 2] = rest[1::2]
        j = np.arange(1, a.size + 1, dtype=float)
        for arr in (a, b, j):
            arr.flags.writeable = False
        return float(self.coeffs[0]), a, b, j

    def radius(self, theta, order: int | tuple[int, ...] = 0):
        """Radius profile or its theta-derivative of given order.

        A tuple of orders returns one profile per order, all read from one
        cos/sin table; each equals the single-order call bitwise.
        """
        theta = np.asarray(theta, dtype=float)
        arg = np.multiply.outer(theta, self._harmonics[3])
        table = np.cos(arg), np.sin(arg)
        if isinstance(order, tuple):
            return tuple(self._derivative(table, k) for k in order)
        return self._derivative(table, order)

    def _derivative(self, table, order: int):
        a0, a, b, j = self._harmonics
        cos_part, sin_part = table
        for _ in range(order % 4):  # d/dtheta maps (cos, sin) to j (-sin, cos)
            cos_part, sin_part = -sin_part, cos_part
        jp = j ** order
        out = cos_part @ (jp * a) + sin_part @ (jp * b)
        if order == 0:
            out = out + a0
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class Polygon:
    vertices: tuple[tuple[float, float], ...]

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if not np.all(np.isfinite(v)):
            raise DomainError("polygon vertices must be finite")
        if v.shape[0] < 3:
            raise DomainError("polygon needs at least 3 vertices")
        if _check_area("polygon", lambda: _polygon_signed_area(v)) <= 0.0:
            raise DomainError("polygon vertices must be counterclockwise")
        if _polygon_self_intersects(v):
            raise DomainError("polygon must be simple (non-self-intersecting)")

    def vertex_array(self) -> np.ndarray:
        return np.asarray(self.vertices, dtype=float)


Region = Disk | SmoothStar | Polygon


def _check_area(kind: str, area_of) -> float:
    """`area_of()`, a region's area; DomainError unless it is a finite double."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = area_of()
    if not math.isfinite(value):
        raise DomainError(f"{kind} area overflows a double")
    return value


def _polygon_signed_area(v: np.ndarray) -> float:
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _edges(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge vectors e_i = v_{i+1} - v_i, lengths and unit inward normals of a
    counterclockwise polygon; hypot keeps the length of a subnormal edge."""
    e = np.roll(v, -1, axis=0) - v
    length = np.hypot(e[:, 0], e[:, 1])
    return e, length, np.stack([-e[:, 1], e[:, 0]], axis=1) / length[:, None]


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
        r, rp = star.radius(th, (0, 1))
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
    return float(np.sum(_edges(region.vertex_array())[1]))


def boundary_radius(region: Region, theta, order: int | tuple[int, ...] = 0):
    """Boundary profile r(theta) of a smooth region, or its theta-derivative
    of the given order, or a tuple of them for a tuple of orders (see
    SmoothStar.radius); a disk is the star of constant profile."""
    if isinstance(region, SmoothStar):
        return region.radius(theta, order)
    if isinstance(region, Disk):
        if isinstance(order, tuple):
            return tuple(boundary_radius(region, theta, k) for k in order)
        out = np.full(np.shape(theta), region.radius if order == 0 else 0.0)
        return out if out.ndim else float(out)
    raise CapabilityError("a polygon has no smooth boundary profile r(theta)")


def inward_normal(region: Region, theta):
    """Unit inward normal at the boundary point with polar angle theta."""
    theta = np.asarray(theta, dtype=float)
    r, rp = boundary_radius(region, theta, (0, 1))
    cos, sin = np.cos(theta), np.sin(theta)
    tx = rp * cos - r * sin
    ty = rp * sin + r * cos
    norm = np.sqrt(tx * tx + ty * ty)
    return np.stack([-ty / norm, tx / norm], axis=-1)


def curvature(region: Region, theta):
    """Signed curvature (positive where the region is locally convex).

    r, r' and r'' are divided by m = max(|r|, |r'|) first, and the curvature
    of that scaled profile by m after, so no power of the size overflows or
    underflows; a disk gives 1/R exactly.
    """
    r, rp, rpp = boundary_radius(region, theta, (0, 1, 2))
    m = np.maximum(np.abs(r), np.abs(rp))
    r, rp, rpp = r / m, rp / m, rpp / m
    return (r * r + 2.0 * rp * rp - r * rpp) / (r * r + rp * rp) ** 1.5 / m


def arc_element(region: Region, theta):
    """|dA/dtheta| along the boundary of a smooth region."""
    r, rp = boundary_radius(region, theta, (0, 1))
    return np.sqrt(r * r + rp * rp)


# ---------------------------------------------------------------------------
# JSON schema (fixed; also used by the CLI)
# ---------------------------------------------------------------------------

def region_from_json(obj: dict) -> Region:
    """{"type":"disk","R":..} | {"type":"star","coeffs":[..]} | {"type":"polygon","vertices":[[x,y],..]}"""
    if not isinstance(obj, dict) or "type" not in obj:
        raise DomainError("region JSON must be an object with a 'type' key")
    kind = obj["type"]
    keys = set(obj) - {"type"}
    field = {"disk": "R", "star": "coeffs", "polygon": "vertices"}
    if not isinstance(kind, str) or kind not in field:
        raise DomainError(f"unknown region type {kind!r}")
    if keys - {field[kind]}:
        raise DomainError(f"unknown {kind} keys {sorted(keys - {field[kind]})}")
    try:
        if kind == "disk":
            return Disk(radius=float(obj["R"]))
        if kind == "star":
            return SmoothStar(coeffs=tuple(float(c) for c in obj["coeffs"]))
        return Polygon(vertices=tuple((float(x), float(y)) for x, y in obj["vertices"]))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"malformed {kind} region {obj!r}: {exc!r}") from exc


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
        _translate_vectors(self.vectors)
        if not 0.0 <= self.eps < math.inf:
            raise DomainError(f"eps must be finite and >= 0, got {self.eps}")

    def shifts(self) -> np.ndarray:
        return self.eps * _translate_vectors(self.vectors)


def contains(region: Region, pts: np.ndarray) -> np.ndarray:
    """Vectorized indicator of the closed region."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if not isinstance(region, Polygon):
        th = np.arctan2(pts[:, 1], pts[:, 0])
        return np.linalg.norm(pts, axis=1) <= boundary_radius(region, th)
    v = region.vertex_array()
    x, y = pts[:, 0], pts[:, 1]
    inside = np.zeros(pts.shape[0], dtype=bool)
    for (x1, y1), (x2, y2) in zip(v, np.roll(v, -1, axis=0)):
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


def _clip_half_plane(p: np.ndarray, normal: np.ndarray, offset: float) -> np.ndarray:
    """Sutherland-Hodgman step: the part of the convex polygon p where
    <normal|x> >= offset."""
    d = p @ normal - offset
    out = []
    for i in range(p.shape[0]):
        if d[i - 1] < 0.0 < d[i] or d[i] < 0.0 < d[i - 1]:
            out.append(p[i - 1] + d[i - 1] / (d[i - 1] - d[i]) * (p[i] - p[i - 1]))
        if d[i] >= 0.0:
            out.append(p[i])
    return np.reshape(out, (-1, 2))


_SPARE_STEPS = 10  # evaluations a root search may spend beyond bisection's


def _bracketed_root(f, a, b, fa, fb) -> np.ndarray:
    """Vectorised bracketed root finder, one bracket [a, b] per element.

    Returns where f changes from <= 0 (at a, f(a) = fa) to > 0 (at b,
    f(b) = fb): an iterate where f is exactly 0, or else the midpoint of a
    final bracket at most 2 tol wide, tol = 4 eps max(|a|, |b|), so within
    tol of the change. A bracket with fb <= 0 (a tie at its right end)
    returns b, one with fa > 0 returns a. f maps one point per element to
    one value per element; elements already found are evaluated at their
    root.

    Chandrupatla's method (Adv. Eng. Softw. 28, 1997): a secant step, then
    inverse quadratic interpolation through the last three points where it
    is monotone on the bracket, and halving where it is not, unless the two
    points on one side share their value (a plateau of rounding), where the
    secant step is taken. A step moves at least tol, so the step after the
    root is reached straddles it. Each iterate is then kept within the ITP
    bound (Oliveira and Takahashi, ACM TOMS 47, 2020) around the bracket's
    midpoint, so a search takes at most _SPARE_STEPS evaluations more than
    halving would, 60 in all. Kink brackets mostly take 3-6 evaluations;
    where the rounding of f spans many tol, the last steps only halve.
    """
    a, b, fa, fb = (np.array(x, dtype=float) for x in (a, b, fa, fb))
    tol = 4.0 * np.finfo(float).eps * np.maximum(np.abs(a), np.abs(b))
    root = np.where(fb <= 0.0, b, np.where(fa > 0.0, a, 0.5 * (a + b)))
    live = np.flatnonzero((fa <= 0.0) & (fb > 0.0) & (b - a > 2.0 * tol))
    # x1 is the newest point and x2 the other end of the bracket; x3, on the
    # side of x1, is the point that x1 displaced
    x1, f1, x2, f2, tol = a[live], fa[live], b[live], fb[live], tol[live]
    # reach bounds the bracket's width and halves with every evaluation; it
    # starts at 2 tol 2^n with n = _SPARE_STEPS + the halvings bisection needs
    reach = tol * 2.0 ** (np.ceil(np.log2((x2 - x1) / (2.0 * tol))) + _SPARE_STEPS + 1)
    t = f1 / (f1 - f2)
    while live.size:
        width = np.abs(x2 - x1)
        tl = tol / width
        mid, slack = 0.5 * (x1 + x2), np.maximum(0.5 * (reach - width), 0.0)
        xt = np.clip(x1 + np.clip(t, tl, 1.0 - tl) * (x2 - x1), mid - slack, mid + slack)
        x = root.copy()
        x[live] = xt
        ft = f(x)[live]
        same = (ft > 0.0) == (f1 > 0.0)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1, reach = xt, ft, 0.5 * reach
        done = (ft == 0.0) | (np.abs(x2 - x1) <= 2.0 * tol)
        root[live[done]] = np.where(ft == 0.0, xt, 0.5 * (x1 + x2))[done]
        live, x1, f1, x2, f2, x3, f3, tol, reach = (
            v[~done] for v in (live, x1, f1, x2, f2, x3, f3, tol, reach))
        xi = (x1 - x2) / (x3 - x2)
        phi = (f1 - f2) / (f3 - f2)
        i = (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi)
        p1, p2, p3 = f1[i], f2[i], f3[i]
        t = np.where(f1 == f3, f1 / (f1 - f2), 0.5)
        t[i] = (p1 / (p2 - p1) * p3 / (p2 - p3)
                + (x3[i] - x1[i]) / (x2[i] - x1[i]) * p1 / (p3 - p1) * p2 / (p3 - p2))
    return root


_NEWTON_STEPS = 30
_RAY_RESIDUAL = 8.0 * np.finfo(float).eps  # times the bracket bound


def _star_translate_radius(region, shift: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Radial function of (region + shift) seen from the origin, per ray.

    The unshifted region returns its profile r(theta) as it is. Closed form
    for the disk. For a star, Newton's method on the polar angle phi of the
    boundary point solves u(theta) x (shift + r(phi) e(phi)) = 0 from
    phi = theta, each step reading r and r' from one table, and the radius
    is u.shift + r(phi) cos(phi - theta). A ray falls back to
    _bracketed_root between the origin and the bound
    a0 + sum_j hypot(a_j, b_j) + |shift| of the translate wherever Newton
    ends outside (0, bound] or its boundary point misses the ray by more than
    8 ulps of the bound. Valid while the origin lies inside the translate,
    which the caller guarantees.
    """
    if not np.any(shift):
        return boundary_radius(region, theta)
    ux, uy = np.cos(theta), np.sin(theta)
    if isinstance(region, Disk):
        proj = ux * shift[0] + uy * shift[1]
        disc = region.radius ** 2 - (shift[0] ** 2 + shift[1] ** 2 - proj ** 2)
        if np.any(disc <= 0.0):
            raise NumericError("translate lost sight of the origin")
        return proj + np.sqrt(disc)
    a0, a, b, _ = region._harmonics
    bound = a0 + float(np.sum(np.hypot(a, b))) + float(np.hypot(*shift))
    cross = ux * shift[1] - uy * shift[0]
    phi = np.array(theta, dtype=float)
    live = np.arange(phi.size)  # a ray stops once its step is below 1e-10
    for _ in range(_NEWTON_STEPS):
        if live.size == 0:
            break
        p, d = phi[live], phi[live] - theta[live]
        r, rp = region.radius(p, order=(0, 1))
        step = (r * np.sin(d) + cross[live]) / (rp * np.sin(d) + r * np.cos(d))
        phi[live] = p - step
        live = live[np.abs(step) > 1e-10]
    r = region.radius(phi)
    rho = ux * shift[0] + uy * shift[1] + r * np.cos(phi - theta)
    miss = r * np.sin(phi - theta) + cross
    bad = ~((rho > 0.0) & (rho <= bound) & (np.abs(miss) <= _RAY_RESIDUAL * bound))
    if np.any(bad):
        bx, by = ux[bad], uy[bad]

        def outside(t):
            px = t * bx - shift[0]
            py = t * by - shift[1]
            return px * px + py * py - region.radius(np.arctan2(py, px)) ** 2

        lo, hi = np.zeros(bx.size), np.full(bx.size, bound)
        rho[bad] = _bracketed_root(outside, lo, hi, outside(lo), outside(hi))
    return rho


_EVENT_NODES = 4096
_PANELS_PER_TURN = 128


def _leader_changes(rows) -> np.ndarray:
    """Sorted angles in [0, 2pi) where the argmax over the rows of rows(theta) changes.

    rows maps n angles to an (m, n) array. Changes are located on a uniform
    grid of _EVENT_NODES angles and refined by _bracketed_root on the
    difference of the two rows involved, seeded with its values on the grid.
    """
    h = 2.0 * math.pi / _EVENT_NODES
    th = h * np.arange(_EVENT_NODES)
    vals = rows(th)
    leader = np.argmax(vals, axis=0)
    cells = np.flatnonzero(leader != np.roll(leader, -1))
    if cells.size == 0:
        return np.zeros(1)
    ends = (cells + 1) % _EVENT_NODES
    old, new = leader[cells], leader[ends]
    pick = np.arange(cells.size)

    def gap(t):
        vals = rows(t)
        return vals[new, pick] - vals[old, pick]

    kinks = _bracketed_root(gap, th[cells], th[cells] + h,
                            vals[new, cells] - vals[old, cells],
                            vals[new, ends] - vals[old, ends])
    return np.sort(np.mod(kinks, 2.0 * math.pi))


def _panels(events: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of GL-16 panels over one turn, split at the events.

    The arc between consecutive events gets round(arc / 2pi * 128) panels,
    at least one.
    """
    ends = np.append(events[1:], events[0] + 2.0 * math.pi)
    counts = np.maximum(1, np.rint((ends - events) * _PANELS_PER_TURN / (2.0 * math.pi)))
    left = np.concatenate([np.linspace(a, b, int(n), endpoint=False)
                           for a, b, n in zip(events, ends, counts)])
    rule = gauss_legendre_panels(np.append(left, ends[-1]))
    return rule.nodes, rule.weights


def _smooth_intersection_area(region, family: TranslateFamily) -> float:
    shifts = np.vstack([np.zeros((1, 2)), family.shifts()])
    # origin must lie inside every translate for the radial representation
    if not bool(np.all(contains(region, -shifts).ravel())):
        raise CapabilityError(
            "translates too large for the radial method: the origin must lie "
            "inside every translate")

    def rows(t):  # -rho_q: the nearest translate leads
        return -np.stack([_star_translate_radius(region, s, t) for s in shifts])

    t, w = _panels(_leader_changes(rows))
    return 0.5 * float(np.dot(w, np.max(rows(t), axis=0) ** 2))


def intersect_translates_area(region: Region, family: TranslateFamily
                              ) -> tuple[float, float]:
    """Areas (|Lambda_eps|, |Lambda \\ Lambda_eps|) of the translate intersection.

    Exact for a disk with a single vector (the lens formula) and for a convex
    polygon: the intersection is the polygon with edge i pushed inward by
    push_i = max(0, max_q <s_q|n_i>), cut by the half-planes
    <n_i|x> >= <n_i|v_i> + push_i with push_i > 0; other polygons raise
    CapabilityError. Smooth regions integrate 1/2 rho_min^2 over the polar
    angle, rho_q being the radial function of the q-th translate (for stars,
    a Newton ray solve with _bracketed_root as the per-ray fallback): the
    kinks where the nearest translate changes are found on a 4096-node grid
    and refined by _bracketed_root, and GL-16 panels, 128 per turn, are
    split there.
    This matches a 2^18-node trapezoid rule to ~1e-12 on the stars of the
    tests. Translates whose union of shifts leaves the origin outside one of
    them raise CapabilityError.
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
        e, _, normal = _edges(v)
        if np.any(e[:, 0] * np.roll(e[:, 1], -1) - e[:, 1] * np.roll(e[:, 0], -1)
                  < -1e-12):
            raise CapabilityError("iterated half-plane clipping needs a convex polygon")
        push = np.maximum(0.0, np.max(normal @ shifts.T, axis=1))
        offset = np.sum(normal * v, axis=1) + push
        cur = v
        for i in np.flatnonzero(push > 0.0):
            cur = _clip_half_plane(cur, normal[i], offset[i])
            if cur.shape[0] < 3:
                return 0.0, base
        inter = _polygon_signed_area(cur)
        return inter, base - inter
    inter = _smooth_intersection_area(region, family)
    return inter, base - inter


# ---------------------------------------------------------------------------
# Roccaforte boundary integrals
# ---------------------------------------------------------------------------

def _translate_vectors(vectors) -> np.ndarray:
    try:
        v = np.atleast_2d(np.asarray(vectors, dtype=float))
    except (TypeError, ValueError):  # ragged or non-numeric entries
        v = np.empty((0, 2))
    if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] != 2 or not np.all(np.isfinite(v)):
        raise DomainError("vectors must be a non-empty list of finite (x, y) pairs")
    return v


@functools.lru_cache(maxsize=8)
def _boundary_rule(region: Region, vectors: tuple[tuple[float, float], ...]):
    """Panel nodes t and weights w split at the kinks of max{0, <v_q|n>}.

    Also returns g = <v_q|n(t)>, shape (r, nodes). The arrays are read-only:
    both boundary integrals of one (region, vectors) share them.
    """
    v = np.array(vectors)

    def rows(t):  # [0; <v_q|n>]: the leader changes are the kinks
        g = v @ inward_normal(region, t).T
        return np.vstack([np.zeros((1, g.shape[1])), g])

    t, w = _panels(_leader_changes(rows))
    out = t, w, v @ inward_normal(region, t).T
    for arr in out:
        arr.flags.writeable = False
    return out


def _shared_boundary_rule(region: Region, v: np.ndarray):
    return _boundary_rule(region, tuple(map(tuple, v.tolist())))


def roccaforte_first_order(region: Region, vectors) -> float:
    """Boundary integral of max{0, <v_1|n>, ..., <v_r|n>} over the arc length.

    Exact edge sums for polygons (the integrand is constant per edge);
    kink-split panel quadrature for smooth variants.
    """
    v = _translate_vectors(vectors)
    if np.max(np.abs(v)) == 0.0:
        return 0.0
    if isinstance(region, Polygon):
        _, length, normal = _edges(region.vertex_array())
        return float(np.sum(length * np.maximum(0.0, np.max(normal @ v.T, axis=1))))
    t, w, g = _shared_boundary_rule(region, v)
    integrand = np.maximum(0.0, np.max(g, axis=0))
    return float(np.dot(w, integrand * arc_element(region, t)))


def roccaforte_second_order(region: Region, vectors) -> float:
    """Curvature correction: 1/2 sum_q over the arcs where v_q leads.

    Leader chosen by strict argmax, ties broken toward the lowest index (a
    measure-zero set); interior near-degenerate margins below 1e-9 abort.
    """
    if isinstance(region, Polygon):
        raise CapabilityError(
            "the second-order boundary integral requires a smooth region variant")
    v = _translate_vectors(vectors)
    if np.max(np.abs(v)) == 0.0:
        return 0.0
    t, w, g = _shared_boundary_rule(region, v)
    lead = np.argmax(g, axis=0)
    top = g[lead, np.arange(t.size)]
    if v.shape[0] > 1:
        sorted_g = np.sort(g, axis=0)
        margin = sorted_g[-1] - sorted_g[-2]
        if np.any((top > 1e-9) & (margin < 1e-9)):
            raise NumericError(
                "near-degenerate argmax margin (<1e-9) inside an arc; "
                "vector family is in the excluded measure-zero set")
    integrand = np.where(top > 0.0,
                         curvature(region, t) * (np.sum(v * v, axis=1)[lead]
                                                 - 2.0 * top ** 2),
                         0.0)
    return 0.5 * float(np.dot(w, integrand * arc_element(region, t)))
