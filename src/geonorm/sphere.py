"""Great-circle primitives and spherical convex hulls.

Everything here works on unit vectors, plain (x, y, z) tuples; longitude
wraparound exists only at the GeoPoint boundary, and each GeoPoint caches
its own vector as _vec. Hulls are built by gnomonic projection onto the
tangent plane at the point cloud's normalized vector mean: the projection maps
great circles to straight lines, so a planar convex hull of the projected
points is exactly the spherical convex hull, provided every point lies in
the open hemisphere around the projection center.

Hull-edge samples are unit-vector tuples. Each polygon carries a bounding
cap of exact width: the cap over its vertices, widened only by CAP_SLACK.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import EmptyInput, HemisphereViolation, ValidationError

# Angular slack (radians) for containment boundary decisions. Well below
# city-to-city spacing (~1e-4 rad), so tolerances cannot flip any outcome
# at country-level granularity.
ANGLE_TOL = 1e-7

# Chord-distance slack for input dedup.
DEDUP_TOL = 1e-9

# Angular slack (radians) added to bounding caps. It absorbs the rounding of
# the dot products, acos and cos behind cap radii and cap tests (at most
# ~3e-8 rad) and the ANGLE_TOL edge band, with room to spare.
CAP_SLACK = 1e-6

# Default spacing of hull-edge samples, degrees of arc (~5.5 km).
DEFAULT_BOUNDARY_STEP_DEG = 0.05
# Smallest spacing accepted. A hull lies in an open hemisphere, so its
# perimeter is under 360 degrees and a build makes under 360,000 samples.
MIN_BOUNDARY_STEP_DEG = 0.001


def _normalize_lon(lon: float) -> float:
    """Map any longitude into (-180, +180]."""
    wrapped = ((lon - 180.0) % -360.0) + 180.0
    # -180.0 folds onto +180.0 so the interval stays half-open
    return 180.0 if wrapped == -180.0 else wrapped


@dataclass(frozen=True)
class GeoPoint:
    """A position on the sphere in degrees. lat in [-90, 90], lon in (-180, 180]."""

    lat: float
    lon: float

    def __post_init__(self):
        if not (-90.0 <= self.lat <= 90.0):
            raise ValidationError(f"latitude {self.lat} outside [-90, 90]")
        if not math.isfinite(self.lon):
            raise ValidationError(f"longitude {self.lon} is not finite")
        object.__setattr__(self, "lon", _normalize_lon(float(self.lon)))
        object.__setattr__(self, "lat", float(self.lat))

    @cached_property
    def _vec(self) -> tuple[float, float, float]:
        """Standard spherical embedding, computed once per point: (lat 0, lon 0) -> (1, 0, 0), north pole -> (0, 0, 1)."""
        lat = math.radians(self.lat)
        lon = math.radians(self.lon)
        cos_lat = math.cos(lat)
        return (cos_lat * math.cos(lon), cos_lat * math.sin(lon), math.sin(lat))


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _norm(a):
    return math.sqrt(_dot(a, a))


def _normalized(a):
    n = _norm(a)
    if n == 0.0:
        raise ValidationError("cannot normalize the zero vector")
    return (a[0] / n, a[1] / n, a[2] / n)


def _mean(vecs):
    n = len(vecs)
    return (
        sum(v[0] for v in vecs) / n,
        sum(v[1] for v in vecs) / n,
        sum(v[2] for v in vecs) / n,
    )


def _angle(a, b):
    # atan2 form stays accurate for both tiny and near-pi separations
    return math.atan2(_norm(_cross(a, b)), _dot(a, b))


def geo_to_unit(p: GeoPoint) -> tuple[float, float, float]:
    """The unit vector of p (see GeoPoint._vec)."""
    return p._vec


def unit_to_geo(v: tuple[float, float, float]) -> GeoPoint:
    x, y, z = v
    lat = math.degrees(math.asin(max(-1.0, min(1.0, z))))
    lon = math.degrees(math.atan2(y, x)) if (x != 0.0 or y != 0.0) else 0.0
    return GeoPoint(lat, lon)


def _slerp(a, b, t, ang=None):
    ang = _angle(a, b) if ang is None else ang
    if ang < 1e-15:
        return a
    s = math.sin(ang)
    ca = math.sin((1.0 - t) * ang) / s
    cb = math.sin(t * ang) / s
    return (ca * a[0] + cb * b[0], ca * a[1] + cb * b[1], ca * a[2] + cb * b[2])


def _tangent_basis(center):
    """Orthonormal (e1, e2) spanning the plane tangent at center, with e1 x e2 = center.

    That orientation makes counterclockwise in the projected plane equal
    counterclockwise on the sphere as seen from outside.
    """
    ax = min(range(3), key=lambda i: abs(center[i]))
    axis = tuple(1.0 if i == ax else 0.0 for i in range(3))
    e1 = _normalized(_cross(center, axis))
    e2 = _cross(center, e1)
    return e1, e2


def _gnomonic(center, e1, e2, v):
    d = _dot(center, v)
    return (_dot(e1, v) / d, _dot(e2, v) / d)


def _planar_hull(points_2d):
    """Monotone chain; returns indices of hull vertices in counterclockwise order.

    Strictly convex: collinear middle points are dropped.
    """
    order = sorted(range(len(points_2d)), key=lambda i: points_2d[i])

    def cross(o, a, b):
        (ox, oy), (ax, ay), (bx, by) = points_2d[o], points_2d[a], points_2d[b]
        return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)

    lower: list[int] = []
    for i in order:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], i) <= 0.0:
            lower.pop()
        lower.append(i)
    upper: list[int] = []
    for i in reversed(order):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], i) <= 0.0:
            upper.pop()
        upper.append(i)
    return lower[:-1] + upper[:-1]


@dataclass(frozen=True)
class SphericalHull:
    """Convex region on the sphere.

    vertices form a ring, counterclockwise as seen from outside the sphere;
    degenerate point sets collapse to a single-vertex "point" hull or a
    two-vertex "arc" hull whose containment accepts only points on the arc.
    """

    vertices: tuple[tuple[float, float, float], ...]
    degenerate_kind: str  # "polygon" | "arc" | "point"

    @cached_property
    def _edge_normals(self):
        """Normalized a x b per directed edge; interior satisfies dot(n, p) >= 0."""
        vts = self.vertices
        n = len(vts)
        return tuple(_normalized(_cross(vts[i], vts[(i + 1) % n])) for i in range(n))


def _dedup(vectors):
    kept: list[tuple[float, float, float]] = []
    for v in vectors:
        for k in kept:
            dx, dy, dz = v[0] - k[0], v[1] - k[1], v[2] - k[2]
            if dx * dx + dy * dy + dz * dz <= DEDUP_TOL * DEDUP_TOL:
                break
        else:
            kept.append(v)
    return kept


def _widest_pair(vectors):
    best = (vectors[0], vectors[0])
    best_dot = 2.0
    for i, a in enumerate(vectors):
        for b in vectors[i + 1 :]:
            d = _dot(a, b)
            if d < best_dot:
                best_dot = d
                best = (a, b)
    return best, best_dot


def spherical_convex_hull(points: Sequence[GeoPoint]) -> SphericalHull:
    """Minimal convex spherical polygon containing all points.

    Raises EmptyInput when points is empty and HemisphereViolation when the
    deduplicated set does not fit in the open hemisphere around its
    normalized vector mean (witnessed by the widest-separated pair).
    """
    if not points:
        raise EmptyInput("cannot build a hull from zero points")
    vecs = _dedup([p._vec for p in points])

    if len(vecs) == 1:
        return SphericalHull(vertices=(vecs[0],), degenerate_kind="point")

    mean = _mean(vecs)
    if _norm(mean) < 1e-9 or min(_dot(mean, v) for v in vecs) <= 1e-9 * _norm(mean):
        (a, b), _ = _widest_pair(vecs)
        raise HemisphereViolation((unit_to_geo(a), unit_to_geo(b)), math.degrees(_angle(a, b)))

    if len(vecs) == 2:
        return SphericalHull(vertices=tuple(vecs), degenerate_kind="arc")

    center = _normalized(mean)
    e1, e2 = _tangent_basis(center)
    plane = [_gnomonic(center, e1, e2, v) for v in vecs]
    idx = _planar_hull(plane)
    ring = tuple(vecs[i] for i in idx)
    return SphericalHull(vertices=ring, degenerate_kind="arc" if len(idx) == 2 else "polygon")


def _near_arc(p, a, b, n) -> bool:
    """True when p lies within ANGLE_TOL of the minor great-circle arc from a to b, whose unit normal is n.

    a and b must be distinct and not antipodal, so that n is defined.
    """
    if abs(_dot(n, p)) > ANGLE_TOL:
        return False
    # inside the lune between the half-planes at a and b
    if _dot(_cross(n, a), p) >= -ANGLE_TOL and _dot(_cross(b, n), p) >= -ANGLE_TOL:
        return True
    return _angle(p, a) <= ANGLE_TOL or _angle(p, b) <= ANGLE_TOL


def _hull_contains_vec(h: SphericalHull, p) -> bool:
    vts = h.vertices
    if h.degenerate_kind == "point":
        return _angle(p, vts[0]) <= ANGLE_TOL
    if h.degenerate_kind == "arc":
        # _dedup and the hemisphere check keep an arc's ends distinct and not antipodal
        return _near_arc(p, vts[0], vts[1], h._edge_normals[0])
    return all(_dot(n, p) >= -ANGLE_TOL for n in h._edge_normals)


def hull_contains(h: SphericalHull, p: GeoPoint) -> bool:
    """True iff p is inside or on the boundary of h (tolerance ANGLE_TOL radians)."""
    return _hull_contains_vec(h, p._vec)


def hull_boundary_samples(h: SphericalHull, step: float = DEFAULT_BOUNDARY_STEP_DEG) -> list[tuple[float, float, float]]:
    """Unit vectors along every hull edge at angular spacing <= step (degrees), vertices included."""
    if not step >= MIN_BOUNDARY_STEP_DEG:  # NaN too
        raise ValidationError(f"sampling step must be at least {MIN_BOUNDARY_STEP_DEG} degrees, got {step}")
    step_rad = math.radians(step)
    vts = h.vertices

    if h.degenerate_kind == "point":
        return [vts[0]]
    if h.degenerate_kind == "arc":
        a, b = vts
        ang = _angle(a, b)
        segs = max(1, math.ceil(ang / step_rad - 1e-9))
        return [_normalized(_slerp(a, b, i / segs, ang)) for i in range(segs + 1)]

    out: list[tuple[float, float, float]] = []
    n = len(vts)
    for i in range(n):
        a, b = vts[i], vts[(i + 1) % n]
        ang = _angle(a, b)
        segs = max(1, math.ceil(ang / step_rad - 1e-9))
        # endpoint omitted: it opens the next edge
        out.extend(_normalized(_slerp(a, b, k / segs, ang)) for k in range(segs))
    return out


@dataclass(frozen=True)
class GeoPolygon:
    """A polygon on the sphere: one outer ring plus optional hole rings.

    Rings are closed implicitly; the first point is not repeated at the end.
    """

    rings: tuple[tuple[GeoPoint, ...], ...]

    def __post_init__(self):
        if not self.rings:
            raise ValidationError("polygon needs at least one ring")
        for ring in self.rings:
            if len({(p.lat, p.lon) for p in ring}) < 3:
                raise ValidationError("each ring needs at least 3 distinct points")

    @cached_property
    def _ring_vecs(self):
        return tuple(tuple(p._vec for p in ring) for ring in self.rings)

    @cached_property
    def _frame(self):
        """Projection center/basis, projected rings, edge normals, and a bounding cap."""
        outer = self._ring_vecs[0]
        center = _normalized(_mean(outer))
        for ring in self._ring_vecs:
            for v in ring:
                if _dot(center, v) <= 1e-9:
                    raise ValidationError("polygon ring spans a hemisphere or more")
        e1, e2 = _tangent_basis(center)
        rings_2d = tuple(
            tuple(_gnomonic(center, e1, e2, v) for v in ring) for ring in self._ring_vecs
        )
        edges = []
        for ring in self._ring_vecs:
            n = len(ring)
            for i in range(n):
                a, b = ring[i], ring[(i + 1) % n]
                c = _cross(a, b)
                nn = _norm(c)
                if nn > 1e-15:
                    edges.append((a, b, (c[0] / nn, c[1] / nn, c[2] / nn)))
        # Bounding cap over the ring vertices. Every vertex is less than pi/2
        # from the center (checked above), so the cap is convex and holds
        # every minor-arc edge and the even-odd interior; the ANGLE_TOL edge
        # band reaches at most ~2 * ANGLE_TOL past a vertex.
        cap_ang = max(_angle(center, v) for ring in self._ring_vecs for v in ring)
        cap_cos = math.cos(cap_ang + CAP_SLACK)
        return center, e1, e2, rings_2d, tuple(edges), cap_cos

    @cached_property
    def _cap(self):
        """(center, angular radius) of the cap outside which _polygon_contains_vec rejects every point."""
        center, *_, cap_cos = self._frame
        return center, math.acos(cap_cos)


def _even_odd(rings_2d, x, y):
    inside = False
    for ring in rings_2d:
        n = len(ring)
        x1, y1 = ring[-1]
        for i in range(n):
            x2, y2 = ring[i]
            if (y1 > y) != (y2 > y):
                xi = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
                if x < xi:
                    inside = not inside
            x1, y1 = x2, y2
    return inside


def _polygon_contains_vec(poly: GeoPolygon, p) -> bool:
    center, e1, e2, rings_2d, edges, cap_cos = poly._frame
    d = _dot(center, p)
    # cheap rejection outside the bounding cap
    if d < cap_cos:
        return False
    if d <= 1e-9:
        return False
    x, y = _dot(e1, p) / d, _dot(e2, p) / d
    if _even_odd(rings_2d, x, y):
        return True
    # points on any border edge (outer or hole) count as inside
    return any(_near_arc(p, a, b, n) for a, b, n in edges)


def polygon_contains(poly: GeoPolygon, p: GeoPoint) -> bool:
    """Spherical point-in-polygon with holes; border points count as inside."""
    return _polygon_contains_vec(poly, p._vec)
