"""Great-circle primitives, spherical convex hulls and bounding caps.

Everything here takes and returns unit vectors, plain (x, y, z) tuples.
Degrees stop at the loaders, whose GeoPoints compute their vec when built,
so longitude wraparound ends there, and at unit_to_geo, which serves
messages and exported rings. Hulls are built by gnomonic projection onto
the tangent plane at the point cloud's normalized vector mean: the
projection maps great circles to straight lines, so a planar convex hull of
the projected points is exactly the spherical convex hull, provided every
point lies in the open hemisphere around the projection center.

One rule (_center) decides that proviso for hulls and border polygons
alike: the smallest dot product of the vectors with that center must
exceed 1e-9. Every bounding cap is a Cap built by _cap, and _apart tells
when two caps share no point. A polygon's cap is of exact width, the cap
over its vertices widened only by CAP_SLACK; a hull's (_hull_cap) also
covers the ANGLE_TOL band of the containment tests. _cap_in_hull decides
whole caps by a hull's edge planes.

Two minor arcs meet when they cross, by the sign test of S2's
S2EdgeCrosser, or when an end of one lies within ANGLE_TOL of the other
(_arc_meets); a border polygon meets a hull when one of its edges meets a
hull edge or one boundary lies inside the other (_meets).

A SphericalHull builds its edges when it is constructed, and a GeoPolygon
its vertex vectors and its cap, so a polygon that spans a hemisphere cannot
exist. The polygon's edges (_edges) and the projected rings that point
containment needs (_frame) are built on first use: most polygons of a
world lie under caps apart from every hull's and never need them.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

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


def _normalize_lon(lon: float) -> float:
    """Map any longitude into (-180, +180]."""
    wrapped = ((lon - 180.0) % -360.0) + 180.0
    # -180.0 folds onto +180.0 so the interval stays half-open
    return 180.0 if wrapped == -180.0 else wrapped


@dataclass(frozen=True)
class GeoPoint:
    """A position on the sphere in degrees. lat in [-90, 90], lon in (-180, 180].

    vec is its unit vector in the standard embedding, (lat 0, lon 0) ->
    (1, 0, 0) and north pole -> (0, 0, 1). It is set at construction and is
    left out of equality, hashing and repr, which stay those of (lat, lon).
    """

    lat: float
    lon: float
    vec: tuple[float, float, float] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not (-90.0 <= self.lat <= 90.0):
            raise ValidationError(f"latitude {self.lat} outside [-90, 90]")
        if not math.isfinite(self.lon):
            raise ValidationError(f"longitude {self.lon} is not finite")
        lat, lon = float(self.lat), _normalize_lon(float(self.lon))
        object.__setattr__(self, "lon", lon)
        object.__setattr__(self, "lat", lat)
        lat, lon = math.radians(lat), math.radians(lon)
        cos_lat = math.cos(lat)
        object.__setattr__(self, "vec", (cos_lat * math.cos(lon), cos_lat * math.sin(lon), math.sin(lat)))


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


def _angle(a, b):
    # atan2 form stays accurate for both tiny and near-pi separations
    return math.atan2(_norm(_cross(a, b)), _dot(a, b))


@dataclass(frozen=True, slots=True)
class Cap:
    """The unit vectors within angle r of center, r given by its cosine and sine.

    A cos of -inf marks a cap of r >= pi/2, which never prunes; only such a
    cap may have no center. Slots, not a NamedTuple: the pruning loops read
    these fields on every test, and a slot read is cheaper than unpacking a
    tuple subclass.
    """

    center: tuple[float, float, float] | None
    cos: float
    sin: float


def _center(vecs, more=()):
    """(c, lo): c the normalized mean of vecs, lo the smallest dot product of c with vecs and more.

    (None, -1.0) when the mean is shorter than 1e-9. The vectors lie in the
    open hemisphere around c exactly when lo > 1e-9.
    """
    n = len(vecs)
    xs, ys, zs = zip(*vecs)
    mx, my, mz = sum(xs) / n, sum(ys) / n, sum(zs) / n
    norm = math.sqrt(mx * mx + my * my + mz * mz)
    if norm < 1e-9:
        return None, -1.0
    cx, cy, cz = mx / norm, my / norm, mz / norm
    return (cx, cy, cz), min(cx * v[0] + cy * v[1] + cz * v[2] for v in chain(vecs, more))


def _cap(center, lo, widen=0.0) -> Cap:
    """The Cap around center reaching acos(lo), lo a smallest dot from _center, then widen and CAP_SLACK further."""
    r = math.acos(max(-1.0, min(1.0, lo))) + widen + CAP_SLACK
    if r >= math.pi / 2:
        return Cap(center, -math.inf, 1.0)
    return Cap(center, math.cos(r), math.sin(r))


def _apart(c1, cos1, sin1, cap: Cap) -> bool:
    """True when cap and the cap (c1, r1), given the cosine and sine of r1, share no point.

    That is when the angle between their centers exceeds r1 + r2, tested as
    _dot(c1, c2) < cos(r1 + r2) while r1 + r2 < pi, which is when
    cos1 + cos2 > 0; so a cosine of -inf never prunes. The first cap comes
    unpacked, so that a loop testing one cap against many unpacks it once.
    """
    cos2 = cap.cos
    return cos1 + cos2 > 0.0 and _dot(c1, cap.center) < cos1 * cos2 - sin1 * cap.sin


def unit_to_geo(v: tuple[float, float, float]) -> GeoPoint:
    x, y, z = v
    lat = math.degrees(math.asin(max(-1.0, min(1.0, z))))
    lon = math.degrees(math.atan2(y, x)) if (x != 0.0 or y != 0.0) else 0.0
    return GeoPoint(lat, lon)


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
    _edges holds (a, b, n) per edge, n the unit normal of a x b, as
    GeoPolygon._edges does: none for a point, one for an arc, one per side
    of a polygon, whose interior has n.p >= 0.
    """

    vertices: tuple[tuple[float, float, float], ...]
    _edges: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        vts = self.vertices
        # an arc's one edge runs from its first vertex to its second, and does not close back
        ends = vts[1:] + vts[:1] if len(vts) > 2 else vts[1:]
        object.__setattr__(self, "_edges", tuple((a, b, _normalized(_cross(a, b))) for a, b in zip(vts, ends)))

    @property
    def degenerate_kind(self) -> str:
        """The kind by vertex count: "point" for 1, "arc" for 2, "polygon" for 3 or more."""
        n = len(self.vertices)
        return "point" if n == 1 else "arc" if n == 2 else "polygon"


def _dedup(vectors):
    """vectors without any that lie within DEDUP_TOL (chord) of an earlier kept one, in input order.

    Kept vectors are filed by x in slabs 2 * DEDUP_TOL wide, so a vector
    needs comparing only with those in its own slab and the two beside it.
    """
    kept: list[tuple[float, float, float]] = []
    slabs: dict[int, list] = {}
    tol2 = DEDUP_TOL * DEDUP_TOL
    for v in vectors:
        x, y, z = v
        slab = math.floor(x / (2 * DEDUP_TOL))
        if not any(
            (x - k[0]) * (x - k[0]) + (y - k[1]) * (y - k[1]) + (z - k[2]) * (z - k[2]) <= tol2
            for s in (slab - 1, slab, slab + 1)
            for k in slabs.get(s, ())
        ):
            kept.append(v)
            slabs.setdefault(slab, []).append(v)
    return kept


def spherical_convex_hull(points: Sequence[tuple[float, float, float]]) -> SphericalHull:
    """Minimal convex spherical polygon containing all points, unit vectors.

    Raises EmptyInput when points is empty and HemisphereViolation, whose
    witness is in degrees, when the deduplicated set does not fit in the
    open hemisphere around its normalized vector mean (see _center).
    """
    if not points:
        raise EmptyInput("cannot build a hull from zero points")
    vecs = _dedup(points)

    if len(vecs) == 1:
        return SphericalHull(vertices=(vecs[0],))

    center, lo = _center(vecs)
    if lo <= 1e-9:
        # Witness: a, the vector least aligned with the center (any one when
        # there is none), and b, the vector farthest from a. a's dot products
        # sum to len(vecs) * |mean| * lo, or less than len(vecs) * 1e-9 with
        # no center, which for fewer than 1e9 vectors is below a.a = 1, so
        # some b has a.b < 0.
        a = vecs[0] if center is None else min(vecs, key=lambda v: _dot(center, v))
        b = min(vecs, key=lambda v: _dot(a, v))
        raise HemisphereViolation((unit_to_geo(a), unit_to_geo(b)), math.degrees(_angle(a, b)))

    if len(vecs) == 2:
        return SphericalHull(vertices=tuple(vecs))

    e1, e2 = _tangent_basis(center)
    plane = [_gnomonic(center, e1, e2, v) for v in vecs]
    idx = _planar_hull(plane)
    return SphericalHull(vertices=tuple(vecs[i] for i in idx))


def _near_arc(p, a, b, n, band=ANGLE_TOL) -> bool:
    """True when p lies within ANGLE_TOL of the minor great-circle arc from a to b, whose unit normal is n.

    a and b must be distinct and not antipodal, so that n is defined; band bounds |n.p|.
    """
    if abs(_dot(n, p)) > band:
        return False
    # inside the lune between the half-planes at a and b
    if _dot(_cross(n, a), p) >= -ANGLE_TOL and _dot(_cross(b, n), p) >= -ANGLE_TOL:
        return True
    return _angle(p, a) <= ANGLE_TOL or _angle(p, b) <= ANGLE_TOL


def _arc_meets(a, b, n, edges) -> bool:
    """True when the minor arc a-b crosses or comes within ANGLE_TOL of an arc (c, d, m) in edges; n, m are unit normals.

    They cross when the orientations ACB, CBD, BDA and DAC agree, as in S2's
    S2EdgeCrosser: c, d on opposite sides of the circle of a-b, a, b on
    opposite sides of that of c-d, and the circles meeting on the arcs, not at
    their antipodes. Otherwise they are closest at an end, so they touch when
    an end is _near_arc the other arc. Agreeing orientations all within
    2 * ANGLE_TOL of 0 may be noise; the end tests decide, in a band that
    wide, as crossing arcs have an end that near the other. An arc c-d with
    both ends more than 2 * ANGLE_TOL to one side of the circle of a-b is
    skipped: no point of it is that close; _near_arc reaches about 1.5 * ANGLE_TOL.
    """
    nx, ny, nz = n
    for c, d, m in edges:
        nc = nx * c[0] + ny * c[1] + nz * c[2]
        nd = nx * d[0] + ny * d[1] + nz * d[2]
        if (nc > 2 * ANGLE_TOL and nd > 2 * ANGLE_TOL) or (nc < -2 * ANGLE_TOL and nd < -2 * ANGLE_TOL):
            continue
        ma = m[0] * a[0] + m[1] * a[1] + m[2] * a[2]
        mb = m[0] * b[0] + m[1] * b[1] + m[2] * b[2]
        cross = (nc > 0.0 and nd < 0.0 and mb > 0.0 and ma < 0.0) or (nc < 0.0 and nd > 0.0 and mb < 0.0 and ma > 0.0)
        if cross and max(abs(nc), abs(nd), abs(ma), abs(mb)) > 2 * ANGLE_TOL:
            return True
        tol = 2 * ANGLE_TOL if cross else ANGLE_TOL
        if (
            (-tol <= nc <= tol and _near_arc(c, a, b, n, tol))
            or (-tol <= nd <= tol and _near_arc(d, a, b, n, tol))
            or (-tol <= ma <= tol and _near_arc(a, c, d, m, tol))
            or (-tol <= mb <= tol and _near_arc(b, c, d, m, tol))
        ):
            return True
    return False


def hull_contains(h: SphericalHull, p) -> bool:
    """True iff unit vector p is inside or on the boundary of h (tolerance ANGLE_TOL radians)."""
    vts = h.vertices
    if len(vts) == 1:  # a point hull
        return _angle(p, vts[0]) <= ANGLE_TOL
    if len(vts) == 2:
        # an arc hull; _dedup and the hemisphere check keep its ends distinct and not antipodal
        return _near_arc(p, *h._edges[0])
    px, py, pz = p
    return all(n[0] * px + n[1] * py + n[2] * pz >= -ANGLE_TOL for _, _, n in h._edges)


def _hull_cap(hull: SphericalHull) -> Cap:
    """A Cap such that hull_contains(hull, v) is False for every v outside it.

    It is the cap over the hull vertices, widened to cover the tolerant
    boundary band of hull_contains.

    For a polygon the band is {v : n.v >= -ANGLE_TOL for every edge normal n},
    which reaches ANGLE_TOL / sin(theta / 2) past a vertex with interior angle
    theta, and on a sliver hull also has a component near the antipode. The
    widening used bounds both: let m = min n.center over the edge normals.
    Follow the great circle from the center through v, at angle phi; it
    leaves the hull at some phi_e <= radius, across an edge whose normal n
    then gives n.v = (n.center) * sin(phi_e - phi) / sin(phi_e). If
    m > ANGLE_TOL, that is below -ANGLE_TOL for every phi from
    phi_e + asin(ANGLE_TOL * sin(radius) / m) up to pi, so the widening
    asin(ANGLE_TOL * sin(radius) / m) covers the band; otherwise (a sliver
    no wider than the band) nothing is pruned. An arc's band, ~ANGLE_TOL
    wide, and a point's are covered by CAP_SLACK alone. An arc shorter than
    about 2 * ANGLE_TOL also accepts points near its antipode, so arcs
    shorter than 2 * CAP_SLACK are not pruned.
    """
    center, lo = _center(hull.vertices)
    widen = 0.0
    if hull.degenerate_kind == "polygon":
        m = min(_dot(n, center) for _, _, n in hull._edges)
        # sin(radius), the radius being acos(lo)
        ratio = ANGLE_TOL * math.sqrt(max(0.0, 1.0 - lo * lo)) / m if m > ANGLE_TOL else 1.0
        widen = math.asin(ratio) if ratio < 1.0 else math.pi
    elif hull.degenerate_kind == "arc" and lo > math.cos(CAP_SLACK):
        widen = math.pi
    return _cap(center, lo, widen)


def _cap_in_hull(hull: SphericalHull, cap: Cap):
    """True when a polygon hull accepts every point of cap, False when it accepts none, else None.

    Over a cap of radius r whose center has n.c = sin b, n.p >= sin(b - r):
    every n.c >= sin r gives True; one n.c < -sin r - 3 * ANGLE_TOL, past
    hull_contains' band and _arc_meets' reach (2.3 * ANGLE_TOL), gives False.
    """
    if len(hull.vertices) < 3 or cap.cos == -math.inf:  # a point or arc hull
        return None
    (cx, cy, cz), sin_r = cap.center, cap.sin
    out, inside = -sin_r - 3 * ANGLE_TOL, True
    for _, _, n in hull._edges:  # not min(): the first edge that rules the cap out ends the loop
        d = n[0] * cx + n[1] * cy + n[2] * cz
        if d < out:
            return False
        inside = inside and d >= sin_r
    return inside or None


@dataclass(frozen=True)
class GeoPolygon:
    """A polygon on the sphere: one outer ring plus optional hole rings.

    Rings are closed implicitly; the first point is not repeated at the end.
    _ring_vecs holds the vertex vectors ring by ring. _cap is the Cap outside
    which polygon_contains rejects every point, and pruning uses it too. It
    is centred on the outer ring's mean direction and reaches the farthest
    vertex of any ring plus CAP_SLACK. The constructor raises unless every
    vertex is less than pi/2 from that center (the hemisphere rule), so the
    cap is convex and holds every minor-arc edge and the even-odd interior;
    the ANGLE_TOL edge band reaches at most ~2 * ANGLE_TOL past a vertex.
    """

    rings: tuple[tuple[GeoPoint, ...], ...]
    _ring_vecs: tuple[tuple[tuple[float, float, float], ...], ...] = field(init=False, compare=False, repr=False)
    _cap: Cap = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.rings:
            raise ValidationError("polygon needs at least one ring")
        for ring in self.rings:
            if len({(p.lat, p.lon) for p in ring}) < 3:
                raise ValidationError("each ring needs at least 3 distinct points")
        rings = tuple(tuple(p.vec for p in ring) for ring in self.rings)
        center, lo = _center(rings[0], [v for ring in rings[1:] for v in ring])
        if lo <= 1e-9:
            raise ValidationError("polygon ring spans a hemisphere or more")
        object.__setattr__(self, "_ring_vecs", rings)
        object.__setattr__(self, "_cap", _cap(center, lo))

    @cached_property
    def _edges(self):
        """(a, b, n) for every edge of every ring, n the unit normal of a x b; zero-length edges are left out."""
        edges = []
        for ring in self._ring_vecs:
            for a, b in zip(ring, ring[1:] + ring[:1]):
                c = _cross(a, b)
                nn = _norm(c)
                if nn > 1e-15:
                    edges.append((a, b, (c[0] / nn, c[1] / nn, c[2] / nn)))
        return tuple(edges)

    @cached_property
    def _frame(self):
        """Basis of the tangent plane at the _cap center, and the rings projected onto it."""
        center = self._cap.center
        e1, e2 = _tangent_basis(center)
        return e1, e2, tuple(tuple(_gnomonic(center, e1, e2, v) for v in ring) for ring in self._ring_vecs)


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


def polygon_contains(poly: GeoPolygon, p) -> bool:
    """Spherical point-in-polygon with holes for unit vector p; border points count as inside."""
    cap = poly._cap
    d = _dot(cap.center, p)
    # cheap rejection outside the bounding cap, before any projection is built
    if d < cap.cos or d <= 1e-9:
        return False
    e1, e2, rings_2d = poly._frame
    if _even_odd(rings_2d, _dot(e1, p) / d, _dot(e2, p) / d):
        return True
    # points on any border edge (outer or hole) count as inside; _near_arc's first test is inlined
    px, py, pz = p
    return any(abs(n[0] * px + n[1] * py + n[2] * pz) <= ANGLE_TOL and _near_arc(p, a, b, n) for a, b, n in poly._edges)


def _meets(poly: GeoPolygon, hull: SphericalHull) -> bool:
    """True when border polygon poly and hull share a point, within ANGLE_TOL.

    They do when an edge of poly meets a hull edge. Only a hull edge whose
    great circle passes within r of the center of poly's cap, of radius r,
    can meet one; that needs r < pi/2 to be read from sin r. Failing that,
    neither boundary crosses the other, so one outer-ring vertex in the hull
    or one hull vertex in poly decides.
    """
    cap = poly._cap
    center, cos_r, sin_r = cap.center, cap.cos, cap.sin
    for a, b, n in hull._edges:
        if cos_r > 0.0 and abs(_dot(n, center)) > sin_r:
            continue
        if _arc_meets(a, b, n, poly._edges):
            return True
    return hull_contains(hull, poly._ring_vecs[0][0]) or polygon_contains(poly, hull.vertices[0])
