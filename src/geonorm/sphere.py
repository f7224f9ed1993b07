"""Great-circle primitives, spherical convex hulls and bounding caps.

Everything here takes and returns unit vectors, plain (x, y, z) tuples;
degrees stop at GeoPoint and unit_to_geo. A hull is the planar convex hull
of the points' gnomonic projection at their normalized mean, exact when
every point lies in the open hemisphere around it, which one rule (_center)
decides for hulls and border polygons alike.

ANGLE_TOL is the one tolerance, a distance: two shapes meet when they share
a point or come within ANGLE_TOL of each other. The side of a great circle
a point lies on is decided exactly (_sign). So a point is in a hull when it
is inside or near its boundary (hull_contains); two minor arcs meet when
they cross, by the exact sign test of S2's S2EdgeCrosser, or an end of one
is near the other (_arc_meets); a border polygon meets a hull when their
edges meet or one lies inside the other (_meets). Point-in-polygon stays a
float even-odd test, which errs only within rounding of an edge, where the
edge's near test decides. Bounding caps (_cap) are widened by ANGLE_TOL.

A SphericalHull builds its edges when constructed, a GeoPolygon its vertex
vectors and cap, so no polygon spans a hemisphere; its edges and projected
rings are built on first use, as most polygons' caps are apart from every hull's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .errors import EmptyInput, HemisphereViolation, ValidationError

# The one tolerance, a distance in radians, well below city spacing (~1e-4
# rad). It decides real builds: perfbench/gen.py's seed-9 world has a border
# vertex 7.5e-8 rad outside an edge of the AA-DB population hull.
ANGLE_TOL = 1e-7

# Chord-distance slack for input dedup.
DEDUP_TOL = 1e-9

# Rounding slack (radians) of bounding caps, not a tolerance: it absorbs the
# rounding behind cap radii and cap tests (at most ~3e-8 rad) with room to spare.
CAP_SLACK = 1e-6

# Bound on the rounding of n.p, n = _normal(a, b), against det[a, b, p] / |a x b|, and of (a x b).p
# against det: 32 * 2**-53 (see _sign).
_SIGN_ERR = 2.0**-48


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
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _norm(a):
    return math.sqrt(_dot(a, a))


def _normalized(a):
    n = _norm(a)
    if n == 0.0:
        raise ValidationError("cannot normalize the zero vector")
    return (a[0] / n, a[1] / n, a[2] / n)


def _normal(a, b):
    """The unit normal of a x b, None when |a x b| <= 1e-15, from (b + a) x (b - a) = 2 a x b (see _sign)."""
    c = _cross((b[0] + a[0], b[1] + a[1], b[2] + a[2]), (b[0] - a[0], b[1] - a[1], b[2] - a[2]))
    nn = _norm(c)
    return (c[0] / nn, c[1] / nn, c[2] / nn) if nn > 2e-15 else None


def _angle(a, b):
    # atan2 form stays accurate for both tiny and near-pi separations
    return math.atan2(_norm(_cross(a, b)), _dot(a, b))


@dataclass(frozen=True, slots=True)
class Cap:
    """The unit vectors within angle r of center, r given by its cosine and sine.

    A cos of -inf marks a cap of r >= pi/2, which never prunes; only such a
    cap may have no center. Slots: the pruning loops read these fields on
    every test, and a slot read is cheaper than unpacking a NamedTuple.
    """

    center: tuple[float, float, float] | None
    cos: float
    sin: float


def _center(vecs, comps=None):
    """(c, lo): c the normalized mean of vecs, or of the points whose x's, y's and z's are comps, lo the least c.v over vecs.

    (None, -1.0) when the mean is shorter than 1e-9. The vectors lie in the
    open hemisphere around c exactly when lo > 1e-9. fsum rounds each sum
    once, so a set's mean does not depend on the order of its points.
    """
    comps = comps or tuple(zip(*vecs))
    n = len(comps[0])
    mx, my, mz = (math.fsum(c) / n for c in comps)
    norm = math.sqrt(mx * mx + my * my + mz * mz)
    if norm < 1e-9:
        return None, -1.0
    cx, cy, cz = mx / norm, my / norm, mz / norm
    return (cx, cy, cz), min(cx * v[0] + cy * v[1] + cz * v[2] for v in vecs)


def _cap(center, lo) -> Cap:
    """The Cap around center reaching acos(lo), lo a smallest dot from _center, then ANGLE_TOL and CAP_SLACK further.

    Under 90 degrees, it holds the vectors' hull and every point within ANGLE_TOL of it.
    """
    r = math.acos(max(-1.0, min(1.0, lo))) + ANGLE_TOL + CAP_SLACK
    if r >= math.pi / 2:
        return Cap(center, -math.inf, 1.0)
    return Cap(center, math.cos(r), math.sin(r))


def _enclosing_cap(center, caps) -> Cap:
    """A Cap around center holding each of caps, CAP_SLACK wider; one that never prunes if it would reach pi/2."""
    if center is None or any(cap.cos == -math.inf for cap in caps):
        return Cap(center, -math.inf, 1.0)
    r = max(_angle(center, cap.center) + math.atan2(cap.sin, cap.cos) for cap in caps) + CAP_SLACK
    return Cap(center, -math.inf, 1.0) if r >= math.pi / 2 else Cap(center, math.cos(r), math.sin(r))


def _apart(c1, cos1, sin1, cap: Cap) -> bool:
    """True when cap and the cap (c1, r1), given the cosine and sine of r1, share no point.

    That is when the angle between their centers exceeds r1 + r2: _dot(c1, c2)
    < cos(r1 + r2) while r1 + r2 < pi, that is cos1 + cos2 > 0, so a cosine of
    -inf never prunes. The first cap comes unpacked, once for a loop over many.
    """
    cos2 = cap.cos
    return cos1 + cos2 > 0.0 and _dot(c1, cap.center) < cos1 * cos2 - sin1 * cap.sin


def unit_to_geo(v: tuple[float, float, float]) -> GeoPoint:
    x, y, z = v
    lat = math.degrees(math.asin(max(-1.0, min(1.0, z))))
    lon = math.degrees(math.atan2(y, x)) if (x != 0.0 or y != 0.0) else 0.0
    return GeoPoint(lat, lon)


def _tangent_basis(center):
    """Orthonormal (e1, e2) spanning the plane tangent at center; e1 x e2 = center keeps counterclockwise.

    e1 is normal to center and to the less aligned of two fixed directions off
    every coordinate plane, so that no meridian, nor the equator, projects to
    a line of one x for every center: such ties cost _planar_hull an exact sort.
    """
    axis = min(((0.36, 0.48, 0.8), (0.48, 0.64, -0.6)), key=lambda a: abs(_dot(center, a)))
    e1 = _normalized(_cross(center, axis))
    e2 = _cross(center, e1)
    return e1, e2


def _gnomonic(center, e1, e2, v):
    d = _dot(center, v)
    return (_dot(e1, v) / d, _dot(e2, v) / d)


def _planar_hull(center, vecs, lo):
    """Monotone chain over vecs' gnomonic projections at center: indices of their hull's vertices, counterclockwise.

    Exact, so any subset holding the hull's vertices gives the same hull. A
    turn o, a, b is left when det[o, a, b] > 0, the sign of their projections'
    turn. With lo the least c.v, a float x errs by under 8u / lo**2 and a float
    turn by under 160u / lo**3: Fractions order x's nearer than 2**-47 / lo**2,
    and _sign decides turns under 2**-45 / lo**3.
    """
    e1, e2 = _tangent_basis(center)
    points_2d = [_gnomonic(center, e1, e2, v) for v in vecs]
    order = sorted(range(len(vecs)), key=lambda i: points_2d[i])
    tie, flat = 2.0**-47 / (lo * lo), 2.0**-45 / lo**3
    if any(points_2d[j][0] - points_2d[i][0] <= tie for i, j in zip(order, order[1:])):
        from fractions import Fraction

        def exact(v):
            c, x, y = (sum(Fraction(a) * Fraction(b) for a, b in zip(u, v)) for u in (center, e1, e2))
            return x / c, y / c

        order.sort(key=lambda i: exact(vecs[i]))

    def left(i, j, k):
        (ox, oy), (ax, ay), (bx, by) = points_2d[i], points_2d[j], points_2d[k]
        turn = (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)
        if turn > flat or turn < -flat:
            return turn > 0.0
        o, a, b = vecs[i], vecs[j], vecs[k]
        return _sign(o, a, b, _dot(_cross(o, a), b)) > 0

    def half(indices):
        kept: list[int] = []
        for i in indices:
            while len(kept) >= 2 and not left(kept[-2], kept[-1], i):
                kept.pop()
            kept.append(i)
        return kept[:-1]

    return half(order) + half(reversed(order))


@dataclass(frozen=True)
class SphericalHull:
    """Convex region on the sphere: vertices form a ring, counterclockwise as seen from outside.

    Degenerate point sets give a one-vertex "point" or two-vertex "arc" hull.
    _edges holds (a, b, n = _normal(a, b)) per edge, as GeoPolygon._edges
    does: none for a point, one for an arc, one per side of a polygon, whose
    interior has n.p >= 0.
    """

    vertices: tuple[tuple[float, float, float], ...]
    _edges: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        vts = self.vertices
        # an arc's one edge runs from its first vertex to its second, and does not close back
        ends = vts[1:] + vts[:1] if len(vts) > 2 else vts[1:]
        object.__setattr__(self, "_edges", tuple((a, b, _normal(a, b)) for a, b in zip(vts, ends)))

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


class PointSet(NamedTuple):
    """Distinct unit vectors by the vertices of their hull, vecs; the x's, y's and z's of every point, comps; and cap.

    vecs holds every vector when they fail the hemisphere rule (see _center),
    and cap, a Cap over them (_cap), then never prunes, as does the default.
    """

    vecs: list
    comps: tuple
    cap: Cap = Cap(None, -math.inf, 1.0)


def point_set(points) -> PointSet:
    """points, deduplicated, as a PointSet of their own hull's vertices, or of them all when they fail the rule."""
    vecs = _dedup(points)
    comps = tuple(zip(*vecs)) or ((), (), ())
    center, lo = _center(vecs, comps=comps) if vecs else (None, -1.0)
    if lo > 1e-9 and len(vecs) > 2:
        vecs = [vecs[i] for i in _planar_hull(center, vecs, lo)]
    return PointSet(vecs, comps, _cap(center, lo))


def spherical_convex_hull(points) -> SphericalHull:
    """Minimal convex spherical polygon containing all points, unit vectors, or all of a PointSet's.

    Raises EmptyInput when there are none and HemisphereViolation, whose
    witness is in degrees, when the deduplicated set does not fit in the
    open hemisphere around its normalized vector mean c (see _center). A
    PointSet's vecs, distinct and holding its hull's vertices, with c from its comps, decide this:
    any other point is p = sum(l_i v_i) / |sum(l_i v_i)| with l_i >= 0, and
    |sum(l_i v_i)| <= sum(l_i), so c.p >= min(c.v_i) when that is positive.
    """
    if not isinstance(points, PointSet):
        vecs = _dedup(points)
        points = PointSet(vecs, tuple(zip(*vecs)))
    vecs, comps, _ = points
    if not vecs:
        raise EmptyInput("cannot build a hull from zero points")

    if len(vecs) == 1:
        return SphericalHull(vertices=(vecs[0],))

    center, lo = _center(vecs, comps=comps)
    if lo <= 1e-9:
        # Witness: a, the vector least aligned with the center (any one without
        # one), and b, the vector farthest from a. a's dot products with the n
        # points sum to n * |mean| * lo, or under n * 1e-9 with no center,
        # below a.a = 1 for fewer than 1e9 points, so some point, and then
        # some b in vecs (as above), has a.b < 0.
        a = vecs[0] if center is None else min(vecs, key=lambda v: _dot(center, v))
        b = min(vecs, key=lambda v: _dot(a, v))
        raise HemisphereViolation((unit_to_geo(a), unit_to_geo(b)), math.degrees(_angle(a, b)))

    if len(vecs) == 2:
        return SphericalHull(vertices=tuple(vecs))

    return SphericalHull(vertices=tuple(vecs[i] for i in _planar_hull(center, vecs, lo)))


def _sign(a, b, p, d) -> int:
    """The sign of det[a, b, p] for unit a, b, p, given d, the float n.p of n = _normal(a, b) or (a x b).p.

    d's sign is taken beyond _SIGN_ERR, and det's is found exactly in
    Fractions within it. The bound, with u = 2**-53: a float (a x b).p errs
    by under 5 sqrt(3) u, and for n.p, _normal computes
    (b + a) x (b - a) = 2 a x b, rounding each sum (u) and each term of the
    cross product (2u), so a component errs by at most 4u times the sum of
    its terms' sizes, 8u |b + a| |b - a| in all. For unit a, b that is
    8u * 2 |a x b|: 8u relative, 16u in direction, however short the arc.
    Normalizing and the dot product with p add 3u each, so d is within 22u
    of det / |a x b|; 32u leaves room for second-order terms and inputs a
    few u off unit length. A normalized float a x b errs by u / |a x b|.
    """
    if d > _SIGN_ERR:
        return 1
    if d < -_SIGN_ERR:
        return -1
    from fractions import Fraction  # imported here: it costs ~2 ms, and only near-degenerate inputs need it
    a, b, p = (tuple(map(Fraction, v)) for v in (a, b, p))
    det = _dot(_cross(a, b), p)
    return (det > 0) - (det < 0)


def _near_arc(p, a, b, n) -> bool:
    """True when p lies within ANGLE_TOL of the minor arc a-b, n = _normal(a, b).

    That is within ANGLE_TOL of the arc's circle with its foot there between
    the planes through n and a, and n and b, or within ANGLE_TOL of an end,
    which decides where rounding moves the foot past an end.
    """
    if abs(_dot(n, p)) > ANGLE_TOL:
        return False
    if _dot(_cross(n, a), p) >= 0.0 and _dot(_cross(b, n), p) >= 0.0:
        return True
    return _angle(p, a) <= ANGLE_TOL or _angle(p, b) <= ANGLE_TOL


def _arc_meets(a, b, n, edges) -> bool:
    """True when the minor arc a-b meets an arc (c, d, m) in edges; n, m from _normal.

    An arc with both ends more than ANGLE_TOL to one side of the other's
    circle is skipped, as all of it is. The arcs cross when the exact
    orientations ACB, CBD, BDA and DAC agree, as in S2's S2EdgeCrosser: each
    arc's ends on opposite sides of the other's circle, which meet on the
    arcs, not at their antipodes. Arcs that do not cross are nearest at an
    end of one, so an end _near_arc the other decides the rest.
    """
    nx, ny, nz = n
    for c, d, m in edges:
        nc = nx * c[0] + ny * c[1] + nz * c[2]
        nd = nx * d[0] + ny * d[1] + nz * d[2]
        if (nc > ANGLE_TOL and nd > ANGLE_TOL) or (nc < -ANGLE_TOL and nd < -ANGLE_TOL):
            continue
        ma = m[0] * a[0] + m[1] * a[1] + m[2] * a[2]
        mb = m[0] * b[0] + m[1] * b[1] + m[2] * b[2]
        s = _sign(a, b, c, nc)
        if s and _sign(a, b, d, nd) == -s and _sign(c, d, b, mb) == s and _sign(c, d, a, ma) == -s:
            return True
        # _near_arc's first test is inlined
        if (
            (-ANGLE_TOL <= nc <= ANGLE_TOL and _near_arc(c, a, b, n))
            or (-ANGLE_TOL <= nd <= ANGLE_TOL and _near_arc(d, a, b, n))
            or (-ANGLE_TOL <= ma <= ANGLE_TOL and _near_arc(a, c, d, m))
            or (-ANGLE_TOL <= mb <= ANGLE_TOL and _near_arc(b, c, d, m))
        ):
            return True
    return False


def hull_contains(h: SphericalHull, p) -> bool:
    """True when unit vector p is inside h, decided exactly, or within ANGLE_TOL of it."""
    vts = h.vertices
    if len(vts) == 1:  # a point hull
        return _angle(p, vts[0]) <= ANGLE_TOL
    if len(vts) == 2:  # an arc hull, whose ends _dedup and the hemisphere check keep apart
        return _near_arc(p, *h._edges[0])
    px, py, pz = p
    inside = True
    for a, b, n in h._edges:
        d = n[0] * px + n[1] * py + n[2] * pz
        if d < -ANGLE_TOL:  # more than ANGLE_TOL outside this edge's circle, so outside the hull by more
            return False
        if d < _SIGN_ERR and _sign(a, b, p, d) < 0:
            inside = False
    # an outside p is nearest the hull on an edge
    return inside or any(_near_arc(p, a, b, n) for a, b, n in h._edges)


def _hull_cap(hull: SphericalHull) -> Cap:
    """The cap over the hull vertices (_cap), outside which hull_contains accepts nothing."""
    return _cap(*_center(hull.vertices))


def _cap_in_hull(hull: SphericalHull, cap: Cap):
    """True when a polygon hull accepts every point of cap, False when it accepts none, else None.

    Over a cap of radius r whose center has n.c = sin b, n.p lies between
    sin(b - r) and sin(b + r): every n.c >= sin r puts the cap inside every
    edge's half-space, and one n.c < -sin r - ANGLE_TOL puts it more than
    ANGLE_TOL outside an edge's circle.
    """
    if len(hull.vertices) < 3 or cap.cos == -math.inf:  # a point or arc hull
        return None
    (cx, cy, cz), sin_r = cap.center, cap.sin
    out, inside = -sin_r - ANGLE_TOL, True
    for _, _, n in hull._edges:  # not min(): the first edge that rules the cap out ends the loop
        d = n[0] * cx + n[1] * cy + n[2] * cz
        if d < out:
            return False
        inside = inside and d >= sin_r
    return inside or None


@dataclass(frozen=True)
class GeoPolygon:
    """A polygon on the sphere: one outer ring plus optional hole rings, closed implicitly.

    _ring_vecs holds the vertex vectors ring by ring. _cap (see _cap), over
    every ring around the outer ring's mean, is where polygon_contains can
    accept and what pruning reads. The constructor raises unless every
    vertex is less than pi/2 from its center (the hemisphere rule), so the
    cap is convex and holds the edges, the even-odd interior and every point
    within ANGLE_TOL of them.
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
        center, lo = _center([v for ring in rings for v in ring], comps=tuple(zip(*rings[0])))
        if lo <= 1e-9:
            raise ValidationError("polygon ring spans a hemisphere or more")
        object.__setattr__(self, "_ring_vecs", rings)
        object.__setattr__(self, "_cap", _cap(center, lo))

    @cached_property
    def _edges(self):
        """(a, b, n = _normal(a, b)) for every edge of every ring; zero-length edges, which have no n, are left out."""
        return tuple(
            (a, b, n) for ring in self._ring_vecs for a, b in zip(ring, ring[1:] + ring[:1]) if (n := _normal(a, b))
        )

    @cached_property
    def _frame(self):
        """Basis of the tangent plane at the _cap center, and the rings projected onto it."""
        center = self._cap.center
        e1, e2 = _tangent_basis(center)
        return e1, e2, tuple(tuple(_gnomonic(center, e1, e2, v) for v in ring) for ring in self._ring_vecs)


def _even_odd(rings_2d, x, y):
    inside = False
    for ring in rings_2d:
        x1, y1 = ring[-1]
        for x2, y2 in ring:
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
    """True when border polygon poly and hull share a point or come within ANGLE_TOL of each other.

    They do when an edge of poly meets a hull edge (_arc_meets); only a hull
    edge whose circle passes within r of the center of poly's cap, of radius
    r < pi/2, can. Failing that, one boundary lies inside the other or apart
    from it, so one outer-ring vertex in the hull or one hull vertex in poly decides.
    """
    cap = poly._cap
    center, cos_r, sin_r = cap.center, cap.cos, cap.sin
    for a, b, n in hull._edges:
        if cos_r > 0.0 and abs(_dot(n, center)) > sin_r:
            continue
        if _arc_meets(a, b, n, poly._edges):
            return True
    return hull_contains(hull, poly._ring_vecs[0][0]) or polygon_contains(poly, hull.vertices[0])
