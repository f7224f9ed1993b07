"""Geographically-normal country sets per (source, destination) pair.

A country is normal for a pair when any of its top cities falls inside the
pair's convex hull, or when any of its border polygons is at least partially
inside it (see _meets). A pair whose combined point set spans more than a
hemisphere is unclassifiable: "between" has no meaning there, and callers
must keep such paths out of normality statistics rather than guessing.

Both scans are pruned by bounding caps, and every skipped test is one that
would fail, so membership is exactly that of the unpruned scans. Caps cover
the hull with its ANGLE_TOL band (_hull_cap), each hull edge (_hull_edges),
each country's top cities (_city_caps, built once per world and city limit)
and each border polygon (GeoPolygon._cap). Caps of radii r and r' are apart
when their centers' dot product is below cos(r + r'), tested in cos/sin
form and only when r + r' < pi.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

from .errors import HemisphereViolation, UnknownCountry
from .sphere import (
    ANGLE_TOL,
    CAP_SLACK,
    _arc_meets,
    _dot,
    _hull_contains_vec,
    _polygon_contains_vec,
    spherical_convex_hull,
)
from .world import DEFAULT_CITY_LIMIT, WorldModel, country_points

@dataclass(frozen=True)
class NormalSet:
    """The geographically normal countries for an ordered (src, dst) pair.

    src and dst are always members. When unclassifiable is set the hull could
    not be built and countries holds only the endpoints.
    """

    src: str
    dst: str
    mode: str
    countries: frozenset[str]
    unclassifiable: bool = False


@dataclass(frozen=True)
class PathVerdict:
    normal: bool
    benefactors: frozenset[str]
    countries: frozenset[str]  # every country the path's hops touch in this exposure


def normal_set(
    w: WorldModel,
    src: str,
    dst: str,
    mode: str = "population",
    *,
    city_limit: int = DEFAULT_CITY_LIMIT,
) -> NormalSet:
    """Compute the normal set for one country pair.

    Symmetric in src and dst. A country that is both source and destination
    is alone in its own normal set; no hull is built for it.
    """
    for iso2 in (src, dst):
        if iso2 not in w.countries:
            raise UnknownCountry(iso2, suggestions=_suggest(w, iso2))
    if src == dst:
        return NormalSet(src=src, dst=dst, mode=mode, countries=frozenset({src}))

    points = country_points(w, src, mode, city_limit) + country_points(w, dst, mode, city_limit)
    try:
        hull = spherical_convex_hull(points)
    except HemisphereViolation:
        return NormalSet(src=src, dst=dst, mode=mode, countries=frozenset({src, dst}), unclassifiable=True)

    members = {src, dst}
    hull_center, hull_cos, hull_sin = _hull_cap(hull)
    for iso2, center, cos_r, sin_r, vecs in _city_caps(w, city_limit):
        if iso2 in members or _apart(hull_center, hull_cos, hull_sin, center, cos_r, sin_r):
            continue
        for v in vecs:
            if _dot(hull_center, v) >= hull_cos and _hull_contains_vec(hull, v):
                members.add(iso2)
                break

    edges = _hull_edges(hull)
    for iso2, cb in w.borders.items():
        if iso2 in members:
            continue
        for poly in cb.polygons:
            center, _, cos_r, sin_r = poly._cap
            if not _apart(hull_center, hull_cos, hull_sin, center, cos_r, sin_r) and _meets(poly, hull, edges):
                members.add(iso2)
                break

    return NormalSet(src=src, dst=dst, mode=mode, countries=frozenset(members))


def _hull_edges(hull):
    """(a, b, n, cap center, cos r, sin r) per edge a-b of hull, n its unit normal: none for a point, one for an arc.

    The cap is _cap over a and b plus CAP_SLACK, which covers its acos and
    the ANGLE_TOL band of _arc_meets.
    """
    vts = hull.vertices
    edges = []
    for i in range({"point": 0, "arc": 1}.get(hull.degenerate_kind, len(vts))):
        a, b = vts[i], vts[(i + 1) % len(vts)]
        center, radius = _cap((a, b))
        r = radius + CAP_SLACK
        edges.append((a, b, hull._edge_normals[i], center, math.cos(r), math.sin(r)))
    return edges


def _meets(poly, hull, edges) -> bool:
    """True when border polygon poly and hull share a point, within ANGLE_TOL; edges is _hull_edges(hull).

    They do when an edge of poly meets a hull edge. Only hull edges whose
    cap reaches poly's cap, of radius r, and whose great circle passes
    within r of its center, which needs r < pi/2 to be read from sin r, can
    meet one. Failing that, neither boundary crosses the other, so one
    outer-ring vertex in the hull or one hull vertex in poly decides.
    """
    center, _, cos_r, sin_r = poly._cap
    for a, b, n, edge_center, edge_cos, edge_sin in edges:
        if _apart(edge_center, edge_cos, edge_sin, center, cos_r, sin_r):
            continue
        if cos_r > 0.0 and abs(_dot(n, center)) > sin_r:
            continue
        if _arc_meets(a, b, n, poly._edges):
            return True
    return _hull_contains_vec(hull, poly._ring_vecs[0][0]) or _polygon_contains_vec(poly, hull.vertices[0])


def _apart(c1, cos1, sin1, c2, cos2, sin2) -> bool:
    """True when caps (c1, r1) and (c2, r2), given the cosines and sines of their radii, share no point.

    That is when the angle between c1 and c2 exceeds r1 + r2, tested as
    _dot(c1, c2) < cos(r1 + r2) while r1 + r2 < pi, which is when
    cos1 + cos2 > 0. A cosine of -inf never prunes.
    """
    return cos1 + cos2 > 0.0 and _dot(c1, c2) < cos1 * cos2 - sin1 * sin2


def _city_caps(w: WorldModel, city_limit: int):
    """Per country with cities: (iso2, cap center, cos r, sin r, top-city vectors).

    r is the radius of _cap over the vectors plus CAP_SLACK, which covers the
    rounding of that acos (~2e-8 rad). Built on first use and kept on w, one
    table per city_limit.
    """
    table = w._city_caps.get(city_limit)
    if table is None:
        rows = []
        for iso2, rec in w.countries.items():
            vecs = tuple(c.location._vec for c in rec.top_cities(city_limit))
            center, radius = _cap(vecs)
            r = min(math.pi, radius + CAP_SLACK)
            rows.append((iso2, center, math.cos(r), math.sin(r), vecs))
        table = w._city_caps[city_limit] = tuple(rows)
    return table


def _cap(vecs):
    """(center, angular radius) of a cap covering the unit vectors vecs.

    The radius comes from the smallest dot product with the center and one
    acos. Vectors with no usable mean direction get radius pi, which no
    separation test can prune.
    """
    x = sum(v[0] for v in vecs)
    y = sum(v[1] for v in vecs)
    z = sum(v[2] for v in vecs)
    n = math.sqrt(x * x + y * y + z * z)
    if n < 1e-9:
        return (0.0, 0.0, 1.0), math.pi
    center = (x / n, y / n, z / n)
    return center, math.acos(max(-1.0, min(1.0, min(_dot(center, v) for v in vecs))))


def _hull_cap(hull):
    """(center, floor, sin r) such that _hull_contains_vec(hull, v) is False whenever _dot(center, v) < floor.

    The cap is _cap over the hull vertices, widened to cover the tolerant
    boundary band of _hull_contains_vec, plus CAP_SLACK; floor is the cosine
    of its radius r, or -inf (no pruning) when r reaches pi/2.

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
    center, radius = _cap(hull.vertices)
    if hull.degenerate_kind == "polygon":
        m = min(_dot(n, center) for n in hull._edge_normals)
        ratio = ANGLE_TOL * math.sin(radius) / m if m > ANGLE_TOL else 1.0
        radius += math.asin(ratio) if ratio < 1.0 else math.pi
    elif hull.degenerate_kind == "arc" and radius < CAP_SLACK:
        radius = math.pi
    radius += CAP_SLACK
    if radius >= math.pi / 2:
        return center, -math.inf, 1.0
    return center, math.cos(radius), math.sin(radius)


def _suggest(w: WorldModel, iso2: str):
    import difflib

    known = sorted(set(w.countries) | set(w.borders))
    return difflib.get_close_matches(iso2, known, n=3, cutoff=0.5)


def classify(ns: NormalSet, path_countries) -> PathVerdict:
    """Label a country sequence against a normal set.

    Benefactors are the countries on the path that are neither normal nor an
    endpoint; the path is normal exactly when there are none. Unclassifiable
    pairs yield a non-normal verdict whose benefactors are every non-endpoint
    country seen.
    """
    seen = frozenset(path_countries)
    endpoints = {ns.src, ns.dst}
    if ns.unclassifiable:
        return PathVerdict(normal=False, benefactors=seen - endpoints, countries=seen)
    benefactors = seen - ns.countries - endpoints
    return PathVerdict(normal=not benefactors, benefactors=benefactors, countries=seen)


@dataclass
class PairCache:
    """Memoizes normal sets keyed by the unordered pair and mode.

    Not thread-safe: each analyze shard is a process with its own cache.
    """

    boundary_step: InitVar[float | None] = None  # accepted and ignored: perfbench/chain.py still passes it
    city_limit: int = DEFAULT_CITY_LIMIT
    hits: int = 0
    misses: int = 0
    _entries: dict = field(default_factory=dict)

    def get_or_build(self, w: WorldModel, src: str, dst: str, mode: str) -> NormalSet:
        key = (frozenset((src, dst)), mode)
        found = self._entries.get(key)
        if found is not None:
            self.hits += 1
            return found
        ns = normal_set(w, src, dst, mode, city_limit=self.city_limit)
        self.misses += 1
        self._entries[key] = ns
        return ns
