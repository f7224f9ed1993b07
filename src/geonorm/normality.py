"""Geographically-normal country sets per (source, destination) pair.

A country is normal for a pair when any of its top cities falls inside the
pair's convex hull, or when any of its border polygons is at least partially
inside it (see sphere._meets). A pair whose combined point set spans more
than a hemisphere is unclassifiable: "between" has no meaning there, and
callers must keep such paths out of normality statistics rather than guessing.

pair_hull builds every pair's hull, ring and cap by sphere._hull_ring, over
the union of the two countries' PointSets, each cut to its own hull's vertices
unless it fails the hemisphere rule alone, with the mean of each one's own
points. The scan passes over a country, its cities or a polygon whose cap
(sphere.Cap, built with the world: WorldModel.country_caps, GeoPolygon._cap)
is apart from the hull's. Against a polygon hull, sphere._cap_in_hull then
settles most other caps whole: one inside makes a member, one outside is
passed over. Every test so skipped would give the answer taken, so
membership is exactly that of an unpruned scan.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

from .errors import HemisphereViolation, UnknownCountry
from .sphere import _apart, _cap_in_hull, _meets, hull_contains, spherical_convex_hull
from .world import WorldModel

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


def normal_set(w: WorldModel, src: str, dst: str, mode: str = "population") -> NormalSet:
    """Compute the normal set for one country pair.

    Symmetric in src and dst. A country that is both source and destination
    is alone in its own normal set; no hull is built for it.
    """
    for iso2 in (src, dst):
        if iso2 not in w.countries:
            raise UnknownCountry(iso2, suggestions=_suggest(w, iso2))
    if src == dst:
        return NormalSet(src=src, dst=dst, mode=mode, countries=frozenset({src}))

    try:
        hull = pair_hull(w, src, dst, mode)
    except HemisphereViolation:
        return NormalSet(src=src, dst=dst, mode=mode, countries=frozenset({src, dst}), unclassifiable=True)

    members = {src, dst}
    # unpacked once, so that the loop below tests it on local floats
    hull_center, hull_cos, hull_sin = hull.cap.center, hull.cap.cos, hull.cap.sin
    hx, hy, hz = hull_center
    for iso2, cx, cy, cz, cos, sin, cap, city_cap, vecs, polygons in w.country_caps:
        # the country's cap apart from the hull's (sphere._apart, inlined): none of its cities or polygons can meet it
        if (hull_cos + cos > 0.0 and hx * cx + hy * cy + hz * cz < hull_cos * cos - hull_sin * sin) or iso2 in members:
            continue
        inside = _cap_in_hull(hull, cap)  # all of the country inside the hull, or all of it outside
        if inside is not None:
            if inside:
                members.add(iso2)
            continue
        if city_cap and not _apart(hull_center, hull_cos, hull_sin, city_cap):
            inside = _cap_in_hull(hull, city_cap)
            if inside or (inside is None and any(hull_contains(hull, v) for v in vecs)):
                members.add(iso2)
                continue
        for poly in polygons:
            inside = not _apart(hull_center, hull_cos, hull_sin, poly._cap) and _cap_in_hull(hull, poly._cap)
            if inside or (inside is None and _meets(poly, hull)):
                members.add(iso2)
                break

    return NormalSet(src=src, dst=dst, mode=mode, countries=frozenset(members))


def pair_hull(w: WorldModel, src: str, dst: str, mode: str):
    """The hull over both countries' points in mode, over the union of their PointSets; may raise HemisphereViolation."""
    return spherical_convex_hull(w.point_set(src, mode).union(w.point_set(dst, mode)))


def _suggest(w: WorldModel, iso2: str):
    import difflib

    return difflib.get_close_matches(iso2.upper(), sorted(w.countries), n=3, cutoff=0.5)


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

    # accepted and ignored, because perfbench/chain.py passes both; the loaded
    # world carries the city limit
    boundary_step: InitVar[float | None] = None
    city_limit: InitVar[int | None] = None
    hits: int = 0
    misses: int = 0
    _entries: dict = field(default_factory=dict)

    def get_or_build(self, w: WorldModel, src: str, dst: str, mode: str) -> NormalSet:
        key = (frozenset((src, dst)), mode)
        found = self._entries.get(key)
        if found is not None:
            self.hits += 1
            return found
        ns = normal_set(w, src, dst, mode)
        self.misses += 1
        self._entries[key] = ns
        return ns
