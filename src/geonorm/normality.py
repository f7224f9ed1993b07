"""Geographically-normal country sets per (source, destination) pair.

A country is normal for a pair when any of its top cities falls inside the
pair's convex hull, or when any of its border polygons is at least partially
inside it (see sphere._meets). A pair whose combined point set spans more
than a hemisphere is unclassifiable: "between" has no meaning there, and
callers must keep such paths out of normality statistics rather than guessing.

Both scans pass over a country or polygon whose bounding cap (sphere.Cap)
is apart from the hull's. Against a polygon hull, sphere._cap_in_hull then
settles most other caps whole: one inside makes a member, one outside is
passed over. Every test so skipped would give the answer taken, so membership
is exactly that of the unpruned scans. The caps are built with the world:
WorldModel.city_caps per country, GeoPolygon._cap per polygon.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

from .errors import HemisphereViolation, UnknownCountry
from .sphere import _apart, _cap_in_hull, _hull_cap, _meets, hull_contains, spherical_convex_hull
from .world import WorldModel, country_points

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

    points = country_points(w, src, mode) + country_points(w, dst, mode)
    try:
        hull = spherical_convex_hull(points)
    except HemisphereViolation:
        return NormalSet(src=src, dst=dst, mode=mode, countries=frozenset({src, dst}), unclassifiable=True)

    members = {src, dst}
    # unpacked once, so that the loops below test it on local floats
    hull_cap = _hull_cap(hull)
    hull_center, hull_cos, hull_sin = hull_cap.center, hull_cap.cos, hull_cap.sin
    for iso2, cap, vecs in w.city_caps:
        if iso2 in members or _apart(hull_center, hull_cos, hull_sin, cap):
            continue
        inside = _cap_in_hull(hull, cap)
        if inside or (inside is None and any(hull_contains(hull, v) for v in vecs)):
            members.add(iso2)

    for iso2, cb in w.borders.items():
        if iso2 in members:
            continue
        for poly in cb.polygons:
            inside = not _apart(hull_center, hull_cos, hull_sin, poly._cap) and _cap_in_hull(hull, poly._cap)
            if inside or (inside is None and _meets(poly, hull)):
                members.add(iso2)
                break

    return NormalSet(src=src, dst=dst, mode=mode, countries=frozenset(members))


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
