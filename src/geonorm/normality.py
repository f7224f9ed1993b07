"""Geographically-normal country sets per (source, destination) pair.

A country is normal for a pair when any of its top cities falls inside the
pair's convex hull, or when any of its border polygons is at least partially
inside it (see sphere._meets). A pair whose combined point set spans more
than a hemisphere is unclassifiable: "between" has no meaning there, and
callers must keep such paths out of normality statistics rather than guessing.

Both scans pass over a country or polygon whose bounding cap (sphere.Cap)
is apart from the hull's. Every test so skipped would fail, so membership
is exactly that of the unpruned scans. Each country's top-city cap is
built once per world and city limit (_city_caps).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

from .errors import HemisphereViolation, UnknownCountry
from .sphere import _apart, _cap, _center, _dot, _hull_cap, _hull_edges, _meets, hull_contains, spherical_convex_hull
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
    # unpacked once, so that the loops below test it on local floats
    hull_cap = _hull_cap(hull)
    hull_center, hull_cos, hull_sin = hull_cap.center, hull_cap.cos, hull_cap.sin
    for iso2, cap, vecs in _city_caps(w, city_limit):
        if iso2 in members or _apart(hull_center, hull_cos, hull_sin, cap):
            continue
        for v in vecs:
            if _dot(hull_center, v) >= hull_cos and hull_contains(hull, v):
                members.add(iso2)
                break

    edges = _hull_edges(hull)
    for iso2, cb in w.borders.items():
        if iso2 in members:
            continue
        for poly in cb.polygons:
            if not _apart(hull_center, hull_cos, hull_sin, poly._cap) and _meets(poly, hull, edges):
                members.add(iso2)
                break

    return NormalSet(src=src, dst=dst, mode=mode, countries=frozenset(members))


def _city_caps(w: WorldModel, city_limit: int):
    """Per country with cities: (iso2, the Cap over its top-city vectors, those vectors).

    Built on first use and kept on w, one table per city_limit.
    """
    table = w._city_caps.get(city_limit)
    if table is None:
        rows = []
        for iso2, rec in w.countries.items():
            vecs = tuple(c.location.vec for c in rec.top_cities(city_limit))
            rows.append((iso2, _cap(*_center(vecs)), vecs))
        table = w._city_caps[city_limit] = tuple(rows)
    return table


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
