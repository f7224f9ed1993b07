"""Geographically-normal country sets per (source, destination) pair.

A country is normal for a pair when any of its top cities falls inside the
pair's convex hull, or when any point sampled along the hull's edges falls
inside the country's borders (partial containment). A pair whose combined
point set spans more than a hemisphere is unclassifiable: "between" has no
meaning there, and callers must keep such paths out of normality statistics
rather than guessing.

Hull-edge samples are unit vectors. Both scans are pruned by bounding caps,
and every skipped test is one that would fail, so membership is exactly
that of the unpruned scans. A top city is tested against the hull only
when it lies in a cap around the hull that covers the hull's ANGLE_TOL
boundary band (see _hull_cap). A border polygon is tested only against
runs of samples whose cap can reach the polygon's own exact-width bounding
cap, first one cap over all samples, then caps over runs of consecutive
samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import HemisphereViolation, UnknownCountry
from .sphere import (
    ANGLE_TOL,
    CAP_SLACK,
    DEFAULT_BOUNDARY_STEP_DEG,
    _dot,
    _hull_contains_vec,
    _polygon_contains_vec,
    hull_boundary_samples,
    spherical_convex_hull,
)
from .world import DEFAULT_CITY_LIMIT, WorldModel, country_points

# Consecutive hull-edge samples per second-level cap (about 1.6 degrees of
# hull edge at the default step).
RUN_LENGTH = 32


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
    boundary_step: float = DEFAULT_BOUNDARY_STEP_DEG,
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
    hull_center, hull_floor = _hull_cap(hull)
    for iso2, rec in w.countries.items():
        if iso2 in members:
            continue
        for c in rec.top_cities(city_limit):
            v = c.location._vec
            if _dot(hull_center, v) >= hull_floor and _hull_contains_vec(hull, v):
                members.add(iso2)
                break

    sample_vecs = hull_boundary_samples(hull, boundary_step)
    samples_cap = _cap(sample_vecs)
    runs = None  # [(cap, run)], built once some polygon reaches samples_cap
    for iso2, cb in w.borders.items():
        if iso2 in members:
            continue
        for poly in cb.polygons:
            poly_cap = poly._cap
            if _caps_apart(poly_cap, samples_cap):
                continue
            if runs is None:
                chunks = [sample_vecs[i : i + RUN_LENGTH] for i in range(0, len(sample_vecs), RUN_LENGTH)]
                runs = [(_cap(run), run) for run in chunks]
            if any(
                _polygon_contains_vec(poly, v)
                for run_cap, run in runs
                if not _caps_apart(poly_cap, run_cap)
                for v in run
            ):
                members.add(iso2)
                break

    return NormalSet(src=src, dst=dst, mode=mode, countries=frozenset(members))


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
    """(center, floor) such that _hull_contains_vec(hull, v) is False whenever _dot(center, v) < floor.

    The cap is _cap over the hull vertices, widened to cover the tolerant
    boundary band of _hull_contains_vec, plus CAP_SLACK; floor is the cosine
    of its radius, or -inf (no pruning) when the widened radius reaches pi/2.

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
    return center, (math.cos(radius) if radius < math.pi / 2 else -math.inf)


def _caps_apart(a, b) -> bool:
    """True when caps a and b, as (center, angular radius), are more than CAP_SLACK apart.

    By the triangle inequality no point of b then lies within a's radius of
    a's center. Radii summing to pi or more always meet.
    """
    (ca, ra), (cb, rb) = a, b
    reach = ra + rb + CAP_SLACK
    if reach >= math.pi:
        return False
    return math.acos(max(-1.0, min(1.0, _dot(ca, cb)))) > reach


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

    boundary_step: float = DEFAULT_BOUNDARY_STEP_DEG
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
        ns = normal_set(w, src, dst, mode, boundary_step=self.boundary_step, city_limit=self.city_limit)
        self.misses += 1
        self._entries[key] = ns
        return ns
