import itertools
import math
import random

import pytest
from hypothesis import assume, given, strategies as st

import geonorm.normality as normality_mod
import geonorm.sphere as sphere_mod
from geonorm.errors import HemisphereViolation, UnknownCountry
from geonorm.normality import NormalSet, PairCache, classify, normal_set, pair_hull
from geonorm.sphere import (
    ANGLE_TOL,
    Cap,
    GeoPoint,
    PointSet,
    _angle,
    _apart,
    _arc_meets,
    _cap_in_hull,
    _cross,
    _dedup,
    _dot,
    _meets,
    _normalized,
    hull_contains,
    point_set,
    polygon_contains,
    spherical_convex_hull,
    unit_to_geo,
)
from geonorm.world import (
    DEFAULT_CITY_LIMIT, City, CountryBorders, CountryRecord, GeoPolygon, WorldModel, country_points, load_summary,
    load_world,
)

from conftest import SMALLWORLD as SMALLWORLD_DIR, WORLD_DATA, offset, star_ring, vertices_or_none

WORLD_DIRS = {"small_world": SMALLWORLD_DIR, "real_world": WORLD_DATA}


def load_at(base, city_limit=DEFAULT_CITY_LIMIT):
    return load_world(base / "cities.csv", base / "borders.geojson", base / "regions.csv", city_limit)


# hand-derived expectations: countries are axis-aligned squares, cities sit
# on the lat 1..3 band, so planar reasoning carries over to the sphere
POPULATION_SETS = {
    ("AA", "AB"): {"AA", "AB"},
    ("AA", "AC"): {"AA", "AB", "AC"},
    ("AA", "AD"): {"AA", "AB", "AC", "AD"},
    ("AB", "AC"): {"AB", "AC"},
    ("AB", "AD"): {"AB", "AC", "AD"},
    ("AC", "AD"): {"AC", "AD"},
    ("AA", "BE"): {"AA", "BE"},
    ("AB", "BE"): {"AB", "BE"},
    ("AB", "BF"): {"AB", "BF"},
    ("BE", "BF"): {"AB", "BE", "BF"},
}


class TestNormalSet:
    @pytest.mark.parametrize("pair,expected", sorted(POPULATION_SETS.items()))
    def test_population_sets_match_hand_derivation(self, small_world, pair, expected):
        ns = normal_set(small_world, *pair, "population")
        assert set(ns.countries) == expected
        assert not ns.unclassifiable

    def test_same_country_is_alone_without_a_hull(self, small_world):
        for iso2 in small_world.countries:
            ns = normal_set(small_world, iso2, iso2, "population")
            assert ns.countries == frozenset({iso2})

    def test_symmetry_exact(self, small_world):
        for a, b in itertools.combinations(sorted(small_world.countries), 2):
            for mode in ("population", "border"):
                assert (
                    normal_set(small_world, a, b, mode).countries
                    == normal_set(small_world, b, a, mode).countries
                )

    def test_endpoints_always_members(self, small_world):
        for a, b in itertools.combinations(sorted(small_world.countries), 2):
            ns = normal_set(small_world, a, b, "population")
            assert a in ns.countries and b in ns.countries

    def test_population_subset_of_border_when_cities_inside_borders(self, small_world):
        # smallworld passes the city-in-border check for every country
        assert not [line for line in load_summary(small_world) if line.startswith("warning:")]
        for a, b in itertools.combinations(sorted(small_world.countries), 2):
            pop = normal_set(small_world, a, b, "population").countries
            border = normal_set(small_world, a, b, "border").countries
            assert pop <= border

    def test_hull_growth_monotonic_in_cities(self):
        # widening AA's city set must never shrink a normal set
        base = normal_set(load_at(SMALLWORLD_DIR, city_limit=1), "AA", "AB", "population").countries
        grown = normal_set(load_at(SMALLWORLD_DIR, city_limit=3), "AA", "AB", "population").countries
        assert base <= grown

    def test_unknown_country_with_suggestions(self, small_world):
        with pytest.raises(UnknownCountry) as exc:
            normal_set(small_world, "AX", "AB", "population")
        assert exc.value.suggestions  # close codes exist: AA, AB, ...

    def test_partial_containment_via_border_crossing(self, small_world):
        # BE-BF hulls cross AB territory; population mode finds Beta City
        # inside, border mode finds AB's border crossing the hull's edges
        for mode in ("population", "border"):
            assert "AB" in normal_set(small_world, "BE", "BF", mode).countries


def antipodal_world():
    def rec(iso2, lat, lon):
        return CountryRecord(iso2=iso2, cities=(City(f"{iso2} City", GeoPoint(lat, lon), 1000),))

    def borders(iso2, lat, lon):
        ring = (
            GeoPoint(lat - 1, lon - 1),
            GeoPoint(lat - 1, lon + 1),
            GeoPoint(lat + 1, lon + 1),
            GeoPoint(lat + 1, lon - 1),
        )
        return CountryBorders(iso2=iso2, polygons=(GeoPolygon(rings=(ring,)),))

    countries = {"PX": rec("PX", 0, 0), "PY": rec("PY", 0, 180)}
    return WorldModel(
        countries=countries,
        borders={"PX": borders("PX", 0, 0), "PY": borders("PY", 0, 180)},
        region_of={"PX": "Africa", "PY": "Asia"},
    )


class TestUnclassifiable:
    def test_antipodal_pair_flagged(self):
        w = antipodal_world()
        ns = normal_set(w, "PX", "PY", "population")
        assert ns.unclassifiable
        assert ns.countries == frozenset({"PX", "PY"})

    def test_classify_unclassifiable_is_non_normal(self):
        ns = NormalSet(src="PX", dst="PY", mode="population", countries=frozenset({"PX", "PY"}), unclassifiable=True)
        verdict = classify(ns, ["PX", "QQ", "PY"])
        assert not verdict.normal
        assert verdict.benefactors == frozenset({"QQ"})


class TestClassify:
    def test_same_country_rule(self):
        ns = NormalSet(src="US", dst="US", mode="population", countries=frozenset({"US"}))
        verdict = classify(ns, ["US", "GB", "US"])
        assert not verdict.normal
        assert verdict.benefactors == frozenset({"GB"})

    def test_all_members_normal(self):
        ns = NormalSet(src="US", dst="MX", mode="population", countries=frozenset({"US", "CA", "MX"}))
        verdict = classify(ns, ["US", "CA", "MX"])
        assert verdict.normal and not verdict.benefactors

    def test_set_difference(self):
        ns = NormalSet(src="FR", dst="ES", mode="population", countries=frozenset({"FR", "ES"}))
        verdict = classify(ns, ["FR", "GB", "US", "ES"])
        assert verdict.benefactors == frozenset({"GB", "US"})
        assert verdict.countries == frozenset({"FR", "GB", "US", "ES"})

    def test_endpoints_never_benefactors_even_mid_path(self):
        ns = NormalSet(src="US", dst="DE", mode="population", countries=frozenset({"US", "DE"}))
        verdict = classify(ns, ["US", "DE", "US", "DE"])
        assert verdict.normal

    def test_pure_set_operation(self):
        ns = NormalSet(src="FR", dst="ES", mode="population", countries=frozenset({"FR", "ES"}))
        a = classify(ns, ["FR", "GB", "US", "ES"])
        b = classify(ns, ["ES", "US", "GB", "FR"])
        assert a == b

    def test_empty_path_is_normal(self):
        ns = NormalSet(src="US", dst="DE", mode="population", countries=frozenset({"US", "DE"}))
        assert classify(ns, []).normal


class TestBordersOnlyCountry:
    def test_included_through_partial_containment(self, tmp_path):
        # ZQ has borders straddling the AA-AB hull's lower edge but no city
        # rows: it must still join the normal set via partial containment
        import json

        from geonorm.world import load_world

        doc = json.loads((SMALLWORLD_DIR / "borders.geojson").read_text())
        ring = [[4.4, 0.0], [5.6, 0.0], [5.6, 4.0], [4.4, 4.0], [4.4, 0.0]]
        doc["features"].append(
            {"type": "Feature", "properties": {"iso2": "ZQ"}, "geometry": {"type": "Polygon", "coordinates": [ring]}}
        )
        (tmp_path / "borders.geojson").write_text(json.dumps(doc))
        (tmp_path / "cities.csv").write_text((SMALLWORLD_DIR / "cities.csv").read_text())
        (tmp_path / "regions.csv").write_text((SMALLWORLD_DIR / "regions.csv").read_text() + "ZQ,Africa\n")
        w = load_world(tmp_path / "cities.csv", tmp_path / "borders.geojson", tmp_path / "regions.csv")
        assert "borders-only (no city rows, partial-containment only): ZQ" in load_summary(w)
        ns = normal_set(w, "AA", "AB", "population")
        assert "ZQ" in ns.countries
        with pytest.raises(UnknownCountry):
            normal_set(w, "ZQ", "AA", "population")


class TestPairCache:
    def test_boundary_step_keyword_is_ignored(self, small_world):
        # perfbench/chain.py still passes both; the world carries the city limit
        cache = PairCache(boundary_step=1e-300, city_limit=1)
        assert cache == PairCache()
        assert cache.get_or_build(small_world, "BE", "BF", "border") == normal_set(small_world, "BE", "BF", "border")

    def test_reversed_pair_hits_cache(self, small_world):
        cache = PairCache()
        first = cache.get_or_build(small_world, "AA", "AB", "population")
        second = cache.get_or_build(small_world, "AB", "AA", "population")
        assert first is second
        assert (cache.hits, cache.misses) == (1, 1)

    def test_misses_equal_distinct_unordered_pairs(self, small_world):
        cache = PairCache()
        pairs = list(itertools.combinations(sorted(small_world.countries), 2))
        for a, b in pairs + pairs:
            cache.get_or_build(small_world, a, b, "population")
        assert cache.misses == len(pairs)
        assert cache.hits == len(pairs)

    def test_modes_cached_separately(self, small_world):
        cache = PairCache()
        cache.get_or_build(small_world, "AA", "AB", "population")
        cache.get_or_build(small_world, "AA", "AB", "border")
        assert cache.misses == 2

    def test_equal_results_with_and_without_cache(self, small_world):
        cache = PairCache()
        assert (
            cache.get_or_build(small_world, "AA", "AC", "population").countries
            == normal_set(small_world, "AA", "AC", "population").countries
        )


def hull_edges(hull):
    vts = hull.vertices
    count = {"point": 0, "arc": 1}.get(hull.degenerate_kind, len(vts))
    return [(vts[i], vts[(i + 1) % len(vts)], hull._edges[i][2]) for i in range(count)]


def exact_normal_set(w, src, dst, mode):
    """Reference: "at least partially inside" by brute force, with no caps.

    A country is normal when a top city is in the hull, or when one of its
    border polygons shares a point with the hull: a vertex of any ring in the
    hull, a hull vertex in the polygon, or a crossing or touching pair out of
    every hull edge and every polygon edge.
    """
    if src == dst:
        return NormalSet(src=src, dst=dst, mode=mode, countries=frozenset({src}))
    points = country_points(w, src, mode) + country_points(w, dst, mode)
    try:
        hull = spherical_convex_hull(points)
    except HemisphereViolation:
        return NormalSet(src=src, dst=dst, mode=mode, countries=frozenset({src, dst}), unclassifiable=True)
    members = {src, dst}
    for iso2, rec in w.countries.items():
        if any(hull_contains(hull, c.location.vec) for c in rec.cities):
            members.add(iso2)
    for iso2, cb in w.borders.items():
        for poly in cb.polygons:
            if (
                any(hull_contains(hull, v) for ring in poly._ring_vecs for v in ring)
                or any(polygon_contains(poly, v) for v in hull.vertices)
                or any(_arc_meets(a, b, n, [edge]) for a, b, n in hull_edges(hull) for edge in poly._edges)
            ):
                members.add(iso2)
    return NormalSet(src=src, dst=dst, mode=mode, countries=frozenset(members))


def grid_world(seed=3, rows=6, cols=6):
    """36 countries on a 3-degree grid; some own an offshore island, one a remote one."""
    rng = random.Random(seed)
    countries, borders = {}, {}
    remote = rng.randrange(rows * cols)
    for idx in range(rows * cols):
        row, col = divmod(idx, cols)
        lat, lon = -6.0 + 3.0 * row, 10.0 + 3.0 * col
        iso2 = "GH"[idx // 26] + chr(ord("A") + idx % 26)
        polys = [GeoPolygon(rings=(star_ring(rng, lat, lon, 1.4, rng.randint(5, 10)),))]
        if idx % 4 == 1:
            polys.append(GeoPolygon(rings=(star_ring(rng, lat + 1.5, lon + 1.5, 0.3, 5),)))
        if idx == remote:
            polys.append(GeoPolygon(rings=(star_ring(rng, lat, lon + 100.0, 0.5, 6),)))
        cities = tuple(
            City(f"{iso2} {k}", GeoPoint(lat + rng.uniform(-1.0, 1.0), lon + rng.uniform(-1.0, 1.0)), 1000 - k)
            for k in range(3)
        )
        countries[iso2] = CountryRecord(iso2=iso2, cities=cities)
        borders[iso2] = CountryBorders(iso2=iso2, polygons=tuple(polys))
    return WorldModel(countries=countries, borders=borders, region_of={c: "Africa" for c in countries})


class TestCapPruningOracle:
    """The cap-pruned scan against the brute-force reference, over every pair."""

    @pytest.mark.parametrize("world_name", ["small_world", "real_world", "grid_world"])
    def test_identical_to_brute_force(self, world_name):
        # the loaded worlds at three city limits each; grid_world at the default
        if world_name == "grid_world":
            worlds = [grid_world()]
        else:
            worlds = [load_at(WORLD_DIRS[world_name], city_limit) for city_limit in (1, 2, 15)]
        for w in worlds:
            for a, b in itertools.combinations(sorted(w.countries), 2):
                for mode in ("population", "border"):
                    assert normal_set(w, a, b, mode) == exact_normal_set(w, a, b, mode)

    def test_grid_world_prunes(self, monkeypatch):
        # the oracle above is only meaningful if pruning happens there
        w = grid_world()
        pairs = []
        monkeypatch.setattr(
            sphere_mod, "_arc_meets", lambda a, b, n, edges: pairs.append(len(edges)) or _arc_meets(a, b, n, edges)
        )
        # a diagonal pair: with exact-width polygon caps no polygon reaches a same-row hull
        ns = normal_set(w, "GA", "GO", "population")
        hull = spherical_convex_hull(country_points(w, "GA", "population") + country_points(w, "GO", "population"))
        edges = sum(len(poly._edges) for iso2, cb in w.borders.items() if iso2 not in ns.countries for poly in cb.polygons)
        assert 0 < sum(pairs) < len(hull.vertices) * edges // 10

    def test_grid_world_decides_caps_both_ways(self, monkeypatch):
        # the oracle above reaches both answers of the edge half-space test, for city caps and polygon caps
        w = grid_world()
        city_caps = {id(row[7]) for row in w.country_caps if row[7]}
        seen = set()

        def counted(hull, cap):
            inside = _cap_in_hull(hull, cap)
            seen.add((id(cap) in city_caps, inside))
            return inside

        monkeypatch.setattr(normality_mod, "_cap_in_hull", counted)
        for a, b in itertools.combinations(sorted(w.countries), 2):
            for mode in ("population", "border"):
                normal_set(w, a, b, mode)
        assert {(True, True), (True, False), (False, True), (False, False)} <= seen

    def test_country_whose_cities_have_no_center(self):
        # an antipodal pair of cities gives a city cap with no center, which only the per-city tests decide
        w = grid_world()
        countries = dict(w.countries)
        countries["ZZ"] = CountryRecord(
            iso2="ZZ", cities=(City("ZZ 0", GeoPoint(-3.0, 20.0), 2), City("ZZ 1", GeoPoint(3.0, -160.0), 1))
        )
        w = WorldModel(countries=countries, borders=w.borders, region_of={c: "Africa" for c in countries})
        assert [row[7].center for row in w.country_caps if row[0] == "ZZ"] == [None]
        sets = [
            normal_set(w, a, b, mode)
            for a, b in itertools.combinations(sorted(w.borders), 2)
            for mode in ("population", "border")
        ]
        assert sets == [exact_normal_set(w, ns.src, ns.dst, ns.mode) for ns in sets]
        assert any("ZZ" in ns.countries for ns in sets) and not all("ZZ" in ns.countries for ns in sets)


class TestExactPartialContainment:
    """Members that hull-edge samples every 0.05 degrees never found."""

    def test_cityless_island_inside_the_hull(self, small_world):
        island = GeoPolygon(rings=((GeoPoint(-5.2, 8.05), GeoPoint(-5.2, 8.45), GeoPoint(-4.8, 8.45), GeoPoint(-4.8, 8.05)),))
        w = WorldModel(
            countries=small_world.countries,
            borders={**small_world.borders, "ZI": CountryBorders(iso2="ZI", polygons=(island,))},
            region_of={**small_world.region_of, "ZI": "Africa"},
        )
        for mode in ("population", "border"):
            hull = spherical_convex_hull(country_points(w, "BE", mode) + country_points(w, "BF", mode))
            assert all(hull_contains(hull, v) for v in island._ring_vecs[0])
            assert "ZI" in normal_set(w, "BE", "BF", mode).countries

    def test_sliver_across_a_hull_corner(self, small_world):
        # a thin strip cuts the AA-AB hull's corner at Alpha Port, crossing both
        # of its edges within 0.01 degrees of the vertex, where no 0.05-degree
        # sample lies; no vertex of either lies in the other
        hull = spherical_convex_hull(country_points(small_world, "AA", "population") + country_points(small_world, "AB", "population"))
        k = hull.vertices.index(GeoPoint(1.0, 1.0).vec)
        v, u, w_ = hull.vertices[k], hull.vertices[k - 1], hull.vertices[(k + 1) % len(hull.vertices)]
        toward = lambda t: _normalized(tuple(ti - _dot(v, t) * vi for vi, ti in zip(v, t)))
        s = math.radians(0.01)
        p1, p2 = (_normalized(tuple(math.cos(s) * vi + math.sin(s) * ti for vi, ti in zip(v, toward(t)))) for t in (w_, u))
        along = _normalized(tuple(a - b for a, b in zip(p1, p2)))
        inward = _normalized(tuple(vi - (a + b) / 2 for vi, a, b in zip(v, p1, p2)))
        shift = 0.3 * _angle(v, _normalized(tuple((a + b) / 2 for a, b in zip(p1, p2))))
        move = lambda p, d, x: _normalized(tuple(pi + x * di for pi, di in zip(p, d)))
        q1, q2 = move(p1, along, 10 * s), move(p2, along, -10 * s)
        strip = (q1, move(q1, inward, shift), move(q2, inward, shift), q2)
        sliver = GeoPolygon(rings=(tuple(unit_to_geo(q) for q in strip),))
        assert not any(hull_contains(hull, q) for q in sliver._ring_vecs[0])
        assert not any(polygon_contains(sliver, x) for x in hull.vertices)
        w = WorldModel(
            countries=small_world.countries,
            borders={**small_world.borders, "ZS": CountryBorders(iso2="ZS", polygons=(sliver,))},
            region_of={**small_world.region_of, "ZS": "Africa"},
        )
        assert "ZS" in normal_set(w, "AA", "AB", "population").countries


def _square(lat0, lon0, lat1, lon1):
    return (GeoPoint(lat0, lon0), GeoPoint(lat0, lon1), GeoPoint(lat1, lon1), GeoPoint(lat1, lon0))


class TestMeets:
    """_meets on a hull over the square lat 0..4, lon 0..4, whose southern edge lies on the equator."""

    HULL = spherical_convex_hull([p.vec for p in _square(0, 0, 4, 4)])

    def meets(self, *rings, hull=HULL):
        return _meets(GeoPolygon(rings=rings), hull)

    def test_polygon_around_the_hull(self):
        assert self.meets(_square(-10, -10, 14, 14))

    def test_hull_inside_a_hole(self):
        assert not self.meets(_square(-10, -10, 14, 14), _square(-2, -2, 6, 6))

    def test_polygon_inside_the_hull(self):
        assert self.meets(_square(1, 1, 3, 3))

    def test_polygon_apart(self):
        assert not self.meets(_square(-3, 1, -1, 3))

    @pytest.mark.parametrize("gap, meets", [(0.0, True), (0.5, True), (3.0, False)])
    def test_vertex_touching_an_edge_within_angle_tol(self, gap, meets):
        # a triangle below the equator whose apex lies gap * ANGLE_TOL south of the hull's southern edge
        apex = GeoPoint(-math.degrees(gap * ANGLE_TOL), 2)
        assert self.meets((apex, GeoPoint(-1, 1), GeoPoint(-1, 3))) == meets

    @pytest.mark.parametrize("gap, meets", [(0.5, True), (3.0, False)])
    def test_vertex_on_an_edge_circle_past_its_end(self, gap, meets):
        # a triangle east of the hull whose apex lies on the equator, gap * ANGLE_TOL past the southern edge's end
        apex = GeoPoint(0, 4 + math.degrees(gap * ANGLE_TOL))
        assert self.meets((apex, GeoPoint(-1, 5), GeoPoint(1, 5))) == meets

    def test_polygon_across_an_edge_circle_past_its_end(self):
        # the southern edge's great circle runs through this square, whose cap reaches no other edge's circle
        assert not self.meets(_square(-1, 6, 1, 8))

    def test_arc_and_point_hulls(self):
        arc = spherical_convex_hull([GeoPoint(2, -5).vec, GeoPoint(2, 5).vec])
        point = spherical_convex_hull([GeoPoint(2, 2).vec])
        assert (arc.degenerate_kind, len(arc._edges), point.degenerate_kind, len(point._edges)) == ("arc", 1, "point", 0)
        assert self.meets(_square(0, 0, 4, 4), hull=arc)  # crosses two edges, no vertex inside
        assert self.meets(_square(0, 0, 4, 4), hull=point)
        assert not self.meets(_square(3, 3, 4, 4), hull=point)


class TestFrames:
    def test_crossing_tests_build_no_projection(self):
        # only a hull vertex inside a polygon's cap needs the polygon's gnomonic
        # rings, and no smallworld hull has its first vertex in a polygon cap
        # that the crossing tests reach
        w = load_at(SMALLWORLD_DIR)
        for a, b in itertools.combinations(sorted(w.countries), 2):
            for mode in ("population", "border"):
                normal_set(w, a, b, mode)
        polys = [poly for cb in w.borders.values() for poly in cb.polygons]
        tested = [poly for poly in polys if "_edges" in poly.__dict__]
        framed = [poly for poly in polys if "_frame" in poly.__dict__]
        assert tested and not framed


class TestCityCaps:
    def test_one_table_per_world_and_city_limit(self, small_world):
        w = load_at(SMALLWORLD_DIR, city_limit=2)
        table = w.country_caps
        assert [len(row[8]) for row in table] == [min(2, len(rec.cities)) for rec in small_world.countries.values()]
        for a, b in itertools.combinations(sorted(w.countries), 2):
            for mode in ("population", "border"):
                normal_set(w, a, b, mode)
        assert w.country_caps is table  # builds read the table and add none

    def test_worlds_do_not_share_tables(self, small_world):
        load_at(SMALLWORLD_DIR, city_limit=1)
        assert [len(row[8]) for row in small_world.country_caps] == [len(rec.cities) for rec in small_world.countries.values()]
        assert max(len(rec.cities) for rec in small_world.countries.values()) > 1

    def test_a_directly_built_world_carries_the_table(self):
        w = grid_world()
        assert [row[0] for row in w.country_caps] == list(w.countries)
        for (*_, city_cap, vecs, _), rec in zip(w.country_caps, w.countries.values()):
            assert vecs == tuple(c.location.vec for c in rec.cities)
            assert all(_dot(city_cap.center, v) >= city_cap.cos for v in vecs)


def _unit(lat, lon):
    return GeoPoint(lat, lon).vec


@st.composite
def cap_pair(draw):
    """Two caps whose rims pass within about 0.01 rad of each other, radii up to pi, and points of the second."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    r1, r2 = (draw(st.sampled_from([0.0, 1e-6, 0.01, 0.5, 1.5, 2.0, 3.0])) for _ in range(2))
    c1 = offset((0.0, 0.0, 1.0), rng.uniform(0, math.pi), rng)
    c2 = offset(c1, min(math.pi, max(0.0, r1 + r2 + draw(st.floats(-0.01, 0.01)))), rng)
    points = [offset(c2, r2 * math.sqrt(rng.random()), rng) for _ in range(20)]
    # the point of the second cap nearest the first's center
    if r2 < _angle(c1, c2):
        points.append(_turn(c2, c1, r2))
    return (c1, r1), (c2, r2), points


def _turn(p, t, ang):
    """The unit vector ang radians from p toward t, which need not be tangent at p; p when t is parallel to p.

    With p and t equal or antipodal, up to rounding, there is no direction to
    turn in, and p itself is returned.
    """
    u = tuple(ti - _dot(p, t) * pi for pi, ti in zip(p, t))
    norm = math.sqrt(_dot(u, u))
    return p if norm < 1e-12 else _normalized(tuple(math.cos(ang) * pi + math.sin(ang) * ui / norm for pi, ui in zip(p, u)))


class TestApart:
    @given(cap_pair())
    def test_apart_caps_share_no_point(self, case):
        (c1, r1), (c2, r2), points = case
        if _apart(c1, math.cos(r1), math.sin(r1), Cap(c2, math.cos(r2), math.sin(r2))):
            assert r1 + r2 < math.pi
            assert all(_angle(c1, p) > r1 - 1e-12 for p in points)

    def test_radii_summing_to_pi_always_meet(self):
        c, far = _unit(0, 0), _unit(0, 180)
        for r1, r2 in ((1.0, math.pi - 1.0), (1.0, math.pi - 0.9), (0.0, math.pi), (math.pi / 2, math.pi / 2)):
            assert not _apart(c, math.cos(r1), math.sin(r1), Cap(far, math.cos(r2), math.sin(r2)))

    def test_no_hull_floor_never_prunes(self):
        assert not _apart(_unit(0, 0), -math.inf, 1.0, Cap(_unit(0, 180), 1.0, 0.0))
        assert _apart(_unit(0, 0), math.cos(0.1), math.sin(0.1), Cap(_unit(0, 180), 1.0, 0.0))
        # either side of the test may hold the cap that never prunes
        assert not _apart(_unit(0, 180), 1.0, 0.0, Cap(None, -math.inf, 1.0))


def _hull_of(vecs):
    return spherical_convex_hull([_normalized(v) for v in vecs])


def _hull_shape(draw, rng, kinds):
    """Vectors spanning a hull of one of kinds, around a random center; slivers' acute angles go down to ~1e-4 rad."""
    c = offset((0.0, 0.0, 1.0), rng.uniform(0, math.pi), rng)
    kind = draw(st.sampled_from(kinds))
    length = 10 ** draw(st.floats(-7 if kind == "arc" else -4, 0))
    acute = 10 ** draw(st.floats(-4, -0.5))
    t1 = offset(c, math.pi / 2, rng)
    t2 = _cross(c, t1)
    along = lambda t, ang: tuple(math.cos(ang) * ci + math.sin(ang) * ti for ci, ti in zip(c, t))
    if kind == "cloud":
        return [offset(c, length * math.sqrt(rng.random()), rng) for _ in range(rng.randint(3, 12))]
    if kind in ("sliver", "rhombus"):
        half = length / 2
        h = half * math.tan(acute)
        return [along(t1, -half), along(t1, half), along(t2, h)] + ([along(t2, -h)] if kind == "rhombus" else [])
    if kind == "arc":
        return [along(t1, -length / 2), along(t1, length / 2)]
    return [c]


@st.composite
def hull_and_probes(draw):
    """A hull, from fat polygons down to slivers and short arcs, and probe vectors near the ANGLE_TOL margin around it.

    Slivers are isosceles triangles or rhombi whose acute angles go down to
    ~1e-4 rad. Probes include the farthest accepted point along the outward
    bisector of every vertex, found by bisection, points just past it, points
    near the cap's edge and antipodes.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    hull = _hull_of(_hull_shape(draw, rng, ["cloud", "sliver", "rhombus", "arc", "point"]))
    cap = hull.cap
    center, floor = cap.center, cap.cos
    vts = hull.vertices
    probes = [tuple(-x for x in center)]
    for k, v in enumerate(vts):
        probes.append(tuple(-x for x in v))
        if len(vts) < 3:
            continue
        # outward bisector at v: away from the midpoint of its neighbours' directions
        prev, nxt = vts[k - 1], vts[(k + 1) % len(vts)]
        dp, dq = _dot(v, prev), _dot(v, nxt)
        inward = _normalized(tuple(p - dp * vi + q - dq * vi for vi, p, q in zip(v, prev, nxt)))
        out = tuple(-x for x in inward)
        beyond = lambda d: _normalized(tuple(math.cos(d) * vi + math.sin(d) * oi for vi, oi in zip(v, out)))
        lo, hi = 0.0, math.pi / 2
        for _ in range(60):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if hull_contains(hull, beyond(mid)) else (lo, mid)
        probes += [beyond(lo), beyond(hi), beyond(hi * 1.01), tuple(-x for x in beyond(lo))]
    if floor > -1.0:
        radius = math.acos(floor)
        probes += [offset(center, radius * rng.uniform(0.999, 1.01), rng) for _ in range(20)]
    probes += [offset(center, rng.uniform(0, math.pi), rng) for _ in range(20)]
    return hull, probes


class TestHullCap:
    """The hull-cap prune of the top-city loop never skips a vector the hull accepts."""

    @given(hull_and_probes())
    def test_skipped_vectors_are_outside_the_hull(self, case):
        hull, probes = case
        cap = hull.cap
        center, floor = cap.center, cap.cos
        for p in probes:
            if _dot(center, p) < floor:
                assert not hull_contains(hull, p)

    def test_fat_hull_prunes(self):
        hull = _hull_of([_unit(0, 0), _unit(0, 10), _unit(10, 0)])
        cap = hull.cap
        center, floor = cap.center, cap.cos
        assert math.cos(math.radians(8)) < floor
        assert _dot(center, _unit(-2, -2)) < floor

    def test_sliver_rejects_its_antipode_and_prunes(self):
        # a 0.002-rad isosceles triangle with base angles 1e-4 rad: every edge passes within
        # ANGLE_TOL of its center, yet its antipode is exactly outside and far from every edge
        half = 0.001
        apex = (math.cos(half * 1e-4), 0.0, math.sin(half * 1e-4))
        hull = _hull_of([(math.cos(half), -math.sin(half), 0.0), (math.cos(half), math.sin(half), 0.0), apex])
        assert hull.degenerate_kind == "polygon"
        cap = hull.cap
        antipode = tuple(-x for x in cap.center)
        assert not hull_contains(hull, antipode)
        assert _dot(cap.center, antipode) < cap.cos and math.acos(cap.cos) < 2 * half

    def test_short_arc_rejects_its_antipode_and_prunes(self):
        hull = _hull_of([(1.0, 0.0, 0.0), (math.cos(ANGLE_TOL / 2), math.sin(ANGLE_TOL / 2), 0.0)])
        assert hull.degenerate_kind == "arc"
        assert not hull_contains(hull, (-1.0, 0.0, 0.0))
        cap = hull.cap
        assert _dot(cap.center, (-1.0, 0.0, 0.0)) < cap.cos and math.acos(cap.cos) < 1e-5


@st.composite
def hull_and_cap(draw):
    """A polygon hull, fat or a sliver, a cap inside, outside, across or grazing one of its edges, and probes of the cap.

    A grazing cap's rim passes within 4 * ANGLE_TOL of an edge's great
    circle, on either side, beside the middle of that edge. Probes are the
    center, random points of the cap and its rim, and for every edge normal n
    the rim points where n.p is least and greatest.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    hull = _hull_of(_hull_shape(draw, rng, ["cloud", "sliver", "rhombus"]))
    assume(hull.degenerate_kind == "polygon")
    vts, normals = hull.vertices, [n for _, _, n in hull._edges]
    r = draw(st.sampled_from([0.0, 1e-7, 1e-5, 1e-3, 0.05, 0.5, 1.4]))
    place = draw(st.sampled_from(["inside", "outside", "across", "graze", "graze"]))
    if place == "inside":
        center = _normalized(tuple(map(sum, zip(*(tuple(rng.random() * x for x in v) for v in vts)))))
    elif place == "outside":
        center = offset(vts[0], rng.uniform(0, math.pi), rng)
    else:
        i = rng.randrange(len(vts))
        a, b, n = vts[i], vts[(i + 1) % len(vts)], normals[i]
        t = rng.uniform(0.25, 0.75)
        q = _normalized(tuple((1 - t) * ai + t * bi for ai, bi in zip(a, b)))
        shift = rng.uniform(-r, r) if place == "across" else rng.choice((-1, 1)) * (r + rng.uniform(-4, 4) * ANGLE_TOL)
        center = _turn(q, n, shift)
    probes = [center] + [offset(center, r * rng.choice((1.0, rng.random())), rng) for _ in range(10)]
    for n in normals:
        probes += [_turn(center, n, r), _turn(center, tuple(-x for x in n), r)]
    return hull, Cap(center, math.cos(r), math.sin(r)), probes


class TestCapInHull:
    """Whole caps decided against a polygon hull's edge half-spaces."""

    @given(hull_and_cap())
    def test_decisions_agree_with_every_probe(self, case):
        hull, cap, probes = case
        inside = _cap_in_hull(hull, cap)
        if inside is not None:
            assert all(hull_contains(hull, p) == inside for p in probes)

    def test_all_three_answers(self):
        hull = _hull_of([_unit(0, 0), _unit(0, 10), _unit(10, 0)])
        cap = lambda center, r=0.01: Cap(center, math.cos(r), math.sin(r))
        assert _cap_in_hull(hull, cap(_unit(2, 2))) is True
        assert _cap_in_hull(hull, cap(_unit(-5, -5))) is False
        assert _cap_in_hull(hull, cap(_unit(0, 5))) is None
        # the rim 0.5 * ANGLE_TOL south of the equator edge: hull_contains accepts its nearest point
        assert _cap_in_hull(hull, cap(_turn(_unit(0, 5), (0, 0, -1), 0.01 + ANGLE_TOL / 2))) is None
        # caps of r >= pi/2, with a center or without
        assert _cap_in_hull(hull, Cap(None, -math.inf, 1.0)) is None
        assert _cap_in_hull(hull, Cap(_unit(2, 2), -math.inf, 1.0)) is None

    def test_point_and_arc_hulls_are_undecided(self):
        for points in ([_unit(0, 0)], [_unit(0, 0), _unit(0, 10)]):
            hull = _hull_of(points)
            assert hull.degenerate_kind != "polygon"
            for center in (_unit(0, 0), _unit(0, 5), _unit(-5, -5)):
                assert _cap_in_hull(hull, Cap(center, math.cos(0.01), math.sin(0.01))) is None


class TestTraceContract:
    def test_hull_built_once_per_build(self, small_world, monkeypatch):
        # perfbench/chain.py times this call by swapping the module global
        calls = []

        def counted(points):
            calls.append(1)
            return spherical_convex_hull(points)

        monkeypatch.setattr(normality_mod, "spherical_convex_hull", counted)
        for a, b in itertools.combinations(sorted(small_world.countries), 2):
            for mode in ("population", "border"):
                calls.clear()
                assert not normal_set(small_world, a, b, mode).unclassifiable
                assert len(calls) == 1


def two_city_world(a, b):
    """A world of two countries, PA and PB, whose cities are the GeoPoints a and b."""
    countries = {
        iso2: CountryRecord(iso2=iso2, cities=tuple(City(f"{iso2} {k}", p, 1) for k, p in enumerate(pts)))
        for iso2, pts in (("PA", a), ("PB", b))
    }
    return WorldModel(countries=countries, borders={}, region_of={"PA": "Africa", "PB": "Africa"})


def _rotated(v, axis, ang):
    """v turned by ang radians about the unit vector axis (Rodrigues)."""
    k, c, s = axis, math.cos(ang), math.sin(ang)
    kv, kxv = _dot(k, v), _cross(k, v)
    return tuple(vi * c + ci * s + ki * kv * (1 - c) for vi, ci, ki in zip(v, kxv, k))


@st.composite
def country_pair(draw):
    """(kind, cities of PA, cities of PB), GeoPoints. Kinds:

    - far: two clusters of radius up to 16 degrees, their caps apart and centers up to 175 degrees apart;
    - shared: PB repeats some of PA's cities, so their caps meet;
    - tiny: clusters of 1 or 2 cities;
    - fails_alone: PA is a dense cluster and one city 95 to 100 degrees off,
      which fails the hemisphere rule alone; PB, between them, makes the pair pass;
    - limit: two clusters turned apart until the pair's least dot product with
      its mean is 1e-9, then by a few rounding steps more or less;
    - collinear: PA's cities on the equator, whose vectors are exactly coplanar,
      and PB a cluster off it, so the pair's hull has an edge with cities inside it.

    Cluster cities may be snapped to whole degrees, which puts several on one
    meridian or repeats them.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["far", "shared", "tiny", "fails_alone", "limit", "collinear"]))
    snap = draw(st.booleans()) and kind not in ("limit", "fails_alone")
    c1 = offset((0.0, 0.0, 1.0), rng.uniform(0, math.pi), rng)

    def cluster(center, radius, n):
        geo = [unit_to_geo(offset(center, radius * math.sqrt(rng.random()), rng)) for _ in range(n)]
        return [GeoPoint(round(p.lat), round(p.lon)) for p in geo] if snap else geo

    if kind == "fails_alone":
        far = offset(c1, math.radians(rng.uniform(95, 100)), rng)
        a = cluster(c1, math.radians(1), rng.randint(15, 25)) + [unit_to_geo(far)]
        b = cluster(_turn(c1, far, math.radians(rng.uniform(50, 60))), math.radians(1), rng.randint(15, 25))
        return kind, a, b
    if kind == "limit":
        a_vecs = [offset(c1, math.radians(1) * rng.random(), rng) for _ in range(rng.randint(1, 8))]
        b_base = [offset(c1, math.radians(1) * rng.random(), rng) for _ in range(rng.randint(1, 8))]
        axis = offset(c1, math.pi / 2, rng)

        def pair_at(ang):
            return [unit_to_geo(v) for v in a_vecs], [unit_to_geo(_rotated(v, axis, ang)) for v in b_base]

        def fits(ang):
            a, b = pair_at(ang)
            return sphere_mod._center([p.vec for p in a + b])[1] > 1e-9

        lo, hi = 0.0, math.pi
        for _ in range(80):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if fits(mid) else (lo, mid)
        ang = lo + draw(st.integers(-4, 4)) * 1e-15
        return kind, *pair_at(ang)
    if kind == "collinear":
        lon, step = rng.uniform(-180, 150), rng.uniform(0.01, 5)
        a = [GeoPoint(0.0, lon + k * step) for k in range(rng.randint(3, 8))]
        return kind, a, cluster(offset(GeoPoint(0.0, lon).vec, math.radians(rng.uniform(45, 80)), rng), math.radians(1), rng.randint(1, 6))
    radius = 10 ** rng.uniform(-3, 1.2)
    sizes = (rng.randint(1, 2), rng.randint(1, 2)) if kind == "tiny" else (rng.randint(1, 12), rng.randint(1, 12))
    a = cluster(c1, math.radians(radius), sizes[0])
    # apart by more than both radii and any snapping
    b = cluster(offset(c1, math.radians(rng.uniform(2 * radius + 2, 175)), rng), math.radians(radius), sizes[1])
    if kind == "shared":
        b = b + rng.sample(a, rng.randint(1, len(a)))
    return kind, a, b


class TestPairHull:
    """pair_hull over two cached PointSets against one hull over every point."""

    @given(country_pair())
    def test_same_hull_as_over_every_point(self, case):
        kind, a, b = case
        w = two_city_world(a, b)
        pa, pb = w.point_set("PA", "population"), w.point_set("PB", "population")
        apart = _apart(pa.cap.center, pa.cap.cos, pa.cap.sin, pb.cap)
        assert apart == (kind not in ("shared", "fails_alone"))
        # the reference: every point of each country, deduplicated on its own; the mean over both lists
        da, db = _dedup([p.vec for p in a]), _dedup([p.vec for p in b])
        expected = vertices_or_none(lambda: spherical_convex_hull(PointSet(_dedup(da + db), tuple(zip(*da, *db)))))
        assert vertices_or_none(lambda: pair_hull(w, "PA", "PB", "population")) == expected
        if kind == "fails_alone":
            assert pa.cap.cos == -math.inf and pa.vecs == da and expected is not None

    def test_coinciding_cities_give_a_point_hull(self):
        # PA's and PB's only cities are one point; PC holds it among others, so the scan tests PC against the hull
        w = WorldModel(
            countries={
                iso2: CountryRecord(iso2=iso2, cities=tuple(City(f"{iso2} {k}", GeoPoint(*p), 1) for k, p in enumerate(pts)))
                for iso2, pts in (("PA", [(0, 0)]), ("PB", [(0, 0)]), ("PC", [(-1, 0), (0, 0), (1, 0)]))
            },
            borders={},
            region_of={"PA": "Africa", "PB": "Africa", "PC": "Africa"},
        )
        assert pair_hull(w, "PA", "PB", "population").vertices == (GeoPoint(0, 0).vec,)
        assert normal_set(w, "PA", "PB", "population").countries == {"PA", "PB", "PC"}
        # the two PointSets' vecs taken together, not deduplicated, give an arc with no normal
        pa, pb = w.point_set("PA", "population"), w.point_set("PB", "population")
        assert spherical_convex_hull(PointSet(pa.vecs + pb.vecs, tuple(zip(*pa.vecs, *pb.vecs))))._edges[0][2] is None

    def test_a_country_without_points(self):
        # a directly built world may hold a country with borders but no cities: its population PointSet is empty.
        # PB's four hull vertices fail the rule around their own mean; with its 40 cities near (0, 85) they pass it.
        ring = [(0, 0), (0, 175), (5, 170), (-5, 170)] + [(0.025 * k - 0.5, 85) for k in range(40)]
        cities = tuple(City(f"PB {k}", GeoPoint(*p), 1) for k, p in enumerate(ring))
        w = WorldModel(
            countries={"PA": CountryRecord("PA", ()), "PB": CountryRecord("PB", cities)},
            borders={"PA": CountryBorders("PA", (GeoPolygon(rings=(_square(5, 5, 6, 6),)),))},
            region_of={"PA": "Africa", "PB": "Africa"},
        )
        pa = w.point_set("PA", "population")
        assert (pa.vecs, pa.cap.cos) == ([], -math.inf)
        assert pair_hull(w, "PA", "PB", "population") == spherical_convex_hull(country_points(w, "PB", "population"))

    def test_the_mean_of_every_point_decides(self, gen_world1_dir):
        # AX's border hull spans 10 of its 44 points and CU's 10 of 19; the mean
        # of those 20 vertices alone would put every point in its hemisphere
        w = load_at(gen_world1_dir, city_limit=1)
        assert normal_set(w, "AX", "CU", "border").unclassifiable
        ax, cu = w.point_set("AX", "border"), w.point_set("CU", "border")
        assert _apart(ax.cap.center, ax.cap.cos, ax.cap.sin, cu.cap)
        assert spherical_convex_hull(list(ax.vecs + cu.vecs)).degenerate_kind == "polygon"


class TestHullRing:
    """The one hull routine behind point_set, spherical_convex_hull and pair_hull: one ring and one cap per point set."""

    @pytest.mark.parametrize("city_limit", [1, DEFAULT_CITY_LIMIT])
    @pytest.mark.parametrize("world_name", ["small_world", "real_world", "gen_world1"])
    def test_point_set_and_pair_hull_agree_with_the_hull(self, world_name, city_limit, gen_world1_dir):
        w = load_at({**WORLD_DIRS, "gen_world1": gen_world1_dir}[world_name], city_limit)
        pairs = list(itertools.combinations(sorted(w.countries), 2))
        if world_name == "gen_world1":  # a seeded sample; smallworld and data/world hold no pair that fails the rule
            pairs = random.Random(3).sample(pairs, 300)
        fits = [0, 0]
        for a, b in pairs:
            for mode in ("population", "border"):
                points = country_points(w, a, mode) + country_points(w, b, mode)
                ps = point_set(points)
                try:
                    hull = spherical_convex_hull(points)
                except HemisphereViolation:
                    fits[0] += 1
                    assert (ps.vecs, ps.cap) == (_dedup(points), Cap(None, -math.inf, 1.0))
                    with pytest.raises(HemisphereViolation):
                        pair_hull(w, a, b, mode)
                    continue
                fits[1] += 1
                assert (tuple(ps.vecs), ps.cap) == (hull.vertices, hull.cap)
                built = pair_hull(w, a, b, mode)
                assert all(_dot(built.cap.center, v) >= built.cap.cos for v in built.vertices)
        assert fits[1] > 0 and (fits[0] > 0) == (world_name == "gen_world1")


class TestCountryCaps:
    @pytest.mark.parametrize("world_name", ["small_world", "real_world", "gen_world1"])
    def test_every_city_and_polygon_cap_inside(self, world_name, gen_world1_dir):
        w = load_at({**WORLD_DIRS, "gen_world1": gen_world1_dir}[world_name])
        pruning = 0
        for iso2, cx, cy, cz, cos, sin, cap, city_cap, vecs, polygons in w.country_caps:
            assert (cap.center or (0.0, 0.0, 0.0), cap.cos, cap.sin) == ((cx, cy, cz), cos, sin)
            assert vecs == (tuple(c.location.vec for c in w.countries[iso2].cities) if iso2 in w.countries else ())
            assert polygons == (w.borders[iso2].polygons if iso2 in w.borders else ())
            if cos == -math.inf:
                continue
            pruning += 1
            center, radius = (cx, cy, cz), math.atan2(sin, cos)
            assert all(_angle(center, v) <= radius for v in vecs)
            inner = [poly._cap for poly in polygons] + ([city_cap] if city_cap else [])
            assert all(_angle(center, c.center) + math.atan2(c.sin, c.cos) <= radius for c in inner)
        assert pruning > len(w.country_caps) / 2

    def test_worlds_share_no_point_sets(self):
        one, three = load_at(SMALLWORLD_DIR, city_limit=1), load_at(SMALLWORLD_DIR, city_limit=3)
        normal_set(one, "AA", "AB", "population")
        normal_set(three, "AA", "AB", "population")
        assert [len(w.point_set("AA", "population").comps[0]) for w in (one, three)] == [1, 3]
        assert one._point_sets.keys() == three._point_sets.keys() and one._point_sets is not three._point_sets

    def test_a_country_apart_from_the_hull_reaches_no_inner_cap(self, gen_world1_dir, monkeypatch):
        w = load_at(gen_world1_dir)
        owner = {id(row[7]): row[0] for row in w.country_caps if row[7]}
        owner.update((id(poly._cap), iso2) for iso2, cb in w.borders.items() for poly in cb.polygons)
        reached = []
        # only normal_set's scan reaches the patch: pair_hull's caps-apart test runs in sphere.PointSet.union
        monkeypatch.setattr(normality_mod, "_apart", lambda c, cos, sin, cap: reached.append(owner.get(id(cap))) or _apart(c, cos, sin, cap))
        rng = random.Random(5)
        far_total = 0
        for a, b in rng.sample(list(itertools.combinations(sorted(w.countries), 2)), 60):
            for mode in ("population", "border"):
                try:
                    hull_cap = pair_hull(w, a, b, mode).cap
                except HemisphereViolation:
                    continue
                reached.clear()
                normal_set(w, a, b, mode)
                far = {
                    iso2 for iso2, cx, cy, cz, cos, sin, *_ in w.country_caps
                    if _apart(hull_cap.center, hull_cap.cos, hull_cap.sin, Cap((cx, cy, cz), cos, sin))
                }
                far_total += len(far)
                assert not far & set(reached)
        assert far_total > 60 * 2 * len(w.country_caps) / 2
