import functools
import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

import geonorm.normality as normality_mod
from geonorm.errors import HemisphereViolation, UnknownCountry, ValidationError
from geonorm.normality import NormalSet, PairCache, _apart, _hull_cap, classify, normal_set
from geonorm.sphere import (
    ANGLE_TOL,
    GeoPoint,
    _angle,
    _cross,
    _dot,
    _hull_contains_vec,
    _normalized,
    _polygon_contains_vec,
    geo_to_unit,
    hull_boundary_samples,
    spherical_convex_hull,
    unit_to_geo,
)
from geonorm.world import (
    DEFAULT_CITY_LIMIT, City, CountryBorders, CountryRecord, GeoPolygon, WorldModel, country_points, load_summary,
    load_world,
)

from conftest import SMALLWORLD as SMALLWORLD_DIR, offset, star_ring

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

    def test_hull_growth_monotonic_in_cities(self, small_world):
        # widening AA's city set must never shrink a normal set
        base = normal_set(small_world, "AA", "AB", "population", city_limit=1).countries
        grown = normal_set(small_world, "AA", "AB", "population", city_limit=3).countries
        assert base <= grown

    def test_unknown_country_with_suggestions(self, small_world):
        with pytest.raises(UnknownCountry) as exc:
            normal_set(small_world, "AX", "AB", "population")
        assert exc.value.suggestions  # close codes exist: AA, AB, ...

    def test_partial_containment_via_border_crossing(self, small_world):
        # BE-BF hulls cross AB territory; population mode finds Beta City
        # inside, border mode finds AB via hull-edge samples in its borders
        for mode in ("population", "border"):
            assert "AB" in normal_set(small_world, "BE", "BF", mode).countries


def antipodal_world():
    def rec(iso2, lat, lon, region):
        return CountryRecord(
            iso2=iso2,
            name=iso2,
            region=region,
            cities=(City(f"{iso2} City", GeoPoint(lat, lon), 1000),),
        )

    def borders(iso2, lat, lon):
        ring = (
            GeoPoint(lat - 1, lon - 1),
            GeoPoint(lat - 1, lon + 1),
            GeoPoint(lat + 1, lon + 1),
            GeoPoint(lat + 1, lon - 1),
        )
        return CountryBorders(iso2=iso2, polygons=(GeoPolygon(rings=(ring,)),))

    countries = {"PX": rec("PX", 0, 0, "Africa"), "PY": rec("PY", 0, 180, "Asia")}
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


class TestBoundaryStepCheck:
    @pytest.mark.parametrize("step", [0, -1, math.nan, 0.000999])
    def test_rejected_before_any_hull(self, small_world, monkeypatch, step):
        def no_hull(points):
            raise AssertionError("hull built before the step was checked")

        monkeypatch.setattr(normality_mod, "spherical_convex_hull", no_hull)
        # same country, unclassifiable and ordinary pairs
        for w, a, b in [(small_world, "AA", "AA"), (antipodal_world(), "PX", "PY"), (small_world, "AA", "AC")]:
            with pytest.raises(ValidationError, match="sampling step must be at least 0.001 degrees"):
                normal_set(w, a, b, "population", boundary_step=step)
            with pytest.raises(ValidationError, match="sampling step must be at least 0.001 degrees"):
                PairCache(boundary_step=step).get_or_build(w, a, b, "border")


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
    def test_included_through_hull_edge_samples(self, tmp_path):
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


def unpruned_normal_set(w, src, dst, mode, boundary_step, samples_of=hull_boundary_samples):
    """Reference: normal_set as it was before cap pruning, every sample against every polygon."""
    if src == dst:
        return NormalSet(src=src, dst=dst, mode=mode, countries=frozenset({src}))
    points = country_points(w, src, mode, DEFAULT_CITY_LIMIT) + country_points(w, dst, mode, DEFAULT_CITY_LIMIT)
    try:
        hull = spherical_convex_hull(points)
    except HemisphereViolation:
        return NormalSet(src=src, dst=dst, mode=mode, countries=frozenset({src, dst}), unclassifiable=True)
    members = {src, dst}
    for iso2, rec in w.countries.items():
        if iso2 in members:
            continue
        if any(_hull_contains_vec(hull, geo_to_unit(c.location)) for c in rec.top_cities(DEFAULT_CITY_LIMIT)):
            members.add(iso2)
    sample_vecs = samples_of(hull, boundary_step)
    for iso2, cb in w.borders.items():
        if iso2 in members:
            continue
        if any(_polygon_contains_vec(poly, v) for poly in cb.polygons for v in sample_vecs):
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
        countries[iso2] = CountryRecord(iso2=iso2, name=iso2, region="Africa", cities=cities)
        borders[iso2] = CountryBorders(iso2=iso2, polygons=tuple(polys))
    return WorldModel(countries=countries, borders=borders, region_of={c: "Africa" for c in countries})


class TestCapPruningOracle:
    """The cap-pruned scan against the unpruned reference, over every pair."""

    @pytest.mark.parametrize("world_name", ["small_world", "real_world", "grid_world"])
    def test_identical_to_unpruned(self, request, world_name, monkeypatch):
        w = grid_world() if world_name == "grid_world" else request.getfixturevalue(world_name)
        # samples are a pure function of (hull, step); sharing them saves a second sampling pass
        samples_of = functools.cache(hull_boundary_samples)
        monkeypatch.setattr(normality_mod, "hull_boundary_samples", samples_of)
        for a, b in itertools.combinations(sorted(w.countries), 2):
            for mode in ("population", "border"):
                for step in (0.05, 0.2):
                    expected = unpruned_normal_set(w, a, b, mode, step, samples_of)
                    assert normal_set(w, a, b, mode, boundary_step=step) == expected

    def test_grid_world_prunes(self, monkeypatch):
        # the oracle above is only meaningful if pruning happens there
        w = grid_world()
        calls = []
        monkeypatch.setattr(
            normality_mod, "_polygon_contains_vec", lambda poly, v: calls.append(1) or _polygon_contains_vec(poly, v)
        )
        # a diagonal pair: with exact-width polygon caps no polygon reaches a same-row hull
        ns = normal_set(w, "GA", "GO", "population")
        hull = spherical_convex_hull(country_points(w, "GA", "population") + country_points(w, "GO", "population"))
        polys = sum(len(cb.polygons) for iso2, cb in w.borders.items() if iso2 not in ns.countries)
        assert 0 < len(calls) < len(hull_boundary_samples(hull)) * polys // 10


class TestLazySampling:
    # _polygon_contains_vec calls over the builds below with closed-form
    # sample windows (437 when every sample was computed up front and tested
    # in runs of 32 under one cap each, 281 with bisected runs)
    EAGER_SCAN_POLYGON_TESTS = 171

    def test_few_samples_computed(self, small_world, monkeypatch):
        built, tests = [], []

        def samples_of(hull, step):
            built.append(hull_boundary_samples(hull, step))
            return built[-1]

        monkeypatch.setattr(normality_mod, "hull_boundary_samples", samples_of)
        monkeypatch.setattr(
            normality_mod, "_polygon_contains_vec", lambda poly, v: tests.append(1) or _polygon_contains_vec(poly, v)
        )
        for a, b in itertools.combinations(sorted(small_world.countries), 2):
            for mode in ("population", "border"):
                normal_set(small_world, a, b, mode)
        computed = sum(v is not None for samples in built for v in samples._vecs)
        assert 0 < computed < sum(map(len, built)) // 10
        assert 0 < len(tests) <= self.EAGER_SCAN_POLYGON_TESTS


class TestCityCaps:
    def test_one_table_per_world_and_city_limit(self):
        w = load_world(SMALLWORLD_DIR / "cities.csv", SMALLWORLD_DIR / "borders.geojson", SMALLWORLD_DIR / "regions.csv")
        assert w._city_caps == {}  # loading builds none
        normal_set(w, "AA", "AD", "population")
        table = w._city_caps[DEFAULT_CITY_LIMIT]
        for a, b in itertools.combinations(sorted(w.countries), 2):
            normal_set(w, a, b, "border")
        assert list(w._city_caps) == [DEFAULT_CITY_LIMIT] and w._city_caps[DEFAULT_CITY_LIMIT] is table
        normal_set(w, "AA", "AD", "population", city_limit=2)
        assert sorted(w._city_caps) == [2, DEFAULT_CITY_LIMIT] and w._city_caps[DEFAULT_CITY_LIMIT] is table
        assert [len(row[-1]) for row in w._city_caps[2]] == [min(2, len(rec.cities)) for rec in w.countries.values()]

    def test_worlds_do_not_share_tables(self, small_world):
        normal_set(small_world, "AA", "AD", "population")
        assert grid_world()._city_caps == {}


def _unit(lat, lon):
    return geo_to_unit(GeoPoint(lat, lon))


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
        points.append(_normalized(tuple(math.cos(r2) * x + math.sin(r2) * y for x, y in zip(c2, _tangent_toward(c2, c1)))))
    return (c1, r1), (c2, r2), points


def _tangent_toward(a, b):
    return _normalized(tuple(bi - _dot(a, b) * ai for ai, bi in zip(a, b)))


class TestApart:
    @given(cap_pair())
    def test_apart_caps_share_no_point(self, case):
        (c1, r1), (c2, r2), points = case
        if _apart(c1, math.cos(r1), math.sin(r1), c2, math.cos(r2), math.sin(r2)):
            assert r1 + r2 < math.pi
            assert all(_angle(c1, p) > r1 - 1e-12 for p in points)

    def test_radii_summing_to_pi_always_meet(self):
        c, far = _unit(0, 0), _unit(0, 180)
        for r1, r2 in ((1.0, math.pi - 1.0), (1.0, math.pi - 0.9), (0.0, math.pi), (math.pi / 2, math.pi / 2)):
            assert not _apart(c, math.cos(r1), math.sin(r1), far, math.cos(r2), math.sin(r2))

    def test_no_hull_floor_never_prunes(self):
        assert not _apart(_unit(0, 0), -math.inf, 1.0, _unit(0, 180), 1.0, 0.0)
        assert _apart(_unit(0, 0), math.cos(0.1), math.sin(0.1), _unit(0, 180), 1.0, 0.0)


def _hull_of(vecs):
    return spherical_convex_hull([unit_to_geo(_normalized(v)) for v in vecs])


@st.composite
def hull_and_probes(draw):
    """A hull, from fat polygons down to slivers and short arcs, and probe vectors near its tolerant band.

    Slivers are isosceles triangles or rhombi whose acute angles go down to
    ~1e-4 rad. Probes include the tolerant apex beyond every vertex (the
    farthest accepted point along the outward bisector, found by bisection),
    points just past it, points near the widened cap's edge and antipodes.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    c = offset((0.0, 0.0, 1.0), rng.uniform(0, math.pi), rng)
    kind = draw(st.sampled_from(["cloud", "sliver", "rhombus", "arc", "point"]))
    length = 10 ** draw(st.floats(-7 if kind == "arc" else -4, 0))
    acute = 10 ** draw(st.floats(-4, -0.5))
    t1 = offset(c, math.pi / 2, rng)
    t2 = _cross(c, t1)
    along = lambda t, ang: tuple(math.cos(ang) * ci + math.sin(ang) * ti for ci, ti in zip(c, t))
    if kind == "cloud":
        vecs = [offset(c, length * math.sqrt(rng.random()), rng) for _ in range(rng.randint(3, 12))]
    elif kind in ("sliver", "rhombus"):
        half = length / 2
        h = half * math.tan(acute)
        vecs = [along(t1, -half), along(t1, half), along(t2, h)] + ([along(t2, -h)] if kind == "rhombus" else [])
    elif kind == "arc":
        vecs = [along(t1, -length / 2), along(t1, length / 2)]
    else:
        vecs = [c]
    hull = _hull_of(vecs)
    center, floor, _ = _hull_cap(hull)
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
            lo, hi = (mid, hi) if _hull_contains_vec(hull, beyond(mid)) else (lo, mid)
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
        center, floor, _ = _hull_cap(hull)
        for p in probes:
            if _dot(center, p) < floor:
                assert not _hull_contains_vec(hull, p)

    def test_fat_hull_prunes(self):
        hull = _hull_of([_unit(0, 0), _unit(0, 10), _unit(10, 0)])
        center, floor, _ = _hull_cap(hull)
        assert math.cos(math.radians(8)) < floor
        assert _dot(center, _unit(-2, -2)) < floor

    def test_sliver_no_wider_than_the_band_is_not_pruned(self):
        # a 0.002-rad isosceles triangle with base angles 1e-4 rad: every edge
        # passes within ANGLE_TOL of its center, so the band reaches the antipode
        half = 0.001
        apex = (math.cos(half * 1e-4), 0.0, math.sin(half * 1e-4))
        hull = _hull_of([(math.cos(half), -math.sin(half), 0.0), (math.cos(half), math.sin(half), 0.0), apex])
        assert hull.degenerate_kind == "polygon"
        center, floor, _ = _hull_cap(hull)
        antipode = tuple(-x for x in center)
        assert _hull_contains_vec(hull, antipode)
        assert floor == -math.inf

    def test_short_arc_is_not_pruned(self):
        hull = _hull_of([(1.0, 0.0, 0.0), (math.cos(ANGLE_TOL / 2), math.sin(ANGLE_TOL / 2), 0.0)])
        assert hull.degenerate_kind == "arc"
        assert _hull_contains_vec(hull, (-1.0, 0.0, 0.0))
        assert _hull_cap(hull)[1] == -math.inf


class TestTraceContract:
    def test_hull_and_samples_built_once_per_build(self, small_world, monkeypatch):
        # perfbench/chain.py times these two calls by swapping module globals
        calls = {"hull": 0, "samples": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(normality_mod, "spherical_convex_hull", counted("hull", spherical_convex_hull))
        monkeypatch.setattr(normality_mod, "hull_boundary_samples", counted("samples", hull_boundary_samples))
        for a, b in itertools.combinations(sorted(small_world.countries), 2):
            for mode in ("population", "border"):
                calls.update(hull=0, samples=0)
                assert not normal_set(small_world, a, b, mode).unclassifiable
                assert calls == {"hull": 1, "samples": 1}
