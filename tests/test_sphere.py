import math
import random

import pytest
from hypothesis import given, strategies as st

from geonorm.errors import EmptyInput, HemisphereViolation, ValidationError
from geonorm.sphere import (
    ANGLE_TOL,
    GeoPoint,
    GeoPolygon,
    _angle,
    _cross,
    _dot,
    _even_odd,
    _hull_contains_vec,
    _normalized,
    _polygon_contains_vec,
    geo_to_unit,
    hull_boundary_samples,
    hull_contains,
    polygon_contains,
    spherical_convex_hull,
    unit_to_geo,
)

from conftest import offset, star_ring


def approx_vec(v, expected, tol=1e-12):
    return all(abs(a - b) <= tol for a, b in zip(v, expected))


class TestGeoPoint:
    def test_lon_normalized_into_half_open_interval(self):
        assert GeoPoint(0, 190).lon == -170
        assert GeoPoint(0, -190).lon == 170
        assert GeoPoint(0, -180).lon == 180
        assert GeoPoint(0, 180).lon == 180
        assert GeoPoint(0, 540).lon == 180

    def test_lat_bounds_enforced(self):
        with pytest.raises(ValidationError):
            GeoPoint(95, 0)
        with pytest.raises(ValidationError):
            GeoPoint(-90.0001, 0)

    @pytest.mark.parametrize("lon", [math.nan, math.inf, -math.inf])
    def test_non_finite_lon_rejected(self, lon):
        with pytest.raises(ValidationError, match="longitude"):
            GeoPoint(0, lon)

    @given(st.floats(-90, 90), st.floats(-1000, 1000))
    def test_normalization_total(self, lat, lon):
        p = GeoPoint(lat, lon)
        assert -180 < p.lon <= 180


class TestEmbedding:
    def test_axis_alignments(self):
        assert approx_vec(geo_to_unit(GeoPoint(0, 0)), (1, 0, 0))
        assert approx_vec(geo_to_unit(GeoPoint(90, 0)), (0, 0, 1), tol=1e-15)
        assert approx_vec(geo_to_unit(GeoPoint(0, 90)), (0, 1, 0), tol=1e-15)

    @given(st.floats(-90, 90), st.floats(-180, 180))
    def test_round_trip(self, lat, lon):
        p = GeoPoint(lat, lon)
        q = unit_to_geo(geo_to_unit(p))
        assert _angle(geo_to_unit(p), geo_to_unit(q)) < 1e-9


def cap_points(rng, n, center_lat, center_lon, radius_deg):
    pts = []
    while len(pts) < n:
        lat = center_lat + rng.uniform(-radius_deg, radius_deg)
        lon = center_lon + rng.uniform(-radius_deg, radius_deg)
        if abs(lat) <= 89:
            pts.append(GeoPoint(lat, lon))
    return pts


class TestHullConstruction:
    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            spherical_convex_hull([])

    def test_single_point_degenerates(self):
        h = spherical_convex_hull([GeoPoint(12.5, 44.25)])
        assert h.degenerate_kind == "point"
        assert hull_contains(h, GeoPoint(12.5, 44.25))
        assert not hull_contains(h, GeoPoint(12.6, 44.25))

    def test_duplicates_collapse_to_point(self):
        h = spherical_convex_hull([GeoPoint(5, 5)] * 4)
        assert h.degenerate_kind == "point"

    def test_collinear_on_equator_degenerates_to_arc(self):
        h = spherical_convex_hull([GeoPoint(0, 0), GeoPoint(0, 5), GeoPoint(0, 10)])
        assert h.degenerate_kind == "arc"
        assert hull_contains(h, GeoPoint(0, 7))
        assert not hull_contains(h, GeoPoint(1, 5))
        assert not hull_contains(h, GeoPoint(0, 11))

    def test_triangle_containment_answers(self):
        h = spherical_convex_hull([GeoPoint(0, 0), GeoPoint(0, 10), GeoPoint(10, 0)])
        assert hull_contains(h, GeoPoint(2, 2))
        assert not hull_contains(h, GeoPoint(-5, -5))
        for v in h.vertices:
            assert hull_contains(h, unit_to_geo(v))

    def test_triangle_contains_edge_midpoints(self):
        h = spherical_convex_hull([GeoPoint(0, 0), GeoPoint(0, 10), GeoPoint(10, 0)])
        assert h.degenerate_kind == "polygon"
        vts = h.vertices
        for i in range(len(vts)):
            a, b = vts[i], vts[(i + 1) % len(vts)]
            mid = tuple((x + y) / 2 for x, y in zip(a, b))
            norm = math.sqrt(sum(c * c for c in mid))
            midpoint = unit_to_geo(tuple(c / norm for c in mid))
            assert hull_contains(h, midpoint)

    def test_antipodal_pair_raises_with_witness(self):
        with pytest.raises(HemisphereViolation) as exc:
            spherical_convex_hull([GeoPoint(0, 0), GeoPoint(0, 180)])
        assert exc.value.separation_deg == pytest.approx(180.0)
        assert len(exc.value.witness) == 2

    def test_spread_ring_raises(self):
        with pytest.raises(HemisphereViolation):
            spherical_convex_hull([GeoPoint(0, 0), GeoPoint(0, 120), GeoPoint(0, -120)])

    def test_hull_vertices_subset_of_inputs(self):
        rng = random.Random(1)
        pts = cap_points(rng, 100, 40, -30, 10)
        h = spherical_convex_hull(pts)
        inputs = {geo_to_unit(p) for p in pts}
        assert all(v in inputs for v in h.vertices)
        assert all(hull_contains(h, p) for p in pts)

    def test_vertices_inside_centroid_hemisphere(self):
        rng = random.Random(2)
        pts = cap_points(rng, 50, -20, 100, 25)
        h = spherical_convex_hull(pts)
        centroid = _normalized(tuple(sum(geo_to_unit(p)[i] for p in pts) for i in range(3)))
        assert all(_angle(centroid, v) < math.pi / 2 for v in h.vertices)

    def test_polygon_ring_is_counterclockwise(self):
        rng = random.Random(3)
        h = spherical_convex_hull(cap_points(rng, 30, 10, 10, 20))
        vts = h.vertices
        n = len(vts)
        for i in range(n):
            a, b, c = vts[i], vts[(i + 1) % n], vts[(i + 2) % n]
            cross = (
                a[1] * b[2] - a[2] * b[1],
                a[2] * b[0] - a[0] * b[2],
                a[0] * b[1] - a[1] * b[0],
            )
            assert cross[0] * c[0] + cross[1] * c[1] + cross[2] * c[2] >= 0


@st.composite
def hull_input(draw, max_points=25, radius=20):
    lat = draw(st.floats(-60, 60))
    lon = draw(st.floats(-170, 170))
    n = draw(st.integers(1, max_points))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    return cap_points(rng, n, lat, lon, radius)


class TestHullProperties:
    @given(hull_input())
    def test_input_containment(self, pts):
        h = spherical_convex_hull(pts)
        assert all(hull_contains(h, p) for p in pts)

    @given(hull_input())
    def test_idempotence(self, pts):
        h = spherical_convex_hull(pts)
        h2 = spherical_convex_hull([unit_to_geo(v) for v in h.vertices])
        first = set(h.vertices)
        second = set(h2.vertices)
        for a in first:
            assert any(_angle(a, b) <= 1e-7 for b in second)
        assert len(first) == len(second)

    @given(hull_input(max_points=15), st.floats(-25, 25), st.floats(-25, 25))
    def test_monotonicity_under_insertion(self, pts, dlat, dlon):
        # the extra point stays near the cap so the hemisphere precondition holds
        extra = GeoPoint(max(-89, min(89, pts[0].lat + dlat)), pts[0].lon + dlon)
        h = spherical_convex_hull(pts)
        grown = spherical_convex_hull(pts + [extra])
        assert all(hull_contains(grown, p) for p in pts)
        assert all(hull_contains(grown, unit_to_geo(v)) for v in h.vertices)

    @given(hull_input(max_points=12), st.integers(0, 2**32 - 1))
    def test_rotation_equivariance(self, pts, seed):
        rng = random.Random(seed)
        axis_lat, axis_lon = rng.uniform(-90, 90), rng.uniform(-180, 180)
        angle = rng.uniform(0, 2 * math.pi)
        k = geo_to_unit(GeoPoint(axis_lat, axis_lon))

        def rotate(v):
            # Rodrigues rotation about axis k
            c, s = math.cos(angle), math.sin(angle)
            kv = k[0] * v[0] + k[1] * v[1] + k[2] * v[2]
            cross = (
                k[1] * v[2] - k[2] * v[1],
                k[2] * v[0] - k[0] * v[2],
                k[0] * v[1] - k[1] * v[0],
            )
            return tuple(v[i] * c + cross[i] * s + k[i] * kv * (1 - c) for i in range(3))

        def rotated_point(p):
            x, y, z = rotate(geo_to_unit(p))
            n = math.sqrt(x * x + y * y + z * z)
            return unit_to_geo((x / n, y / n, z / n))

        h = spherical_convex_hull(pts)
        h_rot = spherical_convex_hull([rotated_point(p) for p in pts])
        rng2 = random.Random(seed + 1)
        queries = cap_points(rng2, 20, pts[0].lat, pts[0].lon, 25)
        for q in queries:
            there = hull_contains(h, q)
            rotated = hull_contains(h_rot, rotated_point(q))
            if there != rotated:
                # disagreement is only allowed within the rotation tolerance band
                assert _distance_to_boundary(h, q) <= 1e-6

    @given(hull_input())
    def test_boundary_samples_contained(self, pts):
        h = spherical_convex_hull(pts)
        for v in hull_boundary_samples(h, 0.5):
            assert _hull_contains_vec(h, v)


def _distance_to_boundary(h, p):
    v = geo_to_unit(p)
    best = math.inf
    vts = h.vertices
    n = len(vts)
    for i in range(n):
        a, b = vts[i], vts[(i + 1) % n]
        for t in range(51):
            q = tuple(a[j] + (b[j] - a[j]) * t / 50 for j in range(3))
            norm = math.sqrt(sum(c * c for c in q))
            q = tuple(c / norm for c in q)
            d = _angle(v, q)
            best = min(best, d)
    return best


class TestBoundarySamples:
    def test_point_hull_yields_single_point(self):
        h = spherical_convex_hull([GeoPoint(3, 4)])
        samples = hull_boundary_samples(h, 0.5)
        assert len(samples) == 1
        assert unit_to_geo(samples[0]).lat == pytest.approx(3)

    def test_one_degree_arc_quarter_degree_step(self):
        h = spherical_convex_hull([GeoPoint(0, 0), GeoPoint(0, 1)])
        samples = hull_boundary_samples(h, 0.25)
        assert len(samples) == 5
        assert unit_to_geo(samples[0]).lon == pytest.approx(0.0, abs=1e-9)
        assert unit_to_geo(samples[-1]).lon == pytest.approx(1.0, abs=1e-9)

    def test_spacing_never_exceeds_step(self):
        h = spherical_convex_hull([GeoPoint(0, 0), GeoPoint(0, 10), GeoPoint(10, 0)])
        samples = hull_boundary_samples(h, 0.2)
        for a, b in zip(samples, samples[1:]):
            assert _angle(a, b) <= math.radians(0.2) + 1e-9

    def test_vertices_included(self):
        h = spherical_convex_hull([GeoPoint(0, 0), GeoPoint(0, 10), GeoPoint(10, 0)])
        sampled = {(round(g.lat, 9), round(g.lon, 9)) for g in map(unit_to_geo, hull_boundary_samples(h, 1.0))}
        for v in h.vertices:
            g = unit_to_geo(v)
            assert (round(g.lat, 9), round(g.lon, 9)) in sampled

    def test_rejects_nonpositive_step(self):
        h = spherical_convex_hull([GeoPoint(0, 0), GeoPoint(0, 1)])
        with pytest.raises(ValidationError):
            hull_boundary_samples(h, 0)

    @pytest.mark.parametrize("step", [1e-300, 0.000999, math.nan])
    def test_rejects_step_below_floor(self, step):
        # the floor caps a build at 360,000 samples; 1e-300 would sample until memory runs out
        h = spherical_convex_hull([GeoPoint(0, 0), GeoPoint(0, 1)])
        with pytest.raises(ValidationError, match="at least 0.001 degrees"):
            hull_boundary_samples(h, step)

    @given(hull_input(), st.sampled_from([0.05, 0.2, 1.0]))
    def test_samples_match_geopoint_round_trip(self, pts, step):
        # samples were once returned as GeoPoints and converted back to vectors
        h = spherical_convex_hull(pts)
        for v in hull_boundary_samples(h, step):
            assert abs(_dot(v, v) - 1.0) <= 2e-9  # unit length
            assert _angle(v, geo_to_unit(unit_to_geo(v))) <= 1e-12


SQUARE = GeoPolygon(rings=((GeoPoint(-1, -1), GeoPoint(-1, 1), GeoPoint(1, 1), GeoPoint(1, -1)),))
HOLED = GeoPolygon(
    rings=(
        (GeoPoint(-10, -10), GeoPoint(-10, 10), GeoPoint(10, 10), GeoPoint(10, -10)),
        (GeoPoint(-1, -1), GeoPoint(-1, 1), GeoPoint(1, 1), GeoPoint(1, -1)),
    )
)


class TestPolygonContains:
    def test_square_basics(self):
        assert polygon_contains(SQUARE, GeoPoint(0, 0))
        assert not polygon_contains(SQUARE, GeoPoint(5, 5))

    def test_hole_excludes_center_keeps_annulus(self):
        assert not polygon_contains(HOLED, GeoPoint(0, 0))
        assert polygon_contains(HOLED, GeoPoint(5, 0))
        assert polygon_contains(HOLED, GeoPoint(0, 5))

    def test_border_points_count_as_inside(self):
        # meridian edges are exact great circles
        assert polygon_contains(SQUARE, GeoPoint(0.5, 1.0))
        assert polygon_contains(SQUARE, GeoPoint(0.5, -1.0))
        assert polygon_contains(HOLED, GeoPoint(0.5, 1.0))  # hole edge
        assert polygon_contains(SQUARE, GeoPoint(1, 1))  # vertex

    def test_ring_needs_three_distinct_points(self):
        with pytest.raises(ValidationError):
            GeoPolygon(rings=((GeoPoint(0, 0), GeoPoint(0, 1), GeoPoint(0, 0)),))

    def test_crossing_count_oracle_on_dense_segments(self):
        # winding oracle: walk a meridian through the holed polygon and check
        # the in/out flips happen at the expected latitudes. The outer flips
        # sit at +-10.15, not +-10.00: a 20-degree-wide edge between two
        # vertices at latitude 10 is a great circle that bows poleward.
        transitions = []
        previous = False
        for i in range(-1300, 1301):
            lat = i / 100
            inside = polygon_contains(HOLED, GeoPoint(lat, 0))
            if inside != previous:
                transitions.append(lat)
                previous = inside
        assert transitions == [-10.15, -1.0, 1.01, 10.16]

    def test_antimeridian_square(self):
        ring = (GeoPoint(-1, 179), GeoPoint(-1, -179), GeoPoint(1, -179), GeoPoint(1, 179))
        poly = GeoPolygon(rings=(ring,))
        assert polygon_contains(poly, GeoPoint(0, 180))
        assert polygon_contains(poly, GeoPoint(0, 179.5))
        assert polygon_contains(poly, GeoPoint(0, -179.5))
        assert not polygon_contains(poly, GeoPoint(0, 178))
        assert not polygon_contains(poly, GeoPoint(0, -178))


def _polygon_contains_uncapped(poly, p):
    """Reference: _polygon_contains_vec without its bounding-cap rejection.

    The hemisphere guard, then even-odd in the gnomonic plane, then the
    ANGLE_TOL band around every edge and vertex.
    """
    center, e1, e2, rings_2d, edges, _ = poly._frame
    d = _dot(center, p)
    if d <= 1e-9:
        return False
    if _even_odd(rings_2d, _dot(e1, p) / d, _dot(e2, p) / d):
        return True
    for a, b, n in edges:
        if abs(_dot(n, p)) <= ANGLE_TOL:
            if _dot(_cross(n, a), p) >= -ANGLE_TOL and _dot(_cross(b, n), p) >= -ANGLE_TOL:
                return True
            if _angle(p, a) <= ANGLE_TOL or _angle(p, b) <= ANGLE_TOL:
                return True
    return False


@st.composite
def polygon_and_probes(draw):
    """A random star polygon and unit vectors where a too-narrow cap would show.

    Probes sit just outside the vertex cap, just beyond vertices, and within
    a few ANGLE_TOL of edges and vertices; a few are anywhere in the cap.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    radius = draw(st.floats(0.2, 50))
    lat, lon = rng.uniform(radius - 80, 80 - radius), rng.uniform(-180, 180)
    poly = GeoPolygon(rings=(star_ring(rng, lat, lon, radius, rng.randint(3, 12)),))
    center, *_ = poly._frame
    ring = poly._ring_vecs[0]
    cap_ang = max(_angle(center, v) for v in ring)
    probes = []
    for _ in range(30):
        probes.append(offset(center, cap_ang + rng.uniform(0.0, 0.05) * rng.random() ** 4, rng))
        probes.append(offset(center, cap_ang * math.sqrt(rng.random()), rng))
    for k, a in enumerate(ring):
        b = ring[(k + 1) % len(ring)]
        # beyond the vertex, away from the center
        t = _normalized(tuple(_dot(a, center) * ai - ci for ai, ci in zip(a, center)))
        for step in (ANGLE_TOL / 2, ANGLE_TOL, 2 * ANGLE_TOL, 1e-6):
            probes.append(_normalized(tuple(math.cos(step) * ai + math.sin(step) * ti for ai, ti in zip(a, t))))
        probes.append(offset(a, rng.uniform(0, 2 * ANGLE_TOL), rng))
        # along the edge's great circle, past its ends included, then off it
        n = _normalized(_cross(a, b))
        ang = _angle(a, b)
        along = rng.uniform(-0.01, 1.01) * ang
        u = _normalized(_cross(n, a))
        on = tuple(math.cos(along) * ai + math.sin(along) * ui for ai, ui in zip(a, u))
        side = rng.uniform(-2, 2) * ANGLE_TOL
        probes.append(_normalized(tuple(math.cos(side) * oi + math.sin(side) * ni for oi, ni in zip(on, n))))
    return poly, probes


class TestPolygonCap:
    @given(polygon_and_probes())
    def test_cap_rejects_nothing_the_uncapped_tests_accept(self, case):
        poly, probes = case
        for p in probes:
            assert _polygon_contains_vec(poly, p) == _polygon_contains_uncapped(poly, p)

    def test_cap_is_exact_width(self):
        center, *_, cap_cos = SQUARE._frame
        cap_ang = max(_angle(center, v) for v in SQUARE._ring_vecs[0])
        assert cap_ang < math.acos(cap_cos) <= cap_ang + 2e-6
