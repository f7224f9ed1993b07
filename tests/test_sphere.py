import math
import random

import pytest
from hypothesis import assume, example, given, strategies as st

from geonorm.errors import EmptyInput, HemisphereViolation, ValidationError
from geonorm.sphere import (
    ANGLE_TOL,
    DEDUP_TOL,
    Cap,
    GeoPoint,
    GeoPolygon,
    _angle,
    _arc_meets,
    _cross,
    _dedup,
    _dot,
    _even_odd,
    _normalized,
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

    @given(
        st.one_of(st.floats(-90, 90), st.sampled_from([-90, -90.0, 90, 90.0, 0, -0.0])),
        st.one_of(st.floats(-1000, 1000), st.sampled_from([-540, -180, -180.0, 180, 180.0, 360, 540, -0.0])),
    )
    def test_vec_is_the_embedding_of_the_normalized_point(self, lat, lon):
        # bit for bit, since hull vertices and so the reports follow every bit of it
        p = GeoPoint(lat, lon)
        rlat, rlon = math.radians(p.lat), math.radians(p.lon)
        assert p.vec == (math.cos(rlat) * math.cos(rlon), math.cos(rlat) * math.sin(rlon), math.sin(rlat))

    def test_vec_is_left_out_of_equality_hash_and_repr(self):
        p, q = GeoPoint(1, 2), GeoPoint(1, 2)
        object.__setattr__(q, "vec", (0.0, 0.0, 1.0))
        assert p == q and hash(p) == hash(q) and len({p, q}) == 1
        assert repr(p) == "GeoPoint(lat=1.0, lon=2.0)"
        with pytest.raises(TypeError):
            GeoPoint(1, 2, (1.0, 0.0, 0.0))


class TestEmbedding:
    def test_axis_alignments(self):
        assert approx_vec(GeoPoint(0, 0).vec, (1, 0, 0))
        assert approx_vec(GeoPoint(90, 0).vec, (0, 0, 1), tol=1e-15)
        assert approx_vec(GeoPoint(0, 90).vec, (0, 1, 0), tol=1e-15)

    @given(st.floats(-90, 90), st.floats(-180, 180))
    def test_round_trip(self, lat, lon):
        p = GeoPoint(lat, lon)
        q = unit_to_geo(p.vec)
        assert _angle(p.vec, q.vec) < 1e-9


def cap_points(rng, n, center_lat, center_lon, radius_deg):
    pts = []
    while len(pts) < n:
        lat = center_lat + rng.uniform(-radius_deg, radius_deg)
        lon = center_lon + rng.uniform(-radius_deg, radius_deg)
        if abs(lat) <= 89:
            pts.append(GeoPoint(lat, lon).vec)
    return pts


class TestHullConstruction:
    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            spherical_convex_hull([])

    def test_single_point_degenerates(self):
        h = spherical_convex_hull([GeoPoint(12.5, 44.25).vec])
        assert h.degenerate_kind == "point"
        assert hull_contains(h, GeoPoint(12.5, 44.25).vec)
        assert not hull_contains(h, GeoPoint(12.6, 44.25).vec)

    def test_duplicates_collapse_to_point(self):
        h = spherical_convex_hull([GeoPoint(5, 5).vec] * 4)
        assert h.degenerate_kind == "point"

    def test_collinear_on_equator_degenerates_to_arc(self):
        h = spherical_convex_hull([GeoPoint(0, 0).vec, GeoPoint(0, 5).vec, GeoPoint(0, 10).vec])
        assert h.degenerate_kind == "arc"
        assert hull_contains(h, GeoPoint(0, 7).vec)
        assert not hull_contains(h, GeoPoint(1, 5).vec)
        assert not hull_contains(h, GeoPoint(0, 11).vec)

    def test_triangle_containment_answers(self):
        h = spherical_convex_hull([GeoPoint(0, 0).vec, GeoPoint(0, 10).vec, GeoPoint(10, 0).vec])
        assert hull_contains(h, GeoPoint(2, 2).vec)
        assert not hull_contains(h, GeoPoint(-5, -5).vec)
        for v in h.vertices:
            assert hull_contains(h, v)

    def test_triangle_contains_edge_midpoints(self):
        h = spherical_convex_hull([GeoPoint(0, 0).vec, GeoPoint(0, 10).vec, GeoPoint(10, 0).vec])
        assert h.degenerate_kind == "polygon"
        vts = h.vertices
        for i in range(len(vts)):
            a, b = vts[i], vts[(i + 1) % len(vts)]
            mid = tuple((x + y) / 2 for x, y in zip(a, b))
            norm = math.sqrt(sum(c * c for c in mid))
            assert hull_contains(h, tuple(c / norm for c in mid))

    def test_antipodal_pair_raises_with_witness(self):
        with pytest.raises(HemisphereViolation) as exc:
            spherical_convex_hull([GeoPoint(0, 0).vec, GeoPoint(0, 180).vec])
        assert exc.value.separation_deg == pytest.approx(180.0)
        assert len(exc.value.witness) == 2

    def test_spread_ring_raises(self):
        with pytest.raises(HemisphereViolation):
            spherical_convex_hull([GeoPoint(0, 0).vec, GeoPoint(0, 120).vec, GeoPoint(0, -120).vec])

    def test_hull_vertices_subset_of_inputs(self):
        rng = random.Random(1)
        pts = cap_points(rng, 100, 40, -30, 10)
        h = spherical_convex_hull(pts)
        assert all(v in pts for v in h.vertices)
        assert all(hull_contains(h, p) for p in pts)

    def test_vertices_inside_centroid_hemisphere(self):
        rng = random.Random(2)
        pts = cap_points(rng, 50, -20, 100, 25)
        h = spherical_convex_hull(pts)
        centroid = _normalized(tuple(sum(p[i] for p in pts) for i in range(3)))
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
        h2 = spherical_convex_hull(h.vertices)
        first = set(h.vertices)
        second = set(h2.vertices)
        for a in first:
            assert any(_angle(a, b) <= 1e-7 for b in second)
        assert len(first) == len(second)

    @given(hull_input(max_points=15), st.floats(-25, 25), st.floats(-25, 25))
    def test_monotonicity_under_insertion(self, pts, dlat, dlon):
        # the extra point stays near the cap so the hemisphere precondition holds
        first = unit_to_geo(pts[0])
        extra = GeoPoint(max(-89, min(89, first.lat + dlat)), first.lon + dlon).vec
        h = spherical_convex_hull(pts)
        grown = spherical_convex_hull(pts + [extra])
        assert all(hull_contains(grown, p) for p in pts)
        assert all(hull_contains(grown, v) for v in h.vertices)

    @given(hull_input(max_points=12), st.integers(0, 2**32 - 1))
    def test_rotation_equivariance(self, pts, seed):
        rng = random.Random(seed)
        axis_lat, axis_lon = rng.uniform(-90, 90), rng.uniform(-180, 180)
        angle = rng.uniform(0, 2 * math.pi)
        k = GeoPoint(axis_lat, axis_lon).vec

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
            x, y, z = rotate(p)
            n = math.sqrt(x * x + y * y + z * z)
            return (x / n, y / n, z / n)

        h = spherical_convex_hull(pts)
        h_rot = spherical_convex_hull([rotated_point(p) for p in pts])
        rng2 = random.Random(seed + 1)
        first = unit_to_geo(pts[0])
        queries = cap_points(rng2, 20, first.lat, first.lon, 25)
        for q in queries:
            there = hull_contains(h, q)
            rotated = hull_contains(h_rot, rotated_point(q))
            if there != rotated:
                # disagreement is only allowed within the rotation tolerance band
                assert _distance_to_boundary(h, q) <= 1e-6


@st.composite
def spread_input(draw):
    """Points around a random center, out to any angle up to pi, sometimes with the center first, exact antipodes and repeats."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    c = offset((0.0, 0.0, 1.0), rng.uniform(0, math.pi), rng)
    spread = draw(st.sampled_from([math.pi / 2 - 0.01, math.pi / 2 + 0.01, 2.0, math.pi]))
    vecs = [offset(c, spread * rng.random() ** 0.5, rng) for _ in range(draw(st.integers(2, 30)))]
    if draw(st.booleans()):
        vecs.insert(0, c)
    if draw(st.booleans()):
        vecs.append(tuple(-x for x in vecs[0]))
    return vecs + vecs[: draw(st.integers(0, 3))]


class TestHemisphereWitness:
    @given(spread_input())
    def test_witness_is_two_inputs_more_than_90_degrees_apart(self, points):
        try:
            spherical_convex_hull(points)
        except HemisphereViolation as e:
            a, b = e.witness
            for w in (a, b):
                assert min(_angle(w.vec, p) for p in points) < 1e-9
            assert _angle(a.vec, b.vec) > math.pi / 2
            assert e.separation_deg == pytest.approx(math.degrees(_angle(a.vec, b.vec)), abs=1e-9)

    @pytest.mark.parametrize("pole", [[], [GeoPoint(90, 0).vec]])
    def test_witness_of_a_ring_around_the_equator(self, pole):
        # with the pole first, the center is the pole, 90 degrees from every other point
        with pytest.raises(HemisphereViolation) as exc:
            spherical_convex_hull(pole + [GeoPoint(0, lon).vec for lon in range(-180, 180, 120)])
        assert exc.value.separation_deg == pytest.approx(120)


def _distance_to_boundary(h, v):
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


def _on_arc(p, a, b):
    return _angle(a, p) + _angle(p, b) - _angle(a, b) <= 1e-12


def _point_arc_distance(p, a, b):
    """Angle from p to the nearest point of the minor arc a-b."""
    n = _normalized(_cross(a, b))
    q = tuple(pi - _dot(n, p) * ni for pi, ni in zip(p, n))
    if math.sqrt(_dot(q, q)) > 1e-12 and _on_arc(_normalized(q), a, b):
        return _angle(p, _normalized(q))
    return min(_angle(p, a), _angle(p, b))


def arc_distance(a, b, c, d):
    """Reference: the angle between the minor arcs a-b and c-d, from their circles' meeting points and their ends."""
    x = _cross(_normalized(_cross(a, b)), _normalized(_cross(c, d)))
    if math.sqrt(_dot(x, x)) > 1e-12:
        x = _normalized(x)
        for y in (x, tuple(-xi for xi in x)):
            if _on_arc(y, a, b) and _on_arc(y, c, d):
                return 0.0
    return min(
        _point_arc_distance(c, a, b), _point_arc_distance(d, a, b),
        _point_arc_distance(a, c, d), _point_arc_distance(b, c, d),
    )


@st.composite
def arc_pairs(draw):
    """Two minor arcs up to 2.5 rad long, as ((a, b), (c, d)).

    Kinds: unrelated arcs near each other; arcs crossing inside both; an end
    within 0.5 * ANGLE_TOL of the other arc, or 3 to 20 ANGLE_TOL off it
    and heading away; arcs crossing at so shallow an angle that an end of
    each lies a few ANGLE_TOL from the other's circle; arcs on one great
    circle, overlapping or apart; and arcs whose great circles meet only at
    points antipodal to the other arc.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "cross", "shallow", "touch", "miss", "collinear", "antipodal"]))
    length = lambda: 10 ** rng.uniform(-6, math.log10(1.5 if kind == "antipodal" else 2.5))
    tangent = lambda p: _normalized(_cross(p, (rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))))
    go = lambda p, t, ang: _normalized(tuple(math.cos(ang) * pi + math.sin(ang) * ti for pi, ti in zip(p, t)))

    def through(p, frac, t=None):
        t, ang = t or tangent(p), length()
        return go(p, t, -frac * ang), go(p, t, (1 - frac) * ang)

    x = offset((0.0, 0.0, 1.0), rng.uniform(0, math.pi), rng)
    a, b = through(x, rng.choice((0.0, 1.0, rng.random())))
    n = _normalized(_cross(a, b))
    if kind == "random":
        c, d = through(offset(x, 2 * _angle(a, b) * rng.random(), rng), rng.random())
    elif kind == "cross":
        c, d = through(x, rng.uniform(0.05, 0.95))
    elif kind == "shallow":
        # x inside both arcs, c-d as long as a-b and turned from it toward n by a few ANGLE_TOL over that length
        a, b = through(x, rng.uniform(0.25, 0.75))
        n, ang, frac = _normalized(_cross(a, b)), _angle(a, b), rng.uniform(0.25, 0.75)
        t = go(_cross(n, x), n, min(1.0, rng.uniform(1.5, 4) * ANGLE_TOL / ang))
        c, d = go(x, t, -frac * ang), go(x, t, (1 - frac) * ang)
    elif kind in ("touch", "miss"):
        side = rng.choice((-1, 1))
        if kind == "touch":
            c = offset(x, rng.choice((0.0, 0.25, 0.5)) * ANGLE_TOL, rng)
            d = go(c, tangent(c), length())
        else:
            c = go(x, tuple(side * ni for ni in n), rng.uniform(3, 20) * ANGLE_TOL)
            # away from the circle of a-b, tilted along it by up to 45 degrees
            away = _normalized(tuple(side * ni + rng.uniform(-1, 1) * ti for ni, ti in zip(n, _cross(n, c))))
            d = go(c, away, length())
    elif kind == "collinear":
        forward = _cross(n, b)
        gap = rng.choice((-0.5 * _angle(a, b), 0.0, 0.3 * ANGLE_TOL, 5 * ANGLE_TOL, 0.1))
        off = rng.choice((0.0, 0.3 * ANGLE_TOL, 5 * ANGLE_TOL))
        c = go(b, forward, gap)
        d = go(c, _cross(n, c), length())
        c, d = (go(p, n, off) for p in (c, d))
    else:
        anti = tuple(-xi for xi in x)
        a, b = through(x, rng.uniform(0.2, 0.8))
        c, d = through(anti, rng.uniform(0.2, 0.8))
    if rng.random() < 0.5:
        c, d = d, c
    return (a, b), (c, d)


# two arcs almost on one great circle, their nearest ends 5 * ANGLE_TOL apart:
# all four orientations are rounding noise, and their signs once agreed
NOISE_ARCS = (
    ((-0.27236157600843064, 0.7769957178083584, -0.5675357490252732),
     (-0.26885352249723904, 0.7748170183050086, -0.5721681322703691)),
    ((0.582535599894757, -0.40353473186123345, -0.705557931736961),
     (-0.26885323943629985, 0.7748168415650448, -0.5721685046136111)),
)


class TestArcMeets:
    @given(arc_pairs())
    @example(NOISE_ARCS)
    def test_matches_the_slow_reference(self, case):
        (a, b), (c, d) = case
        dist = arc_distance(a, b, c, d)
        assume(not 0.5 * ANGLE_TOL < dist < 3 * ANGLE_TOL)  # where _near_arc's band may go either way
        n, m = _normalized(_cross(a, b)), _normalized(_cross(c, d))
        assert _arc_meets(a, b, n, [(c, d, m)]) == (dist <= ANGLE_TOL)
        assert _arc_meets(c, d, m, [(a, b, n)]) == (dist <= ANGLE_TOL)

    def test_circles_meeting_only_at_the_antipodes(self):
        # the equator from lon -10 to 10 and the meridian at lon 180 from lat -10 to 10:
        # each arc's ends straddle the other's great circle, yet they are 180 degrees apart
        a, b = GeoPoint(0, -10).vec, GeoPoint(0, 10).vec
        c, d = GeoPoint(-10, 180).vec, GeoPoint(10, 180).vec
        n, m = _normalized(_cross(a, b)), _normalized(_cross(c, d))
        assert _dot(n, c) * _dot(n, d) < 0 and _dot(m, a) * _dot(m, b) < 0
        assert not _arc_meets(a, b, n, [(c, d, m)])
        c, d = GeoPoint(-10, 0).vec, GeoPoint(10, 0).vec
        assert _arc_meets(a, b, n, [(c, d, _normalized(_cross(c, d)))])

    def test_ends_touch_within_angle_tol(self):
        a, b = GeoPoint(0, 0).vec, GeoPoint(0, 10).vec
        n = _normalized(_cross(a, b))
        for lat, meets in ((math.degrees(ANGLE_TOL) / 2, True), (math.degrees(ANGLE_TOL) * 3, False)):
            c, d = GeoPoint(lat, 5).vec, GeoPoint(5, 5).vec
            assert _arc_meets(a, b, n, [(c, d, _normalized(_cross(c, d)))]) == meets

    def test_short_edge_crossing_with_ends_near_the_circle(self):
        # a 1e-5 rad edge crossing a 0.1 rad arc with its ends 1.5 * ANGLE_TOL either side of the
        # arc's circle: only the long arc's ends are far from the other circle, so a gate on the
        # short edge's two orientations alone would miss the crossing in one argument order
        a, b = (math.cos(0.05), -math.sin(0.05), 0.0), (math.cos(0.05), math.sin(0.05), 0.0)
        c = _normalized((math.cos(5e-6), -math.sin(5e-6), -1.5 * ANGLE_TOL))
        d = _normalized((math.cos(5e-6), math.sin(5e-6), 1.5 * ANGLE_TOL))
        n, m = _normalized(_cross(a, b)), _normalized(_cross(c, d))
        assert arc_distance(a, b, c, d) == 0.0
        assert _arc_meets(a, b, n, [(c, d, m)])
        assert _arc_meets(c, d, m, [(a, b, n)])

    def test_shallow_crossing_with_every_orientation_past_angle_tol(self):
        # two 1e-3 rad arcs crossing at (1, 0, 0) at an angle of asin(3e-4): all four orientations are
        # about 1.5 * ANGLE_TOL, too small to trust their signs and past the end tests' usual band
        h, tilt = 5e-4, math.asin(3e-4)
        a, b = (math.cos(h), -math.sin(h), 0.0), (math.cos(h), math.sin(h), 0.0)
        c = (math.cos(h), -math.sin(h) * math.cos(tilt), -math.sin(h) * math.sin(tilt))
        d = (math.cos(h), math.sin(h) * math.cos(tilt), math.sin(h) * math.sin(tilt))
        n, m = _normalized(_cross(a, b)), _normalized(_cross(c, d))
        assert arc_distance(a, b, c, d) == 0.0
        assert all(ANGLE_TOL < abs(o) <= 2 * ANGLE_TOL for o in (_dot(n, c), _dot(n, d), _dot(m, a), _dot(m, b)))
        assert _arc_meets(a, b, n, [(c, d, m)])
        assert _arc_meets(c, d, m, [(a, b, n)])

    @pytest.mark.parametrize(
        "lon_c, lon_d, meets",
        [(5, 15, True), (2, 8, True), (10, 20, True), (11, 20, False), (180, 190, False)],
        ids=["overlapping", "nested", "sharing-an-end", "apart", "antipodal"],
    )
    def test_arcs_on_one_great_circle(self, lon_c, lon_d, meets):
        # both arcs on the equator: every end is on the other's circle, so only the touch tests can decide
        a, b = GeoPoint(0, 0).vec, GeoPoint(0, 10).vec
        c, d = GeoPoint(0, lon_c).vec, GeoPoint(0, lon_d).vec
        n, m = _normalized(_cross(a, b)), _normalized(_cross(c, d))
        assert (arc_distance(a, b, c, d) <= ANGLE_TOL) == meets
        assert _arc_meets(a, b, n, [(c, d, m)]) == meets
        assert _arc_meets(c, d, m, [(a, b, n)]) == meets


def _dedup_reference(vectors):
    """The keep-first rule, comparing each vector with every kept one."""
    kept = []
    for v in vectors:
        if not any(sum((vi - ki) * (vi - ki) for vi, ki in zip(v, k)) <= DEDUP_TOL * DEDUP_TOL for k in kept):
            kept.append(v)
    return kept


@st.composite
def near_duplicates(draw):
    """Vectors in clusters DEDUP_TOL wide around slab boundaries, with exact copies and exact DEDUP_TOL offsets."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    out = []
    for _ in range(rng.randint(1, 6)):
        base = offset((0.0, 0.0, 1.0), rng.uniform(0, math.pi), rng)
        # a slab edge: a multiple of 2 * DEDUP_TOL
        x0 = round(base[0] / (2 * DEDUP_TOL)) * 2 * DEDUP_TOL
        for _ in range(rng.randint(1, 12)):
            kind = rng.random()
            if out and kind < 0.2:
                out.append(rng.choice(out))
            elif out and kind < 0.4:
                v = list(rng.choice(out))
                v[rng.randrange(3)] += rng.choice((-1, 1)) * DEDUP_TOL
                out.append(tuple(v))
            else:
                jitter = lambda: rng.choice((-2, -1.5, -1, -0.5, 0, 0.5, 1, 1.5, 2)) * DEDUP_TOL * rng.uniform(0.99, 1.01)
                out.append((x0 + jitter(), base[1] + jitter(), base[2] + jitter()))
    rng.shuffle(out)
    return out


class TestDedup:
    @given(near_duplicates())
    def test_matches_quadratic_keep_first(self, vectors):
        assert _dedup(vectors) == _dedup_reference(vectors)

    def test_exactly_tol_apart_is_a_duplicate(self):
        v = (0.0, 0.6, 0.8)
        assert _dedup([v, (DEDUP_TOL, 0.6, 0.8), (2.5 * DEDUP_TOL, 0.6, 0.8)]) == [v, (2.5 * DEDUP_TOL, 0.6, 0.8)]


SQUARE = GeoPolygon(rings=((GeoPoint(-1, -1), GeoPoint(-1, 1), GeoPoint(1, 1), GeoPoint(1, -1)),))
HOLED = GeoPolygon(
    rings=(
        (GeoPoint(-10, -10), GeoPoint(-10, 10), GeoPoint(10, 10), GeoPoint(10, -10)),
        (GeoPoint(-1, -1), GeoPoint(-1, 1), GeoPoint(1, 1), GeoPoint(1, -1)),
    )
)


class TestPolygonContains:
    def test_square_basics(self):
        assert polygon_contains(SQUARE, GeoPoint(0, 0).vec)
        assert not polygon_contains(SQUARE, GeoPoint(5, 5).vec)

    def test_hole_excludes_center_keeps_annulus(self):
        assert not polygon_contains(HOLED, GeoPoint(0, 0).vec)
        assert polygon_contains(HOLED, GeoPoint(5, 0).vec)
        assert polygon_contains(HOLED, GeoPoint(0, 5).vec)

    def test_border_points_count_as_inside(self):
        # meridian edges are exact great circles
        assert polygon_contains(SQUARE, GeoPoint(0.5, 1.0).vec)
        assert polygon_contains(SQUARE, GeoPoint(0.5, -1.0).vec)
        assert polygon_contains(HOLED, GeoPoint(0.5, 1.0).vec)  # hole edge
        assert polygon_contains(SQUARE, GeoPoint(1, 1).vec)  # vertex

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
            inside = polygon_contains(HOLED, GeoPoint(lat, 0).vec)
            if inside != previous:
                transitions.append(lat)
                previous = inside
        assert transitions == [-10.15, -1.0, 1.01, 10.16]

    def test_antimeridian_square(self):
        ring = (GeoPoint(-1, 179), GeoPoint(-1, -179), GeoPoint(1, -179), GeoPoint(1, 179))
        poly = GeoPolygon(rings=(ring,))
        assert polygon_contains(poly, GeoPoint(0, 180).vec)
        assert polygon_contains(poly, GeoPoint(0, 179.5).vec)
        assert polygon_contains(poly, GeoPoint(0, -179.5).vec)
        assert not polygon_contains(poly, GeoPoint(0, 178).vec)
        assert not polygon_contains(poly, GeoPoint(0, -178).vec)


def _polygon_contains_uncapped(poly, p):
    """Reference: polygon_contains without its bounding-cap rejection.

    The hemisphere guard, then even-odd in the gnomonic plane, then the
    ANGLE_TOL band around every edge and vertex.
    """
    center = poly._cap.center
    e1, e2, rings_2d = poly._frame
    d = _dot(center, p)
    if d <= 1e-9:
        return False
    if _even_odd(rings_2d, _dot(e1, p) / d, _dot(e2, p) / d):
        return True
    for a, b, n in poly._edges:
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
    center = poly._cap.center
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
            assert polygon_contains(poly, p) == _polygon_contains_uncapped(poly, p)

    def test_cap_is_built_without_the_frame(self):
        poly = GeoPolygon(rings=SQUARE.rings)
        cap = poly._cap
        assert isinstance(cap, Cap) and "_frame" not in poly.__dict__
        # containment and pruning share this one radius
        assert math.asin(cap.sin) == pytest.approx(math.acos(cap.cos), abs=1e-12)

    def test_hemisphere_check_runs_with_the_cap(self):
        # the cap is built with the polygon, so no polygon that breaks the rule exists
        band = ((GeoPoint(0, -100), GeoPoint(0, 0), GeoPoint(0, 100), GeoPoint(1, 100), GeoPoint(1, -100)),)
        with pytest.raises(ValidationError, match="polygon ring spans a hemisphere or more"):
            GeoPolygon(rings=band)

    def test_cap_is_exact_width(self):
        cap = SQUARE._cap
        cap_ang = max(_angle(cap.center, v) for v in SQUARE._ring_vecs[0])
        assert cap_ang < math.acos(cap.cos) <= cap_ang + 2e-6

    def test_every_ring_is_under_the_cap_and_the_rule(self):
        # a second ring outside the outer one still counts, by even-odd, so the cap must reach it
        beside = (GeoPoint(10, 0), GeoPoint(10, 2), GeoPoint(12, 2), GeoPoint(12, 0))
        assert polygon_contains(GeoPolygon(rings=(SQUARE.rings[0], beside)), GeoPoint(11, 1).vec)
        opposite = (GeoPoint(-1, 179), GeoPoint(-1, -179), GeoPoint(1, -179), GeoPoint(1, 179))
        with pytest.raises(ValidationError, match="polygon ring spans a hemisphere or more"):
            GeoPolygon(rings=(SQUARE.rings[0], opposite))
