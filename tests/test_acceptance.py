"""Acceptance suite: one test per criterion, each printing a PASS line.

Expected values are hand-computed or produced by independent oracles built
inside this module; nothing here reuses the code path it checks.
"""

import ipaddress
import json
import math
import random
import time
from itertools import combinations

import pytest

from geonorm.cli import main
from geonorm.enrichment import PrefixTable
from geonorm.metrics import Aggregate, accumulate, report
from geonorm.normality import PairCache, classify, normal_set
from geonorm.pipeline import Skip, SkipLog, classify_path_with, parse_traceroute_line, to_tuple_path
from geonorm.sphere import GeoPoint, _angle, geo_to_unit, hull_contains, spherical_convex_hull
from geonorm.synth import write_corpus

from conftest import PIPELINE12, REPO, SMALLWORLD, table_args, world_args


def announce(number, description, elapsed, budget):
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s, budget {budget}s"
    print(f"PASS criterion {number}: {description} ({elapsed:.2f}s < {budget}s)")


class TestCriterion1:
    def test_population_vs_border_hull_for_china_mongolia(self, real_world):
        start = time.perf_counter()
        population = normal_set(real_world, "CN", "MN", "population")
        border = normal_set(real_world, "CN", "MN", "border")
        for ns in (population, border):
            assert not ns.unclassifiable
            assert {"CN", "MN"} <= ns.countries
        assert "IN" not in population.countries
        assert "VN" not in population.countries
        assert "IN" in border.countries
        assert "VN" in border.countries
        announce(1, "population hull excludes IN/VN, border hull includes both", time.perf_counter() - start, 10)


class TestCriterion2:
    def test_same_country_rule_exhaustive(self, real_world, small_world):
        start = time.perf_counter()
        for world in (real_world, small_world):
            for x in world.countries:
                ns = normal_set(world, x, x, "population")
                assert ns.countries == frozenset({x})
                for y in world.countries:
                    if y == x:
                        continue
                    verdict = classify(ns, [x, y, x])
                    assert not verdict.normal
                    assert verdict.benefactors == frozenset({y})
        announce(2, "same-country pairs are alone and any second country is non-normal", time.perf_counter() - start, 1)


def brute_force_hull_vertices(points):
    """All-pairs edge half-space test; quadratic-times-n and obviously correct."""
    vecs = []
    for p in points:
        v = geo_to_unit(p)
        if not any(sum((a - b) ** 2 for a, b in zip(v, u)) <= 1e-18 for u in vecs):
            vecs.append(v)
    if len(vecs) <= 2:
        return {tuple(v) for v in vecs}
    vertices = set()
    for i, j in combinations(range(len(vecs)), 2):
        a, b = vecs[i], vecs[j]
        n = (
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        )
        sides = [
            n[0] * c[0] + n[1] * c[1] + n[2] * c[2]
            for k, c in enumerate(vecs)
            if k not in (i, j)
        ]
        if all(s >= -1e-12 for s in sides) or all(s <= 1e-12 for s in sides):
            vertices.add(a)
            vertices.add(b)
    return vertices


def winding_contains(hull, point):
    """Winding number of the hull ring as seen from the query point."""
    q = geo_to_unit(point)
    ax = min(range(3), key=lambda i: abs(q[i]))
    axis = tuple(1.0 if i == ax else 0.0 for i in range(3))
    e1 = (
        q[1] * axis[2] - q[2] * axis[1],
        q[2] * axis[0] - q[0] * axis[2],
        q[0] * axis[1] - q[1] * axis[0],
    )
    norm = math.sqrt(sum(c * c for c in e1))
    e1 = tuple(c / norm for c in e1)
    e2 = (
        q[1] * e1[2] - q[2] * e1[1],
        q[2] * e1[0] - q[0] * e1[2],
        q[0] * e1[1] - q[1] * e1[0],
    )
    angles = []
    for t in hull.vertices:
        x = sum(a * b for a, b in zip(t, e1))
        y = sum(a * b for a, b in zip(t, e2))
        angles.append(math.atan2(y, x))
    total = 0.0
    for i in range(len(angles)):
        delta = angles[(i + 1) % len(angles)] - angles[i]
        while delta > math.pi:
            delta -= 2 * math.pi
        while delta < -math.pi:
            delta += 2 * math.pi
        total += delta
    return abs(total) > math.pi


def distance_to_ring(hull, point):
    q = geo_to_unit(point)
    best = math.inf
    vts = hull.vertices
    n = len(vts)
    for i in range(n):
        a, b = vts[i], vts[(i + 1) % n]
        for t in range(21):
            m = tuple(a[j] + (b[j] - a[j]) * t / 20 for j in range(3))
            norm = math.sqrt(sum(c * c for c in m))
            best = min(best, _angle(q, tuple(c / norm for c in m)))
    return best


def cap_points(rng, n, lat, lon, radius):
    pts = []
    while len(pts) < n:
        p_lat = lat + rng.uniform(-radius, radius)
        if abs(p_lat) <= 89:
            pts.append(GeoPoint(p_lat, lon + rng.uniform(-radius, radius)))
    return pts


class TestCriterion3:
    def test_geometry_oracle_suite(self):
        start = time.perf_counter()
        rng = random.Random(20180501)

        for _ in range(1000):
            pts = cap_points(rng, rng.randint(1, 18), rng.uniform(-55, 55), rng.uniform(-170, 170), 15)
            hull = spherical_convex_hull(pts)
            assert all(hull_contains(hull, p) for p in pts)
            expected = brute_force_hull_vertices(pts)
            got = set(hull.vertices)
            assert got == expected, f"vertex sets differ: {got ^ expected}"

        grid_checks = 0
        for _ in range(20):
            lat, lon = rng.uniform(-50, 50), rng.uniform(-160, 160)
            hull = spherical_convex_hull(cap_points(rng, rng.randint(5, 20), lat, lon, 12))
            if hull.degenerate_kind != "polygon":
                continue
            for i in range(15):
                for j in range(15):
                    q = GeoPoint(lat + (i - 7) * 2.6, lon + (j - 7) * 2.6)
                    if distance_to_ring(hull, q) <= 1e-6:
                        continue
                    assert hull_contains(hull, q) == winding_contains(hull, q)
                    grid_checks += 1
        assert grid_checks > 3000
        announce(3, "hulls match brute-force and winding oracles on random caps", time.perf_counter() - start, 60)


def don_entry(normal, total):
    return {"normal": normal, "total": total, "don": None if total == 0 else normal / total}


# hand-computed counters for the 12-path fixture, (normal, total) per role
HAND_ROLE = {
    "physical": {
        "AA": {"source": (3, 7), "destination": (0, 3)},
        "AB": {"source": (2, 2), "transit": (3, 5), "destination": (2, 3)},
        "AC": {"source": (0, 1), "transit": (1, 2), "destination": (2, 3)},
        "AD": {"source": (0, 1), "destination": (1, 2)},
        "BE": {"source": (1, 1), "transit": (0, 4)},
        "BF": {"transit": (0, 2), "destination": (1, 1)},
    },
    "legal": {
        "AA": {"source": (1, 7), "destination": (0, 3)},
        "AB": {"source": (2, 2), "transit": (2, 4), "destination": (1, 3)},
        "AC": {"source": (0, 1), "transit": (1, 2), "destination": (1, 3)},
        "AD": {"source": (0, 1), "destination": (1, 2)},
        "BE": {"source": (1, 1), "transit": (0, 6)},
        "BF": {"transit": (0, 2), "destination": (1, 1)},
    },
    "union": {
        "AA": {"source": (1, 7), "destination": (0, 3)},
        "AB": {"source": (2, 2), "transit": (2, 5), "destination": (1, 3)},
        "AC": {"source": (0, 1), "transit": (1, 2), "destination": (1, 3)},
        "AD": {"source": (0, 1), "destination": (1, 2)},
        "BE": {"source": (1, 1), "transit": (0, 6)},
        "BF": {"transit": (0, 2), "destination": (1, 1)},
    },
}

# (benefited, transited, transit_only, transit_only_normal) per country
HAND_BENEFACTOR = {
    "physical": {
        "AA": (0, 9, 0, 0), "AB": (1, 9, 5, 3), "AC": (0, 6, 2, 1),
        "AD": (0, 3, 0, 0), "BE": (4, 5, 4, 0), "BF": (2, 3, 2, 0),
    },
    "legal": {
        "AA": (0, 9, 0, 0), "AB": (1, 7, 4, 2), "AC": (0, 6, 2, 1),
        "AD": (0, 3, 0, 0), "BE": (6, 7, 6, 0), "BF": (2, 3, 2, 0),
    },
    "union": {
        "AA": (0, 9, 0, 0), "AB": (1, 9, 5, 2), "AC": (0, 6, 2, 1),
        "AD": (0, 3, 0, 0), "BE": (6, 7, 6, 0), "BF": (2, 3, 2, 0),
    },
}

# (normal, total) per (src_region, dst_region); totals shared by exposure
HAND_MATRIX = {
    "physical": {
        ("Africa", "Oceania"): (1, 1), ("Americas", "Americas"): (0, 1),
        ("Americas", "Asia"): (0, 1), ("Americas", "Europe"): (3, 5),
        ("Asia", "Americas"): (0, 1), ("Europe", "Americas"): (0, 1),
        ("Europe", "Asia"): (1, 1), ("Europe", "Europe"): (1, 1),
    },
    "legal": {
        ("Africa", "Oceania"): (1, 1), ("Americas", "Americas"): (0, 1),
        ("Americas", "Asia"): (0, 1), ("Americas", "Europe"): (1, 5),
        ("Asia", "Americas"): (0, 1), ("Europe", "Americas"): (0, 1),
        ("Europe", "Asia"): (1, 1), ("Europe", "Europe"): (1, 1),
    },
    "union": {
        ("Africa", "Oceania"): (1, 1), ("Americas", "Americas"): (0, 1),
        ("Americas", "Asia"): (0, 1), ("Americas", "Europe"): (1, 5),
        ("Asia", "Americas"): (0, 1), ("Europe", "Americas"): (0, 1),
        ("Europe", "Asia"): (1, 1), ("Europe", "Europe"): (1, 1),
    },
}


class TestCriterion4:
    def test_pipeline_fixture_byte_for_byte(self, tmp_path, capsys):
        start = time.perf_counter()
        out_dir = tmp_path / "out"
        code = main([
            "analyze", *world_args(), *table_args(),
            "--traceroutes", str(PIPELINE12 / "traceroutes.ndjson"),
            "--output-dir", str(out_dir),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "global physical DoN: 0.500" in captured.out

        doc = json.loads((out_dir / "report.json").read_text())

        assert doc["totals"] == {"paths_classified": 12, "records_skipped": 0}
        assert doc["global_don"] == {"physical": 6 / 12, "legal": 4 / 12, "union": 4 / 12}
        assert doc["histograms"]["severity"] == {"0": 6, "1": 5, "2": 1}
        assert doc["histograms"]["union_added"] == {"0": 10, "1": 2}
        assert doc["histograms"]["tuple_len_don"] == {
            "2": don_entry(2, 2), "3": don_entry(4, 7), "4": don_entry(0, 3)
        }
        assert doc["histograms"]["as_count_don"] == doc["histograms"]["tuple_len_don"]
        assert doc["skip_log"] == {}

        expected_roles = {
            iso2: {
                exposure: {role: don_entry(*pair) for role, pair in HAND_ROLE[exposure][iso2].items()}
                for exposure in ("physical", "legal", "union")
            }
            for iso2 in ("AA", "AB", "AC", "AD", "BE", "BF")
        }
        assert doc["country_role_don"] == expected_roles

        for exposure in ("physical", "legal", "union"):
            hand = HAND_BENEFACTOR[exposure]
            expected_benefactors = sorted(
                ({"iso2": iso2, "paths_benefited": counts[0]} for iso2, counts in hand.items() if counts[0]),
                key=lambda r: (-r["paths_benefited"], r["iso2"]),
            )
            assert doc["benefactors"][exposure] == expected_benefactors

            expected_transit_only = sorted(
                (
                    {
                        "iso2": iso2,
                        "transit_only_paths": counts[2],
                        "transit_only_ratio": counts[2] / 12,
                        "transit_only_don": counts[3] / counts[2],
                    }
                    for iso2, counts in hand.items()
                    if counts[2]
                ),
                key=lambda r: (-r["transit_only_paths"], r["iso2"]),
            )
            assert doc["transit_only"][exposure] == expected_transit_only

            expected_providers = sorted(
                (
                    {
                        "iso2": iso2,
                        "paths_transited": counts[1],
                        "transited_ratio": counts[1] / 12,
                        "transit_don": (
                            None
                            if "transit" not in HAND_ROLE[exposure][iso2]
                            else HAND_ROLE[exposure][iso2]["transit"][0] / HAND_ROLE[exposure][iso2]["transit"][1]
                        ),
                    }
                    for iso2, counts in hand.items()
                    if counts[1]
                ),
                key=lambda r: (-r["paths_transited"], r["iso2"]),
            )
            assert doc["transit_providers"][exposure] == expected_providers

            expected_ratio = {
                iso2: {
                    "paths_benefited": counts[0],
                    "paths_transited": counts[1],
                    "ratio": counts[0] / counts[1],
                }
                for iso2, counts in sorted(hand.items())
                if counts[1]
            }
            assert doc["benefactor_transit_ratio"][exposure] == expected_ratio

            expected_matrix = {}
            for (src_r, dst_r), pair in sorted(HAND_MATRIX[exposure].items()):
                expected_matrix.setdefault(src_r, {})[dst_r] = don_entry(*pair)
            assert doc["region_matrix"][exposure] == expected_matrix

        # regional role table is the by-region sum of the country table
        region_of = {"AA": "Americas", "AB": "Europe", "AC": "Europe", "AD": "Asia", "BE": "Africa", "BF": "Oceania"}
        for exposure in ("physical", "legal", "union"):
            sums = {}
            for iso2, roles in HAND_ROLE[exposure].items():
                for role, (n, t) in roles.items():
                    key = (region_of[iso2], role)
                    acc = sums.setdefault(key, [0, 0])
                    acc[0] += n
                    acc[1] += t
            for (region, role), (n, t) in sums.items():
                assert doc["regional_role_don"][region][exposure][role] == don_entry(n, t)

        # byte-for-byte comparison with the committed expectation tree
        expected_root = PIPELINE12 / "expected"
        expected_files = sorted(p.relative_to(expected_root) for p in expected_root.rglob("*") if p.is_file())
        produced_files = sorted(p.relative_to(out_dir) for p in out_dir.rglob("*") if p.is_file())
        assert produced_files == expected_files
        for rel in expected_files:
            assert (out_dir / rel).read_bytes() == (expected_root / rel).read_bytes(), f"{rel} differs"
        announce(4, "12-path fixture report equals committed expectation byte-for-byte", time.perf_counter() - start, 5)


@pytest.fixture(scope="module")
def synthetic_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("synth") / "traceroutes.ndjson"
    count = write_corpus(path, 10_000, seed=20180101)
    assert count == 10_000
    return path


class TestCriterion5:
    def test_union_dominance_on_synthetic_corpus(self, synthetic_corpus, small_world, small_enrichment):
        start = time.perf_counter()
        cache = PairCache()
        agg = Aggregate()
        classified = 0
        with open(synthetic_corpus) as fh:
            for line_no, line in enumerate(fh, 1):
                rec = parse_traceroute_line(line, source=str(synthetic_corpus), line_no=line_no)
                tp = to_tuple_path(rec, small_enrichment)
                if isinstance(tp, Skip):
                    continue
                pc = classify_path_with(tp, cache.get_or_build(small_world, tp.src_country, tp.dst_country, "population"))
                if pc.union.normal:
                    assert pc.physical.normal, f"line {line_no}: union normal but physical not"
                accumulate(agg, tp, pc, small_world)
                classified += 1
        assert classified > 9000
        doc = report(agg, small_world)
        assert doc["global_don"]["union"] <= doc["global_don"]["physical"]
        assert 0.0 < doc["global_don"]["physical"] < 1.0  # the corpus exercises both outcomes
        announce(5, f"union DoN <= physical DoN with zero per-path violations over {classified} paths", time.perf_counter() - start, 30)


class TestCriterion6:
    def test_monoid_merge_and_worker_determinism(self, synthetic_corpus, tmp_path, capsys):
        start = time.perf_counter()
        outputs = {}
        for workers in (1, 8):
            out_dir = tmp_path / f"w{workers}"
            code = main([
                "analyze", *world_args(), *table_args(),
                "--traceroutes", str(synthetic_corpus),
                "--output-dir", str(out_dir),
                "--workers", str(workers),
            ])
            capsys.readouterr()
            assert code == 0
            outputs[workers] = {
                p.relative_to(out_dir): p.read_bytes() for p in out_dir.rglob("*") if p.is_file()
            }
        assert outputs[1].keys() == outputs[8].keys()
        for rel in outputs[1]:
            assert outputs[1][rel] == outputs[8][rel], f"{rel} differs between worker counts"
        announce(6, "1-worker and 8-worker analyze runs are byte-identical over 10k paths", time.perf_counter() - start, 60)


class TestCriterion7:
    def test_lpm_against_brute_force(self):
        start = time.perf_counter()
        rng = random.Random(424242)
        rows = {}
        while len(rows) < 1000:
            plen = rng.randint(4, 28)
            base = rng.getrandbits(32) & (0xFFFFFFFF << (32 - plen))
            rows.setdefault((base, plen), f"V{len(rows)}")
        table = PrefixTable.from_rows(
            (f"{ipaddress.IPv4Address(base)}/{plen}", value) for (base, plen), value in rows.items()
        )
        flat = [(base, plen, value) for (base, plen), value in rows.items()]

        def brute(ip_int):
            best, best_len = None, -1
            for base, plen, value in flat:
                if plen > best_len and (ip_int >> (32 - plen)) == (base >> (32 - plen)):
                    best, best_len = value, plen
            return best

        mismatches = 0
        for _ in range(10_000):
            ip_int = rng.getrandbits(32)
            ip = str(ipaddress.IPv4Address(ip_int))
            if table.lookup(ip) != brute(ip_int):
                mismatches += 1
        assert mismatches == 0
        announce(7, "10k lookups against a 1000-prefix table match brute force", time.perf_counter() - start, 10)


class TestCriterion8:
    def test_desk_scale_limitation_documented(self):
        start = time.perf_counter()
        readme = (REPO / "README.md").read_text()
        # the billions-of-paths corpora and commercial geolocation feeds are
        # not reproducible at desk scale; the artifact must say so and
        # document the ingestion contract for converted archives instead
        assert "2.5 billion" in readme
        assert "ndjson" in readme.lower()
        for field in ("src_ip", "dst_ip", "timestamp", "hops"):
            assert field in readme
        announce(8, "desk-scale limitation and archive ingestion contract documented", time.perf_counter() - start, 5)
