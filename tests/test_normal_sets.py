"""Every normal set of five worlds, pinned by the digest of one dump each.

The dump has one line per (city limit, pair, mode): the sorted members, or
"unclassifiable". A change to the geometry that moves any set, or an
unclassifiable flag, changes the digest; a documented semantic change then
shows up as a new digest here. The dump must not depend on PYTHONHASHSEED.

The generated worlds are perfbench/gen.py's for seeds 1, 5 and 9 (see
conftest.write_gen_world). Seed 9 at city limit 15 holds a build that
ANGLE_TOL decides (test_a_border_vertex_within_the_tolerance_is_a_member).
Each holds unclassifiable border-mode pairs that a mean over the two
countries' hull vertices alone, not over all their points, would classify:
4 in seed 1, 2 in seed 5 and 5 in seed 9.

pair_hull is also pinned against the hull over every point of both
countries on the builds whose two PointSet caps meet, where it deduplicates
their vertices together.
"""

import hashlib
import itertools
import math

import pytest

import geonorm.sphere as sphere_mod
from geonorm.normality import normal_set, pair_hull
from geonorm.sphere import _apart, spherical_convex_hull
from geonorm.world import country_points, load_world

from conftest import SMALLWORLD, WORLD_DATA, vertices_or_none, write_gen_world

# world: (city limits, builds per limit, unclassifiable per limit, sha256 of the dump)
PINNED = {
    "smallworld": ((1, 3, 15), 30, 0, "fe24d171b222c580d229f5c67a84df0d076d2d81778131b723b75227f061234b"),
    "data_world": ((1, 3, 15), 12, 0, "bc7a163a0f08588021329a1747eeed2c8be295136b0a421e8a70509fbc30d53d"),
    "gen_seed1": ((1, 15), 9120, 559, "171402bd0504a16a194e5367869514a007e16e679d5142b2c878f08567352094"),
    "gen_seed5": ((1,), 9120, 552, "252154765c32b247b6c398e75abb6f80df138734209b0c857fe92355fcadf7bd"),
    "gen_seed9": ((15,), 9120, 557, "f0a08553d2a837cefb4ca0331a2f34f18e493638faa97ebe6676efc98715c990"),
}
GEN_SEEDS = {"gen_seed1": 1, "gen_seed5": 5, "gen_seed9": 9}


def dump_lines(base, city_limit):
    w = load_world(base / "cities.csv", base / "borders.geojson", base / "regions.csv", city_limit)
    for a, b in itertools.combinations(sorted(w.countries), 2):
        for mode in ("population", "border"):
            ns = normal_set(w, a, b, mode)
            members = "unclassifiable" if ns.unclassifiable else " ".join(sorted(ns.countries))
            yield f"{city_limit} {a} {b} {mode}: {members}"


@pytest.mark.parametrize("world", sorted(PINNED))
def test_normal_sets_match_the_pinned_digest(world, tmp_path):
    base = {"smallworld": SMALLWORLD, "data_world": WORLD_DATA}.get(world)
    base = base or write_gen_world(tmp_path, GEN_SEEDS[world])
    limits, builds, unclassifiable, digest = PINNED[world]
    lines = []
    for city_limit in limits:
        at_limit = list(dump_lines(base, city_limit))
        assert len(at_limit) == builds
        assert sum(line.endswith(": unclassifiable") for line in at_limit) == unclassifiable
        lines += at_limit
    assert hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest() == digest


def test_a_border_vertex_within_the_tolerance_is_a_member(tmp_path, monkeypatch):
    # a vertex of BN's border lies 7.5e-8 rad outside an edge of the AA-DB population hull
    base = write_gen_world(tmp_path, seed=9)
    w = load_world(base / "cities.csv", base / "borders.geojson", base / "regions.csv", 15)
    assert "BN" in normal_set(w, "AA", "DB", "population").countries
    # with no tolerance the same build leaves BN out
    monkeypatch.setattr(sphere_mod, "ANGLE_TOL", 0.0)
    assert "BN" not in normal_set(w, "AA", "DB", "population").countries


# world: (city limit, modes, builds whose caps meet: with a cap that never prunes, and the rest)
MEETING = {"data_world": (15, ("border",), (0, 4)), "gen_seed1": (1, ("population", "border"), (555, 26))}


@pytest.mark.parametrize("world", sorted(MEETING))
def test_pair_hull_is_the_hull_over_every_point(world, gen_world1_dir):
    # every data/world border pair, and the seed-1 builds whose caps meet: a
    # country failing the hemisphere rule alone, whose cap never prunes, or
    # caps that overlap, as where two countries share border vertices
    base = {"data_world": WORLD_DATA, "gen_seed1": gen_world1_dir}[world]
    city_limit, modes, counts = MEETING[world]
    w = load_world(base / "cities.csv", base / "borders.geojson", base / "regions.csv", city_limit)
    seen = [0, 0]
    for a, b in itertools.combinations(sorted(w.countries), 2):
        for mode in modes:
            pa, pb = w.point_set(a, mode), w.point_set(b, mode)
            if not _apart(pa.cap.center, pa.cap.cos, pa.cap.sin, pb.cap):
                seen[-math.inf not in (pa.cap.cos, pb.cap.cos)] += 1
            elif world == "gen_seed1":
                continue
            every_point = country_points(w, a, mode) + country_points(w, b, mode)
            assert vertices_or_none(lambda: pair_hull(w, a, b, mode)) == vertices_or_none(lambda: spherical_convex_hull(every_point))
    assert tuple(seen) == counts
