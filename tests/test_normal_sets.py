"""Every normal set of three worlds, pinned by the digest of one dump.

The dump has one line per (city limit, pair, mode): the sorted members, or
"unclassifiable". A change to the geometry that moves any set, or an
unclassifiable flag, changes the digest; a documented semantic change then
shows up as a new digest here. The dump must not depend on PYTHONHASHSEED.

The generated world is perfbench/gen.py's for seed 1, written by the
generator loaded from its path, unedited.
"""

import hashlib
import importlib.util
import itertools
import random

import pytest

from geonorm.normality import normal_set
from geonorm.world import load_world

from conftest import REPO, SMALLWORLD, WORLD_DATA

# world: (city limits, builds per limit, unclassifiable per limit, sha256 of the dump)
PINNED = {
    "smallworld": ((1, 3, 15), 30, 0, "fe24d171b222c580d229f5c67a84df0d076d2d81778131b723b75227f061234b"),
    "data_world": ((1, 3, 15), 12, 0, "bc7a163a0f08588021329a1747eeed2c8be295136b0a421e8a70509fbc30d53d"),
    "gen_seed1": ((1, 15), 9120, 559, "171402bd0504a16a194e5367869514a007e16e679d5142b2c878f08567352094"),
}


def write_gen_world(out, seed=1):
    spec = importlib.util.spec_from_file_location("perfbench_gen", REPO / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    # generate() draws the world first from Random(seed); the tables and corpora it draws next are not needed
    gen.write_world(gen.make_world(random.Random(seed)), out)
    return out


def dump_lines(base, city_limit):
    w = load_world(base / "cities.csv", base / "borders.geojson", base / "regions.csv", city_limit)
    for a, b in itertools.combinations(sorted(w.countries), 2):
        for mode in ("population", "border"):
            ns = normal_set(w, a, b, mode)
            members = "unclassifiable" if ns.unclassifiable else " ".join(sorted(ns.countries))
            yield f"{city_limit} {a} {b} {mode}: {members}"


@pytest.mark.parametrize("world", sorted(PINNED))
def test_normal_sets_match_the_pinned_digest(world, tmp_path):
    base = {"smallworld": SMALLWORLD, "data_world": WORLD_DATA}.get(world) or write_gen_world(tmp_path)
    limits, builds, unclassifiable, digest = PINNED[world]
    lines = []
    for city_limit in limits:
        at_limit = list(dump_lines(base, city_limit))
        assert len(at_limit) == builds
        assert sum(line.endswith(": unclassifiable") for line in at_limit) == unclassifiable
        lines += at_limit
    assert hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest() == digest
