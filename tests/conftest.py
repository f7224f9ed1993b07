import importlib.util
import math
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from geonorm.enrichment import Enrichment, load_as_registry, load_geo_table, load_origin_table
from geonorm.sphere import GeoPoint, _cross, _normalized
from geonorm.world import load_world

settings.register_profile(
    "geonorm", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("geonorm")

TESTS = Path(__file__).parent
REPO = TESTS.parent
SMALLWORLD = TESTS / "data" / "smallworld"
PIPELINE12 = TESTS / "data" / "pipeline12"
SPECIAL_EDGES = TESTS / "data" / "special_edges"
WORLD_DATA = REPO / "data" / "world"


@pytest.fixture(scope="session")
def small_world():
    return load_world(
        SMALLWORLD / "cities.csv", SMALLWORLD / "borders.geojson", SMALLWORLD / "regions.csv"
    )


@pytest.fixture(scope="session")
def real_world():
    return load_world(
        WORLD_DATA / "cities.csv", WORLD_DATA / "borders.geojson", WORLD_DATA / "regions.csv"
    )


def write_gen_world(out, seed=1):
    """Write perfbench/gen.py's world for seed under out, by the generator loaded from its path, unedited."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", REPO / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    # generate() draws the world first from Random(seed); the tables and corpora it draws next are not needed
    gen.write_world(gen.make_world(random.Random(seed)), out)
    return out


@pytest.fixture(scope="session")
def gen_world1_dir(tmp_path_factory):
    return write_gen_world(tmp_path_factory.mktemp("gen_world1"), seed=1)


@pytest.fixture(scope="session")
def small_enrichment():
    return Enrichment(
        geo=load_geo_table(SMALLWORLD / "geo.csv"),
        origin=load_origin_table(SMALLWORLD / "origin.csv"),
        registry=load_as_registry(SMALLWORLD / "as_registry.csv"),
    )


def world_args(base=SMALLWORLD):
    return [
        "--cities", str(base / "cities.csv"),
        "--borders", str(base / "borders.geojson"),
        "--regions", str(base / "regions.csv"),
    ]


def table_args(base=SMALLWORLD):
    return [
        "--geo-table", str(base / "geo.csv"),
        "--origin-table", str(base / "origin.csv"),
        "--as-registry", str(base / "as_registry.csv"),
    ]


def star_ring(rng, lat, lon, radius, n):
    """n vertices at sorted angles around (lat, lon), radii in [0.5, 1] * radius degrees."""
    step = 2 * math.pi / n
    ring = []
    for k in range(n):
        theta = (k + rng.uniform(0.1, 0.9)) * step
        r = radius * rng.uniform(0.5, 1.0)
        ring.append(GeoPoint(lat + r * math.sin(theta), lon + r * math.cos(theta)))
    return tuple(ring)


def offset(c, angle, rng):
    """A unit vector angle radians from the unit vector c, in a random direction."""
    t = _normalized(_cross(c, (rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))))
    return _normalized(tuple(math.cos(angle) * ci + math.sin(angle) * ti for ci, ti in zip(c, t)))
