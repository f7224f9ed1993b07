"""perfbench/chain.py, the benchmark's in-process traced analyze, against the committed pipeline12 report.

chain.py reaches into the package (PairCache's keywords, RunConfig's
attributes and the module globals of geonorm.normality), so an internal
change can break it. This runs it as the traced benchmark does, loaded from
its path and unedited.
"""

import importlib.util
import json

import geonorm.normality as normality_mod
from geonorm.cli import RunConfig

from conftest import PIPELINE12, REPO, SMALLWORLD


def load_chain():
    spec = importlib.util.spec_from_file_location("perfbench_chain", REPO / "perfbench" / "chain.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def report_body(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc.pop("header")
    return doc


def test_traced_chain_reproduces_pipeline12(tmp_path):
    chain = load_chain()
    files = {name: str(SMALLWORLD / f"{name}.csv") for name in ("cities", "regions", "geo", "origin", "as_registry")}
    cfg = RunConfig(
        cities=files["cities"], borders=str(SMALLWORLD / "borders.geojson"), regions=files["regions"],
        geo_table=files["geo"], origin_table=files["origin"], as_registry=files["as_registry"],
        traceroutes=str(PIPELINE12 / "traceroutes.ndjson"), output_dir=str(tmp_path),
    )
    hull_fn = normality_mod.spherical_convex_hull
    tracer = chain.Tracer()
    _, cache, _, _ = chain.analyze_chain(cfg, tracer)
    assert report_body(tmp_path / "report.json") == report_body(PIPELINE12 / "expected" / "report.json")
    assert normality_mod.spherical_convex_hull is hull_fn  # the timed wrappers are gone again
    totals = tracer.totals()
    assert totals["normality.build"][0] == cache.misses > 0
    assert 0 < totals["sphere.hull_build"][0] <= cache.misses
