import io
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import geonorm.normality as normality_mod
from geonorm import cli
from geonorm.cli import main
from geonorm.pipeline import shard_ranges
from geonorm.sphere import unit_to_geo
from geonorm.synth import write_corpus

from conftest import PIPELINE12, REPO, SMALLWORLD, SPECIAL_EDGES, WORLD_DATA, table_args, world_args


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOOD_LINE = json.dumps({
    "src_ip": "20.1.0.1", "dst_ip": "20.2.0.99", "timestamp": 1518048000,
    "hops": [{"ttl": 1, "ip": "20.1.0.5"}, {"ttl": 2, "ip": "30.1.0.5"}, {"ttl": 3, "ip": "20.2.0.9"}],
})


def feature_collection(features):
    return json.dumps({"type": "FeatureCollection", "features": features})


def polygon_with(coord):
    """A one-feature FeatureCollection, as JSON text, whose ring holds the coordinate text coord."""
    return (
        '{"type": "FeatureCollection", "features": [{"properties": {"iso2": "AA"}, '
        '"geometry": {"type": "Polygon", "coordinates": [[[0, 0], %s, [1, 1]]]}}]}' % coord
    )


class TestValidateWorld:
    def test_ok(self, capsys):
        code, out, err = run(capsys, "validate-world", *world_args())
        assert code == 0
        assert "countries with cities: 6" in out
        assert run(capsys, "validate-world", *world_args(), "--mode", "border") == (0, out, err)

    def test_missing_file_nonzero_and_named(self, capsys, tmp_path):
        missing = tmp_path / "nowhere.geojson"
        code, out, err = run(
            capsys, "validate-world",
            "--cities", str(SMALLWORLD / "cities.csv"),
            "--borders", str(missing),
            "--regions", str(SMALLWORLD / "regions.csv"),
        )
        assert code == 1
        assert "nowhere.geojson" in err

    def test_parse_error_nonzero(self, capsys, tmp_path):
        bad = tmp_path / "cities.csv"
        bad.write_text("iso2,city,lat,lon,population\nAA,Broken,95,0,1\n")
        code, out, err = run(
            capsys, "validate-world",
            "--cities", str(bad),
            "--borders", str(SMALLWORLD / "borders.geojson"),
            "--regions", str(SMALLWORLD / "regions.csv"),
        )
        assert code == 1
        assert "Broken" in err

    @pytest.mark.parametrize("lon", ["nan", "inf", "-inf"])
    def test_non_finite_city_longitude_is_located(self, capsys, tmp_path, lon):
        cities = tmp_path / "cities.csv"
        cities.write_text((SMALLWORLD / "cities.csv").read_text().replace("AA,Alpha City,2.0,2.0,", f"AA,Alpha City,2.0,{lon},"))
        argv = ["--cities", str(cities), "--borders", str(SMALLWORLD / "borders.geojson"), "--regions", str(SMALLWORLD / "regions.csv")]
        for command in (["validate-world"], ["normal-set", "AA", "AD"]):
            code, out, err = run(capsys, *command, *argv)
            assert code == 1 and out == ""
            assert err == f"error: {cities}:2: city 'Alpha City': longitude {float(lon)} is not finite\n"

    @pytest.mark.parametrize("text, message", [
        ("[]", "expected a GeoJSON FeatureCollection"),
        (feature_collection({"a": 1}), "features must be an array, got an object"),
        (feature_collection([5]), "feature 0 must be an object, got a number"),
        (feature_collection([{"properties": 5}]), "feature 0: properties must be an object, got a number"),
        (feature_collection([{"properties": {"iso2": 5}}]), "feature 0: properties.iso2 must be a string, got a number"),
        (feature_collection([{"properties": {"iso2": "AA"}, "geometry": [1]}]), "feature 0: geometry must be an object, got an array"),
        (feature_collection([{"properties": {"iso2": "AA"}, "geometry": {"type": "Polygon", "coordinates": 5}}]),
         "feature 0 (AA): coordinates must be an array, got a number"),
        (feature_collection([{"properties": {"iso2": "AA"}, "geometry": {"type": "MultiPolygon", "coordinates": [5]}}]),
         "feature 0 (AA): polygon must be an array, got a number"),
        (feature_collection([{"properties": {"iso2": "AA"}, "geometry": {"type": "Polygon", "coordinates": [5]}}]),
         "feature 0: ring must be an array, got a number"),
        (polygon_with('["x", 1]'), "feature 0: malformed ring coordinate ['x', 1]"),
        (polygon_with("[true, 1]"), "feature 0: malformed ring coordinate [True, 1]"),
        (polygon_with("[1]"), "feature 0: malformed ring coordinate [1]"),
        (polygon_with("[NaN, 1]"), "feature 0: longitude nan is not finite"),
        pytest.param(polygon_with("[1" + "0" * 400 + ", 1]"), "feature 0: int too large to convert to float", id="huge-int"),
    ])
    def test_malformed_borders_is_one_error_line(self, capsys, tmp_path, text, message):
        borders = tmp_path / "borders.geojson"
        borders.write_text(text)
        argv = ["--cities", str(SMALLWORLD / "cities.csv"), "--borders", str(borders), "--regions", str(SMALLWORLD / "regions.csv")]
        code, out, err = run(capsys, "validate-world", *argv)
        assert code == 1 and out == ""
        assert err == f"error: {borders}:0: {message}\n"

    @pytest.mark.parametrize("text", [
        pytest.param('{"type": "FeatureCollection", "features": ' + "1" * 5000 + "}", id="integer-digits"),
        pytest.param("[" * 100_000, id="nesting"),
    ])
    def test_borders_the_decoder_refuses_is_one_error_line(self, capsys, tmp_path, text):
        borders = tmp_path / "borders.geojson"
        borders.write_text(text)
        argv = ["--cities", str(SMALLWORLD / "cities.csv"), "--borders", str(borders), "--regions", str(SMALLWORLD / "regions.csv")]
        code, out, err = run(capsys, "validate-world", *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {borders}:0: invalid JSON: ") and err.count("\n") == 1

    def test_ring_spanning_a_hemisphere_is_located_at_load(self, capsys, tmp_path):
        # a 1-degree band from 100W to 100E added to AA; analyze must fail on it before reading the bad record
        doc = json.loads((SMALLWORLD / "borders.geojson").read_text())
        band = [[-100, 0], [0, 0], [100, 0], [100, 1], [-100, 1], [-100, 0]]
        doc["features"].append({"type": "Feature", "properties": {"iso2": "AA"}, "geometry": {"type": "Polygon", "coordinates": [band]}})
        borders = tmp_path / "borders.geojson"
        borders.write_text(json.dumps(doc))
        corpus = tmp_path / "traceroutes.ndjson"
        corpus.write_text("not a record\n")
        argv = ["--cities", str(SMALLWORLD / "cities.csv"), "--borders", str(borders), "--regions", str(SMALLWORLD / "regions.csv")]
        analyze = ["analyze", *table_args(), "--traceroutes", str(corpus), "--output-dir", str(tmp_path / "out")]
        for command in (["validate-world"], analyze):
            code, out, err = run(capsys, *command, *argv)
            assert code == 1 and out == ""
            assert err == f"error: {borders}: feature 6 (AA): polygon ring spans a hemisphere or more\n"


def world_without_aa_borders(tmp_path):
    """(borders file, world flags) of smallworld with AA's border polygons removed; AA keeps its cities."""
    doc = json.loads((SMALLWORLD / "borders.geojson").read_text())
    doc["features"] = [f for f in doc["features"] if f["properties"]["iso2"] != "AA"]
    borders = tmp_path / "borders.geojson"
    borders.write_text(json.dumps(doc))
    return borders, ["--cities", str(SMALLWORLD / "cities.csv"), "--borders", str(borders), "--regions", str(SMALLWORLD / "regions.csv")]


class TestNormalSet:
    def test_population_only(self, capsys):
        code, out, _ = run(capsys, "normal-set", *world_args(), "AA", "AC")
        assert code == 0
        assert "population: AA, AB, AC" in out

    def test_same_country(self, capsys):
        code, out, _ = run(capsys, "normal-set", *world_args(), "AA", "AA")
        assert code == 0
        assert "population: AA" in out.splitlines()[0]

    def test_both_modes_monotone(self, capsys):
        code, out, _ = run(capsys, "normal-set", *world_args(WORLD_DATA), "CN", "MN", "--both-modes")
        assert code == 0
        lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
        population = set(lines["population"].split(", "))
        border = set(lines["border"].split(", "))
        assert population <= border

    def test_unknown_code_suggests(self, capsys):
        code, out, err = run(capsys, "normal-set", *world_args(), "AX", "AB")
        assert code == 1
        assert "AX" in err and "did you mean" in err

    def test_a_lowercase_code_suggests_its_uppercase(self, capsys):
        code, out, err = run(capsys, "normal-set", *world_args(), "aa", "AD")
        assert (code, out) == (1, "")
        assert err.startswith("error: unknown country code 'aa' (did you mean: AA")

    def test_a_borders_only_code_is_not_suggested(self, capsys, tmp_path):
        # ZQ has border polygons but no cities, so no pair has it as an endpoint, and it is no suggestion for itself
        doc = json.loads((SMALLWORLD / "borders.geojson").read_text())
        ring = [[30, 0], [34, 0], [34, 4], [30, 4], [30, 0]]
        geometry = {"type": "Polygon", "coordinates": [ring]}
        doc["features"].append({"type": "Feature", "properties": {"iso2": "ZQ"}, "geometry": geometry})
        (tmp_path / "borders.geojson").write_text(json.dumps(doc))
        (tmp_path / "regions.csv").write_text((SMALLWORLD / "regions.csv").read_text() + "ZQ,Africa\n")
        shutil.copy(SMALLWORLD / "cities.csv", tmp_path)
        code, _, err = run(capsys, "normal-set", "--mode", "border", *world_args(tmp_path), "ZQ", "AA")
        assert (code, err) == (1, "error: unknown country code 'ZQ'\n")

    def test_border_mode_names_a_country_without_borders(self, capsys, tmp_path):
        # AA keeps its cities but loses its border polygons: it is known, so the error must not call it unknown
        borders, argv = world_without_aa_borders(tmp_path)
        analyze = ["analyze", *table_args(), "--traceroutes", str(PIPELINE12 / "traceroutes.ndjson"), "--output-dir", str(tmp_path / "out")]
        message = "AA has no border polygons, which border mode needs\n"
        # analyze and validate-world check the whole world for the mode, so they name the file it lacks
        for command, where in ((["normal-set", "AA", "AC"], ""), (analyze, f"{borders}: "), (["validate-world"], f"{borders}: ")):
            code, out, err = run(capsys, *command, *argv, "--mode", "border")
            assert code == 1 and out == ""
            assert err == f"error: {where}{message}"

    def test_export_hull_geojson_linestring(self, capsys, tmp_path):
        target = tmp_path / "hull.geojson"
        code, out, _ = run(capsys, "normal-set", *world_args(), "AA", "AC", "--export-hull", str(target))
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["geometry"]["type"] == "LineString"
        coords = doc["geometry"]["coordinates"]
        assert coords[0] == coords[-1]  # closed ring
        assert len(coords) >= 4
        assert doc["properties"]["kind"] == "polygon"
        # one city each makes a two-vertex hull, whose kind comes from its vertex count
        code, out, _ = run(capsys, "normal-set", *world_args(), "AA", "AC", "--city-limit", "1", "--export-hull", str(target))
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["properties"]["kind"] == "arc"
        assert doc["geometry"]["coordinates"] == [[2.0, 2.0], [14.0, 2.0], [2.0, 2.0]]

    @pytest.mark.parametrize("world, pair", [("smallworld", ("AA", "AC")), ("gen_world1", ("AA", "AF"))])
    def test_export_hull_writes_the_hull_that_decided_the_set(self, world, pair, capsys, tmp_path, gen_world1_dir, monkeypatch):
        built = []  # every hull normality builds: normal_set's first, then the exported one
        hull_fn = normality_mod.spherical_convex_hull
        monkeypatch.setattr(normality_mod, "spherical_convex_hull", lambda points: built.append(hull_fn(points)) or built[-1])
        base = {"smallworld": SMALLWORLD, "gen_world1": gen_world1_dir}[world]
        for mode in ("population", "border"):
            built.clear()
            target = tmp_path / f"{mode}.geojson"
            code, _, _ = run(capsys, "normal-set", *world_args(base), *pair, "--mode", mode, "--export-hull", str(target))
            assert code == 0 and len(built) == 2
            ring = [unit_to_geo(v) for v in built[0].vertices]
            expected = [[p.lon, p.lat] for p in ring + ring[:1]]
            assert json.loads(target.read_text())["geometry"]["coordinates"] == expected

    def test_export_hull_to_a_missing_directory_is_one_error_line(self, capsys, tmp_path):
        target = tmp_path / "absent" / "h.json"
        code, out, err = run(capsys, "normal-set", *world_args(), "AA", "AC", "--export-hull", str(target))
        assert code == 1 and out == ""  # the hull is written before the normal set is printed
        assert err == f"error: cannot write the hull ring to {target}: No such file or directory\n"

    @pytest.mark.parametrize("world, argv, expected", [
        ("smallworld", ["AA", "AA", "--both-modes"], [
            "population: AA", "no hull ring written to {dir}/h_population.json: a single-country pair has no hull",
            "border: AA", "no hull ring written to {dir}/h_border.json: a single-country pair has no hull",
        ]),
        ("gen_world1", ["AX", "CU", "--mode", "border", "--city-limit", "1"], [
            "border: unclassifiable (pair spans more than a hemisphere)",
            "no hull ring written to {dir}/h.json: the pair spans more than a hemisphere",
        ]),
    ], ids=["single-country", "unclassifiable"])
    def test_export_hull_says_why_it_writes_no_file(self, world, argv, expected, capsys, tmp_path, gen_world1_dir):
        base = {"smallworld": SMALLWORLD, "gen_world1": gen_world1_dir}[world]
        code, out, _ = run(capsys, "normal-set", *world_args(base), *argv, "--export-hull", str(tmp_path / "h.json"))
        assert (code, list(tmp_path.iterdir())) == (0, [])
        assert out.splitlines() == [line.format(dir=tmp_path) for line in expected]

    def test_boundary_step_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["normal-set", *world_args(), "AA", "AC", "--boundary-step", "0.05"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --boundary-step 0.05" in capsys.readouterr().err


class TestClassifyOne:
    def test_trombone_detected(self, capsys):
        code, out, _ = run(capsys, "classify-one", *world_args(), *table_args(), GOOD_LINE)
        assert code == 0
        assert "physical: non-normal, benefactors: AB" in out
        assert "AA -> AA" in out

    def test_malformed_line_nonzero(self, capsys):
        code, out, err = run(capsys, "classify-one", *world_args(), *table_args(), "{broken")
        assert code == 1
        assert "invalid JSON" in err

    def test_all_hops_unresolvable_classifies_normal(self, capsys):
        line = json.dumps({
            "src_ip": "20.1.0.1", "dst_ip": "20.2.0.99", "timestamp": 0,
            "hops": [{"ttl": 1, "ip": "99.1.1.1"}, {"ttl": 2, "ip": "99.2.2.2"}],
        })
        code, out, _ = run(capsys, "classify-one", *world_args(), *table_args(), line)
        assert code == 0
        assert "dropped hops: 2" in out
        assert "via (empty)" in out
        assert "physical: normal" in out

    def test_stdin_line_is_decoded_strictly(self):
        # even under strict stdin decoding, a bad byte is a located error, as in the file readers
        env = dict(os.environ, PYTHONIOENCODING="utf-8:strict",
                   PYTHONPATH=os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
        argv = [sys.executable, "-m", "geonorm.cli", "classify-one", *world_args(), *table_args(), "-"]
        good = subprocess.run(argv, env=env, input=GOOD_LINE.encode() + b"\n", capture_output=True, timeout=120)
        assert good.returncode == 0
        assert b"physical: non-normal, benefactors: AB" in good.stdout
        bad = subprocess.run(argv, env=env, input=b'{"src_ip": "\xff"}\n', capture_output=True, timeout=120)
        assert (bad.returncode, bad.stderr) == (1, b"error: <stdin>:1: invalid UTF-8 byte 0xff at column 13\n")

    @pytest.mark.parametrize("stdin, message", [
        (b"", "invalid JSON at column 1: Expecting value"),
        (b'{"src_ip": "1.2.3.4"}\n', "missing field 'dst_ip'"),
    ], ids=["json", "field"])
    def test_stdin_line_errors_name_stdin(self, capsys, monkeypatch, stdin, message):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8"))
        code, out, err = run(capsys, "classify-one", *world_args(), *table_args(), "-")
        assert (code, out, err) == (1, "", f"error: <stdin>:1: {message}\n")


class TestAnalyze:
    def test_missing_input_errors(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "analyze", *world_args(), *table_args(),
            "--traceroutes", str(tmp_path / "absent.ndjson"),
            "--output-dir", str(tmp_path / "out"),
        )
        assert code == 1
        assert "absent.ndjson" in err

    @pytest.mark.parametrize("command, flag", [
        ("analyze", "--traceroutes"), ("analyze", "--cities"), ("validate-world", "--cities"),
    ])
    def test_non_regular_input_rejected_before_any_read(self, capsys, tmp_path, monkeypatch, command, flag):
        # a pipe reads as an empty corpus to shard_ranges, and drained to the header digest. Opening a
        # FIFO with no writer blocks, so the readers fail the test instead of being reached.
        for name in ("_load_world", "shard_ranges"):
            monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("an input was read"))
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        args = world_args()
        if command == "analyze":
            args += [*table_args(), "--traceroutes", str(PIPELINE12 / "traceroutes.ndjson"), "--output-dir", str(tmp_path / "out")]
        code, out, err = run(capsys, command, *args, flag, str(fifo))  # the last value of a flag wins
        assert (code, out, err) == (1, "", f"error: input is not a regular file: {fifo}\n")
        assert not (tmp_path / "out").exists()

    def test_fixture_run_summary_and_outputs(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, out, _ = run(
            capsys, "analyze", *world_args(), *table_args(),
            "--traceroutes", str(PIPELINE12 / "traceroutes.ndjson"),
            "--output-dir", str(out_dir),
        )
        assert code == 0
        assert "global physical DoN: 0.500" in out
        assert (out_dir / "report.json").exists()
        assert (out_dir / "tables" / "benefactors_physical.csv").exists()
        assert (out_dir / "plots" / "severity.tsv").exists()
        doc = json.loads((out_dir / "report.json").read_text())
        assert doc["totals"]["paths_classified"] == 12
        assert doc["header"]["inputs"]["traceroutes"]["file"] == "traceroutes.ndjson"
        assert len(doc["header"]["inputs"]["traceroutes"]["sha256"]) == 64

    def test_no_partial_outputs_on_failure(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        bad = tmp_path / "bad.ndjson"
        bad.write_text('{"src_ip": "1.1.1.1"}\n')
        code, _, err = run(
            capsys, "analyze", *world_args(), *table_args(),
            "--traceroutes", str(bad), "--output-dir", str(out_dir),
        )
        assert code == 1
        assert not (out_dir / "report.json").exists()

    def test_malformed_address_is_located_error(self, tmp_path):
        # a fresh process, so stderr shows whether a traceback escaped
        out_dir = tmp_path / "out"
        bad = tmp_path / "bad.ndjson"
        hops = [{"ttl": 1, "ip": "20.1.0.5"}, {"ttl": 2, "ip": "not-an-ip"}]
        bad.write_text(GOOD_LINE + "\n" + json.dumps({**json.loads(GOOD_LINE), "hops": hops}) + "\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "geonorm.cli", "analyze", *world_args(), *table_args(),
             "--traceroutes", str(bad), "--output-dir", str(out_dir)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert "bad.ndjson:2: hop 1: bad ip 'not-an-ip'" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out_dir.exists() or not any(out_dir.iterdir())

    def test_empty_traceroute_file(self, capsys, tmp_path):
        empty = tmp_path / "empty.ndjson"
        empty.write_text("")
        code, out, _ = run(
            capsys, "analyze", *world_args(), *table_args(),
            "--traceroutes", str(empty), "--output-dir", str(tmp_path / "out"),
        )
        assert code == 0
        assert "paths classified: 0" in out
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc["global_don"] == {"physical": None, "legal": None, "union": None}

    def test_output_dir_under_a_file_fails_before_any_record(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "read_lines", lambda *a, **k: pytest.fail("a record was read"))
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, out, err = run(
            capsys, "analyze", *world_args(), *table_args(),
            "--traceroutes", str(PIPELINE12 / "traceroutes.ndjson"), "--output-dir", str(blocker / "out"),
        )
        assert code == 1 and out == ""
        assert err == f"error: cannot create output directory {blocker / 'out'}: Not a directory\n"

    def test_analyze_checks_the_world_for_its_mode_before_any_record(self, capsys, tmp_path, monkeypatch):
        # no corpus line reaches AA or names any pair, yet border mode fails at load
        monkeypatch.setattr(cli, "read_lines", lambda *a, **k: pytest.fail("a record was read"))
        monkeypatch.setattr(cli, "shard_ranges", lambda *a, **k: pytest.fail("the corpus was opened"))
        borders, argv = world_without_aa_borders(tmp_path)
        corpus = tmp_path / "empty.ndjson"
        corpus.write_text("")
        code, out, err = run(capsys, "analyze", *argv, *table_args(), "--traceroutes", str(corpus),
                             "--output-dir", str(tmp_path / "out"), "--mode", "border")
        assert (code, out) == (1, "")
        assert err == f"error: {borders}: AA has no border polygons, which border mode needs\n"
        assert not (tmp_path / "out" / "report.json").exists()
        # the same world serves population mode
        monkeypatch.undo()
        code, out, err = run(capsys, "analyze", *argv, *table_args(), "--traceroutes", str(corpus),
                             "--output-dir", str(tmp_path / "out"))
        assert code == 0, err

    def test_unwritable_output_is_one_error_line(self, capsys, tmp_path, monkeypatch):
        def full(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli.tempfile, "mkdtemp", full)
        code, out, err = run(
            capsys, "analyze", *world_args(), *table_args(),
            "--traceroutes", str(PIPELINE12 / "traceroutes.ndjson"), "--output-dir", str(tmp_path),
        )
        assert code == 1 and out == ""
        assert err == f"error: cannot write the report under {tmp_path}: No space left on device\n"

    def test_invalid_worker_count_rejected(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "analyze", *world_args(), *table_args(),
            "--traceroutes", str(PIPELINE12 / "traceroutes.ndjson"),
            "--output-dir", str(tmp_path), "--workers", "0",
        )
        assert code == 1
        assert "workers" in err


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, capsys, tmp_path):
        cfg = {
            "cities": str(SMALLWORLD / "cities.csv"),
            "borders": str(SMALLWORLD / "borders.geojson"),
            "regions": str(SMALLWORLD / "regions.csv"),
            "mode": "border",
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, _ = run(capsys, "--config", str(cfg_path), "normal-set", "AA", "AB")
        assert code == 0
        assert out.startswith("border:")
        # explicit flag beats the config file
        code, out, _ = run(capsys, "--config", str(cfg_path), "normal-set", "AA", "AB", "--mode", "population")
        assert code == 0
        assert out.startswith("population:")

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text('{"citties": "typo.csv"}')
        code, _, err = run(capsys, "--config", str(cfg_path), "validate-world", *world_args())
        assert code == 1
        assert "citties" in err

    @pytest.mark.parametrize("text, message", [
        ("null", "must hold a JSON object, got null"),
        ("5", "must hold a JSON object, got 5"),
        ('"ab"', 'must hold a JSON object, got "ab"'),
        ('{"workers": "2"}', "workers must be an integer, got '2'"),
        ('{"boundary_step": 0.05}', "unknown keys ['boundary_step']"),
        ('{"city_limit": 2.5}', "city_limit must be an integer, got 2.5"),
        ('{"top_n": true}', "top_n must be an integer, got True"),
        ('{"cities": 5}', "cities must be a string, got 5"),
        ('{"output_dir": null}', "output_dir must be a string, got None"),
        ('{"origin_conflict": "last_wins"}', "origin-conflict must be error or first_wins, got 'last_wins'"),
        ('{"origin_conflict": 1}', "origin_conflict must be a string, got 1"),
        # json.load raises ValueError and RecursionError for these, not JSONDecodeError
        pytest.param('{"top_n": ' + "1" * 5000 + "}", "run.json is not valid JSON: ", id="integer-digits"),
        pytest.param("[" * 100_000, "run.json is not valid JSON: ", id="nesting"),
    ])
    def test_mistyped_config_is_one_error_line(self, capsys, tmp_path, text, message):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(text)
        code, _, err = run(capsys, "--config", str(cfg_path), "validate-world")
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


class TestOriginConflict:
    """--origin-conflict on a table whose 20.1.0.0/16 has a second origin, AS999, after AS101."""

    def analyze(self, capsys, tmp_path, *flags, config=None):
        origin = tmp_path / "origin.csv"
        origin.write_text((SMALLWORLD / "origin.csv").read_text() + "20.1.0.0/16,999\n")
        before = []
        if config is not None:
            (tmp_path / "run.json").write_text(json.dumps(config))
            before = ["--config", str(tmp_path / "run.json")]
        return run(
            capsys, *before, "analyze", *world_args(), "--geo-table", str(SMALLWORLD / "geo.csv"),
            "--origin-table", str(origin), "--as-registry", str(SMALLWORLD / "as_registry.csv"),
            "--traceroutes", str(PIPELINE12 / "traceroutes.ndjson"), "--output-dir", str(tmp_path / "out"), *flags,
        )

    @pytest.mark.parametrize("flags", [[], ["--origin-conflict", "error"]])
    def test_error_by_default(self, capsys, tmp_path, flags):
        code, out, err = self.analyze(capsys, tmp_path, *flags)
        assert code == 1 and out == ""
        assert err == "error: prefix 20.1.0.0/16 maps to both 101 and 999\n"

    @pytest.mark.parametrize("flags, config", [
        (["--origin-conflict", "first_wins"], None),
        ([], {"origin_conflict": "first_wins"}),
        (["--origin-conflict", "first_wins"], {"origin_conflict": "error"}),  # the flag wins
    ])
    def test_first_wins_is_in_the_header(self, capsys, tmp_path, flags, config):
        code, _, err = self.analyze(capsys, tmp_path, *flags, config=config)
        assert code == 0, err
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc["header"]["config"]["origin_conflict"] == "first_wins"
        # AS101 wins, so every path resolves as in pipeline12
        expected = json.loads((PIPELINE12 / "expected" / "report.json").read_text())
        assert expected["header"]["config"]["origin_conflict"] == "error"
        doc.pop("header"), expected.pop("header")
        assert doc == expected


def run_cli_process(*argv):
    """The CLI in a fresh process, so stderr shows whether a traceback escaped."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "geonorm.cli", *argv], env=env, capture_output=True, text=True, timeout=120,
    )


def assert_located_failure(proc, location, out_dir):
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert location in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out_dir.exists() or not any(out_dir.iterdir())


class TestNonUtf8Input:
    def test_traceroute_line(self, tmp_path):
        bad = tmp_path / "bad.ndjson"
        bad.write_bytes(GOOD_LINE.encode() + b"\n" + GOOD_LINE.encode().replace(b"30.1.0.5", b"30.1.0.\xff") + b"\n")
        out_dir = tmp_path / "out"
        proc = run_cli_process("analyze", *world_args(), *table_args(), "--traceroutes", str(bad), "--output-dir", str(out_dir))
        assert_located_failure(proc, "bad.ndjson:2: invalid UTF-8 byte 0xff at column", out_dir)

    @pytest.mark.parametrize("name, old, new, line", [
        ("cities.csv", b"Alpha Port", b"Alpha P\xf6rt", 3),
        ("borders.geojson", b'"FeatureCollection"', b'"Feature\xffCollection"', 2),
    ])
    def test_world_file(self, tmp_path, name, old, new, line):
        world = tmp_path / "world"
        world.mkdir()
        for path in SMALLWORLD.iterdir():
            (world / path.name).write_bytes(path.read_bytes())
        target = world / name
        target.write_bytes(target.read_bytes().replace(old, new, 1))
        out_dir = tmp_path / "out"
        proc = run_cli_process(
            "analyze", *world_args(world), *table_args(world),
            "--traceroutes", str(PIPELINE12 / "traceroutes.ndjson"), "--output-dir", str(out_dir),
        )
        assert_located_failure(proc, f"{name}:{line}: invalid UTF-8 byte", out_dir)

    def test_config_file(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_bytes(b'{\n "mode": "b\xf6rder"\n}\n')
        out_dir = tmp_path / "out"
        proc = run_cli_process(
            "--config", str(cfg_path), "analyze", *world_args(), *table_args(),
            "--traceroutes", str(PIPELINE12 / "traceroutes.ndjson"), "--output-dir", str(out_dir),
        )
        assert_located_failure(proc, "run.json:2: invalid UTF-8 byte 0xf6 at column 12", out_dir)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="names a pipe through /dev/fd")
    def test_piped_config_file(self, capsys):
        # a drained pipe cannot be read a second time, so the bytes read once must locate the bad one
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, b'{\n "mode": "b\xf6rder"\n}\n')
            os.close(write_end)
            code, out, err = run(capsys, "--config", f"/dev/fd/{read_end}", "validate-world", *world_args())
        finally:
            os.close(read_end)
        assert (code, out) == (1, "")
        assert err == f"error: /dev/fd/{read_end}:2: invalid UTF-8 byte 0xf6 at column 12\n"


def tree(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_special_edges_report(capsys, tmp_path):
    # hops at the edges of every special range; the same bytes on every Python version
    code, _, _ = run(
        capsys, "analyze", *world_args(), *table_args(SPECIAL_EDGES),
        "--traceroutes", str(SPECIAL_EDGES / "traceroutes.ndjson"), "--output-dir", str(tmp_path),
    )
    assert code == 0
    assert tree(tmp_path) == tree(SPECIAL_EDGES / "expected")


class TestShardedAnalyze:
    """--workers as forked processes over byte ranges; CPUs are not the cap here, so shards really fork."""

    @pytest.fixture(autouse=True)
    def many_cpus(self, monkeypatch):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 8)

    def analyze(self, capsys, traceroutes, out_dir, workers):
        return run(
            capsys, "analyze", *world_args(), *table_args(),
            "--traceroutes", str(traceroutes), "--output-dir", str(out_dir), "--workers", str(workers),
        )

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_pipeline12_identical_for_any_worker_count(self, capsys, tmp_path, workers):
        code, _, _ = self.analyze(capsys, PIPELINE12 / "traceroutes.ndjson", tmp_path, workers)
        assert code == 0
        assert tree(tmp_path) == tree(PIPELINE12 / "expected")

    @pytest.fixture(scope="class")
    def synth_corpus(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("synth") / "synth.ndjson"
        write_corpus(path, 3000, seed=5)
        return path

    @pytest.mark.parametrize("cap", [1, 7])
    def test_signature_cap_changes_no_output(self, capsys, tmp_path, monkeypatch, synth_corpus, cap):
        reference = tmp_path / "default"
        assert self.analyze(capsys, synth_corpus, reference, 1)[0] == 0
        monkeypatch.setattr(cli, "SIGNATURE_CAP", cap)
        for workers in (1, 2, 8):
            assert self.analyze(capsys, PIPELINE12 / "traceroutes.ndjson", tmp_path / f"p12-{workers}", workers)[0] == 0
            assert tree(tmp_path / f"p12-{workers}") == tree(PIPELINE12 / "expected")
            assert self.analyze(capsys, synth_corpus, tmp_path / f"synth-{workers}", workers)[0] == 0
            assert tree(tmp_path / f"synth-{workers}") == tree(reference)

    def test_runs_in_process_without_fork(self, capsys, tmp_path, monkeypatch):
        import multiprocessing

        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(os, "fork", None)
        code, _, _ = self.analyze(capsys, PIPELINE12 / "traceroutes.ndjson", tmp_path, 8)
        assert code == 0
        assert tree(tmp_path) == tree(PIPELINE12 / "expected")

    def corpus_with_bad_lines(self, tmp_path, bad_lines):
        path = tmp_path / "traces.ndjson"
        path.write_text("".join(("broken" if i in bad_lines else GOOD_LINE) + "\n" for i in range(1, 101)))
        return path

    def test_error_in_second_half_matches_one_worker(self, capsys, tmp_path):
        path = self.corpus_with_bad_lines(tmp_path, {81})
        assert shard_ranges(path, 2)[1][0] < 80 * (len(GOOD_LINE) + 1)
        code1, _, err1 = self.analyze(capsys, path, tmp_path / "w1", 1)
        code2, _, err2 = self.analyze(capsys, path, tmp_path / "w2", 2)
        assert code1 == code2 == 1
        assert err1 == err2
        assert "traces.ndjson:81: invalid JSON" in err1

    @pytest.mark.parametrize("workers", [2, 8])
    def test_earliest_error_wins(self, capsys, tmp_path, workers):
        path = self.corpus_with_bad_lines(tmp_path, {21, 81})
        code, _, err = self.analyze(capsys, path, tmp_path / "out", workers)
        assert code == 1
        assert "traces.ndjson:21: invalid JSON" in err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_worker_that_dies_is_reported(self, capsys, tmp_path, monkeypatch):
        parent = os.getpid()
        real_accumulate = cli.accumulate

        def accumulate(*args):
            if os.getpid() != parent:
                os._exit(3)
            real_accumulate(*args)

        monkeypatch.setattr(cli, "accumulate", accumulate)
        path = self.corpus_with_bad_lines(tmp_path, set())
        code, _, err = self.analyze(capsys, path, tmp_path / "out", 2)
        assert code == 1
        assert "exited with code 3" in err
        assert not (tmp_path / "out" / "report.json").exists()


class TestClosedStdout:
    """A reader that goes away early, as with `| head`, ends the run without a traceback."""

    @pytest.mark.parametrize("argv", [
        ["normal-set", *world_args(), "AA", "AC", "--both-modes"],
        ["analyze", *world_args(), *table_args(), "--traceroutes", str(PIPELINE12 / "traceroutes.ndjson")],
    ], ids=["normal-set", "analyze"])
    def test_no_traceback(self, tmp_path, argv):
        if argv[0] == "analyze":
            argv = [*argv, "--output-dir", str(tmp_path)]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen([sys.executable, "-m", "geonorm.cli", *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()  # before the child can print, so its first write fails
        _, err = proc.communicate(timeout=120)  # reads stderr to the end, then closes it
        assert (proc.returncode, err) == (1, b"")
        if argv[0] == "analyze":
            assert tree(tmp_path) == tree(PIPELINE12 / "expected")


class TestResolveOnce:
    def test_one_resolution_per_distinct_router(self, capsys, tmp_path, monkeypatch):
        from geonorm import enrichment

        rng = random.Random(4)
        routers = [f"{a}.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(1, 255)}" for a in (20, 30, 40) for _ in range(15)]
        lines = []
        for i in range(400):
            hops = [{"ttl": t, "ip": rng.choice(routers + [None])} for t in range(1, rng.randint(2, 9))]
            lines.append(json.dumps({"src_ip": "20.1.0.1", "dst_ip": "30.1.0.1", "timestamp": 1518048000 + i, "hops": hops}))
        corpus = tmp_path / "traces.ndjson"
        corpus.write_text("\n".join(lines) + "\n")
        distinct = {h["ip"] for line in lines for h in json.loads(line)["hops"] if h["ip"] is not None}
        calls = []
        real = enrichment.resolve_hop
        monkeypatch.setattr(enrichment, "resolve_hop", lambda *args: calls.append(args[-1]) or real(*args))
        code, _, _ = run(capsys, "analyze", *world_args(), *table_args(), "--traceroutes", str(corpus),
                         "--output-dir", str(tmp_path / "out"), "--workers", "1")
        assert code == 0
        assert sorted(calls) == sorted(distinct)

    def test_each_address_parsed_once(self, capsys, tmp_path, monkeypatch):
        # after the tables load: every endpoint once, and each distinct hop address once, however often it recurs
        from geonorm import enrichment, pipeline

        rng = random.Random(4)
        pool = ["20.1.0.5", "20.1.0.77", "30.1.0.5", "30.9.0.5", "40.1.0.9", "20.5.0.1", "99.9.9.9", "10.0.0.1",
                "::1", "fe80::1%eth0", "2001:db8::1"]
        endpoints = ["20.1.0.1", "30.1.0.99", "40.1.0.99", "99.0.0.1"]
        lines = []
        for i in range(300):
            hops = [{"ttl": t, "ip": rng.choice(pool + [None])} for t in range(1, rng.randint(1, 9))]
            lines.append(json.dumps({"src_ip": rng.choice(endpoints), "dst_ip": rng.choice(endpoints),
                                     "timestamp": 1518048000 + i, "hops": hops}))
        corpus = tmp_path / "traces.ndjson"
        corpus.write_text("\n".join(lines) + "\n")
        distinct = {h["ip"] for line in lines for h in json.loads(line)["hops"] if h["ip"] is not None}
        assert len(distinct) == len(pool) < enrichment.RESOLVE_CAP
        parsed = []
        real_parse, real_load = enrichment.parse_ip, cli._load_enrichment

        def load_then_count(cfg):
            loaded = real_load(cfg)
            for module in (enrichment, pipeline):
                monkeypatch.setattr(module, "parse_ip", lambda text: parsed.append(text) or real_parse(text))
            return loaded

        monkeypatch.setattr(cli, "_load_enrichment", load_then_count)
        code, _, err = run(capsys, "analyze", *world_args(), *table_args(), "--traceroutes", str(corpus),
                           "--output-dir", str(tmp_path / "out"), "--workers", "1")
        assert code == 0, err
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert sum(doc["totals"].values()) == len(lines)
        assert set(doc["skip_log"]) == {"empty_path", "unresolved_source", "unresolved_destination"}
        assert len(parsed) == 2 * len(lines) + len(distinct)
