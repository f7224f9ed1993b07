import json

import pytest

from geonorm.errors import ParseError, UnknownCountry, ValidationError
from geonorm.world import country_points, load_summary, load_world

from conftest import SMALLWORLD


def write_world(tmp_path, cities=None, borders=None, regions=None):
    cities_path = tmp_path / "cities.csv"
    borders_path = tmp_path / "borders.geojson"
    regions_path = tmp_path / "regions.csv"
    cities_path.write_text(cities if cities is not None else (SMALLWORLD / "cities.csv").read_text())
    borders_path.write_text(borders if borders is not None else (SMALLWORLD / "borders.geojson").read_text())
    regions_path.write_text(regions if regions is not None else (SMALLWORLD / "regions.csv").read_text())
    return cities_path, borders_path, regions_path


def square_feature(iso2, lon0, lon1, lat0, lat1):
    ring = [[lon0, lat0], [lon1, lat0], [lon1, lat1], [lon0, lat1], [lon0, lat0]]
    return {"type": "Feature", "properties": {"iso2": iso2}, "geometry": {"type": "Polygon", "coordinates": [ring]}}


class TestLoadWorld:
    def test_fixture_roundtrip(self, small_world):
        assert set(small_world.countries) == {"AA", "AB", "AC", "AD", "BE", "BF"}
        assert set(small_world.borders) == set(small_world.countries)
        assert small_world.region_of["AA"] == "Americas"
        assert [c.name for c in small_world.countries["AA"].cities] == ["Alpha City", "Alpha Port", "Alpha Hills"]
        assert load_summary(small_world) == ["countries with cities: 6", "countries with borders: 6"]

    def test_cities_sorted_by_population(self, small_world):
        for rec in small_world.countries.values():
            pops = [c.population for c in rec.cities]
            assert pops == sorted(pops, reverse=True)

    def test_bundled_world_has_fifteen_cities_per_country(self, real_world):
        assert set(real_world.countries) == {"CN", "MN", "IN", "VN"}
        for rec in real_world.countries.values():
            assert len(rec.cities) == 15
        assert load_summary(real_world) == ["countries with cities: 4", "countries with borders: 4"]

    def test_out_of_range_latitude_names_the_row(self, tmp_path):
        bad = "iso2,city,lat,lon,population\nAA,Nowhere,95,0,100\n"
        paths = write_world(tmp_path, cities=bad)
        with pytest.raises(ParseError) as exc:
            load_world(*paths)
        assert exc.value.line_no == 2
        assert "Nowhere" in str(exc.value)

    def test_missing_header_rejected(self, tmp_path):
        paths = write_world(tmp_path, cities="AA,Alpha,1,1,10\n")
        with pytest.raises(ParseError, match="header"):
            load_world(*paths)

    def test_earliest_bad_row_beats_a_later_bad_byte(self, tmp_path):
        paths = write_world(tmp_path)
        paths[0].write_bytes(
            b"iso2,city,lat,lon,population\nAA,One,1,1,10\naa,Two,1,1,10\nAB,Three,1,7,10\nAB,F\xffur,1,7,10\n"
        )
        with pytest.raises(ParseError) as exc:
            load_world(*paths)
        assert str(exc.value).endswith("cities.csv:3: bad iso2 code 'aa'")

    @pytest.mark.parametrize("newline", ["\r", "\r\n"])
    def test_carriage_return_line_endings(self, tmp_path, small_world, newline):
        paths = write_world(tmp_path)
        for path in paths[0], paths[2]:
            path.write_bytes(path.read_bytes().replace(b"\n", newline.encode()))
        w = load_world(*paths)
        assert w.countries == small_world.countries
        assert w.region_of == small_world.region_of

    def test_borders_only_country_reported_not_dropped(self, tmp_path):
        doc = json.loads((SMALLWORLD / "borders.geojson").read_text())
        doc["features"].append(square_feature("ZQ", 30, 34, 0, 4))
        regions = (SMALLWORLD / "regions.csv").read_text() + "ZQ,Africa\n"
        paths = write_world(tmp_path, borders=json.dumps(doc), regions=regions)
        w = load_world(*paths)
        assert "borders-only (no city rows, partial-containment only): ZQ" in load_summary(w)
        assert "ZQ" in w.borders
        assert "ZQ" not in w.countries
        # excluded from hull-point generation in either mode as an endpoint
        assert country_points(w, "ZQ", "border")  # borders themselves stay usable
        with pytest.raises(UnknownCountry):
            country_points(w, "ZQ", "population")

    def test_cities_only_country_reported(self, tmp_path):
        cities = (SMALLWORLD / "cities.csv").read_text() + "ZR,Lone City,2.0,40.0,1000\n"
        regions = (SMALLWORLD / "regions.csv").read_text() + "ZR,Asia\n"
        paths = write_world(tmp_path, cities=cities, regions=regions)
        w = load_world(*paths)
        assert "cities-only (no border polygons): ZR" in load_summary(w)
        assert "ZR" in w.countries

    def test_city_outside_own_borders_is_a_warning(self, tmp_path):
        cities = (SMALLWORLD / "cities.csv").read_text() + "AA,Offshore,2.0,5.0,10\n"
        paths = write_world(tmp_path, cities=cities)
        w = load_world(*paths)
        assert "warning: AA city 'Offshore' lies outside every AA border polygon" in load_summary(w)

    def test_missing_region_is_validation_error(self, tmp_path):
        regions = "iso2,region\n" + "".join(
            f"{iso2},Europe\n" for iso2 in ("AA", "AB", "AC", "AD", "BE")  # BF missing
        )
        paths = write_world(tmp_path, regions=regions)
        with pytest.raises(ValidationError, match="BF"):
            load_world(*paths)

    def test_bad_region_name_rejected(self, tmp_path):
        regions = (SMALLWORLD / "regions.csv").read_text() + "ZZ,Atlantis\n"
        paths = write_world(tmp_path, regions=regions)
        with pytest.raises(ParseError, match="Atlantis"):
            load_world(*paths)

    def test_lowercase_iso2_rejected(self, tmp_path):
        cities = "iso2,city,lat,lon,population\naa,Alpha,1,1,10\n"
        paths = write_world(tmp_path, cities=cities)
        with pytest.raises(ParseError, match="aa"):
            load_world(*paths)

    def test_borders_feature_without_iso2_rejected(self, tmp_path):
        doc = {"type": "FeatureCollection", "features": [
            {"type": "Feature", "properties": {}, "geometry": {"type": "Polygon", "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 0]]]}}
        ]}
        paths = write_world(tmp_path, borders=json.dumps(doc))
        with pytest.raises(ParseError, match="iso2"):
            load_world(*paths)

    def test_region_of_total_over_countries(self, small_world):
        for iso2 in small_world.countries:
            assert small_world.region_of[iso2] in ("Africa", "Americas", "Asia", "Europe", "Oceania")


class TestCountryPoints:
    def test_population_mode_caps_at_fifteen(self, tmp_path):
        rows = ["iso2,city,lat,lon,population"]
        rows += [f"AA,City{i},{1 + i * 0.1:.1f},{1 + i * 0.1:.1f},{1000 - i}" for i in range(20)]
        paths = write_world(tmp_path, cities="\n".join(rows) + "\n")
        w = load_world(*paths)
        pts = country_points(w, "AA", "population")
        assert len(pts) == 15
        # the top-15 by population are the first written rows
        assert pts[0].lat == pytest.approx(1.0)
        assert max(p.lat for p in pts) == pytest.approx(2.4)

    def test_population_mode_uses_all_when_fewer(self, small_world):
        assert len(country_points(small_world, "BE", "population")) == 2

    def test_border_mode_returns_ring_vertices(self, small_world):
        pts = country_points(small_world, "AA", "border")
        assert len(pts) == 4
        assert {(p.lat, p.lon) for p in pts} == {(0, 0), (0, 4), (4, 4), (4, 0)}

    def test_unknown_country(self, small_world):
        with pytest.raises(UnknownCountry):
            country_points(small_world, "XX", "population")

    def test_unknown_mode(self, small_world):
        with pytest.raises(ValidationError):
            country_points(small_world, "AA", "nearest")

    def test_city_limit_knob(self, small_world):
        assert len(country_points(small_world, "AA", "population", city_limit=2)) == 2
