"""Country metadata: top-population cities, border polygons, five-region scheme.

Input formats (all UTF-8, header row required):
  cities file   csv: iso2,city,lat,lon,population
  borders file  GeoJSON FeatureCollection; features carry properties.iso2 and
                Polygon / MultiPolygon geometry (outer ring + holes)
  regions file  csv: iso2,region  with region in REGIONS
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .errors import ParseError, UnknownCountry, ValidationError, utf8_error
from .sphere import GeoPoint, GeoPolygon, polygon_contains

REGIONS = ("Africa", "Americas", "Asia", "Europe", "Oceania")

# Cities tested per country, both for hull construction and for membership
# of other countries in a hull. Countries with fewer simply use all of them.
DEFAULT_CITY_LIMIT = 15


@dataclass(frozen=True)
class City:
    name: str
    location: GeoPoint
    population: int


@dataclass(frozen=True)
class CountryRecord:
    iso2: str
    name: str
    region: str
    cities: tuple[City, ...]  # sorted by descending population

    def top_cities(self, limit: int = DEFAULT_CITY_LIMIT) -> tuple[City, ...]:
        return self.cities[:limit]


@dataclass(frozen=True)
class CountryBorders:
    iso2: str
    polygons: tuple[GeoPolygon, ...]


@dataclass(frozen=True)
class WorldModel:
    countries: Mapping[str, CountryRecord]
    borders: Mapping[str, CountryBorders]
    region_of: Mapping[str, str]


def _read_csv(path, expected_header):
    """Yield (line number, stripped fields) per non-blank data row, streaming; the header must match."""
    try:
        fh = open(path, "rb")
    except OSError as e:
        raise ParseError(str(path), 0, f"cannot open: {e.strerror}") from e
    with fh:
        reader = csv.reader(_text_lines(fh, path))
        header = next(reader, None)
        if header is None:
            raise ParseError(str(path), 1, "missing header row")
        if [h.strip().lower() for h in header] != list(expected_header):
            raise ParseError(str(path), 1, f"expected header {','.join(expected_header)!r}, got {','.join(header)!r}")
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(expected_header):
                raise ParseError(str(path), line_no, f"expected {len(expected_header)} fields, got {len(row)}")
            yield line_no, [c.strip() for c in row]


def _text_lines(fh, path):
    """Lines of binary file fh, decoded one by one (not ahead in chunks) so rows before a bad byte are checked first."""
    for line_no, raw in enumerate(fh, start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise utf8_error(path, raw, line_no) from None
        if "\r" in line:  # a lone \r ends a line too, as in text mode
            yield from io.StringIO(line, newline="")
        else:
            yield line


def _check_iso2(code, path, line_no):
    if len(code) != 2 or not code.isalpha() or not code.isupper():
        raise ParseError(str(path), line_no, f"bad iso2 code {code!r}")
    return code


def _load_cities(path):
    by_country: dict[str, list[City]] = {}
    for line_no, (iso2, name, lat, lon, pop) in _read_csv(path, ("iso2", "city", "lat", "lon", "population")):
        iso2 = _check_iso2(iso2, path, line_no)
        try:
            lat_f, lon_f = float(lat), float(lon)
        except ValueError:
            raise ParseError(str(path), line_no, f"non-numeric coordinate for {name!r}") from None
        try:
            point = GeoPoint(lat_f, lon_f)
        except ValidationError as e:
            raise ParseError(str(path), line_no, f"city {name!r}: {e}") from None
        try:
            pop_i = int(pop)
        except ValueError:
            raise ParseError(str(path), line_no, f"non-integer population for {name!r}") from None
        if pop_i < 0:
            raise ParseError(str(path), line_no, f"negative population for {name!r}")
        by_country.setdefault(iso2, []).append(City(name, point, pop_i))
    for cities in by_country.values():
        cities.sort(key=lambda c: (-c.population, c.name))
    return by_country


def _load_regions(path):
    region_of: dict[str, str] = {}
    for line_no, (iso2, region) in _read_csv(path, ("iso2", "region")):
        iso2 = _check_iso2(iso2, path, line_no)
        if region not in REGIONS:
            raise ParseError(str(path), line_no, f"region {region!r} not one of {', '.join(REGIONS)}")
        if iso2 in region_of and region_of[iso2] != region:
            raise ParseError(str(path), line_no, f"{iso2} assigned two regions")
        region_of[iso2] = region
    return region_of


# How a value parsed from JSON is named in error messages
_JSON_KINDS = {dict: "an object", list: "an array", str: "a string", bool: "a boolean", int: "a number", float: "a number", type(None): "null"}


def _expect(value, kind, path, where):
    """value when it is a kind (dict, list or str); a ParseError naming where otherwise."""
    if not isinstance(value, kind):
        raise ParseError(str(path), 0, f"{where} must be {_JSON_KINDS[kind]}, got {_JSON_KINDS[type(value)]}")
    return value


def _ring_from_coords(coords, path, where):
    points = []
    for pair in _expect(coords, list, path, f"{where}: ring"):
        # numbers, not booleans, as for traceroute ttls and timestamps
        if not isinstance(pair, list) or len(pair) < 2 or any(type(c) not in (int, float) for c in pair[:2]):
            raise ParseError(str(path), 0, f"{where}: malformed ring coordinate {pair!r}")
        try:
            points.append(GeoPoint(pair[1], pair[0]))
        except (ValidationError, OverflowError) as e:  # OverflowError: an integer too large for a float
            raise ParseError(str(path), 0, f"{where}: {e}") from None
    if len(points) >= 2 and points[0] == points[-1]:
        points = points[:-1]  # rings are closed logically, not stored twice
    return tuple(points)


def _load_borders(path):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ParseError(str(path), 0, f"cannot open: {e.strerror}") from e
    except UnicodeDecodeError:
        raise utf8_error(path, Path(path).read_bytes()) from None
    except json.JSONDecodeError as e:
        raise ParseError(str(path), e.lineno, f"invalid JSON: {e.msg}") from None
    except (ValueError, RecursionError) as e:  # an over-long integer, or nesting too deep
        raise ParseError(str(path), 0, f"invalid JSON: {e}") from None
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise ParseError(str(path), 0, "expected a GeoJSON FeatureCollection")
    by_country: dict[str, list[GeoPolygon]] = {}
    for idx, feature in enumerate(_expect(doc.get("features", []), list, path, "features")):
        where = f"feature {idx}"
        feature = _expect(feature, dict, path, where)
        props = _expect(feature.get("properties") or {}, dict, path, f"{where}: properties")
        iso2 = props.get("iso2")
        if not iso2:
            raise ParseError(str(path), 0, f"{where}: missing properties.iso2")
        iso2 = _check_iso2(_expect(iso2, str, path, f"{where}: properties.iso2"), path, 0)
        geom = _expect(feature.get("geometry") or {}, dict, path, f"{where}: geometry")
        gtype = geom.get("type")
        if gtype not in ("Polygon", "MultiPolygon"):
            raise ParseError(str(path), 0, f"{where} ({iso2}): unsupported geometry {gtype!r}")
        coords = _expect(geom.get("coordinates", []), list, path, f"{where} ({iso2}): coordinates")
        for rings_coords in [coords] if gtype == "Polygon" else coords:
            if not _expect(rings_coords, list, path, f"{where} ({iso2}): polygon"):
                raise ParseError(str(path), 0, f"{where} ({iso2}): empty polygon")
            rings = tuple(_ring_from_coords(rc, path, where) for rc in rings_coords)
            try:
                by_country.setdefault(iso2, []).append(GeoPolygon(rings=rings))
            except ValidationError as e:
                raise ValidationError(f"{path}: {where} ({iso2}): {e}") from None
    return by_country


def load_world(cities_file, borders_file, regions_file, city_limit: int = DEFAULT_CITY_LIMIT) -> WorldModel:
    """Load and validate the world model; load_summary reports what is worth a warning.

    city_limit changes nothing here; it stays accepted because the benchmark's
    in-process chain (perfbench/chain.py) passes it.
    """
    cities = _load_cities(cities_file)
    borders_raw = _load_borders(borders_file)
    region_of = _load_regions(regions_file)

    countries = {}
    for iso2 in sorted(cities):
        if not cities[iso2]:
            raise ValidationError(f"{iso2}: country has zero cities")
        region = region_of.get(iso2)
        if region is None:
            raise ValidationError(f"{iso2}: no region assignment in {regions_file}")
        countries[iso2] = CountryRecord(iso2=iso2, name=iso2, region=region, cities=tuple(cities[iso2]))

    borders = {iso2: CountryBorders(iso2=iso2, polygons=tuple(polys)) for iso2, polys in sorted(borders_raw.items())}
    for iso2 in borders:
        if iso2 not in region_of:
            raise ValidationError(f"{iso2}: bordered country has no region assignment")

    return WorldModel(countries=countries, borders=borders, region_of=dict(region_of))


def load_summary(w: WorldModel, city_limit: int = DEFAULT_CITY_LIMIT) -> list[str]:
    """The lines validate-world prints: counts, countries on one side only, and cities outside their own borders."""
    out = [f"countries with cities: {len(w.countries)}", f"countries with borders: {len(w.borders)}"]
    borders_only = sorted(set(w.borders) - set(w.countries))
    cities_only = sorted(set(w.countries) - set(w.borders))
    if borders_only:
        out.append("borders-only (no city rows, partial-containment only): " + ", ".join(borders_only))
    if cities_only:
        out.append("cities-only (no border polygons): " + ", ".join(cities_only))
    # dataset-consistency check: real datasets put some coastal cities outside
    # coarse border polygons, so violations warn instead of failing the load
    for iso2, rec in w.countries.items():
        cb = w.borders.get(iso2)
        if cb is None:
            continue
        for city in rec.top_cities(city_limit):
            if not any(polygon_contains(poly, city.location) for poly in cb.polygons):
                out.append(f"warning: {iso2} city {city.name!r} lies outside every {iso2} border polygon")
    return out


def country_points(w: WorldModel, iso2: str, mode: str, city_limit: int = DEFAULT_CITY_LIMIT) -> list[GeoPoint]:
    """Hull input points for one country.

    population mode: the top city_limit cities by population (all, if fewer).
    border mode: every vertex of every border ring, non-contiguous territories
    included, which is what inflates hulls for countries with remote holdings.
    """
    if mode == "population":
        rec = w.countries.get(iso2)
        if rec is None:
            raise UnknownCountry(iso2)
        return [c.location for c in rec.top_cities(city_limit)]
    if mode == "border":
        cb = w.borders.get(iso2)
        if cb is None:
            raise UnknownCountry(iso2)
        return [p for poly in cb.polygons for ring in poly.rings for p in ring]
    raise ValidationError(f"unknown mode {mode!r} (expected 'population' or 'border')")
