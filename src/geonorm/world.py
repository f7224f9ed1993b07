"""Country metadata: top-population cities, border polygons, five-region scheme.

Input formats (all UTF-8, header row required):
  cities file   csv: iso2,city,lat,lon,population
  borders file  GeoJSON FeatureCollection; features carry properties.iso2 and
                Polygon / MultiPolygon geometry (outer ring + holes)
  regions file  csv: iso2,region  with region in REGIONS
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
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
class LoadSummary:
    """What the loader found worth reporting; warnings, not failures."""

    countries: int
    bordered: int
    borders_only: tuple[str, ...]
    cities_only: tuple[str, ...]
    cities_outside_borders: tuple[tuple[str, str], ...]  # (iso2, city name)

    def lines(self) -> list[str]:
        out = [f"countries with cities: {self.countries}", f"countries with borders: {self.bordered}"]
        if self.borders_only:
            out.append("borders-only (no city rows, partial-containment only): " + ", ".join(self.borders_only))
        if self.cities_only:
            out.append("cities-only (no border polygons): " + ", ".join(self.cities_only))
        for iso2, city in self.cities_outside_borders:
            out.append(f"warning: {iso2} city {city!r} lies outside every {iso2} border polygon")
        return out


@dataclass(frozen=True)
class WorldModel:
    countries: Mapping[str, CountryRecord]
    borders: Mapping[str, CountryBorders]
    region_of: Mapping[str, str]
    summary: LoadSummary = field(compare=False, default=None)


def _read_csv(path, expected_header):
    """Yield (line number, stripped fields) per non-blank data row, streaming; the header must match."""
    try:
        fh = open(path, encoding="utf-8", newline="")
    except OSError as e:
        raise ParseError(str(path), 0, f"cannot open: {e.strerror}") from e
    with fh:
        reader = csv.reader(fh)
        try:
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
        except UnicodeDecodeError:
            raise utf8_error(path, Path(path).read_bytes()) from None


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


def _ring_from_coords(coords, path, feature_idx):
    points = []
    for pair in coords:
        if not isinstance(pair, (list, tuple)) or len(pair) < 2:
            raise ParseError(str(path), 0, f"feature {feature_idx}: malformed ring coordinate {pair!r}")
        lon, lat = float(pair[0]), float(pair[1])
        try:
            points.append(GeoPoint(lat, lon))
        except ValidationError as e:
            raise ParseError(str(path), 0, f"feature {feature_idx}: {e}") from None
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
    if doc.get("type") != "FeatureCollection":
        raise ParseError(str(path), 0, "expected a GeoJSON FeatureCollection")
    by_country: dict[str, list[GeoPolygon]] = {}
    for idx, feature in enumerate(doc.get("features", [])):
        props = feature.get("properties") or {}
        iso2 = props.get("iso2")
        if not iso2:
            raise ParseError(str(path), 0, f"feature {idx}: missing properties.iso2")
        iso2 = _check_iso2(iso2, path, 0)
        geom = feature.get("geometry") or {}
        gtype = geom.get("type")
        if gtype == "Polygon":
            polys = [geom.get("coordinates", [])]
        elif gtype == "MultiPolygon":
            polys = geom.get("coordinates", [])
        else:
            raise ParseError(str(path), 0, f"feature {idx} ({iso2}): unsupported geometry {gtype!r}")
        for rings_coords in polys:
            if not rings_coords:
                raise ParseError(str(path), 0, f"feature {idx} ({iso2}): empty polygon")
            rings = tuple(_ring_from_coords(rc, path, idx) for rc in rings_coords)
            try:
                by_country.setdefault(iso2, []).append(GeoPolygon(rings=rings))
            except ValidationError as e:
                raise ValidationError(f"{path}: feature {idx} ({iso2}): {e}") from None
    return by_country


def load_world(cities_file, borders_file, regions_file, city_limit: int = DEFAULT_CITY_LIMIT) -> WorldModel:
    """Load and validate the world model; missing cross-references go to the summary."""
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

    borders_only = tuple(sorted(set(borders) - set(countries)))
    cities_only = tuple(sorted(set(countries) - set(borders)))

    # dataset-consistency check: real datasets put some coastal cities outside
    # coarse border polygons, so violations warn instead of failing the load
    outside = []
    for iso2, rec in countries.items():
        cb = borders.get(iso2)
        if cb is None:
            continue
        for city in rec.top_cities(city_limit):
            if not any(polygon_contains(poly, city.location) for poly in cb.polygons):
                outside.append((iso2, city.name))

    summary = LoadSummary(
        countries=len(countries),
        bordered=len(borders),
        borders_only=borders_only,
        cities_only=cities_only,
        cities_outside_borders=tuple(outside),
    )
    return WorldModel(countries=countries, borders=borders, region_of=dict(region_of), summary=summary)


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
