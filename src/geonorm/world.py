"""Country metadata: top-population cities, border polygons, five-region scheme.

Input formats (all UTF-8, header row required):
  cities file   csv: iso2,city,lat,lon,population
  borders file  GeoJSON FeatureCollection; features carry properties.iso2 and
                Polygon / MultiPolygon geometry (outer ring + holes)
  regions file  csv: iso2,region  with region in REGIONS

load_world keeps each country's top city_limit cities, by population and
then name, and no function after it takes a city limit. A WorldModel builds
its per-country cap table, country_caps, when it is constructed, so
normal_set's scan only reads it, and each country's PointSet per mode on
first use (WorldModel.point_set); pair_hull hulls two joined by their union.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Mapping

from .errors import ParseError, UnknownCountry, ValidationError, utf8_error
from .sphere import GeoPoint, GeoPolygon, PointSet, _cap, _center, _enclosing_cap, point_set, polygon_contains

REGIONS = ("Africa", "Americas", "Asia", "Europe", "Oceania")

# Which points span a pair's hull: each country's top cities, or its border vertices
MODES = ("population", "border")

# Cities load_world keeps per country, the most populous first: they span the
# population-mode hulls and decide city membership in every hull. Countries
# with fewer keep all of theirs.
DEFAULT_CITY_LIMIT = 15


@dataclass(frozen=True)
class City:
    name: str
    location: GeoPoint
    population: int


@dataclass(frozen=True)
class CountryRecord:
    iso2: str
    cities: tuple[City, ...]  # the top city_limit by descending population, ties by name


@dataclass(frozen=True)
class CountryBorders:
    iso2: str
    polygons: tuple[GeoPolygon, ...]


@dataclass(frozen=True)
class WorldModel:
    """Countries, borders and regions, with the caps normal_set reads, built with the world.

    country_caps, the one table normal_set scans: per country, (iso2, center
    x, y, z, cos, sin) of a Cap holding its city cap and polygon caps, that
    Cap, its city cap (None without cities), city vectors and polygons.
    """

    countries: Mapping[str, CountryRecord]
    borders: Mapping[str, CountryBorders]
    region_of: Mapping[str, str]
    country_caps: tuple = field(init=False, repr=False, compare=False)
    _point_sets: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        rows = []
        for iso2 in [*self.countries, *(iso2 for iso2 in self.borders if iso2 not in self.countries)]:
            vecs = tuple(c.location.vec for c in self.countries[iso2].cities) if iso2 in self.countries else ()
            polygons = self.borders[iso2].polygons if iso2 in self.borders else ()
            city_cap = _cap(*_center(vecs)) if vecs else None
            center, _ = _center([*vecs, *(v for poly in polygons for ring in poly._ring_vecs for v in ring)])
            cap = _enclosing_cap(center, [poly._cap for poly in polygons] + ([city_cap] if vecs else []))
            rows.append((iso2, *(cap.center or (0.0, 0.0, 0.0)), cap.cos, cap.sin, cap, city_cap, vecs, polygons))
        object.__setattr__(self, "country_caps", tuple(rows))

    def point_set(self, iso2: str, mode: str) -> PointSet:
        """sphere.point_set over country_points(self, iso2, mode), built once: the vecs and cap pair_hull reads."""
        found = self._point_sets.get((iso2, mode))
        if found is None:
            found = self._point_sets[iso2, mode] = point_set(country_points(self, iso2, mode))
        return found


def _open_binary(path):
    try:
        return open(path, "rb")
    except OSError as e:
        raise ParseError(str(path), 0, f"cannot open: {e.strerror}") from e


def _read_csv(path, expected_header):
    """Yield (line number, stripped fields) per non-blank data row, streaming; the header must match."""
    with _open_binary(path) as fh:
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
    if len(code) != 2 or not (code.isascii() and code.isalpha() and code.isupper()):  # A-Z, not any Unicode letter
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
    with _open_binary(path) as fh:
        data = fh.read()  # once: a pipe cannot be read again to locate a bad byte
    try:
        doc = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError:
        raise utf8_error(path, data) from None
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
                poly = GeoPolygon(rings=rings)  # checks the hemisphere rule, so a ring spanning one fails here, located
            except ValidationError as e:
                raise ValidationError(f"{path}: {where} ({iso2}): {e}") from None
            by_country.setdefault(iso2, []).append(poly)
    return by_country


def load_world(cities_file, borders_file, regions_file, city_limit: int = DEFAULT_CITY_LIMIT) -> WorldModel:
    """Load and validate the world model, keeping each country's top city_limit cities.

    load_summary reports what is worth a warning.
    """
    if city_limit < 1:
        raise ValidationError(f"city-limit must be >= 1, got {city_limit}")
    cities = _load_cities(cities_file)
    borders_raw = _load_borders(borders_file)
    region_of = _load_regions(regions_file)

    countries = {}
    for iso2 in sorted(cities):
        if iso2 not in region_of:
            raise ValidationError(f"{iso2}: no region assignment in {regions_file}")
        countries[iso2] = CountryRecord(iso2=iso2, cities=tuple(cities[iso2][:city_limit]))

    borders = {iso2: CountryBorders(iso2=iso2, polygons=tuple(polys)) for iso2, polys in sorted(borders_raw.items())}
    for iso2 in borders:
        if iso2 not in region_of:
            raise ValidationError(f"{iso2}: bordered country has no region assignment")

    return WorldModel(countries=countries, borders=borders, region_of=dict(region_of))


def load_summary(w: WorldModel) -> list[str]:
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
        for city in rec.cities:
            if not any(polygon_contains(poly, city.location.vec) for poly in cb.polygons):
                out.append(f"warning: {iso2} city {city.name!r} lies outside every {iso2} border polygon")
    return out


def country_points(w: WorldModel, iso2: str, mode: str) -> list[tuple[float, float, float]]:
    """Hull input points for one country, as unit vectors (see sphere.GeoPoint.vec).

    population mode: the cities load_world kept (the top city_limit by population).
    border mode: every vertex of every border ring, non-contiguous territories
    included, which is what inflates hulls for countries with remote holdings;
    a country with cities but no border polygons has none, a ValidationError.
    """
    if mode == "population":
        rec = w.countries.get(iso2)
        if rec is None:
            raise UnknownCountry(iso2)
        return [c.location.vec for c in rec.cities]
    if mode == "border":
        cb = w.borders.get(iso2)
        if cb is not None:
            return [v for poly in cb.polygons for ring in poly._ring_vecs for v in ring]
        if iso2 in w.countries:
            raise ValidationError(f"{iso2} has no border polygons, which border mode needs")
        raise UnknownCountry(iso2)
    raise ValidationError(f"unknown mode {mode!r} (expected {' or '.join(map(repr, MODES))})")
