"""Geographic normality analysis of Internet paths.

Classifies traceroutes as geographically normal or non-normal using
population-biased spherical convex hulls between source and destination
countries, and aggregates degree-of-normality statistics for the physical,
legal, and union exposure of traffic to nation states.
"""

from .enrichment import ASRegistry, Enrichment, HopResolution, PrefixTable, resolve_hop
from .errors import (
    ConflictError,
    EmptyInput,
    GeonormError,
    HemisphereViolation,
    ParseError,
    UnknownCountry,
    ValidationError,
)
from .metrics import Aggregate, accumulate, don, report
from .normality import NormalSet, PairCache, PathVerdict, classify, normal_set
from .pipeline import (
    PathClassification,
    Skip,
    SkipLog,
    TracerouteRecord,
    TuplePath,
    classify_path_with,
    to_tuple_path,
)
from .sphere import (
    GeoPoint,
    GeoPolygon,
    SphericalHull,
    geo_to_unit,
    hull_boundary_samples,
    hull_contains,
    polygon_contains,
    spherical_convex_hull,
    unit_to_geo,
)
from .world import CountryBorders, CountryRecord, WorldModel, country_points, load_world

__version__ = "0.1.0"
