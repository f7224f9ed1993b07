"""Degree-of-normality accumulation and reporting.

An Aggregate is a mergeable value: workers each own a private one and the
results are combined afterwards, so merge must stay associative and
commutative. Every counter counts paths, not appearances: a country showing
up three times on one path moves its counters by one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .pipeline import PathClassification, SkipLog, TuplePath
from .world import REGIONS, WorldModel

EXPOSURES = ("physical", "legal", "union")
ROLES = ("source", "transit", "destination")


def don(normal: int, total: int) -> float | None:
    """Degree of normality: normal paths over total paths; absent when empty.

    None rather than 0.0 for an empty denominator, so countries never seen
    in a role drop out of distributions instead of polluting them as zeros.
    """
    if total < 0 or normal < 0 or normal > total:
        raise ValueError(f"bad counts normal={normal} total={total}")
    if total == 0:
        return None
    return normal / total


@dataclass
class Aggregate:
    """All counters for one batch of classified paths."""

    # (iso2, role, exposure) -> [normal, total]
    role: dict = field(default_factory=dict)
    # (iso2, exposure) -> [benefited, transited, transit_only, transit_only_normal]
    benefactor: dict = field(default_factory=dict)
    # physical-benefactor count per path -> paths
    severity: dict = field(default_factory=dict)
    # compressed tuple length -> [physically normal, total]
    tuple_len: dict = field(default_factory=dict)
    # distinct-AS count -> [physically normal, total]
    as_count: dict = field(default_factory=dict)
    # countries added by the legal/physical union -> paths
    union_added: dict = field(default_factory=dict)
    # (src_region, dst_region, exposure) -> [normal, total]
    region_matrix: dict = field(default_factory=dict)
    # exposure -> [normal, total]
    global_counts: dict = field(default_factory=dict)
    paths_total: int = 0

    def merge(self, other: "Aggregate") -> "Aggregate":
        for key, counts in other.benefactor.items():
            mine = self.benefactor.setdefault(key, [0, 0, 0, 0])
            for i in range(4):
                mine[i] += counts[i]
        for attr in ("severity", "union_added"):
            mine_d, other_d = getattr(self, attr), getattr(other, attr)
            for key, v in other_d.items():
                mine_d[key] = mine_d.get(key, 0) + v
        for attr in ("role", "tuple_len", "as_count", "global_counts", "region_matrix"):
            mine_d, other_d = getattr(self, attr), getattr(other, attr)
            for key, (n, t) in other_d.items():
                mine = mine_d.setdefault(key, [0, 0])
                mine[0] += n
                mine[1] += t
        self.paths_total += other.paths_total
        return self


def _bump(table, key, normal):
    entry = table.setdefault(key, [0, 0])
    entry[0] += 1 if normal else 0
    entry[1] += 1


def accumulate(agg: Aggregate, tp: TuplePath, pc: PathClassification, w: WorldModel) -> Aggregate:
    """Fold one classified path into the aggregate.

    Endpoint countries count in their source/destination roles only, even
    when they also appear mid-path; transit means a non-endpoint country
    present in that exposure. A path's transited counter, by contrast, moves
    for every country the exposure touches, endpoints included, to keep the
    paths-transited ratio comparable with endpoint-heavy countries.
    """
    endpoints = {tp.src_country, tp.dst_country}
    for exposure, verdict in (("physical", pc.physical), ("legal", pc.legal), ("union", pc.union)):
        _bump(agg.role, (tp.src_country, "source", exposure), verdict.normal)
        _bump(agg.role, (tp.dst_country, "destination", exposure), verdict.normal)
        transit = verdict.countries - endpoints
        for iso2 in transit:
            _bump(agg.role, (iso2, "transit", exposure), verdict.normal)
        for iso2 in verdict.countries:
            counts = agg.benefactor.setdefault((iso2, exposure), [0, 0, 0, 0])
            counts[1] += 1
        for iso2 in transit:
            counts = agg.benefactor[(iso2, exposure)]
            counts[2] += 1
            counts[3] += 1 if verdict.normal else 0
        for iso2 in verdict.benefactors:
            counts = agg.benefactor.setdefault((iso2, exposure), [0, 0, 0, 0])
            counts[0] += 1
        _bump(agg.global_counts, exposure, verdict.normal)
        _bump(agg.region_matrix, (w.region_of[tp.src_country], w.region_of[tp.dst_country], exposure), verdict.normal)

    sev = len(pc.physical.benefactors)
    agg.severity[sev] = agg.severity.get(sev, 0) + 1
    _bump(agg.tuple_len, pc.tuple_len, pc.physical.normal)
    _bump(agg.as_count, pc.as_count, pc.physical.normal)
    agg.union_added[pc.union_added_countries] = agg.union_added.get(pc.union_added_countries, 0) + 1
    agg.paths_total += 1
    return agg


def _don_entry(normal, total):
    return {"normal": normal, "total": total, "don": don(normal, total)}


def _role_dons(agg, members):
    """{exposure: {role: DoN entry}} over the role counts summed across members; empty totals are left out."""
    out = {}
    for exposure in EXPOSURES:
        per_role = {}
        for role in ROLES:
            normal = total = 0
            for iso2 in members:
                entry = agg.role.get((iso2, role, exposure))
                if entry is not None:
                    normal += entry[0]
                    total += entry[1]
            if total:
                per_role[role] = _don_entry(normal, total)
        if per_role:
            out[exposure] = per_role
    return out


def _top(rows, count, top_n):
    """The top_n (iso2, counts) rows with a nonzero counts[count], by descending count, ties by iso2."""
    return sorted((r for r in rows if r[1][count]), key=lambda r: (-r[1][count], r[0]))[:top_n]


def report(agg: Aggregate, w: WorldModel, skip_log: SkipLog | None = None, top_n: int = 10) -> dict:
    """Build the full exposure report as a JSON-ready dict.

    Deterministic: countries sort by iso2, top-N ties break lexicographically,
    and every mapping is emitted in sorted order.
    """
    countries = sorted({iso2 for (iso2, _, _) in agg.role} | {iso2 for (iso2, _) in agg.benefactor})

    country_role = {iso2: per_exp for iso2 in countries if (per_exp := _role_dons(agg, [iso2]))}

    def share(n):
        return n / agg.paths_total if agg.paths_total else None

    transit_providers = {}
    transit_only = {}
    benefactors = {}
    benefactor_ratio = {}
    for exposure in EXPOSURES:
        rows = [(iso2, agg.benefactor[iso2, exposure]) for iso2 in countries if (iso2, exposure) in agg.benefactor]
        transit_providers[exposure] = [
            {
                "iso2": iso2,
                "paths_transited": counts[1],
                "transited_ratio": share(counts[1]),
                "transit_don": don(*agg.role.get((iso2, "transit", exposure), (0, 0))),
            }
            for iso2, counts in _top(rows, 1, top_n)
        ]
        transit_only[exposure] = [
            {
                "iso2": iso2,
                "transit_only_paths": counts[2],
                "transit_only_ratio": share(counts[2]),
                "transit_only_don": don(counts[3], counts[2]),
            }
            for iso2, counts in _top(rows, 2, top_n)
        ]
        benefactors[exposure] = [{"iso2": iso2, "paths_benefited": counts[0]} for iso2, counts in _top(rows, 0, top_n)]
        benefactor_ratio[exposure] = {
            iso2: {"paths_benefited": counts[0], "paths_transited": counts[1], "ratio": counts[0] / counts[1]}
            for iso2, counts in rows
            if counts[1]
        }

    regional_role = {
        region: per_exp
        for region in REGIONS
        if (per_exp := _role_dons(agg, [iso2 for iso2 in countries if w.region_of.get(iso2) == region]))
    }

    matrix = {exposure: {} for exposure in EXPOSURES}
    for (src_r, dst_r, exposure), (n, t) in sorted(agg.region_matrix.items()):
        matrix[exposure].setdefault(src_r, {})[dst_r] = _don_entry(n, t)

    def hist(table):
        return {str(k): table[k] for k in sorted(table)}

    def don_hist(table):
        return {str(k): _don_entry(*table[k]) for k in sorted(table)}

    out = {
        "totals": {
            "paths_classified": agg.paths_total,
            "records_skipped": skip_log.total() if skip_log else 0,
        },
        "global_don": {
            exposure: don(*agg.global_counts.get(exposure, (0, 0))) for exposure in EXPOSURES
        },
        "country_role_don": country_role,
        "transit_providers": transit_providers,
        "transit_only": transit_only,
        "benefactors": benefactors,
        "benefactor_transit_ratio": benefactor_ratio,
        "regional_role_don": regional_role,
        "region_matrix": matrix,
        "histograms": {
            "severity": hist(agg.severity),
            "tuple_len_don": don_hist(agg.tuple_len),
            "as_count_don": don_hist(agg.as_count),
            "union_added": hist(agg.union_added),
        },
        "skip_log": dict(sorted(skip_log.counts.items())) if skip_log else {},
        "notes": dict(sorted(skip_log.notes.items())) if skip_log else {},
    }
    return out
