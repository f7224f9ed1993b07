import copy
import json
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from geonorm.cli import fold_signatures
from geonorm.enrichment import HopResolution
from geonorm.metrics import Aggregate, accumulate, don, report
from geonorm.normality import NormalSet, PairCache
from geonorm.pipeline import (
    Hop, Skip, SkipLog, TracerouteRecord, TuplePath, classify_path_with, parse_traceroute_line,
    signature, to_tuple_path,
)
from geonorm.synth import generate_records


def record(src_ip, dst_ip, ips):
    return TracerouteRecord(
        src_ip=src_ip, dst_ip=dst_ip,
        hops=tuple(Hop(ttl=i + 1, ip=ip) for i, ip in enumerate(ips)),
    )


def classified(small_world, small_enrichment, src_ip, dst_ip, ips, cache=None):
    tp = to_tuple_path(record(src_ip, dst_ip, ips), small_enrichment)
    assert not isinstance(tp, Skip)
    pc = classify_path_with(tp, (cache or PairCache()).get_or_build(small_world, tp.src_country, tp.dst_country, "population"))
    return tp, pc


class TestDon:
    def test_plain_ratio(self):
        assert don(3, 4) == 0.75

    def test_zero_over_positive(self):
        assert don(0, 7) == 0.0

    def test_empty_denominator_absent(self):
        assert don(0, 0) is None

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            don(5, 4)
        with pytest.raises(ValueError):
            don(-1, 4)

    def test_bounds(self):
        rng = random.Random(3)
        for _ in range(100):
            total = rng.randint(1, 1000)
            normal = rng.randint(0, total)
            assert 0.0 <= don(normal, total) <= 1.0


class TestAccumulate:
    def test_normal_two_country_path(self, small_world, small_enrichment):
        # AA -> AB with one hop per side: sources and destinations move,
        # no transit entries anywhere, severity bucket zero
        agg = Aggregate()
        tp, pc = classified(small_world, small_enrichment, "20.1.0.1", "30.1.0.99", ["20.1.0.5", "30.1.0.5"])
        accumulate(agg, tp, pc, small_world)
        assert agg.role[("AA", "source", "physical")] == [1, 1]
        assert agg.role[("AB", "destination", "physical")] == [1, 1]
        assert not any(role == "transit" for (_, role, _) in agg.role)
        assert agg.severity == {0: 1}

    def test_benefactor_path_counters(self, small_world, small_enrichment):
        # AA -> AC through BE: BE is transit, benefits, and is transit-only
        agg = Aggregate()
        tp, pc = classified(small_world, small_enrichment, "20.1.0.1", "40.1.0.99",
                            ["20.1.0.5", "60.1.0.5", "40.1.0.9"])
        accumulate(agg, tp, pc, small_world)
        assert agg.role[("BE", "transit", "physical")] == [0, 1]
        assert agg.benefactor[("BE", "physical")] == [1, 1]  # benefited, transited
        assert report(agg, small_world, SkipLog())["transit_only"]["physical"] == [
            {"iso2": "BE", "transit_only_paths": 1, "transit_only_ratio": 1.0, "transit_only_don": 0.0}
        ]
        assert agg.severity == {1: 1}

    def test_endpoint_country_counted_in_endpoint_role_only(self, small_world, small_enrichment):
        # trombone AA -> AA via AB: AA appears mid-path but is not transit
        agg = Aggregate()
        tp, pc = classified(small_world, small_enrichment, "20.1.0.1", "20.2.0.99",
                            ["20.1.0.5", "30.1.0.5", "20.2.0.9"])
        accumulate(agg, tp, pc, small_world)
        assert ("AA", "transit", "physical") not in agg.role
        assert agg.role[("AA", "source", "physical")] == [0, 1]
        assert agg.role[("AA", "destination", "physical")] == [0, 1]
        # but the path still counts toward AA's transited total
        assert agg.benefactor[("AA", "physical")][1] == 1
        assert report(agg, small_world, SkipLog())["transit_only"]["physical"] == [
            {"iso2": "AB", "transit_only_paths": 1, "transit_only_ratio": 1.0, "transit_only_don": 0.0}
        ]

    def test_repeated_transit_country_counts_once_per_path(self, small_world, small_enrichment):
        agg = Aggregate()
        tp, pc = classified(small_world, small_enrichment, "20.1.0.1", "40.1.0.99",
                            ["20.1.0.5", "30.1.0.5", "30.2.0.5", "40.1.0.9"])
        accumulate(agg, tp, pc, small_world)
        assert agg.role[("AB", "transit", "physical")] == [1, 1]

    def test_region_matrix_updated(self, small_world, small_enrichment):
        agg = Aggregate()
        tp, pc = classified(small_world, small_enrichment, "20.1.0.1", "30.1.0.99", ["20.1.0.5", "30.1.0.5"])
        accumulate(agg, tp, pc, small_world)
        assert agg.region_matrix[("Americas", "Europe", "physical")] == [1, 1]


def build_aggregates(small_world, small_enrichment, n, seed):
    cache = PairCache()
    parts = []
    for doc in generate_records(n, seed=seed):
        rec = parse_traceroute_line(json.dumps(doc))
        tp = to_tuple_path(rec, small_enrichment)
        if isinstance(tp, Skip):
            continue
        pc = classify_path_with(tp, cache.get_or_build(small_world, tp.src_country, tp.dst_country, "population"))
        agg = Aggregate()
        accumulate(agg, tp, pc, small_world)
        parts.append(agg)
    return parts


def as_comparable(agg):
    return (
        sorted((k, tuple(v)) for k, v in agg.role.items()),
        sorted((k, tuple(v)) for k, v in agg.benefactor.items()),
        sorted(agg.severity.items()),
        sorted((k, tuple(v)) for k, v in agg.tuple_len.items()),
        sorted((k, tuple(v)) for k, v in agg.as_count.items()),
        sorted(agg.union_added.items()),
        sorted((k, tuple(v)) for k, v in agg.region_matrix.items()),
        agg.paths_total,
    )


class TestMerge:
    def test_merge_equals_serial_accumulation(self, small_world, small_enrichment):
        parts = build_aggregates(small_world, small_enrichment, 300, seed=21)
        serial = Aggregate()
        for part in parts:
            serial.merge(copy.deepcopy(part))
        halves = Aggregate()
        mid = len(parts) // 2
        left, right = Aggregate(), Aggregate()
        for part in parts[:mid]:
            left.merge(copy.deepcopy(part))
        for part in parts[mid:]:
            right.merge(copy.deepcopy(part))
        halves.merge(left).merge(right)
        assert as_comparable(serial) == as_comparable(halves)

    def test_merge_order_independent(self, small_world, small_enrichment):
        parts = build_aggregates(small_world, small_enrichment, 200, seed=22)
        rng = random.Random(1)
        baseline = None
        for _ in range(4):
            shuffled = parts[:]
            rng.shuffle(shuffled)
            total = Aggregate()
            for part in shuffled:
                total.merge(copy.deepcopy(part))
            snapshot = as_comparable(total)
            baseline = baseline or snapshot
            assert snapshot == baseline

    def test_merge_with_empty_is_identity(self, small_world, small_enrichment):
        parts = build_aggregates(small_world, small_enrichment, 50, seed=23)
        total = Aggregate()
        for part in parts:
            total.merge(part)
        before = as_comparable(total)
        total.merge(Aggregate())
        assert as_comparable(total) == before

    def test_merged_values_survive_pickle(self, small_world, small_enrichment):
        # forked shards send their Aggregate and SkipLog back pickled
        total = Aggregate()
        for part in build_aggregates(small_world, small_enrichment, 50, seed=24):
            total.merge(part)
        skips, other = SkipLog(), SkipLog()
        skips.add("empty_path", 2)
        other.add("empty_path")
        other.note("unclassifiable_pair_counted_non_normal")
        skips.merge(other)
        back_total, back_skips = pickle.loads(pickle.dumps((total, skips)))
        assert (back_total, back_skips) == (total, skips)
        assert back_total.severity.total() == total.paths_total
        assert back_skips.counts.total() == 3


class TestReport:
    def test_all_normal_fixture(self, small_world, small_enrichment):
        agg = Aggregate()
        cache = PairCache()
        for _ in range(3):
            tp, pc = classified(small_world, small_enrichment, "20.1.0.1", "30.1.0.99",
                                ["20.1.0.5", "30.1.0.5"], cache)
            accumulate(agg, tp, pc, small_world)
        doc = report(agg, small_world, skip_log=SkipLog())
        assert doc["global_don"] == {"physical": 1.0, "legal": 1.0, "union": 1.0}
        assert doc["benefactors"] == {"physical": [], "legal": [], "union": []}

    def test_half_normal_fixture(self, small_world, small_enrichment):
        agg = Aggregate()
        cache = PairCache()
        for ips in (["20.1.0.5", "30.1.0.5"], ["20.1.0.5", "30.1.0.5"]):
            tp, pc = classified(small_world, small_enrichment, "20.1.0.1", "30.1.0.99", ips, cache)
            accumulate(agg, tp, pc, small_world)
        for _ in range(2):
            tp, pc = classified(small_world, small_enrichment, "20.1.0.1", "30.1.0.99",
                                ["20.1.0.5", "70.1.0.5", "30.1.0.5"], cache)
            accumulate(agg, tp, pc, small_world)
        doc = report(agg, small_world, skip_log=SkipLog())
        assert doc["global_don"]["physical"] == 0.5

    def test_zero_total_roles_omitted(self, small_world, small_enrichment):
        agg = Aggregate()
        tp, pc = classified(small_world, small_enrichment, "20.1.0.1", "30.1.0.99", ["20.1.0.5", "30.1.0.5"])
        accumulate(agg, tp, pc, small_world)
        doc = report(agg, small_world, SkipLog())
        assert "transit" not in doc["country_role_don"]["AA"]["physical"]

    def test_union_don_never_exceeds_physical(self, small_world, small_enrichment):
        agg = Aggregate()
        cache = PairCache()
        for doc_rec in generate_records(500, seed=31):
            rec = parse_traceroute_line(json.dumps(doc_rec))
            tp = to_tuple_path(rec, small_enrichment)
            if isinstance(tp, Skip):
                continue
            accumulate(agg, tp, classify_path_with(tp, cache.get_or_build(small_world, tp.src_country, tp.dst_country, "population")), small_world)
        doc = report(agg, small_world, SkipLog())
        assert doc["global_don"]["union"] <= doc["global_don"]["physical"]

    def test_severity_sums_to_paths_and_bucket_zero_is_normal_count(self, small_world, small_enrichment):
        agg = Aggregate()
        cache = PairCache()
        for doc_rec in generate_records(400, seed=32):
            rec = parse_traceroute_line(json.dumps(doc_rec))
            tp = to_tuple_path(rec, small_enrichment)
            if isinstance(tp, Skip):
                continue
            accumulate(agg, tp, classify_path_with(tp, cache.get_or_build(small_world, tp.src_country, tp.dst_country, "population")), small_world)
        assert sum(agg.severity.values()) == agg.paths_total
        normal_physical = sum(n for (_, role, exposure), (n, _) in agg.role.items() if (role, exposure) == ("source", "physical"))
        assert agg.severity.get(0, 0) == normal_physical
        assert report(agg, small_world, SkipLog())["global_don"]["physical"] == normal_physical / agg.paths_total

    def test_benefited_paths_matches_brute_force(self, small_world, small_enrichment):
        agg = Aggregate()
        cache = PairCache()
        recount = {}
        for doc_rec in generate_records(300, seed=33):
            rec = parse_traceroute_line(json.dumps(doc_rec))
            tp = to_tuple_path(rec, small_enrichment)
            if isinstance(tp, Skip):
                continue
            pc = classify_path_with(tp, cache.get_or_build(small_world, tp.src_country, tp.dst_country, "population"))
            accumulate(agg, tp, pc, small_world)
            for iso2 in pc.physical.benefactors:
                recount[iso2] = recount.get(iso2, 0) + 1
        for iso2, expected in recount.items():
            assert agg.benefactor[(iso2, "physical")][0] == expected

    def test_report_is_deterministically_ordered(self, small_world, small_enrichment):
        parts = build_aggregates(small_world, small_enrichment, 100, seed=34)
        rng = random.Random(0)
        dumps = set()
        for _ in range(3):
            shuffled = parts[:]
            rng.shuffle(shuffled)
            total = Aggregate()
            for part in shuffled:
                total.merge(copy.deepcopy(part))
            dumps.add(json.dumps(report(total, small_world, skip_log=SkipLog()), sort_keys=False))
        assert len(dumps) == 1


COUNTRIES = ("AA", "AB", "AC", "AD", "BE", "BF")
UNCLASSIFIABLE = frozenset({"BE", "BF"})  # treated as spanning more than a hemisphere
TUPLE_HOPS = st.builds(
    HopResolution, st.sampled_from(COUNTRIES), st.sampled_from((101, 201, 209, 301, 509)),
    st.sampled_from(COUNTRIES) | st.none(),
)
TUPLE_PATHS = st.builds(
    TuplePath, st.sampled_from(COUNTRIES), st.sampled_from(COUNTRIES),
    st.lists(TUPLE_HOPS, max_size=5).map(tuple), st.integers(0, 3),
) | st.builds(TuplePath, st.sampled_from(sorted(UNCLASSIFIABLE)), st.sampled_from(sorted(UNCLASSIFIABLE)),
              st.lists(TUPLE_HOPS, max_size=2).map(tuple), st.just(0))


class TestSignatureFold:
    """Counting signatures and folding each once, weighted, moves every counter as the per-path fold does."""

    @settings(max_examples=150)
    @given(
        st.lists(TUPLE_PATHS, min_size=1, max_size=6).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), max_size=40)
        ),
        st.sampled_from(("exclude", "count_non_normal")),
    )
    def test_weighted_fold_equals_per_path_fold(self, small_world, paths, policy):
        cache = PairCache()

        def normal_set_of(src, dst):
            if frozenset((src, dst)) == UNCLASSIFIABLE:
                return NormalSet(src, dst, "population", frozenset((src, dst)), unclassifiable=True)
            return cache.get_or_build(small_world, src, dst, "population")

        per_path, per_path_skips = Aggregate(), SkipLog()
        for tp in paths:
            ns = normal_set_of(tp.src_country, tp.dst_country)
            if ns.unclassifiable:
                if policy == "exclude":
                    per_path_skips.add("unclassifiable_pair")
                    continue
                per_path_skips.note("unclassifiable_pair_counted_non_normal")
            accumulate(per_path, tp, classify_path_with(tp, ns), small_world)

        folded, folded_skips, counts = Aggregate(), SkipLog(), {}
        for sig in map(signature, paths):
            counts[sig] = counts.get(sig, 0) + 1
        fold_signatures(counts, folded, folded_skips, small_world, normal_set_of, policy)

        assert counts == {}
        assert report(folded, small_world, folded_skips) == report(per_path, small_world, per_path_skips)
        assert folded_skips == per_path_skips
        assert as_comparable(folded) == as_comparable(per_path)
