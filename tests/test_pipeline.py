import json
import random

import pytest

from geonorm.errors import ParseError
from geonorm.normality import PairCache
from geonorm.pipeline import (
    Hop,
    Skip,
    SkipLog,
    TracerouteRecord,
    classify_path,
    parse_traceroute_line,
    process_stream,
    read_traceroutes,
    to_tuple_path,
)
from geonorm.synth import generate_records

from conftest import PIPELINE12


def record(src_ip, dst_ip, ips, ts=1518048000.0):
    return TracerouteRecord(
        src_ip=src_ip, dst_ip=dst_ip, timestamp=ts,
        hops=tuple(Hop(ttl=i + 1, ip=ip) for i, ip in enumerate(ips)),
    )


class TestParsing:
    def test_round_trip(self):
        line = json.dumps({
            "src_ip": "20.1.0.1", "dst_ip": "40.1.0.9", "timestamp": 1000,
            "hops": [{"ttl": 1, "ip": "20.1.0.5"}, {"ttl": 2, "ip": None}],
        })
        rec = parse_traceroute_line(line)
        assert rec.src_ip == "20.1.0.1"
        assert rec.hops[1].ip is None

    def test_malformed_json_names_position(self):
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_traceroute_line("{nope")

    def test_missing_field(self):
        with pytest.raises(ParseError, match="dst_ip"):
            parse_traceroute_line('{"src_ip": "1.1.1.1", "timestamp": 0, "hops": []}')

    def test_non_increasing_ttl_rejected(self):
        doc = {"src_ip": "1.1.1.1", "dst_ip": "2.2.2.2", "timestamp": 0,
               "hops": [{"ttl": 2, "ip": "3.3.3.3"}, {"ttl": 2, "ip": "4.4.4.4"}]}
        with pytest.raises(ParseError, match="strictly increasing"):
            parse_traceroute_line(json.dumps(doc))

    def test_file_reader_reports_line_numbers(self, tmp_path):
        path = tmp_path / "traces.ndjson"
        good = '{"src_ip": "1.1.1.1", "dst_ip": "2.2.2.2", "timestamp": 0, "hops": []}'
        path.write_text(good + "\n" + "broken\n")
        with pytest.raises(ParseError) as exc:
            list(read_traceroutes(path))
        assert exc.value.line_no == 2

    @pytest.mark.parametrize("ttl", [True, False])
    def test_boolean_ttl_rejected(self, ttl):
        doc = {"src_ip": "1.1.1.1", "dst_ip": "2.2.2.2", "timestamp": 0, "hops": [{"ttl": ttl, "ip": "3.3.3.3"}]}
        with pytest.raises(ParseError, match="hop 0: non-integer ttl"):
            parse_traceroute_line(json.dumps(doc), source="t.ndjson", line_no=4)

    @pytest.mark.parametrize("timestamp", [True, False])
    def test_boolean_timestamp_rejected(self, timestamp):
        doc = {"src_ip": "1.1.1.1", "dst_ip": "2.2.2.2", "timestamp": timestamp, "hops": []}
        with pytest.raises(ParseError, match="t.ndjson:4: non-numeric timestamp"):
            parse_traceroute_line(json.dumps(doc), source="t.ndjson", line_no=4)

    @pytest.mark.parametrize("field, doc", [
        ("src_ip", {"src_ip": "not-an-ip", "dst_ip": "2.2.2.2", "hops": []}),
        ("dst_ip", {"src_ip": "1.1.1.1", "dst_ip": "2.2.2.256", "hops": []}),
        ("src_ip", {"src_ip": 16843009, "dst_ip": "2.2.2.2", "hops": []}),
        ("dst_ip", {"src_ip": "1.1.1.1", "dst_ip": None, "hops": []}),
        ("hop 1", {"src_ip": "1.1.1.1", "dst_ip": "2.2.2.2",
                   "hops": [{"ttl": 1, "ip": "3.3.3.3"}, {"ttl": 2, "ip": "not-an-ip"}]}),
        ("hop 0", {"src_ip": "1.1.1.1", "dst_ip": "2.2.2.2", "hops": [{"ttl": 1, "ip": "2001:db8::1::2"}]}),
    ])
    def test_bad_ip_is_located_parse_error(self, field, doc):
        line = json.dumps({"timestamp": 0, **doc})
        with pytest.raises(ParseError, match=f"^t.ndjson:4: {field}: bad ip ") as exc:
            parse_traceroute_line(line, source="t.ndjson", line_no=4)
        assert exc.value.line_no == 4

    @pytest.mark.parametrize("hops", [5, None, "20.1.0.5", {"ttl": 1}])
    def test_hops_must_be_a_list(self, hops):
        line = json.dumps({"src_ip": "1.1.1.1", "dst_ip": "2.2.2.2", "timestamp": 0, "hops": hops})
        with pytest.raises(ParseError, match="hops must be a list"):
            parse_traceroute_line(line)

    def test_valid_ip_spellings_kept_as_given(self):
        doc = {"src_ip": "2001:DB8::1", "dst_ip": "::ffff:1.2.3.4", "timestamp": 0,
               "hops": [{"ttl": 1, "ip": "fe80::1%eth0"}, {"ttl": 2, "ip": None}]}
        rec = parse_traceroute_line(json.dumps(doc))
        assert (rec.src_ip, rec.dst_ip, rec.hops[0].ip) == ("2001:DB8::1", "::ffff:1.2.3.4", "fe80::1%eth0")


class TestToTuplePath:
    def test_consecutive_duplicates_compress(self, small_enrichment):
        rec = record("20.1.0.1", "40.1.0.99", ["20.1.0.5", "20.1.0.77", "30.1.0.5", "40.1.0.9"])
        tp = to_tuple_path(rec, small_enrichment)
        assert [(h.phys_country, h.asn) for h in tp.hops] == [("AA", 101), ("AB", 201), ("AC", 301)]
        assert tp.dropped_hops == 0

    def test_unresolvable_hop_dropped_then_duplicates_collapse(self, small_enrichment):
        # middle hop resolves to nothing; the flanking (AA,101) hops merge
        rec = record("20.1.0.1", "30.1.0.99", ["20.1.0.5", "99.9.9.9", "20.1.0.77"])
        tp = to_tuple_path(rec, small_enrichment)
        assert [(h.phys_country, h.asn) for h in tp.hops] == [("AA", 101)]
        assert tp.dropped_hops == 1

    def test_unresponsive_hops_not_counted_as_dropped(self, small_enrichment):
        rec = record("20.1.0.1", "30.1.0.99", ["20.1.0.5", None, "20.1.0.77"])
        tp = to_tuple_path(rec, small_enrichment)
        assert [(h.phys_country, h.asn) for h in tp.hops] == [("AA", 101)]
        assert tp.dropped_hops == 0

    def test_geo_hit_without_origin_is_dropped(self, small_enrichment):
        # 20.5.x.x geolocates through the /8 but has no origin AS
        rec = record("20.1.0.1", "30.1.0.99", ["20.1.0.5", "20.5.0.1", "30.1.0.5"])
        tp = to_tuple_path(rec, small_enrichment)
        assert [(h.phys_country, h.asn) for h in tp.hops] == [("AA", 101), ("AB", 201)]
        assert tp.dropped_hops == 1

    def test_private_hop_dropped(self, small_enrichment):
        rec = record("20.1.0.1", "30.1.0.99", ["20.1.0.5", "10.0.0.1", "30.1.0.5"])
        tp = to_tuple_path(rec, small_enrichment)
        assert tp.dropped_hops == 1

    def test_unresolved_destination_skips(self, small_enrichment):
        rec = record("20.1.0.1", "99.0.0.1", ["20.1.0.5"])
        assert to_tuple_path(rec, small_enrichment) == Skip("unresolved_destination")

    def test_unresolved_source_skips(self, small_enrichment):
        rec = record("99.0.0.1", "20.1.0.1", ["20.1.0.5"])
        assert to_tuple_path(rec, small_enrichment) == Skip("unresolved_source")

    def test_no_hops_at_all_skips(self, small_enrichment):
        rec = record("20.1.0.1", "30.1.0.99", [])
        assert to_tuple_path(rec, small_enrichment) == Skip("empty_path")

    def test_all_hops_unresolvable_yields_empty_tuple_path(self, small_enrichment):
        rec = record("20.1.0.1", "30.1.0.99", ["99.1.1.1", "99.2.2.2"])
        tp = to_tuple_path(rec, small_enrichment)
        assert tp.hops == ()
        assert tp.dropped_hops == 2

    def test_dropped_plus_resolved_equals_responsive(self, small_enrichment):
        rng = random.Random(11)
        pool = ["20.1.0.5", "30.1.0.5", "40.1.0.5", "99.9.9.9", "10.0.0.1", "20.5.0.1", None]
        for _ in range(50):
            ips = [rng.choice(pool) for _ in range(rng.randint(1, 12))]
            rec = record("20.1.0.1", "30.1.0.99", ips)
            tp = to_tuple_path(rec, small_enrichment)
            responsive = sum(1 for ip in ips if ip is not None)
            resolved = sum(
                1 for ip in ips
                if ip is not None and small_enrichment.resolve(ip).phys_country is not None
                and small_enrichment.resolve(ip).asn is not None
            )
            assert tp.dropped_hops == responsive - resolved

    def test_compression_idempotent(self, small_enrichment):
        from itertools import groupby

        rec = record("20.1.0.1", "40.1.0.99", ["20.1.0.5", "20.1.0.9", "30.1.0.5", "30.1.0.9", "40.1.0.5"])
        tp = to_tuple_path(rec, small_enrichment)
        again = tuple(next(g) for _, g in groupby(tp.hops, key=lambda h: (h.phys_country, h.asn)))
        assert again == tp.hops


class TestClassifyPath:
    def test_single_country_path_normal_everywhere(self, small_world, small_enrichment):
        rec = record("20.1.0.1", "20.1.0.99", ["20.1.0.5"])
        tp = to_tuple_path(rec, small_enrichment)
        pc = classify_path(tp, PairCache(), small_world)
        assert pc.physical.normal and pc.legal.normal and pc.union.normal

    def test_legal_mismatch_flips_union_only(self, small_world, small_enrichment):
        # AS209 operates in AB but answers to BE
        rec = record("20.1.0.1", "40.1.0.99", ["20.1.0.5", "30.9.0.5", "40.1.0.9"])
        tp = to_tuple_path(rec, small_enrichment)
        pc = classify_path(tp, PairCache(), small_world)
        assert pc.physical.normal
        assert not pc.legal.normal and pc.legal.benefactors == frozenset({"BE"})
        assert not pc.union.normal and pc.union.benefactors == frozenset({"BE"})
        assert pc.union_added_countries == 1

    def test_union_benefactors_superset_of_physical(self, small_world, small_enrichment):
        cache = PairCache()
        count = 0
        for doc in generate_records(1000, seed=77):
            rec = parse_traceroute_line(json.dumps(doc))
            tp = to_tuple_path(rec, small_enrichment)
            if isinstance(tp, Skip):
                continue
            pc = classify_path(tp, cache, small_world)
            assert pc.union.benefactors >= pc.physical.benefactors
            legal_only = {h.legal_country for h in tp.hops if h.legal_country} - {h.phys_country for h in tp.hops}
            assert pc.union_added_countries == len(legal_only - {tp.src_country, tp.dst_country})
            count += 1
        assert count > 800

    def test_endpoint_stability_same_normal_set(self, small_world, small_enrichment):
        cache = PairCache()
        rec = record("20.1.0.1", "40.1.0.99", ["20.1.0.5", "30.9.0.5", "40.1.0.9"])
        tp = to_tuple_path(rec, small_enrichment)
        classify_path(tp, cache, small_world)
        assert cache.misses == 1  # one normal set serves all three verdicts

    def test_tuple_len_and_as_count(self, small_world, small_enrichment):
        rec = record("20.1.0.1", "40.1.0.99", ["20.1.0.5", "20.2.0.5", "30.1.0.5", "40.1.0.9"])
        tp = to_tuple_path(rec, small_enrichment)
        pc = classify_path(tp, PairCache(), small_world)
        assert pc.tuple_len == 4
        assert pc.as_count == 4


class TestProcessStream:
    def test_skips_tallied_by_reason(self, small_world, small_enrichment):
        records = [
            record("20.1.0.1", "40.1.0.99", ["20.1.0.5", "40.1.0.9"]),
            record("20.1.0.1", "99.0.0.1", ["20.1.0.5"]),
            record("20.1.0.1", "40.1.0.99", ["20.1.0.5", "40.1.0.9"]),
        ]
        skips = SkipLog()
        out = list(process_stream(records, small_enrichment, PairCache(), small_world, skip_log=skips))
        assert len(out) == 2
        assert skips.counts == {"unresolved_destination": 1}

    def test_empty_input(self, small_world, small_enrichment):
        skips = SkipLog()
        assert list(process_stream([], small_enrichment, PairCache(), small_world, skip_log=skips)) == []
        assert skips.counts == {}
        assert skips.total() == 0

    def test_serial_rerun_is_deterministic(self, small_world, small_enrichment):
        docs = list(generate_records(500, seed=9))
        records = [parse_traceroute_line(json.dumps(d)) for d in docs]

        def run():
            skips = SkipLog()
            out = [
                (tp, pc.physical.normal, pc.legal.normal, pc.union.normal)
                for tp, pc in process_stream(records, small_enrichment, PairCache(), small_world, skip_log=skips)
            ]
            return out, skips.counts

        first, second = run(), run()
        assert first == second

    def test_bad_policy_rejected(self, small_world, small_enrichment):
        with pytest.raises(ValueError):
            list(process_stream([], small_enrichment, PairCache(), small_world,
                                unclassifiable_policy="ignore", skip_log=SkipLog()))


def antipodal_setup():
    from geonorm.enrichment import ASRegistry, Enrichment, PrefixTable
    from geonorm.sphere import GeoPoint, GeoPolygon
    from geonorm.world import City, CountryBorders, CountryRecord, WorldModel

    def rec(iso2, lat, lon, region):
        return CountryRecord(iso2=iso2, name=iso2, region=region,
                             cities=(City(f"{iso2} City", GeoPoint(lat, lon), 1000),))

    def borders(iso2, lat, lon):
        ring = (GeoPoint(lat - 1, lon - 1), GeoPoint(lat - 1, lon + 1),
                GeoPoint(lat + 1, lon + 1), GeoPoint(lat + 1, lon - 1))
        return CountryBorders(iso2=iso2, polygons=(GeoPolygon(rings=(ring,)),))

    w = WorldModel(
        countries={"PX": rec("PX", 0, 0, "Africa"), "PY": rec("PY", 0, 180, "Asia"),
                   "PZ": rec("PZ", 0, 90, "Asia")},
        borders={"PX": borders("PX", 0, 0), "PY": borders("PY", 0, 180), "PZ": borders("PZ", 0, 90)},
        region_of={"PX": "Africa", "PY": "Asia", "PZ": "Asia"},
    )
    enr = Enrichment(
        geo=PrefixTable.from_rows([("20.0.0.0/8", "PX"), ("30.0.0.0/8", "PY"), ("40.0.0.0/8", "PZ")]),
        origin=PrefixTable.from_rows([("20.0.0.0/8", 1), ("30.0.0.0/8", 2), ("40.0.0.0/8", 3)]),
        registry=ASRegistry(mapping={1: "PX", 2: "PY", 3: "PZ"}),
    )
    return w, enr


class TestUnclassifiablePolicy:
    def test_exclude_policy_skips_and_tallies(self):
        w, enr = antipodal_setup()
        rec = record("20.1.0.1", "30.1.0.1", ["20.1.0.5", "40.1.0.5", "30.1.0.5"])
        skips = SkipLog()
        out = list(process_stream([rec], enr, PairCache(), w, skip_log=skips))
        assert out == []
        assert skips.counts == {"unclassifiable_pair": 1}

    def test_count_non_normal_policy_classifies(self):
        w, enr = antipodal_setup()
        rec = record("20.1.0.1", "30.1.0.1", ["20.1.0.5", "40.1.0.5", "30.1.0.5"])
        skips = SkipLog()
        out = list(process_stream([rec], enr, PairCache(), w,
                                  unclassifiable_policy="count_non_normal", skip_log=skips))
        assert len(out) == 1
        _, pc = out[0]
        assert not pc.physical.normal
        assert pc.physical.benefactors == frozenset({"PZ"})
        assert skips.counts == {}
        assert skips.notes == {"unclassifiable_pair_counted_non_normal": 1}
