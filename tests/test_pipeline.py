import json
import random
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from geonorm import cli, pipeline
from geonorm.enrichment import Enrichment
from geonorm.errors import ParseError
from geonorm.normality import PairCache
from geonorm.pipeline import (
    Hop,
    Skip,
    TracerouteRecord,
    classify_path_with,
    parse_traceroute_line,
    path_signature,
    read_traceroutes,
    shard_ranges,
    signature,
    to_tuple_path,
)
from geonorm.synth import generate_records

from conftest import PIPELINE12, SMALLWORLD, table_args, world_args


def record(src_ip, dst_ip, ips):
    return TracerouteRecord(
        src_ip=src_ip, dst_ip=dst_ip,
        hops=tuple(Hop(ttl=i + 1, ip=ip) for i, ip in enumerate(ips)),
    )


MALFORMED_JSON = "{nope"
MISSING_DST = '{"src_ip": "1.1.1.1", "timestamp": 0, "hops": []}'
REPEATED_TTL = {"src_ip": "1.1.1.1", "dst_ip": "2.2.2.2", "timestamp": 0,
                "hops": [{"ttl": 2, "ip": "3.3.3.3"}, {"ttl": 2, "ip": "4.4.4.4"}]}
TIMESTAMP_LINE = '{"src_ip": "1.1.1.1", "dst_ip": "2.2.2.2", "hops": [], "timestamp": %s}'
BAD_TIMESTAMPS = [
    ('"123"', "non-numeric timestamp '123'"),
    ('"nan"', "non-numeric timestamp 'nan'"),
    ("null", "non-numeric timestamp None"),
    ("[1]", r"non-numeric timestamp \[1\]"),
    ("NaN", "non-finite timestamp nan"),
    ("Infinity", "non-finite timestamp inf"),
    ("-Infinity", "non-finite timestamp -inf"),
    ("1e400", "non-finite timestamp inf"),
    pytest.param("1" + "0" * 400, "non-finite timestamp 10{400}$", id="integer-beyond-float"),
]
BEYOND_DECODER = [
    pytest.param("[" * 100_000, id="nesting"),
    pytest.param('{"timestamp": ' + "1" * 5000 + "}", id="integer-digits"),
]
BAD_IPS = [
    ("src_ip", {"src_ip": "not-an-ip", "dst_ip": "2.2.2.2", "hops": []}),
    ("dst_ip", {"src_ip": "1.1.1.1", "dst_ip": "2.2.2.256", "hops": []}),
    ("src_ip", {"src_ip": 16843009, "dst_ip": "2.2.2.2", "hops": []}),
    ("dst_ip", {"src_ip": "1.1.1.1", "dst_ip": None, "hops": []}),
    ("hop 1", {"src_ip": "1.1.1.1", "dst_ip": "2.2.2.2",
               "hops": [{"ttl": 1, "ip": "3.3.3.3"}, {"ttl": 2, "ip": "not-an-ip"}]}),
    ("hop 0", {"src_ip": "1.1.1.1", "dst_ip": "2.2.2.2", "hops": [{"ttl": 1, "ip": "2001:db8::1::2"}]}),
]
NOT_LISTS = [5, None, "20.1.0.5", {"ttl": 1}]


def bad_ttl_line(ttl):
    return json.dumps({"src_ip": "1.1.1.1", "dst_ip": "2.2.2.2", "timestamp": 0, "hops": [{"ttl": ttl, "ip": "3.3.3.3"}]})


def bad_timestamp_line(timestamp):
    return json.dumps({"src_ip": "1.1.1.1", "dst_ip": "2.2.2.2", "timestamp": timestamp, "hops": []})


def hops_line(hops):
    return json.dumps({"src_ip": "1.1.1.1", "dst_ip": "2.2.2.2", "timestamp": 0, "hops": hops})


# Every bad line of TestParsing, plus the lines whose error a skip could hide: an unresolvable
# source (99.0.0.1) or destination and a bad hop or timestamp, and no hops with a bad timestamp
BAD_LINES = [
    pytest.param(MALFORMED_JSON, id="malformed-json"),
    pytest.param(MISSING_DST, id="missing-field"),
    pytest.param(json.dumps(REPEATED_TTL), id="repeated-ttl"),
    pytest.param("broken", id="not-json"),
    *(pytest.param(bad_ttl_line(ttl), id=f"ttl-{ttl}") for ttl in (True, False)),
    *(pytest.param(bad_timestamp_line(ts), id=f"timestamp-{ts}") for ts in (True, False)),
    *(pytest.param(TIMESTAMP_LINE % getattr(case, "values", case)[0], id=f"timestamp-{i}") for i, case in enumerate(BAD_TIMESTAMPS)),
    *(pytest.param(case.values[0], id=case.id) for case in BEYOND_DECODER),
    *(pytest.param(json.dumps({"timestamp": 0, **doc}), id=f"bad-ip-{i}") for i, (_, doc) in enumerate(BAD_IPS)),
    *(pytest.param(hops_line(hops), id=f"hops-{i}") for i, hops in enumerate(NOT_LISTS)),
    pytest.param('{"src_ip": "99.0.0.1", "dst_ip": "20.1.0.1", "timestamp": 0, '
                 '"hops": [{"ttl": 1, "ip": "20.1.0.5"}, {"ttl": 2, "ip": "not-an-ip"}]}', id="unresolved-source-bad-hop"),
    pytest.param('{"src_ip": "20.1.0.1", "dst_ip": "99.0.0.1", "timestamp": "0", '
                 '"hops": [{"ttl": 1, "ip": "20.1.0.5"}]}', id="unresolved-destination-bad-timestamp"),
    pytest.param('{"src_ip": "20.1.0.1", "dst_ip": "40.1.0.99", "timestamp": "0", "hops": []}', id="no-hops-bad-timestamp"),
    pytest.param('{"src_ip": "20.1.0.1", "dst_ip": "40.1.0.99", "timestamp": 0, '
                 '"hops": [{"ttl": 1, "ip": "20.1.0.5"}, {"ttl": 2, "ip": 7}]}', id="hop-ip-not-a-string"),
    pytest.param('{"src_ip": "20.1.0.1", "dst_ip": "40.1.0.99", "timestamp": 0, "hops": [{"ip": "20.1.0.5"}]}',
                 id="hop-without-ttl"),
]


class TestParsing:
    def test_round_trip(self):
        line = json.dumps({
            "src_ip": "20.1.0.1", "dst_ip": "40.1.0.9", "timestamp": 1000,
            "hops": [{"ttl": 1, "ip": "20.1.0.5"}, {"ttl": 2, "ip": None}],
        })
        rec = parse_traceroute_line(line)
        assert rec == record("20.1.0.1", "40.1.0.9", ["20.1.0.5", None])
        assert rec._fields == ("src_ip", "dst_ip", "hops")  # the timestamp is checked, not kept

    def test_malformed_json_names_position(self):
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_traceroute_line(MALFORMED_JSON)

    def test_missing_field(self):
        with pytest.raises(ParseError, match="dst_ip"):
            parse_traceroute_line(MISSING_DST)

    def test_non_increasing_ttl_rejected(self):
        with pytest.raises(ParseError, match="strictly increasing"):
            parse_traceroute_line(json.dumps(REPEATED_TTL))

    def test_file_reader_reports_line_numbers(self, tmp_path):
        path = tmp_path / "traces.ndjson"
        good = '{"src_ip": "1.1.1.1", "dst_ip": "2.2.2.2", "timestamp": 0, "hops": []}'
        path.write_text(good + "\n" + "broken\n")
        with pytest.raises(ParseError) as exc:
            list(read_traceroutes(path))
        assert exc.value.line_no == 2

    @pytest.mark.parametrize("ttl", [True, False])
    def test_boolean_ttl_rejected(self, ttl):
        with pytest.raises(ParseError, match="hop 0: non-integer ttl"):
            parse_traceroute_line(bad_ttl_line(ttl), source="t.ndjson", line_no=4)

    @pytest.mark.parametrize("timestamp", [True, False])
    def test_boolean_timestamp_rejected(self, timestamp):
        with pytest.raises(ParseError, match="t.ndjson:4: non-numeric timestamp"):
            parse_traceroute_line(bad_timestamp_line(timestamp), source="t.ndjson", line_no=4)

    @pytest.mark.parametrize("text, message", BAD_TIMESTAMPS)
    def test_timestamp_must_be_a_finite_number(self, text, message):
        line = TIMESTAMP_LINE % text
        with pytest.raises(ParseError, match=f"^t.ndjson:4: {message}"):
            parse_traceroute_line(line, source="t.ndjson", line_no=4)

    @pytest.mark.parametrize("line", BEYOND_DECODER)
    def test_json_beyond_decoder_limits_is_located(self, line):
        with pytest.raises(ParseError, match="^t.ndjson:4: invalid JSON: "):
            parse_traceroute_line(line, source="t.ndjson", line_no=4)

    @pytest.mark.parametrize("field, doc", BAD_IPS)
    def test_bad_ip_is_located_parse_error(self, field, doc):
        line = json.dumps({"timestamp": 0, **doc})
        with pytest.raises(ParseError, match=f"^t.ndjson:4: {field}: bad ip ") as exc:
            parse_traceroute_line(line, source="t.ndjson", line_no=4)
        assert exc.value.line_no == 4

    @pytest.mark.parametrize("hops", NOT_LISTS)
    def test_hops_must_be_a_list(self, hops):
        line = hops_line(hops)
        with pytest.raises(ParseError, match="hops must be a list"):
            parse_traceroute_line(line)

    def test_valid_ip_spellings_kept_as_given(self):
        doc = {"src_ip": "2001:DB8::1", "dst_ip": "::ffff:1.2.3.4", "timestamp": 0,
               "hops": [{"ttl": 1, "ip": "fe80::1%eth0"}, {"ttl": 2, "ip": None}]}
        rec = parse_traceroute_line(json.dumps(doc))
        assert (rec.src_ip, rec.dst_ip, rec.hops[0].ip) == ("2001:DB8::1", "::ffff:1.2.3.4", "fe80::1%eth0")


GOOD_DOC = {"src_ip": "20.1.0.1", "dst_ip": "40.1.0.99", "timestamp": 0, "hops": [{"ttl": 1, "ip": "20.1.0.5"}]}


def ndjson_record(ts, pad=0, lone_cr=False):
    """One NDJSON record with a unique timestamp, optionally padded or with a lone CR as whitespace."""
    sep = ",\r" if lone_cr else ", "
    return (
        f'{{"src_ip": "1.1.1.1"{sep}"dst_ip": "2.2.2.2", "timestamp": {ts},{" " * pad}'
        f'"hops": [{{"ttl": 1, "ip": "3.3.3.3"}}, {{"ttl": 2, "ip": null}}]}}'
    ).encode()


# kind -> the bytes of line number ts; blank and spaces lines hold no record
LINE_KINDS = {
    "record": lambda ts: ndjson_record(ts),
    "lone_cr": lambda ts: ndjson_record(ts, lone_cr=True),
    "long": lambda ts: ndjson_record(ts, pad=70_000),
    "blank": lambda ts: b"",
    "spaces": lambda ts: b" \t ",
}


@st.composite
def ndjson_files(draw):
    """(file bytes, [(line number, record)] it holds) with CRLF and LF ends and maybe no final newline."""
    lines = draw(st.lists(
        st.tuples(st.sampled_from(sorted(LINE_KINDS)), st.sampled_from([b"\n", b"\r\n"])), max_size=20,
    ))
    content, expected = b"", []
    for line_no, (kind, end) in enumerate(lines, start=1):
        content += LINE_KINDS[kind](line_no) + end
        if kind not in ("blank", "spaces"):
            expected.append((line_no, parse_traceroute_line(LINE_KINDS[kind](line_no).decode())))
    if content and draw(st.booleans()):
        content = content.rstrip(b"\r\n")
    return content, expected


def read_numbered(path, start=0, end=None):
    """read_traceroutes, each record paired with the line number the reader gave it."""
    real = pipeline.parse_traceroute_line

    def numbered(line, source, line_no):
        return line_no, real(line, source, line_no)

    with mock.patch.object(pipeline, "parse_traceroute_line", numbered):
        return list(read_traceroutes(path, start, end))


class TestSharding:
    @settings(max_examples=150)
    @given(ndjson_files(), st.integers(min_value=1, max_value=8), st.data())
    def test_shards_concatenate_to_the_whole_file(self, file, n, data):
        content, expected = file
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.ndjson"
            path.write_bytes(content)
            assert read_numbered(path) == expected
            ranges = shard_ranges(path, n)
            assert len(ranges) <= n
            assert [a for a, _ in ranges[1:]] == [b for _, b in ranges[:-1]]
            assert (ranges[0][0], ranges[-1][1]) == (0, len(content)) if content else ranges == []
            for a, b in ranges:
                assert a < b and (a == 0 or content[a - 1:a] == b"\n")
            assert [r for a, b in ranges for r in read_numbered(path, a, b)] == expected
            # any cuts work: a range yields the lines that begin inside it
            cuts = sorted(data.draw(st.lists(st.integers(0, len(content) + 3), max_size=6)))
            bounds = list(zip([0, *cuts], [*cuts, None]))
            assert [r for a, b in bounds for r in read_numbered(path, a, b)] == expected

    def test_start_past_a_long_prefix(self, tmp_path):
        path = tmp_path / "t.ndjson"
        first, second = ndjson_record(1, pad=2_500_000), ndjson_record(2)
        path.write_bytes(first + b"\n" + second + b"\nbroken\n")
        cut = len(first) + 5  # inside line 2, so it belongs to the first range
        assert [n for n, _ in read_numbered(path, 0, cut)] == [1, 2]
        with pytest.raises(ParseError, match=r"t.ndjson:3: invalid JSON"):
            read_numbered(path, cut)

    def test_more_shards_than_lines(self, tmp_path):
        path = tmp_path / "t.ndjson"
        path.write_bytes(ndjson_record(1) + b"\n" + ndjson_record(2))
        assert len(shard_ranges(path, 8)) == 2
        empty = tmp_path / "empty.ndjson"
        empty.write_bytes(b"")
        assert shard_ranges(empty, 8) == []

    def test_lone_cr_is_json_whitespace(self, tmp_path):
        path = tmp_path / "t.ndjson"
        path.write_bytes(ndjson_record(7, lone_cr=True) + b"\n")
        assert list(read_traceroutes(path)) == [record("1.1.1.1", "2.2.2.2", ["3.3.3.3", None])]

    def test_lone_cr_does_not_end_a_record(self, tmp_path):
        path = tmp_path / "t.ndjson"
        path.write_bytes(ndjson_record(1) + b"\n" + ndjson_record(2) + b"\r" + ndjson_record(3) + b"\n")
        with pytest.raises(ParseError, match=r"t.ndjson:2: invalid JSON at column \d+: Extra data"):
            list(read_traceroutes(path))

    def test_non_utf8_line_is_located(self, tmp_path):
        path = tmp_path / "t.ndjson"
        path.write_bytes(ndjson_record(1) + b"\n" + ndjson_record(2).replace(b"3.3.3.3", b"3.3.3.\xff") + b"\n")
        with pytest.raises(ParseError) as exc:
            list(read_traceroutes(path))
        column = ndjson_record(2).index(b"3.3.3.3") + 7
        assert str(exc.value) == f"{path}:2: invalid UTF-8 byte 0xff at column {column}"

    def test_unopenable_file_is_located(self, tmp_path):
        with pytest.raises(ParseError, match="cannot open"):
            shard_ranges(tmp_path / "absent.ndjson", 2)


class TestToTuplePath:
    def test_consecutive_duplicates_compress(self, small_enrichment):
        rec = record("20.1.0.1", "40.1.0.99", ["20.1.0.5", "20.1.0.77", "30.1.0.5", "40.1.0.9"])
        tp = to_tuple_path(rec, small_enrichment)
        assert [(h.phys_country, h.asn) for h in tp.hops] == [("AA", 101), ("AB", 201), ("AC", 301)]
        assert tp.dropped_hops == 0

    def test_hops_are_the_resolvers_own_objects(self, small_enrichment):
        # a fresh memo, so no entry is evicted between the two resolutions
        enrichment = Enrichment(small_enrichment.geo, small_enrichment.origin, small_enrichment.registry)
        rec = record("20.1.0.1", "40.1.0.99", ["20.1.0.5", "20.1.0.77", "99.9.9.9", "30.1.0.5"])
        tp = to_tuple_path(rec, enrichment)
        assert len(tp.hops) == 2
        assert tp.hops[0] is enrichment.resolve("20.1.0.5")
        assert tp.hops[1] is enrichment.resolve("30.1.0.5")

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


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
# addresses that resolve in smallworld, special ones and unknown ones; then spellings ipaddress refuses
GOOD_ADDRESSES = [
    "20.1.0.1", "20.1.0.5", "30.9.0.5", "40.1.0.99", "60.9.0.1", "20.5.0.1", "99.9.9.9", "10.0.0.1",
    "::1", "2001:db8::1", "fe80::1%eth0", "::ffff:20.1.0.5",
]
ADDRESSES = st.sampled_from(GOOD_ADDRESSES + ["1.2.3", "20.1.0.1\x00", "\ud800"])


@st.composite
def record_lines(draw):
    """A well-formed record line with up to two fields of the record or of its hops replaced or removed."""
    ttl, hops = 0, []
    for step, ip in draw(st.lists(st.tuples(st.integers(1, 3), st.none() | st.sampled_from(GOOD_ADDRESSES)), max_size=8)):
        ttl += step
        hops.append({"ttl": ttl, "ip": ip})
    doc = {"src_ip": draw(ADDRESSES), "dst_ip": draw(ADDRESSES),
           "timestamp": draw(st.integers(0, 2**32) | st.floats()), "hops": hops}
    for _ in range(draw(st.integers(0, 2))):
        target = draw(st.sampled_from([doc, *hops]))
        key = draw(st.sampled_from(sorted(target)))
        if draw(st.booleans()):
            del target[key]
        else:
            target[key] = draw(JSON_VALUES)
    return json.dumps(doc)


class TestParseFuzz:
    @settings(max_examples=400)
    @given(st.one_of(
        record_lines(),
        record_lines().flatmap(lambda line: st.integers(0, len(line)).map(lambda i: line[:i])),
        JSON_VALUES.map(json.dumps),
        st.text(max_size=40),
    ))
    def test_only_parse_errors_escape(self, small_enrichment, line):
        try:
            rec = parse_traceroute_line(line, source="f.ndjson", line_no=3)
        except ParseError as e:
            assert str(e).startswith("f.ndjson:3: ")
            return
        tp = to_tuple_path(rec, small_enrichment)
        assert isinstance(tp, Skip) or len(tp.hops) + tp.dropped_hops <= len(rec.hops)


class TestPathSignature:
    """analyze's one pass from a line to its signature, against the step-by-step wrappers."""

    @settings(max_examples=400)
    @given(st.one_of(
        record_lines(),
        record_lines().flatmap(lambda line: st.integers(0, len(line)).map(lambda i: line[:i])),
        JSON_VALUES.map(json.dumps),
    ))
    def test_agrees_with_the_wrappers(self, small_enrichment, line):
        try:
            rec = parse_traceroute_line(line, source="f.ndjson", line_no=3)
        except ParseError as e:
            with pytest.raises(ParseError) as fused:
                path_signature(line, small_enrichment, "f.ndjson", 3)
            assert str(fused.value) == str(e)
            return
        tp = to_tuple_path(rec, small_enrichment)
        expected = tp.reason if isinstance(tp, Skip) else signature(tp)
        assert path_signature(line, small_enrichment, "f.ndjson", 3) == expected

    def test_synth_corpus_agrees_with_the_wrappers(self, small_enrichment):
        for doc in generate_records(500, seed=21):
            line = json.dumps(doc)
            tp = to_tuple_path(parse_traceroute_line(line), small_enrichment)
            assert path_signature(line, small_enrichment) == (tp.reason if isinstance(tp, Skip) else signature(tp))

    @pytest.mark.parametrize("line", BAD_LINES)
    def test_analyze_reports_what_the_parser_reports(self, capsys, tmp_path, small_enrichment, line):
        traces = tmp_path / "traces.ndjson"
        traces.write_text(json.dumps(GOOD_DOC) + "\n" + line + "\n")
        with pytest.raises(ParseError) as parsed:
            parse_traceroute_line(line, source=str(traces), line_no=2)
        with pytest.raises(ParseError) as fused:
            path_signature(line, small_enrichment, str(traces), 2)
        assert str(fused.value) == str(parsed.value)
        code = cli.main(["analyze", *world_args(), *table_args(), "--traceroutes", str(traces),
                         "--output-dir", str(tmp_path / "out")])
        assert (code, capsys.readouterr().err) == (1, f"error: {parsed.value}\n")


class TestClassifyPath:
    def test_single_country_path_normal_everywhere(self, small_world, small_enrichment):
        rec = record("20.1.0.1", "20.1.0.99", ["20.1.0.5"])
        tp = to_tuple_path(rec, small_enrichment)
        pc = classify_path_with(tp, PairCache().get_or_build(small_world, tp.src_country, tp.dst_country, "population"))
        assert pc.physical.normal and pc.legal.normal and pc.union.normal

    def test_legal_mismatch_flips_union_only(self, small_world, small_enrichment):
        # AS209 operates in AB but answers to BE
        rec = record("20.1.0.1", "40.1.0.99", ["20.1.0.5", "30.9.0.5", "40.1.0.9"])
        tp = to_tuple_path(rec, small_enrichment)
        pc = classify_path_with(tp, PairCache().get_or_build(small_world, tp.src_country, tp.dst_country, "population"))
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
            pc = classify_path_with(tp, cache.get_or_build(small_world, tp.src_country, tp.dst_country, "population"))
            assert pc.union.benefactors >= pc.physical.benefactors
            legal_only = {h.legal_country for h in tp.hops if h.legal_country} - {h.phys_country for h in tp.hops}
            assert pc.union_added_countries == len(legal_only - {tp.src_country, tp.dst_country})
            count += 1
        assert count > 800

    def test_endpoint_stability_same_normal_set(self, small_world, small_enrichment):
        cache = PairCache()
        rec = record("20.1.0.1", "40.1.0.99", ["20.1.0.5", "30.9.0.5", "40.1.0.9"])
        tp = to_tuple_path(rec, small_enrichment)
        classify_path_with(tp, cache.get_or_build(small_world, tp.src_country, tp.dst_country, "population"))
        assert cache.misses == 1  # one normal set serves all three verdicts

    def test_tuple_len_and_as_count(self, small_world, small_enrichment):
        rec = record("20.1.0.1", "40.1.0.99", ["20.1.0.5", "20.2.0.5", "30.1.0.5", "40.1.0.9"])
        tp = to_tuple_path(rec, small_enrichment)
        pc = classify_path_with(tp, PairCache().get_or_build(small_world, tp.src_country, tp.dst_country, "population"))
        assert pc.tuple_len == 4
        assert pc.as_count == 4


def analyze(capsys, tmp_path, records, *flags, world=SMALLWORLD, config=(), expect=0):
    """Run geonorm analyze over records; returns the parsed report.json, or stderr when it fails."""
    tmp_path.mkdir(exist_ok=True)
    traces = tmp_path / "traces.ndjson"
    traces.write_text("".join(
        json.dumps({"src_ip": r.src_ip, "dst_ip": r.dst_ip, "timestamp": 1518048000,
                    "hops": [{"ttl": h.ttl, "ip": h.ip} for h in r.hops]}) + "\n"
        for r in records
    ))
    out_dir = tmp_path / "out"
    code = cli.main([*config, "analyze", *world_args(world), *table_args(world), "--traceroutes", str(traces),
                     "--output-dir", str(out_dir), *flags])
    err = capsys.readouterr().err
    assert code == expect, err
    return json.loads((out_dir / "report.json").read_text()) if code == 0 else err


class TestProcessStream:
    """The per-record loop of analyze: parse, tuple path, normal set, unclassifiable policy, accumulate."""

    def test_skips_tallied_by_reason(self, capsys, tmp_path):
        records = [
            record("20.1.0.1", "40.1.0.99", ["20.1.0.5", "40.1.0.9"]),
            record("20.1.0.1", "99.0.0.1", ["20.1.0.5"]),
            record("20.1.0.1", "40.1.0.99", ["20.1.0.5", "40.1.0.9"]),
        ]
        doc = analyze(capsys, tmp_path, records)
        assert doc["totals"] == {"paths_classified": 2, "records_skipped": 1}
        assert doc["skip_log"] == {"unresolved_destination": 1}

    def test_empty_input(self, capsys, tmp_path):
        doc = analyze(capsys, tmp_path, [])
        assert doc["totals"] == {"paths_classified": 0, "records_skipped": 0}
        assert doc["skip_log"] == {}
        assert doc["notes"] == {}

    def test_serial_rerun_is_deterministic(self, capsys, tmp_path):
        records = [parse_traceroute_line(json.dumps(d)) for d in generate_records(500, seed=9)]
        first = analyze(capsys, tmp_path / "first", records)
        second = analyze(capsys, tmp_path / "second", records)
        assert first == second
        assert first["totals"]["paths_classified"] + first["totals"]["records_skipped"] == 500

    def test_bad_policy_rejected(self, capsys, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text('{"unclassifiable_policy": "ignore"}')
        err = analyze(capsys, tmp_path, [], config=("--config", str(cfg_path)), expect=1)
        assert err == "error: unclassifiable-policy must be exclude or count_non_normal, got 'ignore'\n"


def write_antipodal_world(base):
    """PX and PY, one city each, on opposite sides of the globe; PZ between them."""
    base.mkdir()
    places = {"PX": (0, 0, "Africa"), "PY": (0, 180, "Asia"), "PZ": (0, 90, "Asia")}
    (base / "cities.csv").write_text(
        "iso2,city,lat,lon,population\n" + "".join(f"{c},{c} City,{lat},{lon},1000\n" for c, (lat, lon, _) in places.items())
    )
    (base / "regions.csv").write_text("iso2,region\n" + "".join(f"{c},{region}\n" for c, (_, _, region) in places.items()))
    features = [
        {"type": "Feature", "properties": {"iso2": c}, "geometry": {"type": "Polygon", "coordinates": [[
            [lon - 1, lat - 1], [lon + 1, lat - 1], [lon + 1, lat + 1], [lon - 1, lat + 1]]]}}
        for c, (lat, lon, _) in places.items()
    ]
    (base / "borders.geojson").write_text(json.dumps({"type": "FeatureCollection", "features": features}))
    (base / "geo.csv").write_text("cidr,iso2\n20.0.0.0/8,PX\n30.0.0.0/8,PY\n40.0.0.0/8,PZ\n")
    (base / "origin.csv").write_text("cidr,asn\n20.0.0.0/8,1\n30.0.0.0/8,2\n40.0.0.0/8,3\n")
    (base / "as_registry.csv").write_text("asn,iso2\n1,PX\n2,PY\n3,PZ\n")
    return base


class TestUnclassifiablePolicy:
    def test_exclude_policy_skips_and_tallies(self, capsys, tmp_path):
        rec = record("20.1.0.1", "30.1.0.1", ["20.1.0.5", "40.1.0.5", "30.1.0.5"])
        doc = analyze(capsys, tmp_path, [rec], world=write_antipodal_world(tmp_path / "world"))
        assert doc["totals"] == {"paths_classified": 0, "records_skipped": 1}
        assert doc["skip_log"] == {"unclassifiable_pair": 1}
        assert doc["notes"] == {}

    def test_count_non_normal_policy_classifies(self, capsys, tmp_path):
        rec = record("20.1.0.1", "30.1.0.1", ["20.1.0.5", "40.1.0.5", "30.1.0.5"])
        doc = analyze(capsys, tmp_path, [rec], "--unclassifiable-policy", "count_non_normal",
                      world=write_antipodal_world(tmp_path / "world"))
        assert doc["totals"] == {"paths_classified": 1, "records_skipped": 0}
        assert doc["global_don"]["physical"] == 0.0
        assert doc["benefactors"]["physical"] == [{"iso2": "PZ", "paths_benefited": 1}]
        assert doc["skip_log"] == {}
        assert doc["notes"] == {"unclassifiable_pair_counted_non_normal": 1}
