"""Traceroute records to path signatures and verdicts.

analyze reads each NDJSON line straight into its PathSignature with
path_signature: the line is decoded and checked, each endpoint is parsed
once and looked up, each responsive hop is resolved through the
per-process memo, which parses only addresses it has not seen, and the
signature's country and AS sets are built as the hops go by, with no
per-hop objects. Hops whose physical country or origin AS is unknown are
dropped, which makes every verdict a lower bound on the countries a path
exposes traffic to. Consecutive duplicate (country, ASN) tuples compress to
one.

A path's verdicts and every report counter it moves depend only on its
PathSignature, so analyze classifies each distinct signature once.
parse_traceroute_line, to_tuple_path and classify_path_with give the same
result one step at a time, through the same checks, for classify-one and
for callers that want the hops themselves.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from .enrichment import Enrichment, HopResolution, parse_ip
from .errors import ParseError, utf8_error
from .normality import NormalSet, PathVerdict, classify
from .world import _open_binary

SKIP_REASONS = ("unresolved_source", "unresolved_destination", "empty_path", "unclassifiable_pair")


class Hop(NamedTuple):
    ttl: int
    ip: str | None  # None when the router never answered


class TracerouteRecord(NamedTuple):
    src_ip: str
    dst_ip: str
    hops: tuple[Hop, ...]


@dataclass(frozen=True)
class Skip:
    """A record the pipeline set aside instead of classifying."""

    reason: str

    def __post_init__(self):
        if self.reason not in SKIP_REASONS:
            raise ValueError(f"unknown skip reason {self.reason!r}")


class TuplePath(NamedTuple):
    src_country: str
    dst_country: str
    hops: tuple[HopResolution, ...]  # each with a known phys_country and asn
    dropped_hops: int


class PathSignature(NamedTuple):
    """Everything classification and accumulation read from one tuple path."""

    src_country: str
    dst_country: str
    physical: frozenset[str]
    legal: frozenset[str]  # hops whose registration country is known
    tuple_len: int
    as_count: int


@dataclass(frozen=True)
class PathClassification:
    physical: PathVerdict
    legal: PathVerdict
    union: PathVerdict
    union_added_countries: int
    tuple_len: int
    as_count: int


def _bad_ip(where: str, ip, source: str, line_no: int) -> ParseError:
    return ParseError(source, line_no, f"{where}: bad ip {ip!r}")


def _fields(line: str, source: str, line_no: int):
    """(object, src_ip, dst_ip) of one record line, each endpoint as parse_ip's (version, value).

    Checks, in order: the JSON, the four fields, src_ip, dst_ip, then that
    hops is a list; the hops and the timestamp are checked by _hops and
    _check_timestamp.
    """
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as e:
        raise ParseError(source, line_no, f"invalid JSON at column {e.colno}: {e.msg}") from None
    except (ValueError, RecursionError) as e:  # an over-long integer, or nesting too deep
        raise ParseError(source, line_no, f"invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ParseError(source, line_no, "expected a JSON object")
    for key in ("src_ip", "dst_ip", "timestamp", "hops"):
        if key not in doc:
            raise ParseError(source, line_no, f"missing field {key!r}")
    endpoints = []
    for key in ("src_ip", "dst_ip"):
        try:
            endpoints.append(parse_ip(doc[key]))
        except (TypeError, ValueError):
            raise _bad_ip(key, doc[key], source, line_no) from None
    if not isinstance(doc["hops"], list):
        raise ParseError(source, line_no, "hops must be a list")
    return doc, *endpoints


def _hops(hops: list, check, source: str, line_no: int):
    """(ttl, ip, check(ip)) of each hop in order; ip and check's value are None for a silent hop.

    check runs on each responsive hop's address right after that hop's own
    checks, and its ValueError is that hop's bad ip.
    """
    last_ttl = None
    for i, h in enumerate(hops):
        # JSON decodes to exact types, and a bool is not an int
        if type(h) is not dict or "ttl" not in h:
            raise ParseError(source, line_no, f"hop {i}: expected an object with a ttl")
        ttl = h["ttl"]
        if type(ttl) is not int:
            raise ParseError(source, line_no, f"hop {i}: non-integer ttl {ttl!r}")
        if last_ttl is not None and ttl <= last_ttl:
            raise ParseError(source, line_no, f"hop {i}: ttl {ttl} not strictly increasing")
        last_ttl = ttl
        ip = h.get("ip")
        if ip is None:
            yield ttl, None, None
            continue
        if type(ip) is not str:
            raise ParseError(source, line_no, f"hop {i}: ip must be a string or null")
        try:
            value = check(ip)
        except ValueError:
            raise _bad_ip(f"hop {i}", ip, source, line_no) from None
        yield ttl, ip, value


def _check_timestamp(raw, source: str, line_no: int):
    if type(raw) not in (int, float):
        raise ParseError(source, line_no, f"non-numeric timestamp {raw!r}")
    if not abs(raw) <= sys.float_info.max:  # NaN, infinities and integers no float holds
        raise ParseError(source, line_no, f"non-finite timestamp {raw!r}")


def parse_traceroute_line(line: str, source: str = "<line>", line_no: int = 1) -> TracerouteRecord:
    """One JSON object per line: src_ip, dst_ip, timestamp, hops [{ttl, ip|null}].

    Every address must parse as IPv4 or IPv6, ttl must be an integer and
    timestamp a finite number, neither a boolean nor a string; anything else
    is a ParseError naming the line. The timestamp is checked but not kept,
    since no result depends on it.
    """
    doc, _, _ = _fields(line, source, line_no)
    hops = tuple(Hop(ttl, ip) for ttl, ip, _ in _hops(doc["hops"], parse_ip, source, line_no))
    _check_timestamp(doc["timestamp"], source, line_no)
    return TracerouteRecord(doc["src_ip"], doc["dst_ip"], hops)


def path_signature(line: str, enrichment: Enrichment, source: str = "<line>", line_no: int = 1) -> PathSignature | str:
    """The PathSignature of one record line, or the reason it is skipped.

    Equal to signature(to_tuple_path(parse_traceroute_line(line), enrichment))
    and raises the same ParseError, but in one pass: each endpoint is parsed
    once and probed as (version, value), each responsive hop goes straight
    to enrichment.resolve, whose memo parses only addresses it has not seen,
    and the signature's sets are built as the hops are read. Every check
    runs before a skip is decided, so a bad line is an error even when its
    source is unresolvable or it has no hops.
    """
    doc, src, dst = _fields(line, source, line_no)
    physical, legal, ases = set(), set(), set()
    tuple_len = 0
    last_country = last_asn = None
    for _, _, res in _hops(doc["hops"], enrichment.resolve, source, line_no):
        if res is None:
            continue
        country, asn, legal_country = res
        if country is None or asn is None:
            continue
        if asn != last_asn or country != last_country:  # a run of one (country, ASN) is one tuple
            tuple_len += 1
            physical.add(country)
            ases.add(asn)
            if legal_country is not None:
                legal.add(legal_country)
            last_country, last_asn = country, asn
    _check_timestamp(doc["timestamp"], source, line_no)
    if not doc["hops"]:
        return "empty_path"
    probe = enrichment.geo.probe
    src_country = probe(*src)
    if src_country is None:
        return "unresolved_source"
    dst_country = probe(*dst)
    if dst_country is None:
        return "unresolved_destination"
    return PathSignature(src_country, dst_country, frozenset(physical), frozenset(legal), tuple_len, len(ases))


def read_lines(path, start: int = 0, end: int | None = None) -> Iterator[tuple[int, str]]:
    """(line number, text) of each non-blank NDJSON line of path that begins in bytes [start, end).

    Lines end at b"\\n" only, so a lone carriage return is JSON whitespace;
    each line must be UTF-8 and is stripped of surrounding whitespace, and
    line numbers count from the start of the file whatever start is.
    """
    source = str(path)
    with _open_binary(path) as fh:
        line_no, pos = 1, 0
        if start > 0:
            last = b"\n"
            while pos < start:
                chunk = fh.read(min(start - pos, 1 << 20))
                if not chunk:
                    break
                line_no += chunk.count(b"\n")
                pos += len(chunk)
                last = chunk[-1:]
            if last != b"\n":  # the line holding start began before it
                pos += len(fh.readline())
                line_no += 1
        for raw in fh:
            if end is not None and pos >= end:
                break
            pos += len(raw)
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                raise utf8_error(source, raw, line_no) from None
            if line:
                yield line_no, line
            line_no += 1


def read_traceroutes(path, start: int = 0, end: int | None = None) -> Iterator[TracerouteRecord]:
    """parse_traceroute_line of each line read_lines yields."""
    source = str(path)
    for line_no, line in read_lines(path, start, end):
        yield parse_traceroute_line(line, source=source, line_no=line_no)


def shard_ranges(path, n: int) -> list[tuple[int, int]]:
    """Cut path into at most n non-empty byte ranges that each begin a line.

    Cuts fall at even fractions of the file size, moved forward to the next
    line start, so read_lines over every range yields each line once.
    """
    with _open_binary(path) as fh:
        size = os.fstat(fh.fileno()).st_size
        bounds = [0]
        for i in range(1, n):
            cut = size * i // n
            if cut <= bounds[-1]:
                continue
            fh.seek(cut - 1)
            fh.readline()
            if fh.tell() < size:
                bounds.append(fh.tell())
        bounds.append(size)
    return [(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]


def to_tuple_path(rec: TracerouteRecord, enrichment: Enrichment) -> TuplePath | Skip:
    """Resolve, drop, and compress one traceroute.

    dropped_hops counts responsive hops that lacked a known country or AS;
    unresponsive hops are simply absent. Endpoint countries come from the
    geolocation of src_ip and dst_ip, never from first or last hop. A run of
    hops with the same (country, ASN) keeps its first hop.
    """
    if not rec.hops:
        return Skip("empty_path")
    src_country = enrichment.geo.lookup(rec.src_ip)
    if src_country is None:
        return Skip("unresolved_source")
    dst_country = enrichment.geo.lookup(rec.dst_ip)
    if dst_country is None:
        return Skip("unresolved_destination")

    resolve = enrichment.resolve
    hops: list[HopResolution] = []
    dropped = 0
    last_country = last_asn = None
    for _, ip in rec.hops:
        if ip is None:
            continue
        res = resolve(ip)
        country, asn, _ = res
        if country is None or asn is None:
            dropped += 1
        elif asn != last_asn or country != last_country:
            hops.append(res)
            last_country, last_asn = country, asn
    return TuplePath(src_country, dst_country, tuple(hops), dropped)


def signature(tp: TuplePath) -> PathSignature:
    hops = tp.hops
    return PathSignature(
        tp.src_country,
        tp.dst_country,
        frozenset([h.phys_country for h in hops]),
        frozenset([h.legal_country for h in hops if h.legal_country is not None]),
        len(hops),
        len({h.asn for h in hops}),
    )


def classify_signature(sig: PathSignature, ns: NormalSet) -> PathClassification:
    """Physical, legal, and union verdicts for a path signature against its pair's normal set.

    All three use the same normal set and the physical endpoints; the legal
    set holds only hops whose registration country is known.
    """
    phys, legal = sig.physical, sig.legal
    return PathClassification(
        classify(ns, phys),
        classify(ns, legal),
        classify(ns, phys | legal),
        len(legal - phys - {sig.src_country, sig.dst_country}),
        sig.tuple_len,
        sig.as_count,
    )


def classify_path_with(tp: TuplePath, ns: NormalSet) -> PathClassification:
    """classify_signature of one tuple path."""
    return classify_signature(signature(tp), ns)


@dataclass
class SkipLog:
    """Counts of records set aside, by reason, plus informational notes."""

    counts: Counter = field(default_factory=Counter)
    notes: Counter = field(default_factory=Counter)

    def add(self, reason: str, n: int = 1):
        self.counts[reason] += n

    def note(self, key: str, n: int = 1):
        self.notes[key] += n

    def merge(self, other: "SkipLog") -> "SkipLog":
        self.counts.update(other.counts)
        self.notes.update(other.notes)
        return self
