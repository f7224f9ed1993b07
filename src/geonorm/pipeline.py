"""Traceroute records to compressed (country, ASN) tuple paths and verdicts.

Hops whose physical country or origin AS is unknown are dropped and counted,
which makes every verdict a lower bound on the countries a path exposes
traffic to. Consecutive duplicate (country, ASN) tuples compress to one.

A path's verdicts and every report counter it moves depend only on its
PathSignature, so analyze classifies each distinct signature once, and
classify_path_with is that classifier applied to one path.
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


def _check_ip(ip, where: str, source: str, line_no: int) -> str:
    try:
        parse_ip(ip)
    except (TypeError, ValueError):
        raise ParseError(source, line_no, f"{where}: bad ip {ip!r}") from None
    return ip


def parse_traceroute_line(line: str, source: str = "<line>", line_no: int = 1) -> TracerouteRecord:
    """One JSON object per line: src_ip, dst_ip, timestamp, hops [{ttl, ip|null}].

    Every address must parse as IPv4 or IPv6, ttl must be an integer and
    timestamp a finite number, neither a boolean nor a string; anything else
    is a ParseError naming the line. The timestamp is checked but not kept,
    since no result depends on it.
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
    src_ip = _check_ip(doc["src_ip"], "src_ip", source, line_no)
    dst_ip = _check_ip(doc["dst_ip"], "dst_ip", source, line_no)
    if not isinstance(doc["hops"], list):
        raise ParseError(source, line_no, "hops must be a list")
    hops = []
    last_ttl = None
    for i, h in enumerate(doc["hops"]):
        if not isinstance(h, dict) or "ttl" not in h:
            raise ParseError(source, line_no, f"hop {i}: expected an object with a ttl")
        ttl = h["ttl"]
        if not isinstance(ttl, int) or isinstance(ttl, bool):
            raise ParseError(source, line_no, f"hop {i}: non-integer ttl {ttl!r}")
        if last_ttl is not None and ttl <= last_ttl:
            raise ParseError(source, line_no, f"hop {i}: ttl {ttl} not strictly increasing")
        last_ttl = ttl
        ip = h.get("ip")
        if ip is not None:
            if not isinstance(ip, str):
                raise ParseError(source, line_no, f"hop {i}: ip must be a string or null")
            _check_ip(ip, f"hop {i}", source, line_no)
        hops.append(Hop(ttl, ip))
    raw = doc["timestamp"]
    if type(raw) not in (int, float):
        raise ParseError(source, line_no, f"non-numeric timestamp {raw!r}")
    if not abs(raw) <= sys.float_info.max:  # NaN, infinities and integers no float holds
        raise ParseError(source, line_no, f"non-finite timestamp {raw!r}")
    return TracerouteRecord(src_ip, dst_ip, tuple(hops))


def read_traceroutes(path, start: int = 0, end: int | None = None) -> Iterator[TracerouteRecord]:
    """Records of the NDJSON lines of path that begin in bytes [start, end).

    Lines end at b"\\n" only, so a lone carriage return is JSON whitespace;
    each line must be UTF-8, blank lines are skipped, and line numbers count
    from the start of the file whatever start is.
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
                yield parse_traceroute_line(line, source=source, line_no=line_no)
            line_no += 1


def shard_ranges(path, n: int) -> list[tuple[int, int]]:
    """Cut path into at most n non-empty byte ranges that each begin a line.

    Cuts fall at even fractions of the file size, moved forward to the next
    line start, so read_traceroutes over every range yields each record once.
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
