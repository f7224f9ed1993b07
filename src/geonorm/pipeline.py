"""Traceroute records to compressed (country, ASN) tuple paths and verdicts.

Hops whose physical country or origin AS is unknown are dropped and counted,
which makes every verdict a lower bound on the countries a path exposes
traffic to. Consecutive duplicate (country, ASN) tuples compress to one.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from itertools import groupby
from typing import Iterator

from .enrichment import Enrichment, parse_ip
from .errors import ParseError, utf8_error
from .normality import NormalSet, PathVerdict, classify

SKIP_REASONS = ("unresolved_source", "unresolved_destination", "empty_path", "unclassifiable_pair")


@dataclass(frozen=True)
class Hop:
    ttl: int
    ip: str | None  # None when the router never answered


@dataclass(frozen=True)
class TracerouteRecord:
    src_ip: str
    dst_ip: str
    timestamp: float
    hops: tuple[Hop, ...]


@dataclass(frozen=True)
class Skip:
    """A record the pipeline set aside instead of classifying."""

    reason: str

    def __post_init__(self):
        if self.reason not in SKIP_REASONS:
            raise ValueError(f"unknown skip reason {self.reason!r}")


@dataclass(frozen=True)
class TupleHop:
    phys_country: str
    asn: int
    legal_country: str | None


@dataclass(frozen=True)
class TuplePath:
    src_country: str
    dst_country: str
    hops: tuple[TupleHop, ...]
    dropped_hops: int


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

    Every address must parse as IPv4 or IPv6, and ttl and timestamp must be
    numbers, not booleans; anything else is a ParseError naming the line.
    """
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as e:
        raise ParseError(source, line_no, f"invalid JSON at column {e.colno}: {e.msg}") from None
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
        hops.append(Hop(ttl=ttl, ip=ip))
    if isinstance(doc["timestamp"], bool):
        raise ParseError(source, line_no, f"non-numeric timestamp {doc['timestamp']!r}")
    try:
        timestamp = float(doc["timestamp"])
    except (TypeError, ValueError):
        raise ParseError(source, line_no, f"non-numeric timestamp {doc['timestamp']!r}") from None
    return TracerouteRecord(src_ip=src_ip, dst_ip=dst_ip, timestamp=timestamp, hops=tuple(hops))


def _open_binary(path):
    try:
        return open(path, "rb")
    except OSError as e:
        raise ParseError(str(path), 0, f"cannot open: {e.strerror}") from e


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
    geolocation of src_ip and dst_ip, never from first or last hop.
    """
    if not rec.hops:
        return Skip("empty_path")
    src_country = enrichment.geo.lookup(rec.src_ip)
    if src_country is None:
        return Skip("unresolved_source")
    dst_country = enrichment.geo.lookup(rec.dst_ip)
    if dst_country is None:
        return Skip("unresolved_destination")

    resolved: list[TupleHop] = []
    dropped = 0
    for hop in rec.hops:
        if hop.ip is None:
            continue
        res = enrichment.resolve(hop.ip, rec.timestamp)
        if res.phys_country is None or res.asn is None:
            dropped += 1
            continue
        resolved.append(TupleHop(phys_country=res.phys_country, asn=res.asn, legal_country=res.legal_country))

    compressed = tuple(next(group) for _, group in groupby(resolved, key=lambda h: (h.phys_country, h.asn)))
    return TuplePath(src_country=src_country, dst_country=dst_country, hops=compressed, dropped_hops=dropped)


def classify_path_with(tp: TuplePath, ns: NormalSet) -> PathClassification:
    """Physical, legal, and union verdicts for one tuple path against its pair's normal set.

    All three use the same normal set and the physical endpoints; the legal
    set holds only hops whose registration country is known.
    """
    phys = frozenset(h.phys_country for h in tp.hops)
    legal = frozenset(h.legal_country for h in tp.hops if h.legal_country is not None)
    added = legal - phys - {tp.src_country, tp.dst_country}
    return PathClassification(
        physical=classify(ns, phys),
        legal=classify(ns, legal),
        union=classify(ns, phys | legal),
        union_added_countries=len(added),
        tuple_len=len(tp.hops),
        as_count=len({h.asn for h in tp.hops}),
    )


@dataclass
class SkipLog:
    """Counts of records set aside, by reason, plus informational notes."""

    counts: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def add(self, reason: str):
        self.counts[reason] = self.counts.get(reason, 0) + 1

    def note(self, key: str):
        self.notes[key] = self.notes.get(key, 0) + 1

    def merge(self, other: "SkipLog") -> "SkipLog":
        for mine, theirs in ((self.counts, other.counts), (self.notes, other.notes)):
            for k, v in theirs.items():
                mine[k] = mine.get(k, 0) + v
        return self

    def total(self) -> int:
        return sum(self.counts.values())
