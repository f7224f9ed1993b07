"""IP-to-country and IP-to-origin-AS resolution via longest-prefix match.

Addresses are handled as (version, int) pairs: each one is parsed once and
every table probe works on the integer. Tables are immutable after load.
Addresses in the running Python's ipaddress special-purpose registry (the
ranges behind is_private, is_loopback, is_link_local, is_multicast,
is_reserved and is_unspecified) never resolve, whatever the tables say:
router interfaces in those ranges carry no geographic meaning.

Input formats (UTF-8, header row required):
  geo table    csv: cidr,iso2
  origin table csv: cidr,asn
  AS registry  csv: asn,iso2
"""

from __future__ import annotations

import functools
import ipaddress
from dataclasses import dataclass
from typing import Mapping, NamedTuple

from .errors import ConflictError, ParseError
from .world import _check_iso2, _read_csv

_MAXLEN = {4: 32, 6: 128}


@functools.cache
def _inet_pton():
    # imported on first parse, not at import, to keep socket out of the
    # command line's start-up time
    import socket

    return socket.inet_pton, socket.AF_INET, socket.AF_INET6


def parse_ip(text: str) -> tuple[int, int]:
    """(version, integer value) of an IPv4 or IPv6 address string.

    Accepts and rejects exactly what ipaddress.ip_address does, with its
    ValueError: socket.inet_pton reads the common spellings, and whatever it
    refuses (scope ids such as fe80::1%eth0, malformed text) goes through
    ipaddress. No IPv4 spelling contains a colon and no IPv6 one lacks it.
    """
    inet_pton, af_inet, af_inet6 = _inet_pton()
    try:
        if ":" in text:
            return 6, int.from_bytes(inet_pton(af_inet6, text), "big")
        return 4, int.from_bytes(inet_pton(af_inet, text), "big")
    except (OSError, ValueError):
        pass
    addr = ipaddress.ip_address(text)
    return addr.version, int(addr)


def _address(ip) -> tuple[int, int]:
    """(version, int) of an address string or ipaddress object."""
    if isinstance(ip, str):
        return parse_ip(ip)
    return ip.version, int(ip)


class PrefixTable:
    """Longest-prefix-match lookup from CIDR prefixes to opaque values.

    IPv4 and IPv6 prefixes coexist; a lookup only consults its own family.
    Lookup cost is one dict probe per populated prefix length.
    """

    def __init__(self):
        # version -> prefix length -> {network int >> host bits: value}
        self._buckets: dict[int, dict[int, dict[int, object]]] = {4: {}, 6: {}}
        # version -> (host bits, bucket) pairs, longest prefix first
        self._probes: dict[int, tuple[tuple[int, dict[int, object]], ...]] = {4: (), 6: ()}
        self._count = 0

    @classmethod
    def from_rows(cls, rows, on_conflict: str = "error") -> "PrefixTable":
        """Build from (cidr, value) pairs.

        on_conflict: 'error' raises ConflictError when one prefix maps to two
        values; 'first_wins' keeps the earliest row (multi-origin tolerance).
        """
        table = cls()
        for cidr, value in rows:
            net = ipaddress.ip_network(str(cidr))  # strict: host bits set is a data bug
            table._insert(net, value, on_conflict)
        return table

    def _insert(self, net, value, on_conflict):
        buckets = self._buckets[net.version]
        host_bits = net.max_prefixlen - net.prefixlen
        bucket = buckets.get(net.prefixlen)
        if bucket is None:
            bucket = buckets[net.prefixlen] = {}
            self._probes[net.version] = tuple(
                (net.max_prefixlen - plen, buckets[plen]) for plen in sorted(buckets, reverse=True)
            )
        key = int(net.network_address) >> host_bits
        if key in bucket:
            if bucket[key] != value:
                if on_conflict == "first_wins":
                    return
                raise ConflictError(f"prefix {net} maps to both {bucket[key]!r} and {value!r}")
            return
        bucket[key] = value
        self._count += 1

    def probe(self, version: int, value: int):
        """Value of the longest prefix containing the address (version, value), or None."""
        for host_bits, bucket in self._probes[version]:
            found = bucket.get(value >> host_bits)
            if found is not None:
                return found
        return None

    def lookup(self, ip):
        """Value of the longest prefix containing ip (a string or ipaddress object), or None."""
        return self.probe(*_address(ip))

    def __len__(self):
        return self._count


@functools.cache
def _special_ranges():
    """(PrefixTable of special ranges, version -> first-octet gate).

    The ranges come from the running Python's ipaddress registry, so they
    follow its version. The table maps each range to True; a range that
    is_private lists as an exception maps to False unless a non-private
    special range also covers it. The gate holds one byte per leading octet,
    set when some range overlaps that octet, so most public addresses skip
    the probe. Built on first use to keep import time low.
    """
    v4, v6 = ipaddress.IPv4Address._constants, ipaddress.IPv6Address._constants
    private = [*v4._private_networks, *v6._private_networks]
    other = [
        v4._loopback_network, v4._linklocal_network, v4._multicast_network, v4._reserved_network,
        ipaddress.ip_network(v4._unspecified_address),
        *v6._reserved_networks, v6._linklocal_network, v6._multicast_network,
        # IPv6 is_loopback and is_unspecified test for ::1 and :: directly
        ipaddress.ip_network(ipaddress.IPv6Address(1)), ipaddress.ip_network(ipaddress.IPv6Address(0)),
    ]
    exceptions = [*getattr(v4, "_private_networks_exceptions", ()), *getattr(v6, "_private_networks_exceptions", ())]
    table = PrefixTable()
    gates = {4: bytearray(256), 6: bytearray(256)}
    for net in private + other:
        table._insert(net, True, "error")
        shift = net.max_prefixlen - 8
        first, last = int(net.network_address) >> shift, int(net.broadcast_address) >> shift
        gates[net.version][first:last + 1] = b"\1" * (last - first + 1)
    for net in exceptions:
        if not any(net.version == o.version and net.subnet_of(o) for o in other):
            table._insert(net, False, "error")
    return table, {version: bytes(gate) for version, gate in gates.items()}


def is_special(version: int, value: int) -> bool:
    """True when the address (version, value) is in a special-purpose range."""
    table, gates = _special_ranges()
    if not gates[version][value >> (_MAXLEN[version] - 8)]:
        return False
    return table.probe(version, value) is True


@dataclass(frozen=True)
class ASRegistry:
    """AS number -> iso2 of legal registration."""

    mapping: Mapping[int, str]

    def legal_country(self, asn):
        return self.mapping.get(asn)


class HopResolution(NamedTuple):
    ip: str
    phys_country: str | None
    asn: int | None
    legal_country: str | None


def resolve_hop(geo: PrefixTable, origin: PrefixTable, registry: ASRegistry, ip) -> HopResolution:
    """Resolve one hop address; unknowns are values, never guessed.

    ip is a string (kept as given in the result) or an ipaddress object.
    """
    version, value = _address(ip)
    text = ip if isinstance(ip, str) else str(ip)
    if is_special(version, value):
        return HopResolution(text, None, None, None)
    asn = origin.probe(version, value)
    legal = registry.legal_country(asn) if asn is not None else None
    return HopResolution(text, geo.probe(version, value), asn, legal)


def _parse_cidr(text, path, line_no):
    try:
        return ipaddress.ip_network(text)
    except ValueError as e:
        raise ParseError(str(path), line_no, f"bad prefix {text!r}: {e}") from None


def _parse_asn(text, path, line_no):
    try:
        asn = int(text)
    except ValueError:
        raise ParseError(str(path), line_no, f"non-integer asn {text!r}") from None
    if asn <= 0:
        raise ParseError(str(path), line_no, f"asn must be positive, got {asn}")
    return asn


def load_geo_table(path) -> PrefixTable:
    table = PrefixTable()
    for line_no, (cidr, iso2) in _read_csv(path, ("cidr", "iso2")):
        net = _parse_cidr(cidr, path, line_no)
        table._insert(net, _check_iso2(iso2, path, line_no), "error")
    return table


def load_origin_table(path, on_conflict: str = "error") -> PrefixTable:
    table = PrefixTable()
    for line_no, (cidr, asn) in _read_csv(path, ("cidr", "asn")):
        net = _parse_cidr(cidr, path, line_no)
        table._insert(net, _parse_asn(asn, path, line_no), on_conflict)
    return table


def load_as_registry(path) -> ASRegistry:
    mapping: dict[int, str] = {}
    for line_no, (asn, iso2) in _read_csv(path, ("asn", "iso2")):
        asn_i = _parse_asn(asn, path, line_no)
        iso2 = _check_iso2(iso2, path, line_no)
        if asn_i in mapping and mapping[asn_i] != iso2:
            raise ConflictError(f"{path}: AS{asn_i} registered to both {mapping[asn_i]} and {iso2}")
        mapping[asn_i] = iso2
    return ASRegistry(mapping=mapping)


@dataclass(frozen=True)
class Enrichment:
    """The three lookup tables a pipeline run needs, bundled.

    dated_origins optionally supplies per-day origin snapshots as
    (start_ts, end_ts, table) triples with end exclusive; records falling in
    a range resolve against that snapshot, everything else against origin.
    """

    geo: PrefixTable
    origin: PrefixTable
    registry: ASRegistry
    dated_origins: tuple[tuple[float, float, PrefixTable], ...] = ()

    def origin_for(self, timestamp) -> PrefixTable:
        for start, end, table in self.dated_origins:
            if start <= timestamp < end:
                return table
        return self.origin

    def resolve(self, ip, timestamp=None) -> HopResolution:
        origin = self.origin_for(timestamp) if self.dated_origins and timestamp is not None else self.origin
        return resolve_hop(self.geo, origin, self.registry, ip)
