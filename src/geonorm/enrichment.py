"""IP-to-country and IP-to-origin-AS resolution via longest-prefix match.

Addresses are handled as (version, int) pairs: each one is parsed once and
every table probe works on the integer. A record's endpoints are parsed
while the record is checked and looked up with PrefixTable.probe; a hop
address is parsed by Enrichment.resolve, and only when its memo does not
hold the address. Tables are immutable after load.
Addresses in SPECIAL_RANGES, a frozen special-purpose table, never resolve,
whatever the tables say: router interfaces in those ranges carry no
geographic meaning.

Table rows load as (version, prefix length, network int) through parse_cidr,
which builds no ipaddress object for the common addr/len spelling. Router
addresses recur across paths, so Enrichment.resolve memoises address text ->
HopResolution per process, up to RESOLVE_CAP entries.

Input formats (UTF-8, header row required):
  geo table    csv: cidr,iso2
  origin table csv: cidr,asn
  AS registry  csv: asn,iso2
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

from _socket import AF_INET, AF_INET6, inet_pton  # socket's own, at a seventh of its import time

from .errors import ConflictError, ParseError
from .world import _check_iso2, _read_csv

_MAXLEN = {4: 32, 6: 128}

# Addresses Enrichment.resolve remembers before it clears its memo and starts over
RESOLVE_CAP = 4096


def parse_ip(text: str) -> tuple[int, int]:
    """(version, integer value) of an IPv4 or IPv6 address string.

    Accepts and rejects exactly what ipaddress.ip_address does, with its
    ValueError: socket.inet_pton reads the common spellings, and whatever it
    refuses (scope ids such as fe80::1%eth0, malformed text) goes through
    ipaddress. No IPv4 spelling contains a colon and no IPv6 one lacks it.
    """
    try:
        if ":" in text:
            return 6, int.from_bytes(inet_pton(AF_INET6, text), "big")
        return 4, int.from_bytes(inet_pton(AF_INET, text), "big")
    except (OSError, ValueError):
        pass
    addr = ipaddress.ip_address(text)
    return addr.version, int(addr)


def parse_cidr(text: str) -> tuple[int, int, int]:
    """(version, prefix length, network int) of a CIDR string.

    Accepts and rejects exactly what strict ipaddress.ip_network does, with
    its ValueError: addr/len with one to three ASCII digits and no host bits
    set is read by parse_ip, and every other form goes through ipaddress
    (a longer length may pass int()'s digit limit, which ip_network words
    its own way).
    """
    addr, _, plen = text.partition("/")
    if plen.isdigit() and plen.isascii() and len(plen) <= 3:
        try:
            version, value = parse_ip(addr)
        except ValueError:
            pass
        else:
            host_bits = _MAXLEN[version] - int(plen)
            if host_bits >= 0 and not value & ((1 << host_bits) - 1):
                return version, int(plen), value
    net = ipaddress.ip_network(text)
    return net.version, net.prefixlen, int(net.network_address)


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

    def _insert(self, version, prefixlen, network, value, on_conflict, cidr):
        """Map the prefix network/prefixlen to value; cidr names it in a ConflictError.

        on_conflict: 'error' raises ConflictError when the prefix already maps
        to another value; 'first_wins' keeps the earlier one (multi-origin tolerance).
        """
        buckets = self._buckets[version]
        host_bits = _MAXLEN[version] - prefixlen
        bucket = buckets.get(prefixlen)
        if bucket is None:
            bucket = buckets[prefixlen] = {}
            self._probes[version] = tuple((_MAXLEN[version] - plen, buckets[plen]) for plen in sorted(buckets, reverse=True))
        key = network >> host_bits
        if key in bucket:
            if bucket[key] != value:
                if on_conflict == "first_wins":
                    return
                raise ConflictError(f"prefix {ipaddress.ip_network(str(cidr))} maps to both {bucket[key]!r} and {value!r}")
            return
        bucket[key] = value

    def probe(self, version: int, value: int):
        """Value of the longest prefix containing the address (version, value), or None."""
        for host_bits, bucket in self._probes[version]:
            found = bucket.get(value >> host_bits)
            if found is not None:
                return found
        return None

    def lookup(self, ip: str):
        """Value of the longest prefix containing the address string ip, or None."""
        return self.probe(*parse_ip(ip))


# Special-purpose ranges (RFC 6890 and the IANA special-purpose address
# registries): the 26 CIDRs ipaddress.collapse_addresses makes of the 42
# networks behind Python 3.11.7's is_private, is_loopback, is_link_local,
# is_multicast, is_reserved and is_unspecified. Frozen, because CPython
# changed is_private in 3.12.4 and 3.13 (gh-113171) and reports must not
# depend on the interpreter. tests/test_enrichment.py pins the table's digest.
SPECIAL_RANGES = (
    "0.0.0.0/8", "10.0.0.0/8", "127.0.0.0/8", "169.254.0.0/16", "172.16.0.0/12",
    "192.0.0.0/29", "192.0.0.170/31", "192.0.2.0/24", "192.168.0.0/16", "198.18.0.0/15",
    "198.51.100.0/24", "203.0.113.0/24", "224.0.0.0/3",
    "::/3", "2001::/23", "2001:db8::/32", "4000::/2", "8000::/2", "c000::/3", "e000::/4",
    "f000::/5", "f800::/6", "fc00::/7", "fe00::/9", "fe80::/10", "ff00::/8",
)


def _special_table():
    """(PrefixTable of SPECIAL_RANGES, version -> first-octet gate).

    The gate holds one byte per leading octet, set when some range overlaps
    that octet, so most public addresses skip the probe.
    """
    table = PrefixTable()
    gates = {4: bytearray(256), 6: bytearray(256)}
    for cidr in SPECIAL_RANGES:
        version, prefixlen, network = parse_cidr(cidr)
        table._insert(version, prefixlen, network, True, "error", cidr)
        shift, host_bits = _MAXLEN[version] - 8, _MAXLEN[version] - prefixlen
        first, last = network >> shift, (network | ((1 << host_bits) - 1)) >> shift
        gates[version][first:last + 1] = b"\1" * (last - first + 1)
    return table, {version: bytes(gate) for version, gate in gates.items()}


_SPECIAL, _GATES = _special_table()


def is_special(version: int, value: int) -> bool:
    """True when the address (version, value) is in SPECIAL_RANGES."""
    if not _GATES[version][value >> (_MAXLEN[version] - 8)]:
        return False
    return _SPECIAL.probe(version, value) is not None


class HopResolution(NamedTuple):
    phys_country: str | None
    asn: int | None
    legal_country: str | None


def resolve_hop(geo: PrefixTable, origin: PrefixTable, registry: Mapping[int, str], ip: str) -> HopResolution:
    """Resolve one hop address string; unknowns are values, never guessed."""
    version, value = parse_ip(ip)
    if is_special(version, value):
        return HopResolution(None, None, None)
    asn = origin.probe(version, value)
    return HopResolution(geo.probe(version, value), asn, registry.get(asn))


def _parse_cidr(text, path, line_no):
    try:
        return parse_cidr(text)
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
        table._insert(*_parse_cidr(cidr, path, line_no), _check_iso2(iso2, path, line_no), "error", cidr)
    return table


def load_origin_table(path, on_conflict: str = "error") -> PrefixTable:
    table = PrefixTable()
    for line_no, (cidr, asn) in _read_csv(path, ("cidr", "asn")):
        table._insert(*_parse_cidr(cidr, path, line_no), _parse_asn(asn, path, line_no), on_conflict, cidr)
    return table


def load_as_registry(path) -> dict[int, str]:
    """AS number -> iso2 of legal registration."""
    mapping: dict[int, str] = {}
    for line_no, (asn, iso2) in _read_csv(path, ("asn", "iso2")):
        asn_i = _parse_asn(asn, path, line_no)
        iso2 = _check_iso2(iso2, path, line_no)
        if asn_i in mapping and mapping[asn_i] != iso2:
            raise ConflictError(f"{path}: AS{asn_i} registered to both {mapping[asn_i]} and {iso2}")
        mapping[asn_i] = iso2
    return mapping


@dataclass(frozen=True)
class Enrichment:
    """The three lookup tables a pipeline run needs, with a per-process resolution memo."""

    geo: PrefixTable
    origin: PrefixTable
    registry: Mapping[int, str]
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def resolve(self, ip: str, timestamp=None) -> HopResolution:
        """resolve_hop over the bundled tables, memoised; timestamp is accepted and ignored."""
        res = self._memo.get(ip)
        if res is None:
            if len(self._memo) >= RESOLVE_CAP:
                self._memo.clear()
            res = self._memo[ip] = resolve_hop(self.geo, self.origin, self.registry, ip)
        return res
