import hashlib
import ipaddress
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from geonorm import enrichment as enrichment_mod
from geonorm.enrichment import (
    SPECIAL_RANGES,
    Enrichment,
    PrefixTable,
    _parse_cidr,
    is_special,
    load_as_registry,
    load_geo_table,
    load_origin_table,
    parse_cidr,
    parse_ip,
    resolve_hop,
)
from geonorm.errors import ConflictError, ParseError

from conftest import REPO, SMALLWORLD, SPECIAL_EDGES


def table(*rows, on_conflict="error"):
    """A PrefixTable of (cidr, value) rows, inserted as the loaders insert them."""
    t = PrefixTable()
    for cidr, value in rows:
        t._insert(*parse_cidr(cidr), value, on_conflict, cidr)
    return t


class TestLpm:
    def test_longest_match_wins(self):
        t = table(("1.2.0.0/16", "US"), ("1.2.3.0/24", "GB"))
        assert t.lookup("1.2.3.4") == "GB"
        assert t.lookup("1.2.9.9") == "US"

    def test_empty_table(self):
        assert PrefixTable().lookup("8.8.8.8") is None

    def test_miss_outside_all_prefixes(self):
        t = table(("1.2.0.0/16", "US"))
        assert t.lookup("2.0.0.1") is None

    def test_default_route(self):
        t = table(("0.0.0.0/0", "XX"), ("9.0.0.0/8", "YY"))
        assert t.lookup("9.1.1.1") == "YY"
        assert t.lookup("100.1.1.1") == "XX"

    def test_duplicate_same_value_tolerated(self):
        t = table(("1.2.0.0/16", "US"), ("1.2.0.0/16", "US"))
        assert t.lookup("1.2.3.4") == "US" and t.lookup("1.3.0.1") is None

    def test_conflicting_duplicate_raises(self):
        with pytest.raises(ConflictError, match="1.2.0.0/16"):
            table(("1.2.0.0/16", "US"), ("1.2.0.0/16", "DE"))

    def test_first_wins_mode(self):
        t = table(("1.2.0.0/16", 100), ("1.2.0.0/16", 200), on_conflict="first_wins")
        assert t.lookup("1.2.0.1") == 100

    def test_host_bits_rejected(self):
        with pytest.raises(ValueError):
            table(("1.2.3.4/16", "US"))

    def test_ipv6_supported(self):
        t = table(("2001:db8::/32", "DE"), ("2001:db8:1::/48", "FR"))
        assert t.lookup("2001:db8:1::5") == "FR"
        assert t.lookup("2001:db8:2::5") == "DE"
        assert t.lookup("2001:dead::1") is None

    def test_insertion_order_irrelevant(self):
        rows = [("1.0.0.0/8", "A"), ("1.2.0.0/16", "B"), ("1.2.3.0/24", "C"), ("9.9.0.0/16", "D")]
        probes = ["1.2.3.4", "1.2.4.4", "1.9.9.9", "9.9.1.1", "4.4.4.4"]
        rng = random.Random(5)
        baseline = None
        for _ in range(10):
            rng.shuffle(rows)
            t = table(*rows)
            answers = [t.lookup(ip) for ip in probes]
            baseline = baseline or answers
            assert answers == baseline


@st.composite
def prefix_set(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 60))
    rows = {}
    for _ in range(n):
        plen = rng.randint(4, 28)
        base = rng.getrandbits(32) & (0xFFFFFFFF << (32 - plen))
        net = f"{ipaddress.IPv4Address(base)}/{plen}"
        rows.setdefault(net, f"V{len(rows)}")
    return list(rows.items())


def brute_force_lpm(rows, ip):
    addr = ipaddress.ip_address(ip)
    best, best_len = None, -1
    for cidr, value in rows:
        net = ipaddress.ip_network(cidr)
        if addr in net and net.prefixlen > best_len:
            best, best_len = value, net.prefixlen
    return best


class TestLpmOracle:
    @given(prefix_set(), st.integers(0, 2**32 - 1))
    def test_matches_brute_force(self, rows, probe):
        t = table(*rows)
        ip = str(ipaddress.IPv4Address(probe))
        assert t.lookup(ip) == brute_force_lpm(rows, ip)

    @given(prefix_set())
    def test_hit_property(self, rows):
        # any hit must be a containing prefix with no longer containing entry
        t = table(*rows)
        rng = random.Random(42)
        for _ in range(20):
            ip = ipaddress.IPv4Address(rng.getrandbits(32))
            got = t.lookup(str(ip))
            containing = [ipaddress.ip_network(c) for c, _ in rows if ip in ipaddress.ip_network(c)]
            if got is None:
                assert not containing
            else:
                longest = max(n.prefixlen for n in containing)
                assert got == dict(rows)[str(next(n for n in containing if n.prefixlen == longest))]


GEO = table(("20.0.0.0/8", "AA"), ("30.0.0.0/8", "DE"))
ORIGIN = table(("20.1.0.0/16", 100), ("30.0.0.0/8", 300))
REGISTRY = {100: "US", 300: "BG"}


class TestResolveHop:
    def test_full_resolution(self):
        res = resolve_hop(GEO, ORIGIN, REGISTRY, "20.1.0.9")
        assert (res.phys_country, res.asn, res.legal_country) == ("AA", 100, "US")

    def test_origin_miss_propagates_unknown_legal(self):
        res = resolve_hop(GEO, ORIGIN, REGISTRY, "20.2.0.9")
        assert (res.phys_country, res.asn, res.legal_country) == ("AA", None, None)

    def test_registry_miss_keeps_asn(self):
        origin = table(("20.0.0.0/8", 999))
        res = resolve_hop(GEO, origin, REGISTRY, "20.1.2.3")
        assert (res.phys_country, res.asn, res.legal_country) == ("AA", 999, None)

    @pytest.mark.parametrize(
        "ip",
        ["10.0.0.1", "172.16.5.5", "192.168.1.1", "127.0.0.1", "169.254.9.9", "224.0.0.5", "240.1.1.1", "0.0.0.0"],
    )
    def test_special_ranges_fully_unknown(self, ip):
        # even when the tables would claim to know them
        geo = table(("0.0.0.0/0", "XX"))
        origin = table(("0.0.0.0/0", 1))
        res = resolve_hop(geo, origin, {1: "XX"}, ip)
        assert res.phys_country is None and res.asn is None and res.legal_country is None

    def test_legal_unknown_whenever_asn_unknown(self):
        res = resolve_hop(GEO, PrefixTable(), REGISTRY, "20.1.0.9")
        assert res.asn is None and res.legal_country is None


class TestLoaders:
    def test_three_row_geo_csv(self, tmp_path):
        path = tmp_path / "geo.csv"
        path.write_text("cidr,iso2\n1.0.0.0/8,US\n2.0.0.0/8,DE\n3.3.0.0/16,FR\n")
        t = load_geo_table(path)
        assert t.lookup("1.1.1.1") == "US"
        assert t.lookup("2.1.1.1") == "DE"
        assert t.lookup("3.3.1.1") == "FR"

    def test_duplicate_prefix_conflict_names_prefix(self, tmp_path):
        path = tmp_path / "geo.csv"
        path.write_text("cidr,iso2\n1.0.0.0/8,US\n1.0.0.0/8,DE\n")
        with pytest.raises(ConflictError, match="1.0.0.0/8"):
            load_geo_table(path)

    def test_origin_moas_error_vs_first_wins(self, tmp_path):
        path = tmp_path / "origin.csv"
        path.write_text("cidr,asn\n1.0.0.0/8,100\n1.0.0.0/8,200\n")
        with pytest.raises(ConflictError):
            load_origin_table(path)
        t = load_origin_table(path, on_conflict="first_wins")
        assert t.lookup("1.1.1.1") == 100

    def test_bulgarian_legal_registration_shape(self, tmp_path):
        # one /24 originated by an AS registered elsewhere
        (tmp_path / "origin.csv").write_text("cidr,asn\n5.5.5.0/24,7777\n")
        (tmp_path / "asreg.csv").write_text("asn,iso2\n7777,BG\n")
        origin = load_origin_table(tmp_path / "origin.csv")
        registry = load_as_registry(tmp_path / "asreg.csv")
        geo = table(("5.5.5.0/24", "DE"))
        res = resolve_hop(geo, origin, registry, "5.5.5.5")
        assert res.phys_country == "DE"
        assert res.legal_country == "BG"

    def test_bad_prefix_names_line(self, tmp_path):
        path = tmp_path / "geo.csv"
        path.write_text("cidr,iso2\n1.0.0.0/8,US\nnot-a-prefix,DE\n")
        with pytest.raises(ParseError) as exc:
            load_geo_table(path)
        assert exc.value.line_no == 3

    def test_nonpositive_asn_rejected(self, tmp_path):
        path = tmp_path / "reg.csv"
        path.write_text("asn,iso2\n0,US\n")
        with pytest.raises(ParseError):
            load_as_registry(path)

    def test_registry_conflict(self, tmp_path):
        path = tmp_path / "reg.csv"
        path.write_text("asn,iso2\n10,US\n10,DE\n")
        with pytest.raises(ConflictError):
            load_as_registry(path)


SPECIAL_NETWORKS = [ipaddress.ip_network(cidr) for cidr in SPECIAL_RANGES]


def reference_special(addr) -> bool:
    """Membership in SPECIAL_RANGES by ipaddress containment, which no interpreter version changes."""
    return any(addr in net for net in SPECIAL_NETWORKS)


def edges(net):
    """Addresses at first-1, first, last and last+1 of net, where they exist."""
    first, last = int(net.network_address), int(net.broadcast_address)
    make = ipaddress.IPv4Address if net.version == 4 else ipaddress.IPv6Address
    return [make(v) for v in (first - 1, first, last, last + 1) if 0 <= v < 2 ** net.max_prefixlen]


# gh-113171 changed is_private at these addresses in Python 3.12.4 and 3.13; the table keeps 3.11.7's answer
GH_113171_CASES = [
    ("2001:1::1", True), ("2001:3::1", True), ("2001:20::1", True), ("64:ff9b:1::1", True), ("192.0.0.171", True),
    ("192.0.0.9", False), ("192.0.0.10", False), ("2002::1", False), ("100.64.0.1", False),
]


@st.composite
def address_in_special_network(draw):
    net = draw(st.sampled_from(SPECIAL_NETWORKS))
    offset = draw(st.integers(0, net.num_addresses - 1))
    return net.network_address + offset


class TestSpecialRanges:
    """The one-probe special-range check against the literal table, read through ipaddress containment."""

    def test_table_digest(self):
        # any edit to the table changes which hops every report drops
        digest = hashlib.sha256("\n".join(SPECIAL_RANGES).encode()).hexdigest()
        assert digest == "f59d5b370a0782ebf0bdcb38d85b948532796cf49680f977a272b131e49aa06f"

    @given(st.integers(0, 2**32 - 1))
    def test_random_ipv4(self, value):
        assert is_special(4, value) == reference_special(ipaddress.IPv4Address(value))

    @given(st.integers(0, 2**128 - 1) | st.integers(0, 2**64 - 1) | st.integers(0, 2**32 - 1))
    def test_random_ipv6(self, value):
        assert is_special(6, value) == reference_special(ipaddress.IPv6Address(value))

    @given(address_in_special_network())
    def test_inside_every_network(self, addr):
        assert is_special(addr.version, int(addr))

    @pytest.mark.parametrize("net", SPECIAL_NETWORKS, ids=str)
    def test_network_edges(self, net):
        for addr in edges(net):
            assert is_special(addr.version, int(addr)) == reference_special(addr), addr

    @pytest.mark.parametrize("text, special", GH_113171_CASES)
    def test_ranges_gh_113171_changed(self, text, special):
        assert is_special(*parse_ip(text)) is special

    def test_special_edges_fixture_holds_every_edge(self):
        # tests/data/special_edges has one record per address; test_cli compares its report byte for byte
        lines = (SPECIAL_EDGES / "traceroutes.ndjson").read_text().splitlines()
        hops = {hop["ip"] for line in lines for hop in json.loads(line)["hops"]}
        wanted = {str(addr) for net in SPECIAL_NETWORKS for addr in edges(net)} | {text for text, _ in GH_113171_CASES}
        assert wanted <= hops


def stdlib_special(addr) -> bool:
    return (
        addr.is_private
        or addr.is_loopback
        or addr.is_link_local
        or addr.is_multicast
        or addr.is_reserved
        or addr.is_unspecified
    )


def stdlib_special_networks():
    """Every network behind ipaddress's special-address predicates, exceptions included."""
    nets = []
    for cls in (ipaddress.IPv4Address, ipaddress.IPv6Address):
        for value in vars(cls._constants).values():
            if isinstance(value, (ipaddress.IPv4Network, ipaddress.IPv6Network)):
                nets.append(value)
            elif isinstance(value, (ipaddress.IPv4Address, ipaddress.IPv6Address)):
                nets.append(ipaddress.ip_network(value))
            elif isinstance(value, (list, tuple)):
                nets.extend(value)
    return nets


ON_PYTHON_3117 = sys.version_info[:3] == (3, 11, 7)


@pytest.mark.skipif(not ON_PYTHON_3117, reason="SPECIAL_RANGES is Python 3.11.7's special set")
class TestSpecialRangesMatchPython3117:
    """On the interpreter the table was taken from, it equals ipaddress's own predicates."""

    def test_table_is_the_collapsed_stdlib_set(self):
        v4, v6 = ipaddress.IPv4Address._constants, ipaddress.IPv6Address._constants
        stdlib = [  # the networks stdlib_special's predicates consult
            *v4._private_networks, v4._loopback_network, v4._linklocal_network, v4._multicast_network,
            v4._reserved_network, ipaddress.ip_network(v4._unspecified_address),
            *v6._private_networks, *v6._reserved_networks, v6._linklocal_network, v6._multicast_network,
            ipaddress.ip_network("::1"), ipaddress.ip_network("::"),
        ]
        for version in (4, 6):
            collapsed = list(ipaddress.collapse_addresses([n for n in stdlib if n.version == version]))
            assert collapsed == [n for n in SPECIAL_NETWORKS if n.version == version]

    @given(st.integers(0, 2**32 - 1))
    def test_random_ipv4(self, value):
        addr = ipaddress.IPv4Address(value)
        assert is_special(4, value) == stdlib_special(addr)

    @given(st.integers(0, 2**128 - 1) | st.integers(0, 2**64 - 1) | st.integers(0, 2**32 - 1))
    def test_random_ipv6(self, value):
        addr = ipaddress.IPv6Address(value)
        assert is_special(6, value) == stdlib_special(addr)

    # other versions may name or fill the private constants differently, so they are read only on 3.11.7
    @pytest.mark.parametrize("net", stdlib_special_networks() if ON_PYTHON_3117 else [], ids=str)
    def test_stdlib_network_edges(self, net):
        for addr in edges(net):
            assert is_special(addr.version, int(addr)) == stdlib_special(addr), addr


def stdlib_parse(text):
    try:
        addr = ipaddress.ip_address(text)
    except ValueError as e:
        return "rejected", str(e)
    return addr.version, int(addr)


def our_parse(text):
    try:
        return parse_ip(text)
    except ValueError as e:
        return "rejected", str(e)


class TestParseIp:
    """parse_ip accepts, rejects and reports exactly as ipaddress.ip_address does."""

    @pytest.mark.parametrize("text", [
        "1.2.3.4", "0.0.0.0", "255.255.255.255", "256.1.1.1", "1.2.3", "1.2.3.4.5", "1..3.4", "",
        "01.2.3.4", "1.2.3.04", "1.2.3.00", "0x1.2.3.4", "+1.2.3.4", "1.2.3.-4", "1.2.3.4/32",
        " 1.2.3.4", "1.2.3.4 ", "1.2.3.4\n", "\t1.2.3.4", "1.2. 3.4",
        "\u0661.\u0662.\u0663.\u0664", "1.2.3.\uff14", "\u00b9.2.3.4", "1.2.3.4\x00", "\ud800",
        "2001:db8::1", "2001:DB8::1", "2001:0db8:0000:0000:0000:0000:0000:0001", "::", "::1", "1::",
        "1:2:3:4:5:6:7:8", "1:2:3:4:5:6:7:8:9", "1:2:3:4:5:6:7::", "::2:3:4:5:6:7:8", "1::2:3:4:5:6:7",
        "1::2::3", ":1::", "1:::2", ":", ":::", "12345::", "g::1", "::ffff:1.2.3.4", "::FFFF:1.2.3.4",
        "::1.2.3.4", "::ffff:01.2.3.4", "::ffff:1.2.3", "2001:db8::1.2.3.4", "1:2:3:4:5:6:1.2.3.4",
        "1:2:3:4:5:6:7:1.2.3.4", "1.2.3.4::", "fe80::1%eth0", "fe80::1%1", "fe80::1%", "fe80::1%a%b",
        "FE80::1%ETH0", " ::1", "::1 ", "\uff12001:db8::1", "2001:db8::\u0661",
    ])
    def test_agrees_with_stdlib(self, text):
        assert our_parse(text) == stdlib_parse(text)

    @given(st.text(alphabet="0123456789abcdefABCDEFx:.% \u0661\uff11", max_size=45))
    def test_agrees_on_random_text(self, text):
        assert our_parse(text) == stdlib_parse(text)

    @given(st.integers(0, 2**32 - 1))
    def test_every_ipv4_spelling(self, value):
        assert parse_ip(str(ipaddress.IPv4Address(value))) == (4, value)

    @given(st.integers(0, 2**128 - 1) | st.integers(0, 2**48 - 1))
    def test_ipv6_spellings(self, value):
        addr = ipaddress.IPv6Address(value)
        spellings = [str(addr), addr.exploded, addr.exploded.upper(), str(addr).upper()]
        if value >> 32 in (0, 0xFFFF):
            spellings.append(("::ffff:" if value >> 32 else "::") + str(ipaddress.IPv4Address(value & 0xFFFFFFFF)))
        for text in spellings:
            assert our_parse(text) == stdlib_parse(text) == (6, value), text

    def test_lookup_parses_the_string(self):
        t = table(("2001:db8::/32", "DE"), ("1.2.0.0/16", "US"))
        assert t.lookup("2001:DB8::5") == t.lookup("2001:db8:0:0:0:0:0:5") == "DE"
        assert t.lookup("1.2.3.4") == "US"
        assert t.lookup("fe80::1%eth0") is None
        with pytest.raises(ValueError, match="does not appear to be an IPv4 or IPv6 address"):
            t.lookup("not-an-ip")


def stdlib_cidr(text):
    try:
        net = ipaddress.ip_network(text)
    except ValueError as e:
        return "rejected", str(e)
    return net.version, net.prefixlen, int(net.network_address)


def our_cidr(text):
    try:
        return parse_cidr(text)
    except ValueError as e:
        return "rejected", str(e)


@st.composite
def cidr_text(draw):
    """CIDR-like text: random networks, host bits set or not, prefixes past the maximum, odd spellings."""
    version = draw(st.sampled_from([4, 6]))
    maxlen = 32 if version == 4 else 128
    plen = draw(st.integers(0, maxlen + 3))
    value = draw(st.integers(0, 2**maxlen - 1))
    if draw(st.booleans()):
        value &= ~((1 << max(maxlen - plen, 0)) - 1) & (2**maxlen - 1)
    addr = ipaddress.IPv4Address(value) if version == 4 else ipaddress.IPv6Address(value)
    text = draw(st.sampled_from([str(addr), addr.exploded, str(addr).upper()]))
    if version == 4 and draw(st.booleans()):
        octets = text.split(".")
        i = draw(st.integers(0, 3))
        octets[i] = "0" + octets[i]  # a leading-zero octet
        text = ".".join(octets)
    suffix = draw(st.sampled_from([
        str(plen), "0" + str(plen), "+" + str(plen), "-" + str(plen), " " + str(plen), str(plen) + " ", "",
        str(plen).translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
        str(plen).translate(str.maketrans("0123456789", "０１２３４５６７８９")),
        "0" * 5 + str(plen), "²", str(plen) + "/" + str(plen),
    ]))
    if draw(st.booleans()):
        net = (ipaddress.IPv4Network if version == 4 else ipaddress.IPv6Network)((0, min(plen, maxlen)))
        suffix = str(draw(st.sampled_from([net.netmask, net.hostmask])))  # netmask and hostmask forms
    if version == 6 and draw(st.integers(0, 4)) == 0:
        text += draw(st.sampled_from(["%eth0", "%1", "%", "%a/b"]))
    return text if draw(st.integers(0, 9)) == 0 else f"{text}/{suffix}"


CIDR_EXAMPLES = [
    "1.2.3.0/24", "1.2.3.0/08", "1.0.0.0/08", "1.0.0.0/+8", "1.0.0.0/ 8", "1.0.0.0/8 ", "1.0.0.0/٨",
    "1.0.0.0/８", "1.0.0.0/²", "1.0.0.0/33", "1.0.0.0/-1", "1.0.0.0/", "/8", "1.0.0.0//8", "1.0.0.0/8/8",
    "1.2.3.4/24", "1.2.3.4", "1.2.3.4/32", "01.0.0.0/8", "1.0.0.00/32", "0.0.0.0/0", "1.0.0.0/255.0.0.0",
    "1.0.0.0/0.255.255.255", "1.0.0.0/255.255.0.255", "1.0.0.0/0008",
    pytest.param("1.0.0.0/" + "0" * 4300 + "8", id="4301-digit-length"),
    pytest.param("1.0.0.0/" + "0" * 5000 + "8", id="5001-digit-length"),
    "2001:db8::/32", "2001:DB8::/32", "2001:db8::1/32", "2001:db8::/129", "2001:db8::/032", "::/0", "::",
    "fe80::%eth0/64", "fe80::1%eth0/64", "fe80::%1/10", "fe80::%/64", "::ffff:1.2.3.0/120", "::ffff:1.2.3.4/128",
    "2001:db8::/ffff:ffff::", "1::2::3/64", "", "/", "not-a-prefix", "1.2.3.4\x00/32", "\ud800/8",
]


class TestParseCidr:
    """parse_cidr against ipaddress.ip_network (strict): accept/reject, values and every error text."""

    @pytest.mark.parametrize("text", CIDR_EXAMPLES)
    def test_examples(self, text):
        self.agree(text)

    @given(cidr_text())
    def test_random(self, text):
        self.agree(text)

    @given(st.text(alphabet="0123456789abcdefABCDEF:./%+ ١１", max_size=50))
    def test_random_text(self, text):
        self.agree(text)

    def agree(self, text):
        want = stdlib_cidr(text)
        assert our_cidr(text) == want
        try:
            _parse_cidr(text, "t.csv", 7)
        except ParseError as e:
            assert want[0] == "rejected"
            assert str(e) == f"t.csv:7: bad prefix {text!r}: {want[1]}"
        if want[0] == "rejected":
            return
        with pytest.raises(ConflictError) as exc:
            table((text, "A"), (text, "B"))
        assert str(exc.value) == f"prefix {ipaddress.ip_network(text)} maps to both 'A' and 'B'"

    @pytest.mark.parametrize("text", ["2001:DB8::/32", "fe80::%eth0/64", "1.0.0.0/08", "1.0.0.0/255.0.0.0"])
    def test_loader_conflict_names_the_network(self, tmp_path, text):
        path = tmp_path / "geo.csv"
        path.write_text(f"cidr,iso2\n{text},US\n{text},DE\n")
        with pytest.raises(ConflictError) as exc:
            load_geo_table(path)
        assert str(exc.value) == f"prefix {ipaddress.ip_network(text)} maps to both 'US' and 'DE'"

    def test_smallworld_tables_build_no_network_objects(self, monkeypatch):
        calls = []
        real = ipaddress.ip_network
        monkeypatch.setattr(ipaddress, "ip_network", lambda *a, **k: calls.append(a) or real(*a, **k))
        geo, origin = load_geo_table(SMALLWORLD / "geo.csv"), load_origin_table(SMALLWORLD / "origin.csv")
        assert calls == []
        assert (geo.lookup("20.1.0.5"), origin.lookup("20.1.0.5")) == ("AA", 101)


ANY_ADDRESS = (
    st.integers(0, 2**32 - 1).map(lambda v: str(ipaddress.IPv4Address(v)))
    | st.integers(0, 2**128 - 1).map(lambda v: str(ipaddress.IPv6Address(v)))
    | address_in_special_network().map(str)
    | st.sampled_from(["20.1.0.9", "20.2.0.9", "30.5.5.5", "2001:DB8::1", "fe80::1%eth0"])
)


class TestResolveMemo:
    def enrichment(self):
        return Enrichment(geo=GEO, origin=ORIGIN, registry=REGISTRY)

    @given(st.lists(ANY_ADDRESS, min_size=1, max_size=30))
    def test_equals_fresh_resolution(self, ips):
        enr = self.enrichment()
        for ip in ips + ips:  # the second pass answers from the memo
            assert enr.resolve(ip, 1.0) == resolve_hop(GEO, ORIGIN, REGISTRY, ip)

    def test_keyed_by_the_text_as_given(self):
        enr = self.enrichment()
        spellings = ["2001:DB8::1", "2001:db8::1", "2001:db8:0:0:0:0:0:1", "20.1.0.9"]
        for ip in spellings + spellings:
            assert enr.resolve(ip) == resolve_hop(GEO, ORIGIN, REGISTRY, ip)
        assert sorted(enr._memo) == sorted(spellings)

    def test_never_exceeds_cap(self, monkeypatch):
        monkeypatch.setattr(enrichment_mod, "RESOLVE_CAP", 8)
        enr = self.enrichment()
        for i in range(100):
            ip = f"20.1.{i % 23}.{i}"
            assert enr.resolve(ip) == resolve_hop(GEO, ORIGIN, REGISTRY, ip)
            assert 1 <= len(enr._memo) <= 8

    def test_memo_is_not_part_of_equality(self):
        a, b = self.enrichment(), self.enrichment()
        a.resolve("20.1.0.9")
        assert a == b and "_memo" not in repr(a)


def test_socket_module_stays_unimported():
    # _socket carries inet_pton; the socket module on top of it costs start-up time
    code = (
        "import sys, geonorm.cli\n"
        "from geonorm.enrichment import load_as_registry, load_geo_table, load_origin_table\n"
        f"d = {str(SMALLWORLD)!r}\n"
        "load_geo_table(d + '/geo.csv'); load_origin_table(d + '/origin.csv'); load_as_registry(d + '/as_registry.csv')\n"
        "print('socket' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
