import ipaddress
import random

import pytest
from hypothesis import given, strategies as st

from geonorm.enrichment import (
    ASRegistry,
    Enrichment,
    PrefixTable,
    is_special,
    load_as_registry,
    load_geo_table,
    load_origin_table,
    parse_ip,
    resolve_hop,
)
from geonorm.errors import ConflictError, ParseError


def table(*rows, on_conflict="error"):
    return PrefixTable.from_rows(rows, on_conflict=on_conflict)


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
        assert len(t) == 1

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
        t = PrefixTable.from_rows(rows)
        ip = str(ipaddress.IPv4Address(probe))
        assert t.lookup(ip) == brute_force_lpm(rows, ip)

    @given(prefix_set())
    def test_hit_property(self, rows):
        # any hit must be a containing prefix with no longer containing entry
        t = PrefixTable.from_rows(rows)
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
REGISTRY = ASRegistry(mapping={100: "US", 300: "BG"})


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
        res = resolve_hop(geo, origin, ASRegistry(mapping={1: "XX"}), ip)
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


class TestEnrichmentBundle:
    def test_dated_origin_snapshot_selected_by_timestamp(self):
        day1 = table(("20.1.0.0/16", 111))
        day2 = table(("20.1.0.0/16", 222))
        enr = Enrichment(
            geo=GEO,
            origin=table(("20.1.0.0/16", 999)),
            registry=ASRegistry(mapping={111: "US", 222: "DE", 999: "FR"}),
            dated_origins=((0, 100, day1), (100, 200, day2)),
        )
        assert enr.resolve("20.1.0.9", timestamp=50).asn == 111
        assert enr.resolve("20.1.0.9", timestamp=150).asn == 222
        assert enr.resolve("20.1.0.9", timestamp=5000).asn == 999
        assert enr.resolve("20.1.0.9").asn == 999


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


@st.composite
def address_in_special_network(draw):
    net = draw(st.sampled_from(stdlib_special_networks()))
    offset = draw(st.integers(0, net.num_addresses - 1))
    return net.network_address + offset


class TestSpecialRanges:
    """The one-probe special-range check against ipaddress's own predicates."""

    @given(st.integers(0, 2**32 - 1))
    def test_random_ipv4(self, value):
        addr = ipaddress.IPv4Address(value)
        assert is_special(4, value) == stdlib_special(addr)

    @given(st.integers(0, 2**128 - 1) | st.integers(0, 2**64 - 1) | st.integers(0, 2**32 - 1))
    def test_random_ipv6(self, value):
        addr = ipaddress.IPv6Address(value)
        assert is_special(6, value) == stdlib_special(addr)

    @given(address_in_special_network())
    def test_inside_every_stdlib_special_network(self, addr):
        assert is_special(addr.version, int(addr)) == stdlib_special(addr)

    @pytest.mark.parametrize("net", stdlib_special_networks(), ids=str)
    def test_network_edges(self, net):
        first, last = int(net.network_address), int(net.broadcast_address)
        for value in (first - 1, first, last, last + 1):
            if 0 <= value < 2 ** net.max_prefixlen:
                addr = ipaddress.IPv4Address(value) if net.version == 4 else ipaddress.IPv6Address(value)
                assert is_special(net.version, value) == stdlib_special(addr), addr


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

    def test_lookup_accepts_objects_and_strings(self):
        t = table(("2001:db8::/32", "DE"), ("1.2.0.0/16", "US"))
        assert t.lookup(ipaddress.ip_address("2001:db8::5")) == t.lookup("2001:DB8::5") == "DE"
        assert t.lookup(ipaddress.ip_address("1.2.3.4")) == t.lookup("1.2.3.4") == "US"
        assert t.lookup("fe80::1%eth0") is None
        with pytest.raises(ValueError, match="does not appear to be an IPv4 or IPv6 address"):
            t.lookup("not-an-ip")
