"""Seeded input generator for the world workloads of the benchmark.

Writes a generated world (cities, borders, regions), the three lookup tables
(geo, origin, AS registry) and a traceroute corpus. A given seed always
produces byte-identical files: every random draw comes from one
``random.Random(seed)`` in a fixed order, and floats are written rounded.

World layout: ROWS x COLS countries on a fixed grid of CELL_LAT x CELL_LON
degree cells. The grid is the same for every seed, so the size and spread of
hulls, and with them the cost of a normal-set build, stay comparable across
seeds; the seed moves shapes, cities, islands, ASes, routers and traffic.

- Each country has a concave star-shaped main polygon and 15 cities inside it.
- Some countries own small islands in their cell's north gap or north-east
  corner (multi-polygon borders that inflate border-mode hulls).
- A few own a remote island on the far side of the globe, so in border mode
  every pair involving them spans a hemisphere and is unclassifiable.

Tables hold v4 and v6 prefixes at many lengths with nested more-specifics,
rows for special ranges (which never resolve) and geo-only space that has no
origin AS. Run as a script to write the files for one seed:

    python3 perfbench/gen.py --seed 1 --out world1
"""

from __future__ import annotations

import argparse
import ipaddress
import json
import math
import random
from pathlib import Path

ROWS, COLS = 8, 12
CELL_LAT, CELL_LON = 8.0, 10.0
LAT0, LON0 = -28.0, -55.0  # centre of cell (0, 0)
MAIN_LAT, MAIN_LON = 3.0, 3.6  # main polygon half-extent, degrees
CITIES_PER_COUNTRY = 15
REMOTE_COUNTRIES = 6  # countries with a holding on the far side of the globe
REUSE_RECORDS = 6000
REGIONS = ("Africa", "Americas", "Asia", "Europe", "Oceania")

# Router and host space. The corpus never uses 10/8, 100.64/10, 127/8,
# 169.254/16 or 172.16/12 as public space; those appear only as special hops.
V4_FIRST_OCTETS = list(range(20, 100))
UNANNOUNCED_V4 = "150.{}.{}.{}"  # in no table at all
GEO_ONLY_V4 = "160.{}.{}.{}"  # geolocated, but no origin AS
SPECIAL_V4 = ("10.{}.{}.{}", "192.168.{}.{}", "127.0.{}.{}", "169.254.{}.{}", "172.16.{}.{}")
SPECIAL_V6 = ("fe80::{:x}:{:x}", "fd00:{:x}::{:x}")


def _code(i: int) -> str:
    return chr(ord("A") + i // 26) + chr(ord("A") + i % 26)


def _r(x: float) -> float:
    return round(x, 4)


def _star(rng, clat, clon, rlat, rlon, n, inner):
    """A star-shaped ring around (clat, clon): sorted angles, radii in [inner, 1]."""
    step = 2 * math.pi / n
    ring = []
    for k in range(n):
        theta = (k + rng.uniform(0.15, 0.85)) * step
        rad = rng.uniform(inner, 1.0)
        ring.append([_r(clon + rad * rlon * math.cos(theta)), _r(clat + rad * rlat * math.sin(theta))])
    return ring + [ring[0]]


def _spread(rng, n, values):
    """`values` cycled to length n and shuffled: fixed totals, seeded placement."""
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def make_world(rng: random.Random):
    """Countries, cities and multi-polygon borders on the fixed grid.

    Vertex counts and island plans are fixed multisets that the seed assigns
    to countries, so every seed's world has the same number of vertices,
    islands and remote holdings.
    """
    n = ROWS * COLS
    vertex_counts = _spread(rng, n, list(range(12, 37)))
    # 0: none, 1: north-gap island, 2: north-gap and north-east islands
    islands = _spread(rng, n, [0] * 13 + [1] * 4 + [2] * 3)
    remote = set(rng.sample(range(n), REMOTE_COUNTRIES))
    countries = []
    for idx in range(n):
        row, col = divmod(idx, COLS)
        clat, clon = LAT0 + row * CELL_LAT, LON0 + col * CELL_LON
        iso2 = _code(idx)
        polys = [[_star(rng, clat, clon, MAIN_LAT, MAIN_LON, vertex_counts[idx], 0.6)]]
        if islands[idx] >= 1:
            polys.append([_star(rng, clat + 4.0, clon + rng.uniform(-2.5, 2.5), 0.5, 0.6, 8, 0.5)])
        if islands[idx] >= 2:
            polys.append([_star(rng, clat + 4.0, clon + 5.0, 0.5, 0.6, 8, 0.5)])
        if idx in remote:
            # half the globe away in longitude, in a slot no other holding uses
            rlon = clon + 180.0 if clon <= 0 else clon - 180.0
            polys.append([_star(rng, clat, rlon, 0.8, 0.8, 8, 0.5)])
        cities = []
        for k in range(CITIES_PER_COUNTRY):
            theta = rng.uniform(0, 2 * math.pi)
            rad = 0.45 * math.sqrt(rng.random())
            pop = int(5_000_000 / (k + 1) ** 1.1) + rng.randint(0, 9999)
            cities.append((f"{iso2} City {k + 1}", _r(clat + rad * MAIN_LAT * math.sin(theta)),
                           _r(clon + rad * MAIN_LON * math.cos(theta)), pop))
        region = REGIONS[(col // 3 + row // 4) % len(REGIONS)]
        countries.append({"iso2": iso2, "row": row, "col": col, "region": region, "polygons": polys,
                          "cities": cities, "remote": idx in remote})
    return countries


def write_world(countries, out: Path):
    lines = ["iso2,city,lat,lon,population"]
    for c in countries:
        lines += [f"{c['iso2']},{name},{lat},{lon},{pop}" for name, lat, lon, pop in c["cities"]]
    (out / "cities.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    lines = ["iso2,region"] + [f"{c['iso2']},{c['region']}" for c in countries]
    (out / "regions.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    features = [
        {"type": "Feature", "properties": {"iso2": c["iso2"]},
         "geometry": {"type": "MultiPolygon", "coordinates": c["polygons"]}}
        for c in countries
    ]
    doc = {"type": "FeatureCollection", "features": features}
    (out / "borders.geojson").write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")


def make_tables(rng: random.Random, countries):
    """ASes with v4/v6 space, nested more-specifics and router pools.

    Returns (geo rows, origin rows, registry rows, ases by country). Each AS
    is a dict with its address space and router pools; routers sit at every
    prefix depth, so lookups resolve at different lengths. Per AS, the /22
    and /26 are announced by a customer AS and the /20, /24 and v6 /44 are
    geolocated abroad (a PoP in another country); one AS in ten is legally
    registered in another country.
    """
    geo, origin, registry = [], [], []
    ases = {}
    slots = [(a, b) for a in V4_FIRST_OCTETS for b in range(256)]
    rng.shuffle(slots)
    codes = [c["iso2"] for c in countries]
    as_counts = _spread(rng, len(countries), [3, 4, 5])
    total = sum(as_counts)
    abroad = set(rng.sample(range(total), total // 10))
    k = 0
    for ci, c in enumerate(countries):
        iso2 = c["iso2"]
        # country-level aggregate /24 in v6 and nested AS space below it
        v6_agg = ipaddress.ip_network(((0x2A00_0000 + ci * 0x100) << 96, 24))
        geo.append((str(v6_agg), iso2))
        ases[iso2] = []
        for j in range(as_counts[ci]):
            asn = 1000 + ci * 10 + j
            registry.append((asn, rng.choice(codes) if k in abroad else iso2))
            k += 1
            a, b = slots.pop()
            v4 = ipaddress.ip_network(f"{a}.{b}.0.0/16")
            v6 = ipaddress.ip_network((int(v6_agg.network_address) + (j << 96), 32))
            origin += [(str(v4), asn), (str(v6), asn)]
            geo += [(str(v4), iso2)]
            routers_v4, routers_v6 = [], []
            for plen in (18, 20, 22, 24, 26):
                # router space is the lower half of the /16; end hosts use the upper half
                sub = ipaddress.ip_network((int(v4.network_address) + (rng.randrange(1 << (plen - 17)) << (32 - plen)), plen))
                if plen in (22, 26):
                    customer = 60000 + ci * 10 + j
                    if plen == 22:
                        registry.append((customer, iso2))
                    origin.append((str(sub), customer))
                else:
                    origin.append((str(sub), asn))
                if plen in (20, 24):
                    geo.append((str(sub), rng.choice(codes)))
                routers_v4 += [str(sub.network_address + rng.randrange(1, sub.num_addresses - 1)) for _ in range(4)]
            routers_v4 += [str(v4.network_address + rng.randrange(1, 1 << 15)) for _ in range(8)]
            for plen in (36, 40, 44, 48, 56):
                sub = ipaddress.ip_network((int(v6.network_address) + (rng.randrange(1 << (plen - 33)) << (128 - plen)), plen))
                origin.append((str(sub), asn))
                if plen == 44:
                    geo.append((str(sub), rng.choice(codes)))
                routers_v6 += [str(sub.network_address + rng.randrange(1, 1 << 16)) for _ in range(3)]
            rng.shuffle(routers_v4)
            rng.shuffle(routers_v6)
            ases[iso2].append({"asn": asn, "v4": v4, "v6": v6, "routers_v4": routers_v4, "routers_v6": routers_v6})
    # special ranges: the tables claim them, the program must not resolve them
    geo += [("10.0.0.0/8", codes[0]), ("192.168.0.0/16", codes[1]), ("127.0.0.0/8", codes[2]), ("fd00::/8", codes[3])]
    origin += [("10.0.0.0/8", 64512), ("192.168.0.0/16", 64513)]
    registry += [(64512, codes[0]), (64513, codes[1])]
    geo.append(("160.0.0.0/8", codes[4]))  # geo-only: resolves a country, never an AS
    return geo, origin, registry, ases


def write_tables(geo, origin, registry, out: Path):
    def write(name, header, rows):
        (out / name).write_text("\n".join([header] + [f"{a},{b}" for a, b in rows]) + "\n", encoding="utf-8")

    write("geo.csv", "cidr,iso2", geo)
    write("origin.csv", "cidr,asn", origin)
    write("as_registry.csv", "asn,iso2", registry)


# Grid offsets (rows, columns) between the two countries of a sampled pair.
# The offsets are fixed and only the anchors are seeded, so every seed's
# sample has hulls of the same sizes and orientations.
NEAR_OFFSETS = ((0, 1), (1, 0), (1, 1), (1, -1), (0, 2), (2, 0), (2, 1), (1, 2), (2, 2), (2, -1), (0, 1), (1, 0))
FAR_OFFSETS = ((0, 3), (3, 0), (2, 4), (3, 3), (1, 5), (3, -4))
REMOTE_OFFSETS = ((0, 1), (1, 1))  # one endpoint has a remote holding


def sample_pairs(rng: random.Random, countries, offsets, remote=False, taken=None):
    """One pair per offset, anchored at a seeded cell.

    With remote=False neither endpoint has a remote holding; with remote=True
    exactly one has, so the pair is unclassifiable in border mode.
    """
    taken = set() if taken is None else taken
    out = []
    for dr, dc in offsets:
        while True:
            a = rng.choice(countries)
            row, col = a["row"] + dr, a["col"] + dc
            if not (0 <= row < ROWS and 0 <= col < COLS):
                continue
            b = countries[row * COLS + col]
            key = frozenset((a["iso2"], b["iso2"]))
            if key not in taken and (a["remote"] + b["remote"]) == (1 if remote else 0):
                taken.add(key)
                out.append((a["iso2"], b["iso2"]))
                break
    return out


def _zipf_pick(rng, items, s=1.1):
    weights = [1.0 / (k + 1) ** s for k in range(len(items))]
    return rng.choices(items, weights=weights)[0]


def _host(rng, asys, v6):
    """An end host in the upper half of the AS's space, clear of router prefixes."""
    if v6:
        return str(asys["v6"].network_address + (1 << 95) + rng.randrange(1, 1 << 16))
    return str(asys["v4"].network_address + (1 << 15) + rng.randrange(1, (1 << 15) - 1))


def _chain(rng, by_code, src, dst):
    """Countries from src to dst by grid steps, sometimes with a detour."""
    a, b = by_code[src], by_code[dst]
    row, col = a["row"], a["col"]
    chain = [src]
    while (row, col) != (b["row"], b["col"]):
        row += (b["row"] > row) - (b["row"] < row)
        col += (b["col"] > col) - (b["col"] < col)
        chain.append(_code(row * COLS + col))
    if len(chain) > 2 and rng.random() < 0.25:
        chain.insert(rng.randint(1, len(chain) - 1), rng.choice(list(by_code)))
    return chain


def make_corpus(rng: random.Random, countries, ases, pairs, count, pair_skew=True):
    """Traceroute records whose country pairs are drawn from `pairs`.

    With pair_skew the pairs are Zipf-weighted (popular pairs dominate);
    otherwise record i uses pairs[i % len(pairs)]. Hops are drawn Zipf-style
    from each AS's finite router pool, so router IPs repeat across records.
    """
    by_code = {c["iso2"]: c for c in countries}
    records = []
    for i in range(count):
        src, dst = _zipf_pick(rng, pairs) if pair_skew else pairs[i % len(pairs)]
        if rng.random() < 0.5:
            src, dst = dst, src
        v6 = rng.random() < 0.2
        src_ip = _host(rng, rng.choice(ases[src]), v6)
        dst_ip = _host(rng, rng.choice(ases[dst]), v6)
        fate = rng.random()
        if fate < 0.02:
            src_ip = UNANNOUNCED_V4.format(rng.randint(0, 255), rng.randint(0, 255), rng.randint(1, 254))
        elif fate < 0.04:
            dst_ip = UNANNOUNCED_V4.format(rng.randint(0, 255), rng.randint(0, 255), rng.randint(1, 254))
        hops: list = []
        for country in _chain(rng, by_code, src, dst):
            pool = ases[country]
            for _ in range(rng.randint(1, 3)):
                asys = _zipf_pick(rng, pool, 0.8)
                hops.append(_zipf_pick(rng, asys["routers_v6"] if v6 else asys["routers_v4"]))
        for _ in range(2):
            roll = rng.random()
            pos = rng.randint(0, len(hops))
            if roll < 0.10:
                hops.insert(pos, None)
            elif roll < 0.18:
                fmt = rng.choice(SPECIAL_V6 if v6 else SPECIAL_V4)
                hops.insert(pos, fmt.format(*(rng.randint(1, 254) for _ in range(4))))
            elif roll < 0.24 and not v6:
                hops.insert(pos, GEO_ONLY_V4.format(rng.randint(0, 255), rng.randint(0, 255), rng.randint(1, 254)))
            elif roll < 0.27 and not v6:
                hops.insert(pos, UNANNOUNCED_V4.format(rng.randint(0, 255), rng.randint(0, 255), rng.randint(1, 254)))
        records.append({
            "src_ip": src_ip,
            "dst_ip": dst_ip,
            "timestamp": 1514764800 + i,
            "hops": [{"ttl": t + 1, "ip": ip} for t, ip in enumerate(hops)],
        })
    return records


def write_corpus(records, path: Path):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def generate(seed: int, out: Path):
    """Write every world-workload input for `seed` under `out`.

    Files: cities.csv, borders.geojson, regions.csv, geo.csv, origin.csv,
    as_registry.csv, reuse.ndjson (world-reuse corpus), allpairs.ndjson (one
    record per sampled pair) and manifest.json (the sampled pairs and counts).
    """
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    countries = make_world(rng)
    write_world(countries, out)
    geo, origin, registry, ases = make_tables(rng, countries)
    write_tables(geo, origin, registry, out)
    taken: set = set()
    allpairs = (sample_pairs(rng, countries, NEAR_OFFSETS, taken=taken)
                + sample_pairs(rng, countries, FAR_OFFSETS, taken=taken)
                + sample_pairs(rng, countries, REMOTE_OFFSETS, remote=True, taken=taken))
    # regional traffic: near pairs in Zipf rank order, one unclassifiable at rank 6
    reuse = sample_pairs(rng, countries, NEAR_OFFSETS)
    reuse.insert(5, sample_pairs(rng, countries, REMOTE_OFFSETS[:1], remote=True)[0])
    write_corpus(make_corpus(rng, countries, ases, reuse, REUSE_RECORDS), out / "reuse.ndjson")
    write_corpus(make_corpus(rng, countries, ases, allpairs, len(allpairs), pair_skew=False), out / "allpairs.ndjson")
    manifest = {
        "seed": seed,
        "countries": len(countries),
        "border_vertices": sum(len(ring) - 1 for c in countries for poly in c["polygons"] for ring in poly),
        "geo_rows": len(geo),
        "origin_rows": len(origin),
        "registry_rows": len(registry),
        "allpairs": allpairs,
        "reuse_pairs": reuse,
        "reuse_records": REUSE_RECORDS,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    return manifest


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    m = generate(args.seed, Path(args.out))
    print(json.dumps({k: v for k, v in m.items() if not isinstance(v, list)}))


if __name__ == "__main__":
    main()
