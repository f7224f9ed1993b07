"""Command-line front end: analyze, normal-set, classify-one, validate-world.

Runs are reproducible: the report header echoes the semantic configuration
and a sha256 digest of every input file, and the same inputs produce
byte-identical outputs whatever the worker count. Output files are staged
in a scratch directory and moved into place only when complete.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path

from .enrichment import Enrichment, load_as_registry, load_geo_table, load_origin_table
from .errors import GeonormError, ValidationError, utf8_error
from .metrics import EXPOSURES, ROLES, Aggregate, accumulate, report
from .normality import PairCache, normal_set, pair_hull
from .pipeline import (
    Skip, SkipLog, classify_path_with, classify_signature, parse_traceroute_line, path_signature, read_lines,
    shard_ranges, to_tuple_path,
)
from .sphere import unit_to_geo
from .world import DEFAULT_CITY_LIMIT, MODES, country_points, load_summary, load_world


# What each annotated RunConfig field type accepts. --config values arrive
# untyped from JSON, and a bool is not a count.
_FIELD_TYPES = {
    "int": ("an integer", lambda v: type(v) is int),
    "str": ("a string", lambda v: isinstance(v, str)),
    "str | None": ("a string", lambda v: v is None or isinstance(v, str)),
}

# The values each choice field accepts, for argparse and RunConfig.validate alike
_CHOICES = {
    "mode": MODES,
    "unclassifiable_policy": ("exclude", "count_non_normal"),
    "origin_conflict": ("error", "first_wins"),
}


@dataclass
class RunConfig:
    cities: str | None = None
    borders: str | None = None
    regions: str | None = None
    geo_table: str | None = None
    origin_table: str | None = None
    as_registry: str | None = None
    traceroutes: str | None = None
    mode: str = "population"
    city_limit: int = DEFAULT_CITY_LIMIT
    workers: int = 1
    unclassifiable_policy: str = "exclude"
    top_n: int = 10
    output_dir: str = "."
    origin_conflict: str = "error"
    boundary_step = None  # not a field, so nothing sets it: perfbench/chain.py reads it and passes it to PairCache

    def validate(self):
        for f in fields(self):
            kind, accepts = _FIELD_TYPES[f.type]
            value = getattr(self, f.name)
            if not accepts(value):
                raise ValidationError(f"{f.name} must be {kind}, got {value!r}")
        for name in ("workers", "top_n", "city_limit"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name.replace('_', '-')} must be >= 1, got {getattr(self, name)}")
        for name, allowed in _CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ValidationError(f"{name.replace('_', '-')} must be {' or '.join(allowed)}, got {getattr(self, name)!r}")


# The input files are the optional string fields. The header hashes each of
# them and echoes every other field except workers and output_dir, which
# must not change the output.
_INPUTS = tuple(f.name for f in fields(RunConfig) if f.type == "str | None")
_SETTINGS = tuple(f.name for f in fields(RunConfig) if f.name not in _INPUTS and f.name not in ("workers", "output_dir"))


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _require(cfg, *names):
    for name in names:
        if getattr(cfg, name) is None:
            raise ValidationError(f"missing required input --{name.replace('_', '-')}")
        path = Path(getattr(cfg, name))
        if not path.exists():
            raise ValidationError(f"input file not found: {path}")
        # shard_ranges cuts the file by its size and the header digest reads it again, which a pipe cannot serve
        if not path.is_file():
            raise ValidationError(f"input is not a regular file: {path}")


def _load_world(cfg):
    return load_world(cfg.cities, cfg.borders, cfg.regions, cfg.city_limit)


def _check_mode(w, cfg):
    """Fail unless every country with cities has hull points in cfg.mode, naming the borders file if not."""
    for iso2 in w.countries:
        try:
            country_points(w, iso2, cfg.mode)
        except ValidationError as e:  # border mode: a country without border polygons
            raise ValidationError(f"{cfg.borders}: {e}") from None


def _load_enrichment(cfg):
    return Enrichment(
        geo=load_geo_table(cfg.geo_table),
        origin=load_origin_table(cfg.origin_table, on_conflict=cfg.origin_conflict),
        registry=load_as_registry(cfg.as_registry),
    )


# Distinct path signatures a shard counts before it folds them into its
# Aggregate and starts over, so memory stays bounded however few paths share
# a signature: a signature with five-country sets takes about 1.6 kB
# (Python 3.11), so the counts stay under about 6.5 MB. The 100,000-record
# synth corpus holds 788 signatures.
SIGNATURE_CAP = 4096


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _shard_child(conn, run, start, end):
    try:
        outcome = run(start, end)
    except GeonormError as e:
        outcome = e
    conn.send(outcome)
    conn.close()


def _map_shards(run, ranges):
    """run(start, end) for every range, results in range order.

    The first range runs in this process and each other one in a forked
    child, which inherits the loaded world and tables and sends back only its
    result. Without fork the ranges run here one after another. Either way the
    error raised is that of the first failing range, as with one range.
    """
    if len(ranges) > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            return _map_forked(multiprocessing.get_context("fork"), run, ranges)
    return [run(start, end) for start, end in ranges]


def _map_forked(ctx, run, ranges):
    # nothing this process buffered may be written again by a child
    sys.stdout.flush()
    sys.stderr.flush()
    children = []
    try:
        for start, end in ranges[1:]:
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_shard_child, args=(send, run, start, end))
            proc.start()
            send.close()  # so that a child which dies leaves recv at EOF
            children.append((proc, recv, start, end))
        results = [run(*ranges[0])]
        for proc, recv, start, end in children:
            try:
                outcome = recv.recv()
            except EOFError:
                proc.join()
                raise GeonormError(
                    f"worker for bytes {start}-{end} of the traceroutes exited with code {proc.exitcode} without a result"
                ) from None
            if isinstance(outcome, GeonormError):
                raise outcome
            results.append(outcome)
            proc.join()
        return results
    finally:
        for proc, recv, _, _ in children:
            if proc.exitcode is None:
                proc.terminate()
            proc.join()
            recv.close()


def fold_signatures(counts, agg, skips, w, normal_set_of, policy):
    """Fold counts, {PathSignature: paths}, into agg and skips, then empty it.

    Each signature is classified once and weighted by its count, which moves
    every counter as folding its paths one at a time would. normal_set_of
    maps (src, dst) to the pair's NormalSet.
    """
    for sig, n in counts.items():
        ns = normal_set_of(sig.src_country, sig.dst_country)
        if ns.unclassifiable:
            if policy == "exclude":
                skips.add("unclassifiable_pair", n)
                continue
            skips.note("unclassifiable_pair_counted_non_normal", n)
        accumulate(agg, sig, classify_signature(sig, ns), w, n)
    counts.clear()


def cmd_analyze(cfg: RunConfig) -> int:
    _require(cfg, *_INPUTS)
    _make_output_dir(Path(cfg.output_dir))  # before any record is read
    w = _load_world(cfg)
    _check_mode(w, cfg)
    enrichment = _load_enrichment(cfg)
    cache = PairCache()

    normal_set_of = partial(cache.get_or_build, w, mode=cfg.mode)

    def run_shard(start, end):
        agg, skips, counts = Aggregate(), SkipLog(), Counter()
        source = str(cfg.traceroutes)
        for line_no, line in read_lines(cfg.traceroutes, start, end):
            sig = path_signature(line, enrichment, source, line_no)
            if type(sig) is str:
                skips.add(sig)
                continue
            counts[sig] += 1
            if len(counts) >= SIGNATURE_CAP:
                fold_signatures(counts, agg, skips, w, normal_set_of, cfg.unclassifiable_policy)
        fold_signatures(counts, agg, skips, w, normal_set_of, cfg.unclassifiable_policy)
        return agg, skips

    agg, skip_log = Aggregate(), SkipLog()
    ranges = shard_ranges(cfg.traceroutes, min(cfg.workers, _usable_cpus()))
    for part, skips in _map_shards(run_shard, ranges):
        agg.merge(part)
        skip_log.merge(skips)

    body = report(agg, w, skip_log, top_n=cfg.top_n)
    doc = {"header": _header(cfg), **body}
    _write_outputs(doc, Path(cfg.output_dir))

    print(f"paths classified: {agg.paths_total}")
    print(f"records skipped:  {skip_log.counts.total()}")
    for exposure in EXPOSURES:
        value = body["global_don"][exposure]
        print(f"global {exposure} DoN: " + (f"{value:.3f}" if value is not None else "n/a"))
    print(f"report written to {Path(cfg.output_dir) / 'report.json'}")
    return 0


def _header(cfg):
    return {
        "inputs": {name: {"file": Path(getattr(cfg, name)).name, "sha256": _sha256(getattr(cfg, name))} for name in _INPUTS},
        "config": {name: getattr(cfg, name) for name in _SETTINGS},
    }


def _fmt(value):
    return "" if value is None else (f"{value:.6f}" if isinstance(value, float) else str(value))


def _make_output_dir(output_dir: Path):
    try:
        output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise GeonormError(f"cannot create output directory {output_dir}: {e.strerror}") from None


def _write_outputs(doc, output_dir: Path):
    _make_output_dir(output_dir)
    try:
        _stage_outputs(doc, output_dir)
    except OSError as e:
        raise GeonormError(f"cannot write the report under {output_dir}: {e.strerror}") from None


def _stage_outputs(doc, output_dir: Path):
    staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=output_dir))
    try:
        (staging / "report.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        tables = staging / "tables"
        plots = staging / "plots"
        tables.mkdir()
        plots.mkdir()
        _write_tables(doc, tables)
        _write_plots(doc, plots)
        for name in ("report.json", "tables", "plots"):
            target = output_dir / name
            if target.is_dir():
                shutil.rmtree(target)
            elif target.exists():
                target.unlink()
            (staging / name).rename(target)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def _write_lines(path: Path, lines):
    """Write lines to path, each ending in a newline; no lines make an empty file."""
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _write_csv(path: Path, header, rows):
    _write_lines(path, [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows])


# CSV columns of the top-N tables, which are exactly the keys of their rows
_TOP_TABLES = {
    "transit_providers": ("iso2", "paths_transited", "transited_ratio", "transit_don"),
    "transit_only": ("iso2", "transit_only_paths", "transit_only_ratio", "transit_only_don"),
    "benefactors": ("iso2", "paths_benefited"),
}


def _write_tables(doc, tables: Path):
    for exposure in EXPOSURES:
        for name, header in _TOP_TABLES.items():
            _write_csv(tables / f"{name}_{exposure}.csv", header, [[r[k] for k in header] for r in doc[name][exposure]])
        _write_csv(
            tables / f"benefactor_transit_ratio_{exposure}.csv",
            ("iso2", "paths_benefited", "paths_transited", "ratio"),
            [(iso2, r["paths_benefited"], r["paths_transited"], r["ratio"]) for iso2, r in doc["benefactor_transit_ratio"][exposure].items()],
        )
        _write_csv(
            tables / f"region_role_don_{exposure}.csv",
            ("region", "role", "normal", "total", "don"),
            [
                (region, role, entry["normal"], entry["total"], entry["don"])
                for region, per_exp in doc["regional_role_don"].items()
                for role, entry in per_exp.get(exposure, {}).items()
            ],
        )
        _write_csv(
            tables / f"region_matrix_{exposure}.csv",
            ("src_region", "dst_region", "normal", "total", "don"),
            [
                (src_r, dst_r, entry["normal"], entry["total"], entry["don"])
                for src_r, row in doc["region_matrix"][exposure].items()
                for dst_r, entry in row.items()
            ],
        )


def _write_plots(doc, plots: Path):
    hists = doc["histograms"]
    for name in ("severity", "union_added"):
        _write_lines(plots / f"{name}.tsv", [f"{k}\t{v}" for k, v in hists[name].items()])
    for name in ("tuple_len_don", "as_count_don"):
        _write_lines(plots / f"{name}.tsv", [f"{k}\t{_fmt(entry['don'])}" for k, entry in hists[name].items()])
    for exposure in EXPOSURES:
        for role in ROLES:
            values = sorted(
                entry[exposure][role]["don"]
                for entry in doc["country_role_don"].values()
                if exposure in entry and role in entry[exposure] and entry[exposure][role]["don"] is not None
            )
            lines = [f"{_fmt(v)}\t{_fmt((i + 1) / len(values))}" for i, v in enumerate(values)]
            _write_lines(plots / f"don_cdf_{exposure}_{role}.tsv", lines)


def cmd_normal_set(cfg: RunConfig, src: str, dst: str, modes, export_hull: str | None = None) -> int:
    _require(cfg, "cities", "borders", "regions")
    w = _load_world(cfg)
    for mode in modes:
        ns = normal_set(w, src, dst, mode)
        label = "unclassifiable (pair spans more than a hemisphere)" if ns.unclassifiable else ", ".join(sorted(ns.countries))
        lines = [f"{mode}: {label}"]
        if export_hull:
            path = Path(export_hull)
            path = path.with_name(f"{path.stem}_{mode}{path.suffix}") if len(modes) > 1 else path
            why = ("a single-country pair has no hull" if src == dst
                   else "the pair spans more than a hemisphere" if ns.unclassifiable else None)
            if why is None:
                _export_hull(w, src, dst, mode, path)  # before printing, so that a failed write prints nothing
            lines.append(f"no hull ring written to {path}: {why}" if why else f"hull ring written to {path}")
        print("\n".join(lines))
    return 0


def _export_hull(w, src, dst, mode, path):
    hull = pair_hull(w, src, dst, mode)  # the hull normal_set decided the set with
    ring = [unit_to_geo(v) for v in hull.vertices]
    coordinates = [[p.lon, p.lat] for p in ring] + [[ring[0].lon, ring[0].lat]]
    doc = {
        "type": "Feature",
        "properties": {"src": src, "dst": dst, "mode": mode, "kind": hull.degenerate_kind},
        "geometry": {"type": "LineString", "coordinates": coordinates},
    }
    try:
        Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    except OSError as e:
        raise GeonormError(f"cannot write the hull ring to {path}: {e.strerror}") from None


def cmd_classify_one(cfg: RunConfig, line: str, source: str = "<line>") -> int:
    _require(cfg, "cities", "borders", "regions", "geo_table", "origin_table", "as_registry")
    w = _load_world(cfg)
    enrichment = _load_enrichment(cfg)
    rec = parse_traceroute_line(line, source=source)
    print(f"src {rec.src_ip} -> dst {rec.dst_ip}, {len(rec.hops)} raw hops")
    for hop in rec.hops:
        if hop.ip is None:
            print(f"  ttl {hop.ttl:3d}  (no response)")
            continue
        res = enrichment.resolve(hop.ip)
        if res.phys_country is None or res.asn is None:
            print(f"  ttl {hop.ttl:3d}  {hop.ip:<15s} dropped (country or AS unknown)")
        else:
            legal = res.legal_country or "??"
            print(f"  ttl {hop.ttl:3d}  {hop.ip:<15s} {res.phys_country} AS{res.asn} (legal {legal})")
    tp = to_tuple_path(rec, enrichment)
    if isinstance(tp, Skip):
        print(f"skipped: {tp.reason}")
        return 1
    ns = normal_set(w, tp.src_country, tp.dst_country, cfg.mode)
    pc = classify_path_with(tp, ns)
    tuples = " ".join(f"({h.phys_country},AS{h.asn})" for h in tp.hops) or "(empty)"
    print(f"tuple path: {tp.src_country} -> {tp.dst_country} via {tuples}")
    print(f"dropped hops: {tp.dropped_hops}")
    if ns.unclassifiable:
        print("normal set: unclassifiable (pair spans more than a hemisphere)")
    else:
        print(f"normal set ({cfg.mode}): {', '.join(sorted(ns.countries))}")
    for exposure, verdict in (("physical", pc.physical), ("legal", pc.legal), ("union", pc.union)):
        label = "normal" if verdict.normal else "non-normal, benefactors: " + ", ".join(sorted(verdict.benefactors))
        print(f"{exposure}: {label}")
    return 0


def cmd_validate_world(cfg: RunConfig) -> int:
    _require(cfg, "cities", "borders", "regions")
    w = _load_world(cfg)
    _check_mode(w, cfg)
    for line in load_summary(w):
        print(line)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(prog="geonorm", description="Geographic normality analysis of Internet paths.")
    parser.add_argument("--config", help="JSON file of defaults; explicit flags win")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, tables=False):
        p.add_argument("--cities")
        p.add_argument("--borders")
        p.add_argument("--regions")
        if tables:
            p.add_argument("--geo-table")
            p.add_argument("--origin-table")
            p.add_argument("--as-registry")
        p.add_argument("--mode", choices=_CHOICES["mode"])
        p.add_argument("--city-limit", type=int)

    p = sub.add_parser("analyze", help="classify a traceroute file and write the exposure report")
    add_common(p, tables=True)
    p.add_argument("--traceroutes")
    p.add_argument("--workers", type=int)
    p.add_argument("--unclassifiable-policy", choices=_CHOICES["unclassifiable_policy"])
    p.add_argument("--top-n", type=int)
    p.add_argument("--output-dir")
    p.add_argument("--origin-conflict", choices=_CHOICES["origin_conflict"],
                   help="how to treat prefixes announced by multiple origin ASes")

    p = sub.add_parser("normal-set", help="print the normal set for a country pair")
    add_common(p)
    p.add_argument("src")
    p.add_argument("dst")
    p.add_argument("--both-modes", action="store_true", help="print population and border modes")
    p.add_argument("--export-hull", help="write the hull ring as a GeoJSON LineString")

    p = sub.add_parser("classify-one", help="classify a single traceroute record")
    add_common(p, tables=True)
    p.add_argument("line", help="one NDJSON traceroute record, or - to read stdin")

    p = sub.add_parser("validate-world", help="load the world files and print the load summary")
    add_common(p)
    return parser


_CONFIG_KEYS = {f.name for f in fields(RunConfig)}


def _config_from_args(args) -> RunConfig:
    values = {}
    if args.config:
        try:
            with open(args.config, "rb") as fh:
                data = fh.read()  # once: a pipe cannot be read again to locate a bad byte
        except OSError as e:
            raise ValidationError(f"cannot open config file {args.config}: {e.strerror}") from e
        try:
            loaded = json.loads(data.decode("utf-8"))
        except UnicodeDecodeError:
            raise utf8_error(args.config, data) from None
        except json.JSONDecodeError as e:
            raise ValidationError(f"config file {args.config} is not valid JSON: {e.msg}") from None
        except (ValueError, RecursionError) as e:  # an over-long integer, or nesting too deep
            raise ValidationError(f"config file {args.config} is not valid JSON: {e}") from None
        if not isinstance(loaded, dict):
            raise ValidationError(f"config file {args.config} must hold a JSON object, got {json.dumps(loaded)}")
        unknown = set(loaded) - _CONFIG_KEYS
        if unknown:
            raise ValidationError(f"config file {args.config}: unknown keys {sorted(unknown)}")
        values.update(loaded)
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


def _run(args) -> int:
    cfg = _config_from_args(args)
    if args.command == "analyze":
        return cmd_analyze(cfg)
    if args.command == "normal-set":
        modes = MODES if args.both_modes else (cfg.mode,)
        return cmd_normal_set(cfg, args.src, args.dst, modes, export_hull=args.export_hull)
    if args.command == "classify-one":
        if args.line != "-":
            return cmd_classify_one(cfg, args.line)
        raw = sys.stdin.buffer.readline()
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise utf8_error("<stdin>", raw) from None
        return cmd_classify_one(cfg, line, source="<stdin>")
    if args.command == "validate-world":
        return cmd_validate_world(cfg)
    raise AssertionError(f"unhandled command {args.command}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()  # so that a reader gone away shows here, not at exit
        return code
    except GeonormError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the recipe of the signal module's docs: stdout goes to devnull, so
        # the flush at exit has nowhere left to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
