"""In-process analyze chain and the tracer that times its layers.

``analyze_chain`` makes the same public calls as ``geonorm analyze`` in one
thread: read_traceroutes, to_tuple_path, PairCache.get_or_build,
classify_path_with, accumulate, report and the output writer. ``pair_pass``
builds normal sets for a list of pairs from a cold PairCache.

With a Tracer, spans wrap each call. Inside to_tuple_path an Enrichment proxy
times ``geo.lookup`` and ``resolve``; inside PairCache the module attributes
``normal_set``, ``spherical_convex_hull`` and ``hull_boundary_samples`` of
``geonorm.normality`` are swapped for timed wrappers for the length of the
run and restored afterwards. Without a tracer the same calls run bare, which
gives the untraced wall time the tracing overhead is measured against.

Spans are kept in memory as (trace id, name, start, end, parent) and written
once the run ends. Self time is a span's duration minus the time its child
spans cover; time outside every span is reported as ``other``.
"""

from __future__ import annotations

import gzip
import ipaddress
import time
from contextlib import nullcontext
from pathlib import Path

import geonorm.normality as normality_mod
from geonorm import cli
from geonorm.enrichment import Enrichment, load_as_registry, load_geo_table, load_origin_table
from geonorm.metrics import Aggregate, accumulate, report
from geonorm.normality import PairCache
from geonorm.pipeline import Skip, SkipLog, classify_path_with, read_traceroutes, to_tuple_path
from geonorm.world import load_world

_NULL = nullcontext()
_perf = time.perf_counter


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        stack = t.stack
        self.index = len(t.spans)
        t.spans.append([t.trace_id, self.name, _perf(), 0.0, stack[-1] if stack else -1])
        stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][3] = _perf()
        t.stack.pop()
        return False


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.trace_id = 0  # the record (or pair) the current spans belong to
        self.counts: dict[str, float] = {}
        self.ip_seen: dict[str, list] = {}  # hop ip -> [resolve calls, resolved]
        self.build_ctx = None  # (world, src, dst) of the normal set being built

    def span(self, name):
        return _Span(self, name)

    def add(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def totals(self):
        """Per span name: (calls, total duration, self time, max duration)."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {}
        for i, (_, name, start, end, _) in enumerate(self.spans):
            dur = end - start
            entry = out.setdefault(name, [0, 0.0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - child[i]
            entry[3] = max(entry[3], dur)
        return out

    def top_level_s(self):
        return sum(end - start for _, _, start, end, parent in self.spans if parent < 0)

    def write(self, path: Path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("trace_id\tname\tstart_us\tdur_us\tparent\n")
            base = self.spans[0][2] if self.spans else 0.0
            for tid, name, start, end, parent in self.spans:
                fh.write(f"{tid}\t{name}\t{(start - base) * 1e6:.1f}\t{(end - start) * 1e6:.1f}\t{parent}\n")


class _TracedTable:
    def __init__(self, table, tracer):
        self._table = table
        self._tracer = tracer

    def lookup(self, ip):
        with self._tracer.span("enrichment.endpoint_lookup"):
            return self._table.lookup(ip)

    def __getattr__(self, name):
        return getattr(self._table, name)


class TracedEnrichment:
    """Times geo.lookup and resolve; forwards every other attribute."""

    def __init__(self, inner: Enrichment, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self.geo = _TracedTable(inner.geo, tracer)

    def resolve(self, ip, timestamp=None):
        t = self._tracer
        with t.span("enrichment.resolve"):
            res = self._inner.resolve(ip, timestamp)
        ok = res.phys_country is not None and res.asn is not None
        seen = t.ip_seen.get(ip)
        if seen is None:
            t.ip_seen[ip] = [1, ok]
        else:
            seen[0] += 1
        t.add("enrichment.resolve_calls")
        t.add("pipeline.hops_kept" if ok else "enrichment.unresolved")
        return res

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _patch_normality(tracer: Tracer):
    """Swap timed wrappers into geonorm.normality; returns the originals."""
    originals = {}

    def wrap(name, make):
        fn = getattr(normality_mod, name, None)
        if fn is not None:
            originals[name] = fn
            setattr(normality_mod, name, make(fn))

    def make_build(fn):
        def normal_set(w, src, dst, *args, **kwargs):
            tracer.build_ctx = (w, src, dst)
            with tracer.span("normality.build"):
                ns = fn(w, src, dst, *args, **kwargs)
            tracer.build_ctx = None
            if ns.unclassifiable:
                tracer.add("normality.unclassifiable_builds")
            return ns
        return normal_set

    def make_hull(fn):
        def spherical_convex_hull(points):
            with tracer.span("sphere.hull_build"):
                hull = fn(points)
            tracer.add("sphere.hull_vertices", len(hull.vertices))
            return hull
        return spherical_convex_hull

    def make_samples(fn):
        def hull_boundary_samples(hull, *args, **kwargs):
            samples = fn(hull, *args, **kwargs)
            tracer.add("sphere.boundary_samples", len(samples))
            if tracer.build_ctx is not None:
                w, src, dst = tracer.build_ctx
                polys = sum(len(cb.polygons) for iso2, cb in w.borders.items() if iso2 not in (src, dst))
                tracer.add("sphere.partial_candidates", len(samples) * polys)
            return samples
        return hull_boundary_samples

    wrap("normal_set", make_build)
    wrap("spherical_convex_hull", make_hull)
    wrap("hull_boundary_samples", make_samples)
    return originals


def _restore(originals):
    for name, fn in originals.items():
        setattr(normality_mod, name, fn)


def load_inputs(cfg: cli.RunConfig, tracer: Tracer | None):
    span = tracer.span if tracer else (lambda name: _NULL)
    with span("world.load"):
        w = load_world(cfg.cities, cfg.borders, cfg.regions, city_limit=cfg.city_limit)
    with span("enrichment.load"):
        geo = load_geo_table(cfg.geo_table)
    with span("enrichment.load"):
        origin = load_origin_table(cfg.origin_table)
    with span("enrichment.load"):
        registry = load_as_registry(cfg.as_registry)
    return w, Enrichment(geo=geo, origin=origin, registry=registry)


def analyze_chain(cfg: cli.RunConfig, tracer: Tracer | None = None):
    """One analyze run in-process.

    Returns (world, PairCache, SkipLog, normal sets by (unordered pair,
    mode)); the report is written under cfg.output_dir. The PairCache is built with the config's settings, as
    cmd_analyze builds it, and unclassifiable pairs follow the config policy.
    """
    span = tracer.span if tracer else (lambda name: _NULL)
    originals = _patch_normality(tracer) if tracer else {}
    try:
        w, enrichment = load_inputs(cfg, tracer)
        enrich = TracedEnrichment(enrichment, tracer) if tracer else enrichment
        cache = PairCache(boundary_step=cfg.boundary_step, city_limit=cfg.city_limit)
        agg, skips = Aggregate(), SkipLog()
        normal_sets = {}
        records = iter(read_traceroutes(cfg.traceroutes))
        n = 0
        while True:
            if tracer:
                tracer.trace_id = n
            with span("pipeline.parse"):
                rec = next(records, None)
            if rec is None:
                break
            n += 1
            with span("pipeline.to_tuple_path"):
                tp = to_tuple_path(rec, enrich)
            if isinstance(tp, Skip):
                skips.add(tp.reason)
                continue
            if tracer:
                tracer.add("pipeline.hops_responsive", sum(1 for h in rec.hops if h.ip is not None))
                tracer.add("pipeline.hops_dropped", tp.dropped_hops)
                tracer.add("pipeline.tuple_hops_out", len(tp.hops))
            with span("normality.get_or_build"):
                ns = cache.get_or_build(w, tp.src_country, tp.dst_country, cfg.mode)
            normal_sets[(frozenset((tp.src_country, tp.dst_country)), cfg.mode)] = ns
            if ns.unclassifiable:
                if cfg.unclassifiable_policy == "exclude":
                    skips.add("unclassifiable_pair")
                    continue
                skips.note("unclassifiable_pair_counted_non_normal")
            with span("normality.classify"):
                pc = classify_path_with(tp, ns)
            with span("metrics.accumulate"):
                accumulate(agg, tp, pc, w)
        if tracer:
            tracer.trace_id = n
        with span("metrics.report"):
            body = report(agg, w, skip_log=skips, top_n=cfg.top_n)
        doc = {"header": cli._header(cfg), **body}
        with span("cli.write"):
            cli._write_outputs(doc, Path(cfg.output_dir))
    finally:
        _restore(originals)
    return w, cache, skips, normal_sets


def pair_pass(w, pairs, modes, tracer: Tracer | None = None, trace_base: int = 0):
    """Build the normal set of every pair in every mode from a cold PairCache.

    Returns ({(src, dst, mode): NormalSet}, the PairCache).
    """
    span = tracer.span if tracer else (lambda name: _NULL)
    originals = _patch_normality(tracer) if tracer else {}
    results = {}
    try:
        cache = PairCache()
        for mode in modes:
            for i, (src, dst) in enumerate(pairs):
                if tracer:
                    tracer.trace_id = trace_base + i
                with span("normality.get_or_build"):
                    results[(src, dst, mode)] = cache.get_or_build(w, src, dst, mode)
    finally:
        _restore(originals)
    return results, cache


def is_special(ip: str) -> bool:
    """The special-address predicate the README documents, from ipaddress."""
    a = ipaddress.ip_address(ip)
    return a.is_private or a.is_loopback or a.is_link_local or a.is_multicast or a.is_reserved or a.is_unspecified
