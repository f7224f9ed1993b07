#!/usr/bin/env python3
"""geonorm benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload synth-lane --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --list        # every metric by name, unit and direction

Workloads (closed batch: one job at a time from this process; `analyze`
runs with at most nproc = 2 workers):

- synth-lane: a geonorm.synth corpus over tests/data/smallworld, population
  mode, --workers 1. Parse, enrichment and accumulate do the work.
- world-reuse: a generated 96-country world and tables (perfbench/gen.py),
  border mode, --workers 2. Router IPs repeat, LPM is deep, and normal-set
  misses are a visible share of the run.
- world-allpairs: normal_set over a stratified seeded sample of pairs of the
  same generated world, both modes, from a cold PairCache. `analyze` runs
  over one record per sampled pair.

With --trace 0 the run times set-up in fresh processes (setup_s), then
measures for --seconds `python -m geonorm.cli analyze` subprocesses
(records_per_s, peak_rss_mb) and in-process cold-cache normal-set passes
(pairs_per_s). Each figure is the median over the run, with times scaled to
a reference host speed by the probes of speed.py; the stamp line holds the
raw medians. With --trace 1 it runs the in-process chain of chain.py,
untraced and traced in turn, and reports the per-layer metrics (raw times,
medians over passes) and the input properties of the workload.

Every run also checks outputs: the pipeline12 fixture report is reproduced by
the same CLI call the tests make; every analyze run of a workload and seed
gives the same report.json digest; classified plus skipped records equal the
records generated; the traced chain's report body equals the CLI's; every
normal set contains both endpoints and repeats exactly. A failed check or a
non-zero exit counts as a failed operation. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SMALLWORLD = ROOT / "tests" / "data" / "smallworld"
PIPELINE12 = ROOT / "tests" / "data" / "pipeline12"
WORK = HERE / ".work"

SETUP_REPEATS = 7
SYNTH_RECORDS = 6000

# name -> (world, corpus, analyze mode, workers, share of --seconds spent on analyze)
WORKLOADS = {
    "synth-lane": ("smallworld", "synth.ndjson", "population", 1, 0.8),
    "world-reuse": ("generated", "reuse.ndjson", "border", 2, 0.75),
    "world-allpairs": ("generated", "allpairs.ndjson", "population", 1, 0.5),
}


def fail(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "geonorm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, log: Path):
    """Run a child to completion.

    Returns (wall s, host slowdown while it ran, peak RSS MB, exit code).
    """
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT)
        try:
            with speed.Sampler(proc.pid) as sampler:
                _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, sampler.slowdown(), usage.ru_maxrss / 1024.0, proc.returncode


class Inputs:
    """Generated files of one workload and seed, and the CLI flags that name them."""

    def __init__(self, workload: str, seed: int):
        world, corpus, mode, workers, _ = WORKLOADS[workload]
        self.workload, self.seed, self.mode, self.workers = workload, seed, mode, workers
        self.dir = WORK / f"{workload}-{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        if world == "smallworld":
            from geonorm.synth import write_corpus

            self.tables = SMALLWORLD
            self.records = write_corpus(self.dir / corpus, SYNTH_RECORDS, seed=seed)
            codes = sorted(line.split(",")[0] for line in (SMALLWORLD / "regions.csv").read_text().split("\n")[1:] if line)
            self.pairs = [(a, b) for i, a in enumerate(codes) for b in codes[i:]]
            self.pair_modes = (mode,)
        else:
            import gen

            manifest = gen.generate(seed, self.dir)
            self.tables = self.dir
            self.records = sum(1 for line in open(self.dir / corpus, encoding="utf-8") if line.strip())
            key = "reuse_pairs" if workload == "world-reuse" else "allpairs"
            self.pairs = [tuple(p) for p in manifest[key]]
            self.pair_modes = (mode,) if workload == "world-reuse" else ("population", "border")
        self.corpus = self.dir / corpus
        # reports of one workload and seed must match across runs while the generator is unchanged
        self.digest_key = f"{workload}/{seed}/{sha256(HERE / 'gen.py')[:12]}"

    def files(self):
        t = self.tables
        return {
            "cities": t / "cities.csv", "borders": t / "borders.geojson", "regions": t / "regions.csv",
            "geo_table": t / "geo.csv", "origin_table": t / "origin.csv", "as_registry": t / "as_registry.csv",
        }

    def analyze_argv(self, out_dir: Path):
        argv = [sys.executable, "-m", "geonorm.cli", "analyze"]
        for name, path in self.files().items():
            argv += ["--" + name.replace("_", "-"), str(path)]
        return argv + ["--traceroutes", str(self.corpus), "--mode", self.mode,
                       "--workers", str(self.workers), "--output-dir", str(out_dir)]

    def run_config(self, out_dir: Path):
        from geonorm.cli import RunConfig

        files = {k: str(v) for k, v in self.files().items()}
        return RunConfig(**files, traceroutes=str(self.corpus), mode=self.mode, workers=1, output_dir=str(out_dir))


class Checks:
    """Operations attempted and failed, with the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def report_body(path: Path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc.pop("header", None)
    return doc


def check_report(checks: Checks, inputs: Inputs, out_dir: Path, code: int, digests: dict, label: str):
    """One analyze operation: exit code, stable digest, records reconcile."""
    report = out_dir / "report.json"
    if code != 0 or not report.exists():
        return checks.op(False, f"{label}: exit code {code}")
    digest = sha256(report)
    first = digests.setdefault(inputs.digest_key, digest)
    totals = json.loads(report.read_text(encoding="utf-8"))["totals"]
    seen = totals["paths_classified"] + totals["records_skipped"]
    if first != digest:
        return checks.op(False, f"{label}: report digest {digest[:12]} differs from {first[:12]}")
    return checks.op(seen == inputs.records, f"{label}: classified + skipped = {seen}, generated {inputs.records}")


def pipeline12_gate(checks: Checks):
    """Reproduce the committed pipeline12 report with the CLI call the tests make."""
    out = WORK / "pipeline12-out"
    shutil.rmtree(out, ignore_errors=True)
    argv = [sys.executable, "-m", "geonorm.cli", "analyze"]
    for flag, name in (("--cities", "cities.csv"), ("--borders", "borders.geojson"), ("--regions", "regions.csv"),
                       ("--geo-table", "geo.csv"), ("--origin-table", "origin.csv"), ("--as-registry", "as_registry.csv")):
        argv += [flag, str(SMALLWORLD / name)]
    argv += ["--traceroutes", str(PIPELINE12 / "traceroutes.ndjson"), "--output-dir", str(out)]
    code = run_child(argv, WORK / "pipeline12.log")[-1]
    expected = PIPELINE12 / "expected"
    want = sorted(p.relative_to(expected) for p in expected.rglob("*") if p.is_file())
    got = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file()) if out.exists() else []
    same = code == 0 and got == want and all((out / p).read_bytes() == (expected / p).read_bytes() for p in want)
    shutil.rmtree(out, ignore_errors=True)
    checks.op(same, "pipeline12 fixture report differs from the committed expectation")
    return same


SETUP_SCRIPT = """
import sys, time
t0 = time.perf_counter()
import geonorm
from geonorm.world import load_world
from geonorm.enrichment import load_geo_table, load_origin_table, load_as_registry
f = sys.argv[1:]
load_world(f[0], f[1], f[2]); load_geo_table(f[3]); load_origin_table(f[4]); load_as_registry(f[5])
print(time.perf_counter() - t0)
"""


def measure_setup(inputs: Inputs, checks: Checks, samples):
    """Set-up times of fresh processes importing geonorm and loading the inputs."""
    files = [str(p) for p in inputs.files().values()]
    for i in range(SETUP_REPEATS):
        log = inputs.dir / f"setup-{i}.log"
        _, slow, _, code = run_child([sys.executable, "-c", SETUP_SCRIPT, *files], log)
        if checks.op(code == 0, f"set-up process exited {code}"):
            samples.add("setup_s", float(log.read_text().strip().splitlines()[-1]), slow)


class Samples:
    """Raw values of each metric and the host slowdown each was measured at."""

    def __init__(self):
        self.raw: dict[str, list] = {}
        self.slow: dict[str, list] = {}

    def add(self, name, value, slowdown=1.0):
        self.raw.setdefault(name, []).append(value)
        self.slow.setdefault(name, []).append(slowdown)

    def median_scaled(self, name, rate):
        """Median of values moved to the reference host speed (rates scale up, times down)."""
        pairs = zip(self.raw[name], self.slow[name])
        return statistics.median(v * s if rate else v / s for v, s in pairs)

    def summary(self):
        return {name: {"n": len(v), "raw_median": statistics.median(v), "slowdown_median": statistics.median(self.slow[name])}
                for name, v in self.raw.items()}


def normal_set_fingerprint(results):
    return {key: (ns.unclassifiable, tuple(sorted(ns.countries))) for key, ns in results.items()}


def check_pairs(checks: Checks, results, reference):
    """One operation per normal_set call: both endpoints present, same as the first pass."""
    got = normal_set_fingerprint(results)
    for (src, dst, mode), ns in results.items():
        key = (src, dst, mode)
        ok = src in ns.countries and dst in ns.countries and got[key] == reference[key]
        checks.op(ok, f"normal set {src}-{dst} ({mode}) lacks an endpoint or changed between passes")


def scaled_pair_pass(w, pairs, modes):
    """Build every pair's normal set from a cold PairCache, one host-speed probe per build.

    Returns ({(src, dst, mode): NormalSet}, wall s of the builds, the same
    time scaled build by build to the reference host speed).
    """
    from geonorm.normality import PairCache

    cache = PairCache()
    results = {}
    wall = scaled = 0.0
    before = speed.slowdown_now()
    for mode in modes:
        for src, dst in pairs:
            start = time.perf_counter()
            results[(src, dst, mode)] = cache.get_or_build(w, src, dst, mode)
            took = time.perf_counter() - start
            after = speed.slowdown_now()
            wall += took
            scaled += took / ((before + after) / 2)
            before = after
    return results, wall, scaled


def run_untraced(inputs: Inputs, seconds: float, checks: Checks, digests: dict):
    """End-to-end metrics: analyze subprocesses, then cold-cache normal-set passes."""
    from geonorm.world import load_world

    samples = Samples()
    measure_setup(inputs, checks, samples)
    share = WORKLOADS[inputs.workload][4]

    deadline = time.perf_counter() + seconds * share
    runs = 0
    while not runs or time.perf_counter() < deadline:
        runs += 1
        out = inputs.dir / "out"
        wall, slow, peak, code = run_child(inputs.analyze_argv(out), inputs.dir / "analyze.log")
        check_report(checks, inputs, out, code, digests, f"analyze run {runs}")
        samples.add("records_per_s", inputs.records / wall, slow)
        samples.add("peak_rss_mb", peak)

    files = inputs.files()
    w = load_world(files["cities"], files["borders"], files["regions"])
    reference = None
    deadline = time.perf_counter() + seconds * (1 - share)
    while "pairs_per_s" not in samples.raw or time.perf_counter() < deadline:
        results, wall, scaled = scaled_pair_pass(w, inputs.pairs, inputs.pair_modes)
        samples.add("pairs_per_s", len(results) / wall, wall / scaled)
        reference = reference or normal_set_fingerprint(results)
        check_pairs(checks, results, reference)

    metrics = {
        "records_per_s": samples.median_scaled("records_per_s", rate=True),
        "peak_rss_mb": statistics.median(samples.raw["peak_rss_mb"]),
        "pairs_per_s": samples.median_scaled("pairs_per_s", rate=True),
        "setup_s": samples.median_scaled("setup_s", rate=False) if "setup_s" in samples.raw else float("nan"),
    }
    return metrics, {"samples": samples.summary()}


def chain_pass(inputs: Inputs, tracer):
    """The in-process chain of one workload; world-allpairs adds its pair pass."""
    from chain import analyze_chain, pair_pass

    out = inputs.dir / ("out-traced" if tracer else "out-untraced")
    before = speed.slowdown_now()
    start = time.perf_counter()
    w, cache, skips, normal_sets = analyze_chain(inputs.run_config(out), tracer)
    results, pair_cache = {}, None
    if inputs.workload == "world-allpairs":
        results, pair_cache = pair_pass(w, inputs.pairs, inputs.pair_modes, tracer, trace_base=inputs.records)
    wall = time.perf_counter() - start
    slowdown = (before + speed.slowdown_now()) / 2
    return {"wall": wall, "scaled_wall": wall / slowdown, "out": out, "world": w, "caches": [c for c in (cache, pair_cache) if c],
            "skips": skips, "normal_sets": normal_sets, "results": results}


def corpus_shape(inputs: Inputs):
    """(records, raw hops) of the corpus file."""
    records = hops = 0
    with open(inputs.corpus, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                records += 1
                hops += len(json.loads(line)["hops"])
    return records, hops


def layer_metrics(inputs: Inputs, traced, untraced, checks: Checks):
    """Per-layer metrics and input properties of one traced pass."""
    from chain import is_special
    from geonorm.pipeline import SKIP_REASONS

    tracer = traced["tracer"]
    tot = tracer.totals()
    c = tracer.counts

    def total(name, i=1):
        return tot[name][i] if name in tot else 0.0

    calls = c.get("enrichment.resolve_calls", 0)
    special = sum(n for ip, (n, _) in tracer.ip_seen.items() if is_special(ip))
    unresolved_plain = sum(n for ip, (n, ok) in tracer.ip_seen.items() if not ok and not is_special(ip))
    resolved_special = [ip for ip, (_, ok) in tracer.ip_seen.items() if ok and is_special(ip)]
    checks.op(not resolved_special, f"special addresses resolved: {resolved_special[:3]}")
    responsive, kept, dropped = (c.get(k, 0) for k in ("pipeline.hops_responsive", "pipeline.hops_kept", "pipeline.hops_dropped"))
    checks.op(kept + dropped == responsive == calls,
              f"hops do not reconcile: responsive {responsive}, kept {kept}, dropped {dropped}, resolved {calls}")

    hits = sum(cache.hits for cache in traced["caches"])
    misses = sum(cache.misses for cache in traced["caches"])
    pairs = {pair for pair, _ in traced["normal_sets"]} | {frozenset((s, d)) for s, d, _ in traced["results"]}
    sets = list(traced["normal_sets"].values()) + list(traced["results"].values())
    unclassifiable = {(frozenset((ns.src, ns.dst)), ns.mode) for ns in sets if ns.unclassifiable}
    records, raw_hops = corpus_shape(inputs)
    borders = traced["world"].borders
    vertices = sum(len(ring) for cb in borders.values() for poly in cb.polygons for ring in poly.rings)

    m = {
        "world.load_s": total("world.load"),
        "enrichment.load_s": total("enrichment.load"),
        "enrichment.resolve_s": total("enrichment.resolve"),
        "enrichment.resolve_calls": calls,
        "enrichment.endpoint_lookup_s": total("enrichment.endpoint_lookup"),
        "enrichment.unresolved_ratio": c.get("enrichment.unresolved", 0) / calls if calls else 0.0,
        "enrichment.unique_ip_ratio": len(tracer.ip_seen) / calls if calls else 0.0,
        "pipeline.parse_s": total("pipeline.parse"),
        "pipeline.tuple_self_s": total("pipeline.to_tuple_path", 2),
        "pipeline.hops_responsive": responsive,
        "pipeline.hops_kept": kept,
        "pipeline.hops_dropped": dropped,
        "pipeline.tuple_hops_out": c.get("pipeline.tuple_hops_out", 0),
        "normality.cache_hits": hits,
        "normality.cache_misses": misses,
        "normality.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "normality.build_s": total("normality.build"),
        "normality.build_ms_max": total("normality.build", 3) * 1000.0,
        "normality.unclassifiable_pairs": len(unclassifiable),
        "normality.classify_s": total("normality.classify"),
        "sphere.hull_build_s": total("sphere.hull_build"),
        "sphere.hull_vertices": c.get("sphere.hull_vertices", 0),
        "sphere.boundary_samples": c.get("sphere.boundary_samples", 0),
        "sphere.partial_candidates": c.get("sphere.partial_candidates", 0),
        "metrics.accumulate_s": total("metrics.accumulate"),
        "metrics.report_s": total("metrics.report"),
        "cli.write_s": total("cli.write"),
        "trace.overhead_ratio": traced["scaled_wall"] / untraced["scaled_wall"],
        "trace.other_s": traced["wall"] - tracer.top_level_s(),
        "input.records": records,
        "input.distinct_pairs": len(pairs),
        "input.special_hop_share": special / calls if calls else 0.0,
        "input.unresolved_hop_share": unresolved_plain / calls if calls else 0.0,
        "input.mean_hops_per_record": raw_hops / records,
        "input.mean_border_vertices": vertices / len(borders),
    }
    for reason in SKIP_REASONS:
        m[f"pipeline.skipped.{reason}"] = traced["skips"].counts.get(reason, 0)
    return m


def run_traced(inputs: Inputs, seconds: float, checks: Checks, digests: dict):
    """Per-layer metrics: the chain untraced and traced in turn, medians over pairs of passes."""
    from chain import Tracer

    out = inputs.dir / "out-cli"
    code = run_child(inputs.analyze_argv(out), inputs.dir / "analyze.log")[-1]
    cli_ok = check_report(checks, inputs, out, code, digests, "analyze run")
    cli_body = report_body(out / "report.json") if cli_ok else None

    per_pass = []
    deadline = time.perf_counter() + seconds
    while not per_pass or time.perf_counter() < deadline:
        untraced = chain_pass(inputs, None)
        tracer = Tracer()
        traced = chain_pass(inputs, tracer)
        traced["tracer"] = tracer
        for run in (untraced, traced):
            checks.op(report_body(run["out"] / "report.json") == cli_body,
                      "in-process chain report body differs from the CLI's")
        if traced["results"]:
            check_pairs(checks, traced["results"], normal_set_fingerprint(untraced["results"]))
        per_pass.append(layer_metrics(inputs, traced, untraced, checks))
    tracer.write(WORK / f"trace-{inputs.workload}-{inputs.seed}.tsv.gz")
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    return metrics, {"chain_passes": len(per_pass)}


def stamp(args, runs):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        **runs,
    }


def print_catalog(spec):
    print(f"{'metric':<36} {'unit':<6} {'better':<7} {'bound':<6} kind")
    for kind in ("end_to_end", "per_layer"):
        for m in spec[kind]:
            print(f"{m['name']:<36} {m['unit']:<6} {m['better']:<7} {m.get('bound', ''):<6} {kind}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true", help="print every metric by name and unit, then exit")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.list:
        print_catalog(spec)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    for needed in (SRC / "geonorm" / "__init__.py", SMALLWORLD / "geo.csv", PIPELINE12 / "traceroutes.ndjson"):
        if not needed.is_file():
            fail(f"{needed.relative_to(ROOT)} not found: run from a full checkout of the repository")
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    digest_file = WORK / "digests.json"
    digests = json.loads(digest_file.read_text()) if digest_file.exists() else {}

    if WORKLOADS[args.workload][3] == 1:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    checks = Checks()
    pipeline12_gate(checks)
    inputs = Inputs(args.workload, args.seed)
    if args.trace:
        values, runs = run_traced(inputs, args.seconds, checks, digests)
    else:
        values, runs = run_untraced(inputs, args.seconds, checks, digests)
        values["success_rate"] = (checks.attempted - len(checks.failures)) / checks.attempted
    digest_file.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(inputs.dir, ignore_errors=True)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        value = values[m["name"]]
        if not isinstance(value, (int, float)) or value != value:
            fail(f"metric {m['name']} has no value ({value!r})")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    info = stamp(args, runs)
    info["report_sha256"] = digests.get(inputs.digest_key)
    info["failures"] = checks.failures
    print(json.dumps({"stamp": info}, sort_keys=True))
    for name, entry in metrics.items():
        print(f"  {name:<36} {entry['value']:>16.6g} {entry['unit']}")
    result = {"correct": not checks.failures, "attempted": checks.attempted, "failed": len(checks.failures),
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
