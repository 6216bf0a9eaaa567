"""The two pipeline workloads: ``reproduce_cold`` and ``reanalyze_warm``.

``reproduce_cold``: one operation is a serial cold ``build_scenario``
into a fresh artifact-cache root, then Tables 1-3 (asrank, problink,
toposcope) and both bias profiles.  Each operation takes the next
scenario seed from a fixed pool, starting at a position derived from
the workload seed; the outputs of every pool seed are pinned by
``expected_digests.json``.

``reanalyze_warm``: set-up builds three mid-scale configs cold into one
cache root and computes their outputs.  One operation re-admits one of
them warm (mmap corpus, cached validation and relationships) and
computes the tables, both bias profiles, the transit-degree heatmap and
the §6.1 case study; its outputs must equal the cold build's.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from common import (
    CAL_REF_S,
    Context,
    Outcome,
    digest,
    layer_medians,
    median,
    mid_config,
    peak_rss_mb_self,
)
from spans import Tracer

from repro import build_scenario
from repro.analysis.export import profile_rows, table_dict
from repro.pipeline.cache import ArtifactCache
from repro.topology.graph import RelType

ALGORITHMS = ("asrank", "problink", "toposcope")

#: Scenario seeds whose ``reproduce_cold`` outputs are pinned.
SEED_POOL: Tuple[int, ...] = tuple(range(1000, 1040))
WARMUP_OPS = 3
#: The configs ``reanalyze_warm`` builds cold and re-admits warm.
REANALYZE_SEEDS: Tuple[int, ...] = (5001, 5002, 5003)

EXPECTED_PATH = Path(__file__).resolve().parent / "expected_digests.json"


# ----------------------------------------------------------------------
# outputs and their digests
# ----------------------------------------------------------------------
def asrel_bytes(rels) -> bytes:
    """serial-1 as-rel text of a relationship set (``write_asrel``'s
    format, built in memory)."""
    lines = []
    for key, rel, provider in sorted(rels.items()):
        if rel is RelType.P2C:
            customer = key[0] if key[1] == provider else key[1]
            lines.append(f"{provider}|{customer}|{rel.code}")
        else:
            lines.append(f"{key[0]}|{key[1]}|{rel.code}")
    return ("\n".join(lines) + "\n").encode("ascii")


def reproduce_digests(scenario, tables, regional, topological) -> Dict[str, str]:
    out = {algo: hashlib.sha256(asrel_bytes(scenario.infer(algo))).hexdigest()
           for algo in ALGORITHMS}
    out["tables"] = digest({algo: table_dict(tables[algo])
                            for algo in ALGORITHMS})
    out["bias"] = digest({"regional": profile_rows(regional),
                          "topological": profile_rows(topological)})
    return out


def reanalysis_outputs(scenario) -> Dict[str, Any]:
    """Everything a warm re-analysis computes, as plain data."""
    tables = {algo: table_dict(scenario.validation_table(algo))
              for algo in ALGORITHMS}
    bias = {"regional": profile_rows(scenario.regional_bias()),
            "topological": profile_rows(scenario.topological_bias())}
    heat = scenario.imbalance_heatmaps("transit_degree")
    case = scenario.case_study()
    return {
        "tables": tables,
        "bias": bias,
        "heatmap": [repr(heat.mismatch()), repr(heat.corner_masses())],
        "casestudy": {
            "wrong": [list(k) for k in case.class_links_wrong_p2p],
            "focus": case.focus_member,
            "targets": [[list(t.key), t.has_clique_triplet,
                         t.tagged_no_export, t.stale_validation]
                        for t in case.targets],
        },
    }


def load_expected() -> Dict[str, Dict[str, str]]:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def check_reproduce(seed: int, got: Dict[str, str],
                    expected: Dict[str, Dict[str, str]]) -> List[str]:
    """Mismatches between an operation's digests and the pinned ones."""
    want = expected.get(str(seed))
    if want is None:
        return [f"seed {seed}: no pinned digests"]
    return [f"seed {seed}: {name} digest {got.get(name)} != {value}"
            for name, value in sorted(want.items()) if got.get(name) != value]


def dir_bytes(root: Path) -> int:
    total = 0
    for base, _dirs, files in os.walk(root):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(base, name))
            except OSError:
                pass
    return total


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
def install_pipeline_spans(tracer: Tracer) -> None:
    """Wrap the pipeline's public entry points (traced runs only)."""
    import repro.bgp.collectors as collectors
    import repro.scenario as scenario_mod
    from repro.bgp.lookingglass import LookingGlass
    from repro.datasets.paths import PathCorpus
    from repro.inference.asrank import ASRank
    from repro.inference.problink import ProbLink
    from repro.inference.toposcope import TopoScope

    def count_links(t: Tracer, _args, result) -> None:
        t.count("inference.links", len(result))

    def count_routes(t: Tracer, args, _result) -> None:
        routes = args[1]
        if hasattr(routes, "__len__"):
            t.count("bgp.routes", len(routes))

    indexed = set()

    def first_index(args) -> bool:
        if id(args[0]) in indexed:
            return False
        indexed.add(id(args[0]))
        return True

    tracer.reset_hooks.append(indexed.clear)
    tracer.wrap(scenario_mod, "generate_topology", "topology.generate_s")
    tracer.wrap(scenario_mod, "measurement_setup", "bgp.measurement_s")
    tracer.wrap(scenario_mod, "collect_rounds", "bgp.collect_self_s")
    tracer.wrap(collectors, "compute_origin_routes", "bgp.propagate_s",
                after=lambda t, a, r: t.count("bgp.origins"))
    tracer.wrap(PathCorpus, "add_routes", "datasets.ingest_s",
                after=count_routes)
    tracer.wrap(PathCorpus, "visible_links", "datasets.index_s",
                first_only=first_index)
    tracer.wrap(scenario_mod, "compile_validation", "validation.compile_s")
    tracer.wrap(scenario_mod, "clean_validation", "validation.clean_s")
    for method in ("store_corpus", "store_validation", "store_rels"):
        tracer.wrap(ArtifactCache, method, "pipeline.cache_store_s")
    for method in ("load_corpus", "load_validation", "load_rels"):
        tracer.wrap(ArtifactCache, method, "pipeline.cache_load_s")
    tracer.wrap(ASRank, "infer", "inference.asrank_s", after=count_links)
    tracer.wrap(ProbLink, "infer", "inference.problink_s", after=count_links)
    tracer.wrap(TopoScope, "infer", "inference.toposcope_s",
                after=count_links)
    Scenario = scenario_mod.Scenario
    tracer.wrap(Scenario, "validation_table", "analysis.tables_s")
    tracer.wrap(Scenario, "regional_bias", "analysis.bias_s")
    tracer.wrap(Scenario, "topological_bias", "analysis.bias_s")
    tracer.wrap(Scenario, "imbalance_heatmaps", "analysis.heatmap_s")
    tracer.wrap(Scenario, "case_study", "analysis.casestudy_self_s")
    tracer.wrap(LookingGlass, "routes_received", "bgp.lookingglass_s")


def op_counts(scenario, cache: ArtifactCache, written: int) -> Dict[str, float]:
    """Per-operation counts read from public attributes afterwards."""
    stats = scenario.corpus.stats()
    return {
        "datasets.visible_links": float(stats["n_visible_links"]),
        "datasets.triplets": float(stats["n_triplets"]),
        "validation.entries": float(len(scenario.validation)),
        "pipeline.cache_hits": float(cache.hits),
        "pipeline.cache_misses": float(cache.misses),
        "pipeline.cache_bytes_written": float(written),
    }


# ----------------------------------------------------------------------
# the shared measuring loop
# ----------------------------------------------------------------------
def measure(ctx: Context, op, tracer: Optional[Tracer], min_ops: int = 3):
    """Run ``op(index, traced)`` until ``ctx.seconds`` have elapsed.

    ``op`` returns ``(raw_s, corrected_s, layers, errors)``: its own
    timed span as measured and drift-corrected (``ctx.clock``), its
    per-operation layer figures and its output mismatches.  In a traced
    run every other operation is traced, so the untraced ones give the
    overhead baseline.
    """
    if tracer is not None:
        min_ops = max(min_ops, 4)
    results = []
    deadline = time.perf_counter() + ctx.seconds
    index = 0
    while index < min_ops or time.perf_counter() < deadline:
        traced = tracer is not None and index % 2 == 0
        results.append((traced,) + op(index, traced))
        index += 1
    return results


def scaled(layers: Dict[str, float], factor: float) -> Dict[str, float]:
    """Apply an operation's drift correction to its span times."""
    return {name: value * factor if name.endswith("_s") else value
            for name, value in layers.items()}


def typical(times: List[float], groups: int) -> float:
    """The median operation time; with ``groups`` inputs that the
    operations cycle through, the mean of the per-input medians (the
    plain median would sit on whichever input is the middle one)."""
    if groups <= 1 or len(times) < groups:
        return median(times)
    return sum(median(times[k::groups]) for k in range(groups)) / groups


def summarize(ctx: Context, results, name: str, headline: str,
              groups: int = 1) -> Outcome:
    """Fold ``measure`` results into an :class:`Outcome`."""
    untraced = [r[2] for r in results if not r[0]]
    traced = [r[2] for r in results if r[0]]
    if traced and groups % 2 == 0:
        # Traced runs alternate; an odd cycle still visits every input
        # in each half, an even one does not.
        groups = 1
    failed = sum(1 for r in results if r[4])
    errors = [e for r in results for e in r[4]]
    setup = ctx.setup()
    end_to_end = {
        "setup_s": setup["setup_s"],
        "op_ms": typical(untraced, groups) * 1000.0,
        "ops_per_s": len(untraced) / sum(untraced),
        "peak_rss_mb": peak_rss_mb_self(),
    }
    per_layer: Dict[str, float] = {}
    if traced:
        per_layer = layer_medians([r[3] for r in results if r[0]])
        per_layer[f"{name}.untraced_s"] = per_layer.pop("untraced_s", 0.0)
        per_layer["trace.overhead_ratio"] = (typical(traced, groups)
                                             / typical(untraced, groups))
    per_layer[headline] = typical(untraced, groups)
    per_layer["fail_share"] = failed / len(results)
    record = {
        **setup,
        "ops": len(results),
        "op_traced": [r[0] for r in results],
        "op_raw_s": [r[1] for r in results],
        "op_s": [r[2] for r in results],
        "op_raw_typical_s": typical([r[1] for r in results if not r[0]],
                                    groups),
        "calibration_s": ctx.clock.readings,
        "calibration_ref_s": CAL_REF_S,
    }
    return Outcome(len(results), failed, end_to_end, per_layer, record,
                   errors)


# ----------------------------------------------------------------------
# reproduce_cold
# ----------------------------------------------------------------------
def pool_start(seed: int) -> int:
    h = hashlib.sha256(f"reproduce_cold:{seed}".encode()).digest()
    return int.from_bytes(h[:4], "big") % len(SEED_POOL)


def reproduce_once(cache_root: Path, scenario_seed: int):
    """One cold reproduction; returns (scenario, cache, outputs)."""
    cache = ArtifactCache(root=cache_root)
    scenario = build_scenario(mid_config(scenario_seed), workers=0,
                              cache=cache)
    tables = {algo: scenario.validation_table(algo) for algo in ALGORITHMS}
    regional = scenario.regional_bias()
    topological = scenario.topological_bias()
    return scenario, cache, (tables, regional, topological)


def run_reproduce_cold(ctx: Context) -> Outcome:
    expected = load_expected()
    tracer = Tracer() if ctx.trace else None
    start = pool_start(ctx.seed)
    seeds = [SEED_POOL[(start + k) % len(SEED_POOL)]
             for k in range(len(SEED_POOL))]
    warmup, timed = seeds[:WARMUP_OPS], seeds[WARMUP_OPS:]
    setup_errors: List[str] = []
    for k, scenario_seed in enumerate(warmup):
        root = ctx.workdir / f"warmup{k}"
        with ctx.setup_unit():
            scenario, _, outputs = reproduce_once(root, scenario_seed)
        setup_errors += check_reproduce(
            scenario_seed, reproduce_digests(scenario, *outputs), expected)
        del scenario, outputs
        shutil.rmtree(root, ignore_errors=True)
    if tracer is not None:
        install_pipeline_spans(tracer)
    ctx.end_setup()
    segments = ctx.segments
    segments.tracer = tracer

    def op(index: int, traced: bool):
        scenario_seed = timed[index % len(timed)]
        root = ctx.workdir / f"op{index}"
        if tracer is not None:
            tracer.begin_op(traced)
        segments.begin()
        scenario, cache, outputs = reproduce_once(root, scenario_seed)
        raw, corrected = segments.end()
        layers = tracer.end_op(raw) if tracer is not None else {}
        errors = check_reproduce(
            scenario_seed, reproduce_digests(scenario, *outputs), expected)
        layers = scaled(layers, corrected / raw)
        if traced:
            layers.update(op_counts(scenario, cache, dir_bytes(root)))
        shutil.rmtree(root, ignore_errors=True)
        return raw, corrected, layers, errors

    results = measure(ctx, op, tracer)
    if tracer is not None:
        tracer.unwrap_all()
    outcome = summarize(ctx, results, "reproduce_cold", "reproduce_s")
    outcome.errors = setup_errors + outcome.errors
    outcome.record["scenario_seeds"] = timed[:len(results)]
    outcome.record["warmup_seeds"] = warmup
    return outcome


# ----------------------------------------------------------------------
# reanalyze_warm
# ----------------------------------------------------------------------
def run_reanalyze_warm(ctx: Context) -> Outcome:
    tracer = Tracer() if ctx.trace else None
    cache_root = ctx.workdir / "cache"
    # The configs are fixed; the workload seed sets the order in which
    # they are re-admitted.  Warm re-analysis cost swings by 2x between
    # 240-AS topologies (the case study's looking-glass audit scales with
    # the focus member's wrong links), so seed-drawn configs would make
    # the per-run figure depend on the draw rather than on the program.
    first = ctx.seed % len(REANALYZE_SEEDS)
    configs = [mid_config(REANALYZE_SEEDS[(first + k) % len(REANALYZE_SEEDS)])
               for k in range(len(REANALYZE_SEEDS))]
    expected: List[str] = []
    for config in configs:
        with ctx.setup_unit():
            scenario = build_scenario(config, workers=0,
                                      cache=ArtifactCache(root=cache_root))
            outputs = reanalysis_outputs(scenario)
        expected.append(digest(outputs))
        del scenario, outputs
    if tracer is not None:
        install_pipeline_spans(tracer)
    ctx.end_setup()
    segments = ctx.segments
    segments.tracer = tracer

    def op(index: int, traced: bool):
        k = index % len(configs)
        cache = ArtifactCache(root=cache_root)
        before = dir_bytes(cache_root) if traced else 0
        if tracer is not None:
            tracer.begin_op(traced)
        segments.begin()
        scenario = build_scenario(configs[k], workers=0, cache=cache)
        outputs = reanalysis_outputs(scenario)
        raw, corrected = segments.end()
        layers = tracer.end_op(raw) if tracer is not None else {}
        layers = scaled(layers, corrected / raw)
        errors = []
        if not scenario.corpus_from_cache or cache.misses:
            errors.append(f"config {k}: warm op missed the cache "
                          f"({cache.misses} misses)")
        if digest(outputs) != expected[k]:
            errors.append(f"config {k}: warm outputs differ from cold build")
        if traced:
            layers.update(op_counts(scenario, cache,
                                    dir_bytes(cache_root) - before))
        return raw, corrected, layers, errors

    results = measure(ctx, op, tracer)
    if tracer is not None:
        tracer.unwrap_all()
    outcome = summarize(ctx, results, "reanalyze_warm", "reanalyze_s",
                        groups=len(configs))
    outcome.record["scenario_seeds"] = [c.seed for c in configs]
    return outcome
