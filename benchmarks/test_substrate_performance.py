"""Substrate performance benchmarks.

Not paper experiments — these time the simulator's hot paths so
regressions in the engine are caught alongside the science:

* per-origin route computation (the inner loop of collection),
* corpus indexing throughput (ingest + the derived views inference
  reads: links, degrees, triplets),
* full ASRank inference over the paper-scale corpus,
* parallel propagation speedup over serial (multi-core hosts only),
* warm-cache scenario builds that skip propagation entirely.

Every benchmark records its median into ``BENCH_substrate.json`` (see
:mod:`repro.utils.benchreport`) together with the paper-scale corpus's
columnar memory footprint, so CI archives machine-readable numbers and
successive runs can be diffed.  Set ``BENCH_OUTPUT_DIR`` to redirect
the report; partial runs merge into an existing file.
"""

import os
import time
from typing import Any, Dict

import pytest

from repro import ScenarioConfig, build_scenario
from repro.bgp.collectors import collect_corpus
from repro.bgp.policy import AdjacencyIndex
from repro.bgp.propagation import compute_origin_routes, plane_of
from repro.datasets.paths import PathCorpus
from repro.inference.asrank import ASRank
from repro.pipeline.cache import ArtifactCache
from repro.service.query import corpus_stats_payload
from repro.utils.benchreport import merge_bench_report

#: name -> {"median_seconds": ..., "min_seconds": ..., ...}
_RESULTS: Dict[str, Dict[str, Any]] = {}
#: top-level report keys (corpus stats/memory), replaced wholesale.
_EXTRA: Dict[str, Any] = {}


def _record(name: str, benchmark, **extra: Any) -> None:
    stats = benchmark.stats.stats
    entry: Dict[str, Any] = {
        "median_seconds": float(stats.median),
        "min_seconds": float(stats.min),
        "rounds": int(stats.rounds),
    }
    entry.update(extra)
    _RESULTS[name] = entry


@pytest.fixture(scope="module", autouse=True)
def _bench_report():
    """Write ``BENCH_substrate.json`` after the module's benchmarks."""
    yield
    if not _RESULTS:
        return
    out_dir = os.environ.get("BENCH_OUTPUT_DIR") or "."
    path = os.path.join(out_dir, "BENCH_substrate.json")
    report = merge_bench_report(path, dict(_RESULTS), extra=dict(_EXTRA))
    print(f"\n[bench] wrote {path} ({len(report['benchmarks'])} entries)")


def test_perf_origin_routes(paper, benchmark):
    adjacency = AdjacencyIndex(paper.topology.graph)
    origins = paper.topology.graph.asns()[:50]

    def run():
        for origin in origins:
            compute_origin_routes(adjacency, origin)

    benchmark.pedantic(run, rounds=3, iterations=1)
    _record("origin_routes_50_origins", benchmark)


def test_perf_corpus_indexing(paper, benchmark):
    routes = [route for _, route in zip(range(20000), paper.corpus.routes())]

    def rebuild():
        corpus = PathCorpus()
        corpus.add_routes(routes)
        # Force the derived views the inference layer consumes — the
        # columnar layout indexes lazily, so ingest alone would not be
        # an honest indexing benchmark.
        corpus.visible_links()
        corpus.transit_degrees()
        corpus.node_degrees()
        corpus.triplet_continuations()
        corpus.stats()
        return corpus

    corpus = benchmark.pedantic(rebuild, rounds=3, iterations=1)
    assert len(corpus) == len(routes)
    _record(
        "corpus_indexing",
        benchmark,
        n_routes=len(routes),
        corpus_memory_bytes=int(corpus.memory_report()["total_bytes"]),
    )


def test_perf_asrank_inference(paper, benchmark):
    rels = benchmark.pedantic(
        lambda: ASRank().infer(paper.corpus), rounds=3, iterations=1
    )
    assert len(rels) == len(paper.corpus.visible_links())
    _record("asrank_inference", benchmark)
    _EXTRA["corpus"] = corpus_stats_payload(paper.corpus)


#: The propagation scale sweep.  The 10k case always runs (and lands in
#: the CI bench artifact); the 50k/100k cases take minutes of topology
#: generation, so they are opt-in via ``REPRO_BENCH_SCALE=full``.
SCALE_SWEEP = (10_000, 50_000, 100_000)


@pytest.mark.parametrize("n_ases", SCALE_SWEEP)
def test_perf_propagation_scale_sweep(benchmark, n_ases):
    """Vectorized frontier propagation at 10k/50k/100k ASes.

    Records, per scale: topology generation time, the one-time CSR
    plane build, and the per-origin propagation cost over a 20-origin
    sample — the numbers that show the engine holds up at real
    Internet size, not just paper scale.
    """
    from repro.topology.generator import generate_topology

    if n_ases > 10_000 and os.environ.get("REPRO_BENCH_SCALE") != "full":
        pytest.skip("set REPRO_BENCH_SCALE=full to run the 50k/100k sweep")
    config = ScenarioConfig.default()
    config.topology.n_ases = n_ases
    start = time.perf_counter()
    topology = generate_topology(config)
    gen_seconds = time.perf_counter() - start
    adjacency = AdjacencyIndex(topology.graph)
    start = time.perf_counter()
    plane = plane_of(adjacency)
    plane_seconds = time.perf_counter() - start
    origins = adjacency.asns[:20]

    def run():
        for origin in origins:
            plane.propagate(plane.ids([origin]))

    benchmark.pedantic(run, rounds=3, iterations=1)
    per_origin_ms = benchmark.stats.stats.median / len(origins) * 1000.0
    _record(
        f"propagation_scale_{n_ases}",
        benchmark,
        n_ases=n_ases,
        n_links=int(topology.graph.stats()["n_links"]),
        gen_seconds=gen_seconds,
        plane_build_seconds=plane_seconds,
        per_origin_ms=per_origin_ms,
    )


def _parallel_bench_config() -> ScenarioConfig:
    """A ≥500-AS scenario large enough for the pool to amortise."""
    config = ScenarioConfig.default()
    config.topology.n_ases = 600
    config.measurement.n_vantage_points = 60
    config.measurement.n_churn_rounds = 0
    return config


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="parallel speedup needs >= 4 physical workers; on fewer "
    "cores pool overhead dominates (equivalence is still enforced by "
    "tests/pipeline/test_parallel_equivalence.py)",
)
def test_perf_parallel_collection_speedup(benchmark):
    """Four-worker collection must be >= 2x faster than serial."""
    from repro.topology.generator import generate_topology

    config = _parallel_bench_config()
    topology = generate_topology(config)

    start = time.perf_counter()
    serial_corpus, _, _, _ = collect_corpus(topology, config)
    serial_seconds = time.perf_counter() - start

    parallel_corpus = benchmark.pedantic(
        lambda: collect_corpus(topology, config, workers=4)[0],
        rounds=3,
        iterations=1,
    )
    parallel_seconds = benchmark.stats.stats.min
    assert len(parallel_corpus) == len(serial_corpus)
    speedup = serial_seconds / parallel_seconds
    print(f"\n[parallel] serial {serial_seconds:.2f}s, "
          f"4 workers {parallel_seconds:.2f}s, speedup {speedup:.2f}x")
    _record(
        "parallel_collection",
        benchmark,
        serial_seconds=serial_seconds,
        speedup=speedup,
    )
    assert speedup >= 2.0


def test_perf_warm_cache_build(benchmark, tmp_path, monkeypatch):
    """A warm-cache build skips propagation and is much faster."""
    import repro.scenario as scenario_module

    config = _parallel_bench_config()
    cache = ArtifactCache(root=tmp_path / "cache")

    start = time.perf_counter()
    build_scenario(config, cache=cache)
    cold_seconds = time.perf_counter() - start

    # Any attempt to re-propagate on the warm path is a hard failure,
    # not just a slow run.
    def boom(*args, **kwargs):
        raise AssertionError("propagation ran on a warm cache")

    monkeypatch.setattr(scenario_module, "collect_rounds", boom)
    warm = benchmark.pedantic(
        lambda: build_scenario(config, cache=cache), rounds=3, iterations=1
    )
    warm_seconds = benchmark.stats.stats.min
    assert warm.cache is cache and cache.hits >= 2
    print(f"\n[cache] cold {cold_seconds:.2f}s, "
          f"warm {warm_seconds:.2f}s "
          f"({cold_seconds / warm_seconds:.1f}x faster)")
    _record("warm_cache_build", benchmark, cold_seconds=cold_seconds)
    assert warm_seconds < cold_seconds
