"""Timing gates: the performance bars that must hold on every change.

Not paper experiments, and not a report: per-stage numbers come from
perfbench's traced run (``python perfbench/run.py --trace 1``).  Each
test here asserts one bar and fails the build when it breaks:

* the vectorized ``:batch`` resolver's per-batch p50 is >= 3x faster
  than the per-key walk at 256-link batches;
* 4-worker collection is >= 2x faster than serial on a 600-AS,
  no-churn round;
* a warm-cache build of that config beats the cold build without
  propagating;
* ``repro serve`` with 4 workers answers >= 2x the requests per second
  of 1 worker over a shared cache, with no errors on either run.

The two 4-worker bars only mean something when the host can run four
workers at once, so they are skipped below 4 usable cores (the count
``resolve_workers(-1)`` auto-sizes to).  The error check of the
serving runs holds on every host.

Run with ``python -m pytest -q benchmarks/test_perf_gates.py``.
"""

from __future__ import annotations

import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Tuple

import pytest

from repro import ScenarioConfig, build_scenario
from repro.bgp.collectors import collect_corpus
from repro.pipeline.cache import ArtifactCache
from repro.pipeline.parallel import resolve_workers
from repro.service.loadgen import LoadgenResult, prepare_plan, run_loadgen
from repro.service.query import ScenarioView
from repro.topology.generator import generate_topology
from repro.utils.rng import make_rng

#: Cores a worker pool can actually use on this host.
USABLE_CORES = resolve_workers(-1)

needs_four_cores = pytest.mark.skipif(
    USABLE_CORES < 4,
    reason=f"a 4-worker bar needs >= 4 usable cores (have {USABLE_CORES})",
)

BATCH_SIZE = 256
N_BATCHES = 32


def _best_of(runs: int, fn: Callable[[], Any]) -> Tuple[float, Any]:
    """The fastest of ``runs`` wall-clock timings of ``fn``, and the
    last call's result."""
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


# ---------------------------------------------------------------------------
# the vectorized batch pass vs the per-key walk
# ---------------------------------------------------------------------------

def _batches(view: ScenarioView, n: int, size: int):
    """Realistic batches: mostly visible links, ~6% unknown ones."""
    rng = make_rng(0)
    visible = view._visible_sorted
    batches = []
    for _ in range(n):
        pairs = [
            list(visible[int(i)])
            for i in rng.integers(0, len(visible), size=size)
        ]
        for slot in range(0, size, 17):
            pairs[slot] = [999_999, slot + 1]
        batches.append(pairs)
    return batches


def test_batch_vectorized_speedup():
    view = ScenarioView(build_scenario(ScenarioConfig.small(seed=7)))
    view.build_rel_index("asrank")
    batches = _batches(view, N_BATCHES, BATCH_SIZE)

    def per_batch_p50(fn) -> float:
        per_batch = []
        for pairs in batches:
            start = time.perf_counter()
            fn("asrank", pairs)
            per_batch.append(time.perf_counter() - start)
        return statistics.median(per_batch)

    per_batch_p50(view.batch_payloads_perkey)  # warm both paths
    per_batch_p50(view.batch_payloads)
    perkey_p50 = per_batch_p50(view.batch_payloads_perkey)
    vectorized_p50 = per_batch_p50(view.batch_payloads)
    speedup = perkey_p50 / vectorized_p50
    print(f"\n[batch] per-key p50 {perkey_p50 * 1000:.3f}ms, "
          f"vectorized p50 {vectorized_p50 * 1000:.3f}ms, "
          f"speedup {speedup:.1f}x at {BATCH_SIZE}-link batches")
    assert speedup >= 3.0


# ---------------------------------------------------------------------------
# parallel collection and the warm cache
# ---------------------------------------------------------------------------

def _collection_config() -> ScenarioConfig:
    """A 600-AS, no-churn scenario large enough for a pool to amortise."""
    config = ScenarioConfig.default()
    config.topology.n_ases = 600
    config.measurement.n_vantage_points = 60
    config.measurement.n_churn_rounds = 0
    return config


@needs_four_cores
def test_parallel_collection_speedup():
    """Four-worker collection must be >= 2x faster than serial."""
    config = _collection_config()
    topology = generate_topology(config)

    start = time.perf_counter()
    serial_corpus = collect_corpus(topology, config)[0]
    serial_seconds = time.perf_counter() - start
    parallel_seconds, parallel_corpus = _best_of(
        3, lambda: collect_corpus(topology, config, workers=4)[0]
    )
    assert len(parallel_corpus) == len(serial_corpus)
    speedup = serial_seconds / parallel_seconds
    print(f"\n[parallel] serial {serial_seconds:.2f}s, "
          f"4 workers {parallel_seconds:.2f}s, speedup {speedup:.2f}x")
    assert speedup >= 2.0


def test_warm_cache_build_beats_cold(tmp_path, monkeypatch):
    """A warm-cache build skips propagation and is faster than cold."""
    import repro.scenario as scenario_module

    config = _collection_config()
    cache = ArtifactCache(root=tmp_path / "cache")

    start = time.perf_counter()
    build_scenario(config, cache=cache)
    cold_seconds = time.perf_counter() - start

    # Any attempt to re-propagate on the warm path is a hard failure,
    # not just a slow run.
    def boom(*args, **kwargs):
        raise AssertionError("propagation ran on a warm cache")

    monkeypatch.setattr(scenario_module, "collect_rounds", boom)
    warm_seconds, warm = _best_of(
        3, lambda: build_scenario(config, cache=cache)
    )
    assert warm.cache is cache and cache.hits >= 2
    print(f"\n[cache] cold {cold_seconds:.2f}s, warm {warm_seconds:.2f}s "
          f"({cold_seconds / warm_seconds:.1f}x faster)")
    assert warm_seconds < cold_seconds


# ---------------------------------------------------------------------------
# multi-worker serving throughput
# ---------------------------------------------------------------------------

def _serve(workers: int, cache_dir: Path):
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--pool-size", "2",
            "--serve-workers", str(workers),
            "--cache", "--cache-dir", str(cache_dir),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    banner = proc.stdout.readline().strip()
    match = re.search(r"listening on http://[^:]+:(\d+)$", banner)
    assert match, f"unexpected banner: {banner!r}"
    return proc, int(match.group(1))


@pytest.fixture(scope="module")
def serving_runs(tmp_path_factory) -> Dict[int, LoadgenResult]:
    """One closed-loop run against 1 and against 4 workers over a
    shared, pre-warmed cache."""
    cache_dir = tmp_path_factory.mktemp("serve") / "cache"
    build_scenario(
        ScenarioConfig.small(seed=7), cache=ArtifactCache(cache_dir)
    )
    runs: Dict[int, LoadgenResult] = {}
    for workers in (1, 4):
        proc, port = _serve(workers, cache_dir)
        try:
            plan = prepare_plan(
                "127.0.0.1", port, preset="small", seed=7,
                batch_size=BATCH_SIZE,
            )
            runs[workers] = run_loadgen(plan, concurrency=8, duration_s=4.0)
        finally:
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30)
        print(f"\n[workers] {workers}w {runs[workers].throughput_rps:.0f} "
              f"rps over {runs[workers].total_requests} requests")
    return runs


def test_multiworker_serving_has_no_errors(serving_runs):
    for workers, result in serving_runs.items():
        assert result.total_requests > 0, workers
        assert result.errors == 0, (workers, result.as_dict())


@needs_four_cores
def test_multiworker_throughput_speedup(serving_runs):
    speedup = serving_runs[4].throughput_rps / serving_runs[1].throughput_rps
    print(f"\n[workers] 4w/1w speedup {speedup:.2f}x "
          f"({USABLE_CORES} usable cores)")
    assert speedup >= 2.0
