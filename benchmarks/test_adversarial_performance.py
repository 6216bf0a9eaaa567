"""Adversarial-plane performance benchmarks.

Times what the attack subsystem adds on top of honest collection so
pollution stays a marginal cost, not a second propagation pass:

* joint two-source propagation for one contested prefix at paper scale
  (~2500 ASes), vectorized engine;
* full corpus pollution — event planning plus per-event joint
  propagation and collection — on a 10k-AS topology;
* the clean-vs-polluted impact panel on a small scenario, the workload
  behind ``repro attack`` and ``POST /v1/adversarial/impact``.

Medians land in ``BENCH_adversarial.json`` (see
:mod:`repro.utils.benchreport`) with the pollution overhead relative
to clean collection, so CI can diff successive runs.  Set
``BENCH_OUTPUT_DIR`` to redirect the report.
"""

import os
import time
from typing import Any, Dict

import pytest

from repro import ScenarioConfig
from repro.adversarial.attacks import inject_attacks, plan_events
from repro.adversarial.impact import run_impact
from repro.bgp.collectors import (
    RouteCollector,
    collect_rounds,
    measurement_setup,
)
from repro.bgp.policy import AdjacencyIndex
from repro.bgp.propagation import compute_attack_routes
from repro.config import AdversarialConfig
from repro.datasets.paths import PathCorpus
from repro.topology.generator import generate_topology
from repro.utils.benchreport import merge_bench_report

#: name -> {"median_seconds": ..., "min_seconds": ..., ...}
_RESULTS: Dict[str, Dict[str, Any]] = {}
_EXTRA: Dict[str, Any] = {}

_LAYER = {
    "attack": {
        "n_origin_hijacks": 3,
        "n_forged_origin_hijacks": 3,
        "n_route_leaks": 3,
    },
    "deployments": [
        {"policy": "rpki", "strategy": "top_cone", "top_n": 50},
        {"policy": "aspa", "strategy": "random", "fraction": 0.2},
    ],
}


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
    """Write ``BENCH_adversarial.json`` after the module's benchmarks."""
    yield
    if not _RESULTS:
        return
    out_dir = os.environ.get("BENCH_OUTPUT_DIR") or "."
    path = os.path.join(out_dir, "BENCH_adversarial.json")
    report = merge_bench_report(path, dict(_RESULTS), extra=dict(_EXTRA))
    print(f"\n[bench] wrote {path} ({len(report['benchmarks'])} entries)")


def test_perf_joint_propagation_paper_scale(paper, benchmark):
    """One contested prefix costs about one honest propagation pass."""
    adjacency = AdjacencyIndex(paper.topology.graph)
    asns = paper.topology.graph.asns()
    origin, attacker = asns[0], asns[-1]

    def run():
        for claim_dist in (0, 1):
            compute_attack_routes(adjacency, origin, attacker, claim_dist)

    benchmark.pedantic(run, rounds=3, iterations=1)
    _record("joint_propagation_paper_2_events", benchmark,
            n_ases=len(asns))


def test_perf_pollution_overhead_10k(benchmark):
    """Planning + injecting 9 events into a 10k-AS corpus."""
    config = ScenarioConfig.default()
    config.topology.n_ases = 10_000
    config.measurement.n_vantage_points = 120
    config.measurement.n_churn_rounds = 0
    config = config.replace(adversarial=AdversarialConfig.from_dict(_LAYER))
    topology = generate_topology(config)
    vps, communities, strippers = measurement_setup(topology, config)

    clean_start = time.perf_counter()
    clean = collect_rounds(
        topology, config.replace(adversarial=None),
        vps, communities, strippers,
    )
    clean_seconds = time.perf_counter() - clean_start

    def run():
        corpus = PathCorpus()
        corpus.add_routes(clean.routes())
        collector = RouteCollector(topology, vps, communities, strippers)
        events = inject_attacks(collector, config, corpus)
        assert len(events) == len(plan_events(topology, config))
        return corpus

    polluted = benchmark.pedantic(run, rounds=3, iterations=1)
    overhead = benchmark.stats.stats.median / max(clean_seconds, 1e-9)
    _record("pollution_inject_10k_ases", benchmark,
            n_ases=10_000,
            clean_collection_seconds=clean_seconds,
            overhead_vs_clean_collection=overhead,
            corpus_paths_clean=len(clean),
            corpus_paths_polluted=len(polluted))
    print(f"\n[adversarial] 9-event pollution at 10k ASes: "
          f"{benchmark.stats.stats.median:.2f}s "
          f"({overhead:.2%} of a {clean_seconds:.2f}s clean collection)")


def test_perf_impact_panel_small(benchmark):
    """The full clean-vs-polluted panel behind ``repro attack``."""
    config = ScenarioConfig.small(seed=11)
    config.measurement.n_churn_rounds = 0
    config = config.replace(adversarial=AdversarialConfig.from_dict(_LAYER))

    def run():
        return run_impact(config)

    report = benchmark.pedantic(run, rounds=3, iterations=1)
    degraded = [
        impact.algorithm
        for impact in report.algorithms
        if impact.accuracy_delta < 0 or impact.new_fake_links > 0
    ]
    _record("impact_panel_small", benchmark,
            n_events=len(report.events),
            algorithms_degraded=sorted(degraded))
    assert degraded, "pollution left every algorithm untouched"
