"""Differential tests: parallel execution must be invisible.

The property under test is strict — not "statistically equivalent" but
*byte-identical*: collected corpus columns, serialised path corpora, and
inference outputs produced with worker processes must match the serial
pipeline exactly, across seeds and worker counts.  Anything weaker would let a
perf refactor silently move the paper's numbers.
"""

from __future__ import annotations

import os
import tempfile
from concurrent.futures.process import BrokenProcessPool
from functools import lru_cache
from pathlib import Path

import pytest

from repro import ParallelPropagator, ScenarioConfig, build_scenario
from repro.bgp.collectors import (
    RouteCollector,
    collect_corpus,
    measurement_setup,
)
from repro.bgp.propagation import compute_origin_routes
from repro.datasets.asrel import write_asrel
from repro.datasets.bgpdump import write_path_corpus
from repro.datasets.paths import PathCorpus
from repro.pipeline import parallel
from repro.pipeline.columnar import write_corpus_columns
from repro.topology.generator import generate_topology
from tests import corpus_views
from tests.bgp.reference_collector import routes_for_origin

#: Three seeds, per the acceptance criteria; kept small so the whole
#: differential layer stays in the seconds range on one core.
SEEDS = (3, 5, 11)


def tiny_config(seed: int) -> ScenarioConfig:
    """A reduced scenario sized for fast serial-vs-parallel rebuilds."""
    config = ScenarioConfig.small(seed=seed)
    config.topology.n_ases = 180
    config.measurement.n_vantage_points = 25
    config.measurement.n_churn_rounds = 2
    return config


@lru_cache(maxsize=None)
def built(seed: int, workers: int):
    """Scenario builds shared across the differential assertions."""
    return build_scenario(tiny_config(seed), workers=workers)


def corpus_bytes(corpus, tmp_path, name: str) -> bytes:
    path = tmp_path / name
    write_path_corpus(corpus, path)
    return path.read_bytes()


def rels_bytes(rels, tmp_path, name: str) -> bytes:
    path = tmp_path / name
    write_asrel(rels, path)
    return path.read_bytes()


@lru_cache(maxsize=None)
def collection_inputs(seed: int):
    """(topology, vantage points, communities, strippers) of a seed."""
    config = tiny_config(seed)
    topology = generate_topology(config)
    vps, communities, strippers = measurement_setup(topology, config)
    return topology, vps, communities, strippers


@lru_cache(maxsize=None)
def collected_npc(seed: int, workers: int) -> bytes:
    """``corpus.npc`` bytes of one converged collection round."""
    topology, vps, communities, strippers = collection_inputs(seed)
    corpus = RouteCollector(
        topology, vps, communities, strippers, workers=workers
    ).collect()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.npc"
        write_corpus_columns(corpus.columns(), path)
        return path.read_bytes()


class TestCollectRoutes:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_counts_match_serial(self, seed, workers):
        serial = collected_npc(seed, 0)
        assert len(serial) > 1000
        assert collected_npc(seed, workers) == serial

    def test_single_origin_stays_in_process(self):
        topology, vps, communities, strippers = collection_inputs(SEEDS[0])
        collector = RouteCollector(topology, vps, communities, strippers)
        origin = topology.graph.asns()[0]
        # len(origins) <= 1 short-circuits the pool entirely.
        (columns,) = ParallelPropagator(
            collector.plane, workers=4
        ).collect_columns(collector.reducer, [origin])
        expected = routes_for_origin(
            compute_origin_routes(collector.plane, origin),
            vps, communities, strippers,
        )
        assert expected
        assert corpus_views.routes(PathCorpus.from_columns(columns)) == expected


class TestSharedPool:
    """One pool serves every round; a broken one is replaced."""

    def test_rounds_reuse_one_pool(self):
        assert collected_npc(SEEDS[0], 2) == collected_npc(SEEDS[0], 0)
        pool = parallel._shared_pool(2)
        topology, vps, communities, strippers = collection_inputs(SEEDS[1])
        RouteCollector(
            topology, vps, communities, strippers, workers=2
        ).collect()
        assert parallel._shared_pool(2) is pool
        assert parallel._shared_pool(1) is not pool
        assert list(parallel._POOLS) == [1]

    def test_broken_pool_is_replaced(self):
        pool = parallel._shared_pool(2)
        with pytest.raises(BrokenProcessPool):
            pool.submit(os._exit, 1).result()
        topology, vps, communities, strippers = collection_inputs(SEEDS[0])
        collector = RouteCollector(
            topology, vps, communities, strippers, workers=2
        )
        with pytest.raises(BrokenProcessPool):
            collector.collect()
        corpus = collector.collect()
        assert parallel._shared_pool(2) is not pool
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "corpus.npc"
            write_corpus_columns(corpus.columns(), path)
            assert path.read_bytes() == collected_npc(SEEDS[0], 0)


class TestCorpusEquivalence:
    def test_collect_corpus_workers_argument(self, tmp_path):
        config = tiny_config(SEEDS[0])
        topology = generate_topology(config)
        serial, _, _, _ = collect_corpus(topology, config)
        parallel, _, _, _ = collect_corpus(topology, config, workers=2)
        assert corpus_bytes(parallel, tmp_path, "par") == corpus_bytes(
            serial, tmp_path, "ser"
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_corpus_byte_identical(self, seed, tmp_path):
        serial, parallel = built(seed, 0), built(seed, 2)
        assert corpus_bytes(
            parallel.corpus, tmp_path, "par"
        ) == corpus_bytes(serial.corpus, tmp_path, "ser")


class TestScenarioEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_validation_identical(self, seed):
        serial, parallel = built(seed, 0), built(seed, 2)
        assert parallel.validation.rels == serial.validation.rels
        assert (
            parallel.validation.report.as_dict()
            == serial.validation.report.as_dict()
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_inference_byte_identical(self, seed, tmp_path):
        serial, parallel = built(seed, 0), built(seed, 2)
        for algorithm in ("asrank", "gao"):
            assert rels_bytes(
                parallel.infer(algorithm), tmp_path, f"par-{algorithm}"
            ) == rels_bytes(
                serial.infer(algorithm), tmp_path, f"ser-{algorithm}"
            )

    def test_validation_table_identical(self):
        serial, parallel = built(SEEDS[0], 0), built(SEEDS[0], 2)
        table_s = serial.validation_table("asrank")
        table_p = parallel.validation_table("asrank")
        assert table_p.total == table_s.total
        assert table_p.rows == table_s.rows
        assert (
            parallel.regional_bias().classes == serial.regional_bias().classes
        )
