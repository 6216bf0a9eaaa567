"""The pollution impact workload: clean-vs-polluted inference panel."""

from __future__ import annotations

import json

import pytest

from repro.adversarial.impact import (
    DEFAULT_ALGORITHMS,
    run_impact,
    truth_relationships,
)
from repro.config import AdversarialConfig, ScenarioConfig
from repro.topology.graph import RelType


def _impact_config(adversarial) -> ScenarioConfig:
    config = ScenarioConfig.small(seed=11)
    config.topology.n_ases = 140
    config.measurement.n_vantage_points = 25
    config.measurement.n_churn_rounds = 0
    return config.replace(adversarial=adversarial)


LAYER = {
    "attack": {
        "n_origin_hijacks": 2,
        "n_forged_origin_hijacks": 2,
        "n_route_leaks": 2,
    },
    "deployments": [
        {"policy": "rpki", "strategy": "top_cone", "top_n": 10},
    ],
}


@pytest.fixture(scope="module")
def report():
    return run_impact(
        _impact_config(AdversarialConfig.from_dict(LAYER)),
        DEFAULT_ALGORITHMS,
    )


class TestRunImpact:
    def test_rejects_configs_without_attacks(self):
        with pytest.raises(ValueError, match="at least one attack event"):
            run_impact(_impact_config(None))
        empty = AdversarialConfig.from_dict(
            {"deployments": [{"policy": "rpki", "strategy": "top_cone",
                              "top_n": 5}]}
        )
        with pytest.raises(ValueError, match="at least one attack event"):
            run_impact(_impact_config(empty))

    def test_clean_twin_keeps_the_honest_fingerprint(self, report):
        honest = _impact_config(None)
        assert report.clean_fingerprint == honest.fingerprint()
        assert report.polluted_fingerprint != report.clean_fingerprint

    def test_pollution_grows_the_corpus(self, report):
        clean_paths, polluted_paths = report.corpus_sizes
        assert polluted_paths > clean_paths
        assert report.events

    def test_panel_covers_every_algorithm(self, report):
        assert sorted(impact.algorithm for impact in report.algorithms) == (
            sorted(DEFAULT_ALGORITHMS)
        )
        for impact in report.algorithms:
            assert 0.0 <= impact.clean.accuracy <= 1.0
            assert 0.0 <= impact.polluted.accuracy <= 1.0
            assert impact.new_fake_links >= 0
            assert impact.clean.n_real <= impact.clean.n_links
        # Pollution must move at least one algorithm.
        assert any(
            impact.accuracy_delta < 0 or impact.new_fake_links > 0
            for impact in report.algorithms
        ), "pollution left every algorithm untouched"

    def test_bias_drift_covers_both_groupings(self, report):
        assert [drift.grouping for drift in report.bias] == [
            "regional", "topological",
        ]
        for drift in report.bias:
            assert 0.0 <= drift.share_drift <= 1.0

    def test_report_is_reproducible(self, report):
        again = run_impact(
            _impact_config(AdversarialConfig.from_dict(LAYER)),
            DEFAULT_ALGORITHMS,
        )
        assert again.to_dict() == report.to_dict()

    def test_report_is_json_serialisable(self, report):
        payload = json.dumps(report.to_dict(), sort_keys=True)
        decoded = json.loads(payload)
        assert decoded["n_events"] == len(report.events)
        assert decoded["corpus_paths_polluted"] == report.corpus_sizes[1]
        assert {entry["algorithm"] for entry in decoded["algorithms"]} == set(
            DEFAULT_ALGORITHMS
        )


class TestTruthRelationships:
    def test_matches_generator_links(self, tiny_topology):
        truth = truth_relationships(tiny_topology)
        graph = tiny_topology.graph
        assert len(truth) == len(list(graph.links()))
        assert truth.rel_of(30, 100) is RelType.P2C
        assert truth.rel_of(10, 20) is RelType.P2P
        assert truth.rel_of(10, 99999) is None
