"""Tests for shared inference infrastructure (clique, distance)."""

import pytest

from repro.datasets.paths import CollectedRoute, PathCorpus
from repro.inference.base import distance_to_clique, infer_clique


def _corpus(*paths):
    corpus = PathCorpus()
    for path in paths:
        corpus.add_route(CollectedRoute(vp=path[0], origin=path[-1], path=path))
    return corpus


class TestInferClique:
    def test_finds_true_clique_on_scenario(self, scenario):
        inferred = infer_clique(scenario.corpus)
        true_clique = set(scenario.topology.graph.clique())
        assert inferred, "no clique inferred"
        # At most one false member, and most of the core found (the
        # paper notes even curated Tier-1 lists only "largely overlap").
        assert len(set(inferred) - true_clique) <= 1
        assert len(set(inferred) & true_clique) >= len(true_clique) // 2

    def test_empty_corpus(self):
        assert infer_clique(PathCorpus()) == []

    def test_requires_visible_interconnection(self):
        # Two "big" ASes never seen adjacent cannot form a clique.
        corpus = _corpus((9, 1, 5), (9, 1, 6), (8, 2, 5), (8, 2, 6))
        clique = infer_clique(corpus)
        assert len(clique) == 1


class TestDistanceToClique:
    def test_distances(self):
        corpus = _corpus((1, 2, 3, 4))
        distances = distance_to_clique(corpus, clique=[1])
        assert distances[1] == 0
        assert distances[2] == 1
        assert distances[4] == 3

    def test_unreachable_gets_sentinel(self):
        corpus = _corpus((1, 2), (8, 9))
        distances = distance_to_clique(corpus, clique=[1])
        assert distances[9] > distances[2]

    def test_scenario_distances_bounded(self, scenario):
        clique = infer_clique(scenario.corpus)
        distances = distance_to_clique(scenario.corpus, clique)
        assert max(distances.values()) <= 8
