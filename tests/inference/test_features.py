"""Tests for the link feature extractor (classifier + Appendix C)."""

import pytest

from repro.inference.base import infer_clique
from repro.inference.features import DiscreteFeatures, LinkFeatureExtractor


@pytest.fixture(scope="module")
def extractor(scenario):
    graph = scenario.topology.graph
    return LinkFeatureExtractor(
        scenario.corpus,
        clique=infer_clique(scenario.corpus),
        ixps=scenario.topology.ixps,
        prefix_counts={n.asn: n.n_prefixes for n in graph.nodes()},
        address_counts={n.asn: n.n_addresses for n in graph.nodes()},
        manrs={n.asn for n in graph.nodes() if n.manrs_member},
        hijackers={n.asn for n in graph.nodes() if n.serial_hijacker},
    )


class TestDiscreteFeatures:
    def test_fields_match_tuple(self, extractor, scenario):
        key = scenario.corpus.visible_links()[0]
        feats = extractor.discrete(key)
        assert len(feats.as_tuple()) == len(DiscreteFeatures.FIELD_NAMES)

    def test_all_links_covered(self, extractor, scenario):
        all_feats = extractor.discrete_all()
        assert set(all_feats) == set(scenario.corpus.visible_links())

    def test_array_pass_matches_per_link(self, extractor, scenario):
        # discrete_all's array passes must equal the scalar per-link path.
        assert extractor.discrete_all() == {
            key: extractor.discrete(key)
            for key in scenario.corpus.visible_links()
        }

    def test_value_ranges(self, extractor, scenario):
        for key in scenario.corpus.visible_links():
            feats = extractor.discrete(key)
            assert feats.visibility_bucket >= 1  # visible => >= 1 VP
            assert 0 <= feats.degree_ratio_bucket <= 4
            assert 0 <= feats.clique_distance <= 4
            assert 0 <= feats.common_ixp_bucket <= 2

    def test_clique_links_have_distance_zero(self, extractor, scenario):
        clique = infer_clique(scenario.corpus)
        key = tuple(sorted(clique[:2]))
        if key in set(scenario.corpus.visible_links()):
            assert extractor.discrete(key).clique_distance == 0


class TestAppendixC:
    def test_all_twelve_features_present(self, extractor, scenario):
        key = scenario.corpus.visible_links()[0]
        features = extractor.appendix_c(key)
        expected = {
            "visibility_share", "prefixes_via", "addresses_via",
            "prefixes_originated", "addresses_originated", "observers",
            "receivers", "rel_transit_degree_diff", "rel_ppdc_diff",
            "common_ixps", "common_facilities", "behaviour_score",
        }
        assert set(features) == expected

    def test_visibility_share_bounds(self, extractor, scenario):
        for key in scenario.corpus.visible_links()[:200]:
            share = extractor.appendix_c(key)["visibility_share"]
            assert 0 < share <= 1

    def test_prefix_features_monotone(self, extractor, scenario):
        for key in scenario.corpus.visible_links()[:100]:
            features = extractor.appendix_c(key)
            assert features["addresses_via"] >= features["prefixes_via"]
            assert features["prefixes_via"] >= features["prefixes_originated"]

    def test_relative_diffs_bounded(self, extractor, scenario):
        rels = scenario.infer("asrank")
        features_all = extractor.appendix_c_all(rels=rels)
        for features in features_all.values():
            assert 0 <= features["rel_transit_degree_diff"] <= 1
            assert 0 <= features["rel_ppdc_diff"] <= 1

    def test_ppdc_requires_rels(self, extractor, scenario):
        key = scenario.corpus.visible_links()[0]
        assert extractor.appendix_c(key, rels=None)["rel_ppdc_diff"] == 0.0

    def test_behaviour_score_range(self, extractor, scenario):
        scores = {
            extractor.appendix_c(key)["behaviour_score"]
            for key in scenario.corpus.visible_links()[:400]
        }
        assert scores <= {-1.0, 0.0, 1.0}
        assert 1.0 in scores  # MANRS members are common among transits
