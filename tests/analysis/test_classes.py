"""Tests for the regional and topological link classifiers."""

import pytest

from repro.analysis.classes import RegionalClassifier, TopologicalClassifier
from repro.datasets.asrel import RelationshipSet
from repro.topology.external_lists import ExternalLists
from repro.topology.regions import Region, RegionMap


@pytest.fixture
def region_map():
    rmap = RegionMap()
    rmap.add_iana_block(100, 199, Region.ARIN)
    rmap.add_iana_block(200, 299, Region.RIPE)
    rmap.add_iana_block(300, 399, Region.LACNIC)
    rmap.add_iana_block(400, 499, Region.AFRINIC)
    rmap.add_iana_block(500, 599, Region.APNIC)
    return rmap


class TestRegionalClassifier:
    def test_internal_class(self, region_map):
        classifier = RegionalClassifier(region_map)
        assert classifier.classify((100, 150)) == "AR°"
        assert classifier.classify((300, 350)) == "L°"

    def test_cross_class_lexicographic(self, region_map):
        classifier = RegionalClassifier(region_map)
        assert classifier.classify((100, 200)) == "AR-R"
        assert classifier.classify((200, 300)) == "L-R"
        assert classifier.classify((100, 500)) == "AP-AR"
        assert classifier.classify((400, 200)) == "AF-R"
        assert classifier.classify((100, 300)) == "AR-L"

    def test_unmapped_discarded(self, region_map):
        classifier = RegionalClassifier(region_map)
        assert classifier.classify((100, 999)) is None
        assert classifier.classify((23456, 100)) is None

    def test_classify_links_groups(self, region_map):
        classifier = RegionalClassifier(region_map)
        grouped = classifier.classify_links([(100, 150), (100, 200), (100, 999)])
        assert set(grouped) == {"AR°", "AR-R"}

    def test_paper_class_names(self, region_map):
        """All eleven Figure 1 class names are producible."""
        classifier = RegionalClassifier(region_map)
        produced = set()
        asns = {"AF": 400, "AP": 500, "AR": 100, "L": 300, "R": 200}
        for a in asns.values():
            for b in asns.values():
                if a != b:
                    produced.add(classifier.classify((a, b)))
        produced |= {classifier.classify((a, a + 1)) for a in asns.values()}
        for name in ("R°", "AR°", "L°", "AP°", "AR-R", "AP-R", "AP-AR",
                     "AF-R", "AR-L", "AF°", "L-R"):
            assert name in produced


class TestTopologicalClassifier:
    @pytest.fixture
    def classifier(self):
        rels = RelationshipSet()
        rels.set_p2c(provider=1, customer=2)    # 1, 2 transits
        rels.set_p2c(provider=2, customer=3)    # 3 stub
        rels.set_p2c(provider=7, customer=8)    # 7 = listed T1
        rels.set_p2p(9, 1)                      # 9 = listed hypergiant
        lists = ExternalLists(tier1=frozenset({7}), hypergiants=frozenset({9}))
        return TopologicalClassifier(lists, rels, universe=[1, 2, 3, 7, 8, 9])

    def test_node_classes(self, classifier):
        assert classifier.as_class(7) == "T1"
        assert classifier.as_class(9) == "H"
        assert classifier.as_class(1) == "TR"
        assert classifier.as_class(3) == "S"

    def test_link_classes_paper_order(self, classifier):
        assert classifier.classify((1, 2)) == "TR°"
        assert classifier.classify((3, 1)) == "S-TR"
        assert classifier.classify((7, 1)) == "T1-TR"
        assert classifier.classify((3, 7)) == "S-T1"
        assert classifier.classify((9, 1)) == "H-TR"
        assert classifier.classify((9, 3)) == "H-S"
        assert classifier.classify((9, 7)) == "H-T1"
        assert classifier.classify((3, 8)) == "S°"

    def test_classify_links_groups_transit_internal(self, classifier):
        # TR° is the population of the Figure 3 / 7-9 heatmaps.
        grouped = classifier.classify_links([(1, 2), (3, 1), (7, 1)])
        assert grouped["TR°"] == [(1, 2)]
        assert set(grouped) == {"TR°", "S-TR", "T1-TR"}

    def test_hypergiant_precedence_over_tier1(self):
        rels = RelationshipSet()
        rels.set_p2c(provider=1, customer=2)
        lists = ExternalLists(tier1=frozenset({1}), hypergiants=frozenset({1}))
        classifier = TopologicalClassifier(lists, rels)
        assert classifier.as_class(1) == "H"


class TestScenarioClassifiers:
    def test_class_counts_match_between_views(self, scenario):
        """Every inferred link gets exactly one class per classifier."""
        regional = scenario.regional_classifier()
        topological = scenario.topological_classifier()
        links = scenario.inferred_links()
        regional_total = sum(
            len(v) for v in regional.classify_links(links).values()
        )
        topo_total = sum(
            len(v) for v in topological.classify_links(links).values()
        )
        assert topo_total == len(links)
        assert regional_total <= len(links)  # unmappable ASNs drop out
        assert regional_total >= 0.95 * len(links)
