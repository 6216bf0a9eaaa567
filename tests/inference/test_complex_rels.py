"""Tests for complex-relationship (partial-transit / hybrid) detection."""

import pytest

from repro.inference.complex_rels import ComplexRelationshipDetector
from repro.topology.graph import RelType


@pytest.fixture(scope="module")
def report(scenario):
    detector = ComplexRelationshipDetector(
        base_inference=scenario.infer("asrank"),
        clique=scenario.algorithm("asrank").clique_,
    )
    return detector.detect(scenario.corpus, scenario.raw_validation.data)


class TestPartialTransitDetection:
    def test_flags_some_links(self, report):
        assert report.partial_transit, "no partial-transit candidates found"

    def test_flags_are_genuinely_problematic(self, scenario, report):
        """Every flag must be a real investigation target: either true
        partial transit, or a link where the validation label conflicts
        with the path evidence (hard link / stale label) — the residue
        only a looking glass resolves, per §6.1."""
        graph = scenario.topology.graph
        rels = scenario.infer("asrank")
        raw = scenario.raw_validation.data
        true_partial = 0
        for flagged in report.partial_transit:
            assert graph.has_link(*flagged.key)
            link = graph.link(*flagged.key)
            if link.partial_transit:
                true_partial += 1
            else:
                # not partial: then it must be a validation/inference
                # conflict (P2C claimed, P2P inferred) — an LG case.
                from repro.topology.graph import RelType

                assert raw.provider_claim(flagged.key) is not None
                assert rels.rel_of(*flagged.key) is RelType.P2P
        # and a substantial share is the real phenomenon.
        assert true_partial / len(report.partial_transit) >= 0.4

    def test_provider_side_correct(self, scenario, report):
        graph = scenario.topology.graph
        for flagged in report.partial_transit:
            if not graph.has_link(*flagged.key):
                continue
            link = graph.link(*flagged.key)
            if link.partial_transit:
                assert flagged.provider == link.provider

    def test_recall_on_visible_partials(self, scenario, report):
        """A reasonable share of visible ground-truth partial-transit
        links should be recovered."""
        graph = scenario.topology.graph
        visible = set(scenario.corpus.visible_links())
        raw = scenario.raw_validation.data
        truth = {
            link.key
            for link in graph.links()
            if link.partial_transit
            and link.key in visible
            and link.key in raw  # community-based detection needs a label
            and scenario.corpus.link_visibility(link.key) >= 3
        }
        if not truth:
            pytest.skip("no validated visible partial transit at this scale")
        found = {c.key for c in report.partial_transit}
        assert len(found & truth) / len(truth) > 0.5

    def test_evidence_strings(self, report):
        for flagged in report.all_links():
            assert flagged.evidence
            assert flagged.kind in ("partial_transit", "hybrid")


class TestHybridDetection:
    def test_multilabel_links_flagged(self, scenario, report):
        raw = scenario.raw_validation.data
        multi = set(raw.multi_label_links())
        visible_multi = multi & set(scenario.corpus.visible_links())
        hybrid_keys = {c.key for c in report.hybrid}
        partial_keys = {c.key for c in report.partial_transit}
        # Every sufficiently visible multi-label link is surfaced as
        # complex one way or the other.
        missed = [
            key
            for key in visible_multi
            if scenario.corpus.link_visibility(key) >= 3
            and key not in hybrid_keys
            and key not in partial_keys
        ]
        assert not missed
