"""Tests for the §7 downstream applications (Peerlock, recommender)."""

import pytest

from repro.applications.peerlock import (
    evaluate_protection,
    generate_peerlock,
)
from repro.applications.recommender import recommend_peers
from repro.datasets.asrel import RelationshipSet
from repro.topology.graph import RelType
from repro.topology.ixp import IXP, IXPRegistry
from repro.topology.regions import Region


@pytest.fixture
def rels():
    r = RelationshipSet()
    # 1 and 2 are big peers; 3 buys from 1; 4 buys from 2; 5 buys from 4.
    r.set_p2p(1, 2)
    r.set_p2c(provider=1, customer=3)
    r.set_p2c(provider=2, customer=4)
    r.set_p2c(provider=4, customer=5)
    r.set_p2c(provider=9, customer=1)  # 9 is 1's upstream (for allow-lists)
    return r


class TestPeerlock:
    def test_protects_peers_by_default(self, rels):
        config = generate_peerlock(2, rels)
        assert config.protected_set == {1}

    def test_allowed_neighbors_are_upstreams(self, rels):
        config = generate_peerlock(2, rels)
        rule = config.rules[0]
        assert rule.protected == 1
        assert rule.allowed_neighbors == (9,)

    def test_blocks_leaked_route(self, rels):
        # AS2 receives a path containing AS1 from AS4 (a customer that
        # should never carry AS1's routes): leak, blocked.
        config = generate_peerlock(2, rels)
        assert config.filters_route(received_from=4, path=(4, 3, 1, 9))

    def test_accepts_direct_and_upstream(self, rels):
        config = generate_peerlock(2, rels)
        assert not config.filters_route(received_from=1, path=(1, 3))
        assert not config.filters_route(received_from=9, path=(9, 1, 3))

    def test_accepts_unrelated_routes(self, rels):
        config = generate_peerlock(2, rels)
        assert not config.filters_route(received_from=4, path=(4, 5))

    def test_explicit_protected_set(self, rels):
        config = generate_peerlock(2, rels, protected=[1, 4])
        assert config.protected_set == {1, 4}

    def test_render_contains_rules(self, rels):
        text = generate_peerlock(2, rels).render()
        assert "peerlock filters for AS2" in text
        assert "deny _(1)_" in text

    def test_evaluation_exact_on_truth(self, rels):
        config = generate_peerlock(2, rels)
        score = evaluate_protection(2, config, rels)
        assert score.exact

    def test_evaluation_detects_misclassification(self, rels):
        # An inference that saw the 1-2 peering as P2C produces a config
        # with missing protection — the paper's downstream-risk point.
        wrong = rels.copy()
        wrong.set_p2c(provider=1, customer=2)
        config = generate_peerlock(2, wrong)
        score = evaluate_protection(2, config, rels)
        assert score.missing_protection == 1
        assert not score.exact

    def test_scenario_scale(self, scenario):
        """Configs from inferred vs ground-truth relationships differ
        exactly where the inference erred."""
        asn = scenario.algorithm("asrank").clique_[0]
        inferred_config = generate_peerlock(asn, scenario.infer("asrank"))
        truth = RelationshipSet()
        for link in scenario.topology.graph.links():
            if link.rel is RelType.P2C:
                truth.set_p2c(link.provider, link.customer)
            elif link.rel is RelType.P2P:
                truth.set_p2p(link.provider, link.customer)
        score = evaluate_protection(asn, inferred_config, truth)
        assert score.n_rules > 0
        # Quantifies the §2 warning; no exactness expected, just sane
        # accounting.
        assert score.missing_protection + score.spurious_protection >= 0


class TestRecommender:
    @pytest.fixture
    def ixps(self):
        registry = IXPRegistry()
        registry.add_ixp(IXP(0, "IX-A", Region.RIPE, members={3, 4}))
        registry.add_ixp(IXP(1, "IX-B", Region.ARIN, members={3, 2}))
        return registry

    def test_recommends_by_new_reach(self, rels, ixps):
        # AS3 (customer of 1): AS2 at IX-B brings {2, 4, 5} = 3 new
        # ASes; AS4 at IX-A brings {4, 5} = 2.
        recs = recommend_peers(3, rels, ixps=ixps)
        assert [r.asn for r in recs[:2]] == [2, 4]
        assert recs[0].new_cone_ases == 3
        assert recs[0].common_ixps == (1,)
        assert recs[1].new_cone_ases == 2
        assert recs[1].common_ixps == (0,)

    def test_excludes_existing_neighbors(self, rels, ixps):
        recs = recommend_peers(3, rels, ixps=ixps)
        assert all(r.asn != 1 for r in recs)

    def test_no_candidate_without_new_reach(self, rels):
        # AS5 is already in AS2's cone (via 4): peering adds nothing.
        recs = recommend_peers(2, rels, require_colocation=False)
        assert recs
        assert all(r.asn != 5 for r in recs)
        assert all(r.new_cone_ases > 0 for r in recs)

    def test_top_n_truncates(self, rels, ixps):
        recs = recommend_peers(3, rels, ixps=ixps)
        assert recommend_peers(3, rels, ixps=ixps, top_n=1) == recs[:1]

    def test_colocation_requirement(self, rels, ixps):
        with_req = recommend_peers(3, rels, ixps=ixps, require_colocation=True)
        without = recommend_peers(3, rels, ixps=ixps, require_colocation=False)
        assert len(without) >= len(with_req)

    def test_address_weighting(self, rels, ixps):
        recs = recommend_peers(
            3, rels, ixps=ixps, address_counts={4: 100, 5: 50}
        )
        assert recs[0].new_addresses == 150

    def test_scenario_scale(self, scenario):
        stub = next(
            n.asn
            for n in scenario.topology.graph.nodes()
            if n.role.value == "stub"
        )
        recs = recommend_peers(
            stub,
            scenario.infer("asrank"),
            ixps=scenario.topology.ixps,
            require_colocation=False,
            top_n=5,
        )
        assert len(recs) <= 5
        # sorted by benefit
        benefits = [r.new_cone_ases for r in recs]
        assert benefits == sorted(benefits, reverse=True)
