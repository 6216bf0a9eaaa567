"""Tests for vantage-point selection and route collection."""

import pytest

from repro.bgp.collectors import (
    RouteCollector,
    VantagePoint,
    assign_community_strippers,
    collect_corpus,
    select_vantage_points,
)
from repro.bgp.communities import CommunityRegistry, Meaning
from repro.config import ScenarioConfig
from repro.topology.graph import Role
from repro.utils.rng import make_rng
from tests import corpus_views


@pytest.fixture
def registry(tiny_topology):
    return CommunityRegistry.build(tiny_topology.graph.asns(), make_rng(9))


def _collector(tiny_topology, registry, vps, strippers=frozenset()):
    return RouteCollector(tiny_topology, vps, registry, set(strippers))


class TestSelection:
    def test_respects_count(self, scenario):
        vps = select_vantage_points(scenario.topology, scenario.config)
        assert len(vps) == scenario.config.measurement.n_vantage_points
        assert len({vp.asn for vp in vps}) == len(vps)

    def test_transit_heavy(self, scenario):
        vps = select_vantage_points(scenario.topology, scenario.config)
        roles = [scenario.topology.graph.node(vp.asn).role for vp in vps]
        transit_share = sum(1 for r in roles if r.is_transit) / len(roles)
        assert transit_share > 0.6

    def test_clique_members_almost_all_feed(self, scenario):
        vps = {vp.asn for vp in select_vantage_points(scenario.topology, scenario.config)}
        clique = set(scenario.topology.graph.clique())
        assert len(clique & vps) >= len(clique) - 1

    def test_deterministic(self, scenario):
        a = select_vantage_points(scenario.topology, scenario.config)
        b = select_vantage_points(scenario.topology, scenario.config)
        assert a == b


class TestCollection:
    def test_full_feed_exports_everything(self, tiny_topology, registry):
        vps = [VantagePoint(asn=200, full_feed=True)]
        corpus = _collector(tiny_topology, registry, vps).collect()
        origins = {route.origin for route in corpus_views.routes(corpus)}
        # 200 reaches everything except the partial-transit island
        # (35/350 routes never reach 20's side).
        assert 100 in origins
        assert 35 not in origins
        assert 350 not in origins
        assert len(origins) == len(tiny_topology.graph) - 2

    def test_partial_feed_exports_customer_routes_only(
        self, tiny_topology, registry
    ):
        vps = [VantagePoint(asn=30, full_feed=False)]
        corpus = _collector(tiny_topology, registry, vps).collect()
        origins = {route.origin for route in corpus_views.routes(corpus)}
        # 30's customer cone plus itself: 100, 300, 61, 70, 30.
        assert origins == {30, 100, 300, 61, 70}

    def test_paths_start_at_vp(self, tiny_topology, registry):
        vps = [VantagePoint(asn=200, full_feed=True)]
        corpus = _collector(tiny_topology, registry, vps).collect()
        for route in corpus_views.routes(corpus):
            assert route.path[0] == 200
            assert route.path[-1] == route.origin

    def test_communities_tag_relationships(self, tiny_topology, registry):
        vps = [VantagePoint(asn=40, full_feed=True)]
        corpus = _collector(tiny_topology, registry, vps).collect()
        by_origin = {route.origin: route for route in corpus_views.routes(corpus)}
        # 40 learns 100 from peer 30: 40's own tag must be peer-meaning.
        route = by_origin[100]
        own_tag = registry.codebook(40).encode(Meaning.LEARNED_FROM_PEER)
        assert own_tag in route.communities

    def test_strippers_remove_foreign_tags(self, tiny_topology, registry):
        vps = [VantagePoint(asn=200, full_feed=True)]
        # 40 strips: 200's route to 100 is (200, 40, 30, 100); 30's tag
        # would have to survive 40 — it must not.
        corpus = _collector(
            tiny_topology, registry, vps, strippers={40}
        ).collect()
        by_origin = {route.origin: route for route in corpus_views.routes(corpus)}
        taggers = {community[0] for community in by_origin[100].communities}
        assert 200 in taggers  # the VP's own tag always survives
        assert 30 not in taggers

    def test_no_strippers_tags_survive(self, tiny_topology, registry):
        vps = [VantagePoint(asn=200, full_feed=True)]
        corpus = _collector(tiny_topology, registry, vps).collect()
        by_origin = {route.origin: route for route in corpus_views.routes(corpus)}
        taggers = {community[0] for community in by_origin[100].communities}
        assert taggers == {200, 40, 30}


class TestChurnMerging:
    def test_churn_rounds_add_links(self):
        from repro.topology.generator import generate_topology

        no_churn = ScenarioConfig.small()
        no_churn.measurement.n_churn_rounds = 0
        topology = generate_topology(no_churn)
        corpus0, _, communities, _ = collect_corpus(topology, no_churn)
        with_churn = ScenarioConfig.small()
        with_churn.measurement.n_churn_rounds = 3
        corpus3, _, _, _ = collect_corpus(
            topology, with_churn, communities=communities
        )
        assert len(corpus3.visible_links()) > len(corpus0.visible_links())
        assert len(corpus3) > len(corpus0)

    def test_strippers_deterministic(self, scenario):
        a = assign_community_strippers(scenario.topology, scenario.config)
        b = assign_community_strippers(scenario.topology, scenario.config)
        assert a == b
