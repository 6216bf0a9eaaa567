"""Tests for the ground-truth AS graph."""

import pytest

from repro.topology.graph import ASGraph, ASNode, Link, RelType, Role, link_key
from repro.topology.regions import Region


def _node(asn, role=Role.STUB):
    return ASNode(asn=asn, region=Region.ARIN, role=role)


class TestLinkKey:
    def test_canonical_order(self):
        assert link_key(5, 3) == (3, 5)
        assert link_key(3, 5) == (3, 5)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            link_key(7, 7)


class TestLink:
    def test_partial_transit_requires_p2c(self):
        with pytest.raises(ValueError):
            Link(provider=1, customer=2, rel=RelType.P2P, partial_transit=True)

    def test_hybrid_secondary_must_differ(self):
        with pytest.raises(ValueError):
            Link(provider=1, customer=2, rel=RelType.P2C,
                 hybrid_secondary=RelType.P2C)

    def test_other_endpoint(self):
        link = Link(provider=1, customer=2, rel=RelType.P2C)
        assert link.other(1) == 2
        assert link.other(2) == 1
        with pytest.raises(ValueError):
            link.other(3)

    def test_is_hybrid(self):
        plain = Link(provider=1, customer=2, rel=RelType.P2C)
        hybrid = Link(provider=1, customer=2, rel=RelType.P2P,
                      hybrid_secondary=RelType.P2C)
        assert not plain.is_hybrid
        assert hybrid.is_hybrid


class TestRelType:
    def test_caida_codes(self):
        assert RelType.P2C.code == -1
        assert RelType.P2P.code == 0
        assert RelType.S2S.code == 1

    def test_from_code_round_trip(self):
        for rel in RelType:
            assert RelType.from_code(rel.code) is rel
        with pytest.raises(ValueError):
            RelType.from_code(7)


class TestASGraph:
    def test_add_and_query(self, tiny_graph):
        assert 10 in tiny_graph
        assert len(tiny_graph) == 13
        assert tiny_graph.node(10).role is Role.CLIQUE

    def test_duplicate_as_rejected(self):
        graph = ASGraph()
        graph.add_as(_node(1))
        with pytest.raises(ValueError):
            graph.add_as(_node(1))

    def test_link_requires_nodes(self):
        graph = ASGraph()
        graph.add_as(_node(1))
        with pytest.raises(KeyError):
            graph.add_link(Link(provider=1, customer=2, rel=RelType.P2C))

    def test_duplicate_link_rejected(self, tiny_graph):
        with pytest.raises(ValueError):
            tiny_graph.add_link(Link(provider=10, customer=30, rel=RelType.P2C))

    def test_adjacency_sets(self, tiny_graph):
        assert 30 in tiny_graph.customers_of(10)
        assert 10 in tiny_graph.providers_of(30)
        assert 20 in tiny_graph.peers_of(10)
        assert 61 in tiny_graph.siblings_of(60)
        assert tiny_graph.neighbors_of(30) == frozenset({10, 40, 100, 300, 61, 70})

    def test_degree(self, tiny_graph):
        assert tiny_graph.degree(30) == 6
        assert tiny_graph.degree(100) == 1

    def test_remove_link(self, tiny_graph):
        removed = tiny_graph.remove_link(30, 100)
        assert removed.rel is RelType.P2C
        assert not tiny_graph.has_link(30, 100)
        assert 100 not in tiny_graph.customers_of(30)

    def test_clique(self, tiny_graph):
        assert sorted(tiny_graph.clique()) == [10, 20]

    def test_transit_free(self, tiny_graph):
        # Only the clique sits at the top of the hierarchy.
        transit_free = [
            asn for asn in tiny_graph.asns()
            if not tiny_graph.providers_of(asn)
        ]
        assert sorted(transit_free) == [10, 20]

    def test_customer_cone(self, tiny_graph):
        cone_10 = tiny_graph.customer_cone(10)
        # everything below 10: 30, 35, 350, 100, 300, 61, 70
        assert cone_10 == {30, 35, 350, 100, 300, 61, 70}
        assert tiny_graph.customer_cone(100) == set()

    def test_customer_cone_sizes_match_bfs(self, tiny_graph):
        sizes = tiny_graph.customer_cone_sizes()
        for asn in tiny_graph.asns():
            assert sizes[asn] == len(tiny_graph.customer_cone(asn))

    def test_stats(self, tiny_graph):
        stats = tiny_graph.stats()
        assert stats["n_ases"] == 13
        assert stats["n_links"] == 16
        assert stats["n_partial_transit"] == 1
        assert stats["n_s2s"] == 1

    def test_cone_with_cycle_falls_back(self):
        # Hand-built cycles must not crash the memoised cone computation.
        graph = ASGraph()
        for asn in (1, 2, 3):
            graph.add_as(_node(asn, Role.MID_TRANSIT))
        graph.add_link(Link(provider=1, customer=2, rel=RelType.P2C))
        graph.add_link(Link(provider=2, customer=3, rel=RelType.P2C))
        graph.add_link(Link(provider=3, customer=1, rel=RelType.P2C))
        sizes = graph.customer_cone_sizes()
        # On a 3-cycle each AS reaches the other two (never itself).
        assert sizes == {1: 2, 2: 2, 3: 2}
