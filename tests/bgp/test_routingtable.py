"""Tests for the per-AS routing table view."""

import pytest

from repro.bgp.policy import RouteClass
from repro.bgp.routingtable import RibEntry, RoutingTable
from tests.bgp import reference_engine
from tests.bgp.reference_adjacency import AdjacencyIndex
from tests.bgp.reference_engine import as_tree


@pytest.fixture
def table_30(tiny_graph):
    return RoutingTable.compute(tiny_graph, 30)


class TestRoutingTable:
    def test_own_route(self, table_30):
        entry = table_30.lookup(30)
        assert entry is not None
        assert entry.next_hop is None
        assert entry.route_class is RouteClass.SELF
        assert entry.path_length == 0

    def test_customer_route(self, table_30):
        entry = table_30.lookup(100)
        assert entry is not None
        assert entry.route_class is RouteClass.CUSTOMER
        assert entry.path == (30, 100)

    def test_peer_and_provider_routes(self, table_30):
        # 200 sits under 40 (30's peer).
        entry = table_30.lookup(200)
        assert entry is not None
        assert entry.route_class is RouteClass.PEER
        assert entry.next_hop == 40
        # 20 (the other clique member) is reached via provider 10.
        entry = table_30.lookup(20)
        assert entry is not None
        assert entry.route_class is RouteClass.PROVIDER
        assert entry.next_hop == 10

    def test_partial_transit_routes_present_for_customers(self, tiny_graph):
        # 30 is 10's customer: it receives the partial-transit island.
        table = RoutingTable.compute(tiny_graph, 30)
        assert 350 in table
        # 20 (10's peer) must NOT have those routes.
        table_20 = RoutingTable.compute(tiny_graph, 20)
        assert 350 not in table_20
        assert 350 in set(table_20.unreachable(tiny_graph))

    def test_routes_via(self, table_30):
        via_provider = table_30.routes_via(10)
        assert all(e.next_hop == 10 for e in via_provider)
        assert any(e.origin == 20 for e in via_provider)

    def test_class_counts_sum(self, table_30, tiny_graph):
        counts = table_30.class_counts()
        assert sum(counts.values()) == len(table_30)
        assert counts[RouteClass.SELF] == 1

    def test_unknown_as_rejected(self, tiny_graph):
        with pytest.raises(KeyError):
            RoutingTable.compute(tiny_graph, 99999)

    def test_render(self, table_30):
        text = table_30.render(max_routes=3)
        assert "AS30 BGP table" in text
        assert "more)" in text
        assert "NextHop" in text

    def test_entries_sorted(self, table_30):
        origins = [e.origin for e in table_30.entries()]
        assert origins == sorted(origins)


class TestSingleSweepLock:
    """``RoutingTable.compute`` builds one plane and sweeps;
    its output is locked against the per-origin routes."""

    @pytest.mark.parametrize("asn", [10, 30, 50, 350])
    def test_matches_per_origin_route_trees(self, tiny_graph, asn):
        from repro.bgp.propagation import (
            PropagationPlane,
            compute_origin_routes,
        )

        table = RoutingTable.compute(tiny_graph, asn)
        plane = PropagationPlane(tiny_graph)
        expected_origins = []
        for origin in tiny_graph.asns():
            tree = as_tree(compute_origin_routes(plane, origin))
            if not tree.has_route(asn):
                continue
            expected_origins.append(origin)
            entry = table.lookup(origin)
            assert entry is not None
            assert entry.path == tree.path_from(asn)
            assert entry.route_class is tree.pref[asn]
            assert entry.next_hop == (
                entry.path[1] if len(entry.path) > 1 else None
            )
        assert sorted(expected_origins) == sorted(
            e.origin for e in table.entries()
        )

    def test_matches_reference_engine(self, tiny_graph):
        adjacency = AdjacencyIndex(tiny_graph)
        expected = []
        for origin in sorted(adjacency.asns):
            tree = reference_engine.compute_route_tree(adjacency, origin)
            path = tree.path_from(30)
            if path is None:
                continue
            expected.append(RibEntry(
                origin=origin,
                next_hop=path[1] if len(path) > 1 else None,
                path=path,
                route_class=tree.pref[30],
            ))
        table = RoutingTable.compute(tiny_graph, 30)
        assert list(table.entries()) == expected
