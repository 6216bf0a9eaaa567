"""Tests for the per-AS routing table view."""

import pytest

from repro import ScenarioConfig
from repro.bgp import propagation
from repro.bgp.policy import RouteClass
from repro.bgp.propagation import PropagationPlane, compute_origin_routes
from repro.bgp.routingtable import RibEntry, RoutingTable
from repro.topology.generator import generate_topology
from repro.topology.graph import Role
from tests.bgp import reference_engine
from tests.bgp.readers import multihomed
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
        assert entry.path == (30,)

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

    def test_routes_via(self, table_30):
        # Every route learned from provider 10 is a provider route, and
        # the other clique member is among them.
        via_provider = [e for e in table_30.entries() if e.next_hop == 10]
        assert all(e.route_class is RouteClass.PROVIDER for e in via_provider)
        assert any(e.origin == 20 for e in via_provider)

    def test_route_classes_cover_the_table(self, table_30):
        classes = [e.route_class for e in table_30.entries()]
        assert len(classes) == len(table_30)
        assert classes.count(RouteClass.SELF) == 1

    def test_unknown_as_rejected(self, tiny_graph):
        with pytest.raises(KeyError):
            RoutingTable.compute(tiny_graph, 99999)

    def test_render(self, table_30):
        lines = table_30.render().splitlines()
        assert lines[0] == f"AS30 BGP table: {len(table_30)} best routes"
        assert "NextHop" in lines[1]
        assert len(lines) == 2 + len(table_30)

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


#: Origins per propagation block in the multi-block test.
_TEST_BLOCK = 7


@pytest.mark.differential
@pytest.mark.parametrize(
    "role",
    [Role.CLIQUE, Role.MID_TRANSIT, Role.STUB],
    ids=lambda role: role.value,
)
@pytest.mark.parametrize("seed", [3, 5, 11])
def test_multi_block_sweep_matches_per_origin_rows(seed, role, monkeypatch):
    # Every origin of a generated topology, in blocks of seven, against
    # the full rows of one origin at a time.
    graph = generate_topology(ScenarioConfig.small(seed=seed)).graph
    plane = PropagationPlane(graph)
    monkeypatch.setattr(propagation, "CELLS", _TEST_BLOCK * plane.n)
    assert plane.block_size == _TEST_BLOCK
    asn = min(graph.clique()) if role is Role.CLIQUE else multihomed(graph, role)

    table = RoutingTable.compute(graph, asn)
    expected = []
    for origin in sorted(graph.asns()):
        routes = compute_origin_routes(plane, origin)
        path = routes.path_from(asn)
        if path is None:
            continue
        expected.append(RibEntry(
            origin=origin,
            next_hop=path[1] if len(path) > 1 else None,
            path=path,
            route_class=routes.pref[asn],
        ))
    assert len(expected) > _TEST_BLOCK
    assert list(table.entries()) == expected
