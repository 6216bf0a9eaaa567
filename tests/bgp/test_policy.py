"""Tests for policy primitives and the propagation plane's tables."""

import numpy as np
import pytest

from repro.bgp.policy import RouteClass, exports_to_non_customers, route_class
from repro.bgp.propagation import PropagationPlane
from tests.bgp.reference_adjacency import link_mask


class TestExportRule:
    def test_customer_and_self_export_everywhere(self):
        assert exports_to_non_customers(RouteClass.SELF, restricted=False)
        assert exports_to_non_customers(RouteClass.CUSTOMER, restricted=False)

    def test_peer_and_provider_do_not(self):
        assert not exports_to_non_customers(RouteClass.PEER, restricted=False)
        assert not exports_to_non_customers(RouteClass.PROVIDER, restricted=False)

    def test_restricted_customer_route_behaves_like_peer(self):
        # The partial-transit mechanism of §6.1.
        assert not exports_to_non_customers(RouteClass.CUSTOMER, restricted=True)


class TestRouteClassOrdering:
    def test_preference_order(self):
        assert RouteClass.SELF < RouteClass.CUSTOMER < RouteClass.PEER
        assert RouteClass.PEER < RouteClass.PROVIDER


def neighbours(plane, table, asn):
    """ASNs in ``asn``'s row of the plane's ``table`` (``"prov"``,
    ``"cust"`` or ``"peer"``), in row order."""
    indptr = getattr(plane, f"{table}_indptr")
    indices = getattr(plane, f"{table}_indices")
    i = plane.ids([asn])[0]
    return plane.asns[indices[indptr[i] : indptr[i + 1]]].tolist()


class TestAdjacencyIndex:
    """The plane's CSR tables and :func:`route_class`, on the tiny
    graph (ids are ASN-sorted, so neighbour ASNs read back in order)."""

    def test_tables(self, tiny_graph):
        plane = PropagationPlane(tiny_graph)
        assert 30 in neighbours(plane, "cust", 10)
        assert 10 in neighbours(plane, "prov", 30)
        assert 40 in neighbours(plane, "peer", 30)
        # 35's one provider edge, to 10, is partial transit; 30's are not.
        i35, i30 = plane.ids([35, 30])
        lo, hi = plane.prov_indptr[i35], plane.prov_indptr[i35 + 1]
        assert neighbours(plane, "prov", 35) == [10]
        assert plane.partial_up[lo:hi].tolist() == [True]
        lo, hi = plane.prov_indptr[i30], plane.prov_indptr[i30 + 1]
        assert not plane.partial_up[lo:hi].any()

    def test_siblings_fold_into_peers(self, tiny_graph):
        plane = PropagationPlane(tiny_graph)
        assert 61 in neighbours(plane, "peer", 60)
        assert 60 in neighbours(plane, "peer", 61)

    def test_neighbor_lists_sorted(self, tiny_graph):
        plane = PropagationPlane(tiny_graph)
        assert plane.asns.tolist() == sorted(tiny_graph.asns())
        for table in ("prov", "cust", "peer"):
            for asn in tiny_graph.asns():
                neighbors = neighbours(plane, table, asn)
                assert neighbors == sorted(neighbors)

    def test_route_class(self, tiny_graph):
        assert route_class(tiny_graph, 10, 30) is RouteClass.CUSTOMER
        assert route_class(tiny_graph, 30, 10) is RouteClass.PROVIDER
        assert route_class(tiny_graph, 30, 40) is RouteClass.PEER
        assert route_class(tiny_graph, 60, 61) is RouteClass.PEER
        with pytest.raises(ValueError):
            route_class(tiny_graph, 100, 200)
        with pytest.raises(ValueError):
            route_class(tiny_graph, 100, 99999)

    def test_exclude_removes_links(self, tiny_graph):
        full = PropagationPlane(tiny_graph)
        plane = full.without(link_mask(tiny_graph, {(30, 100)}))
        assert 100 not in neighbours(plane, "cust", 30)
        assert neighbours(plane, "prov", 100) == []
        assert np.array_equal(plane.asns, full.asns)
        # The converged plane keeps the link.
        assert 100 in neighbours(full, "cust", 30)
