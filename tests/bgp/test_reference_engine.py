"""Hand-checked cases for the propagation oracle itself.

The differential tests compare the plane with ``reference_engine.py``;
these pin the oracle's answers on the NOMS-24 ``bgpsim`` 13-AS tree
(AS1 on top; 2-5 its customers; 2-3 and 4-5 peer; stubs 6-7 under 2,
8-9 under 3, 10-11 under 4, 12-13 under 5), worked out by hand from
the Gao-Rexford rules, not computed.
"""

from __future__ import annotations

from repro.bgp.policy import RouteClass
from repro.topology.graph import Link, RelType
from tests.bgp.reference_adjacency import AdjacencyIndex
from tests.bgp.reference_engine import compute_attack_tree, compute_route_tree
from tests.bgp.test_collection_differential import bgpsim_tree

SELF = RouteClass.SELF
CUSTOMER = RouteClass.CUSTOMER
PEER = RouteClass.PEER
PROVIDER = RouteClass.PROVIDER


def _paths(tree):
    return {asn: tree.path_from(asn) for asn in tree.pref}


def test_origin_7_routes():
    tree = compute_route_tree(AdjacencyIndex(bgpsim_tree()), 7)
    # AS3 prefers its peer 2's customer route to its provider's; AS4
    # gets nothing from peer 5 (a provider route) and uses AS1.
    assert _paths(tree) == {
        7: (7,), 2: (2, 7), 1: (1, 2, 7), 3: (3, 2, 7), 6: (6, 2, 7),
        4: (4, 1, 2, 7), 5: (5, 1, 2, 7), 8: (8, 3, 2, 7), 9: (9, 3, 2, 7),
        10: (10, 4, 1, 2, 7), 11: (11, 4, 1, 2, 7),
        12: (12, 5, 1, 2, 7), 13: (13, 5, 1, 2, 7),
    }
    assert tree.pref == {
        7: SELF, 2: CUSTOMER, 1: CUSTOMER, 3: PEER, 6: PROVIDER,
        4: PROVIDER, 5: PROVIDER, 8: PROVIDER, 9: PROVIDER,
        10: PROVIDER, 11: PROVIDER, 12: PROVIDER, 13: PROVIDER,
    }
    assert tree.dist == {
        asn: len(path) - 1 for asn, path in _paths(tree).items()
    }
    assert not any(tree.restricted.values())
    assert tree.src is None


def test_partial_transit_route_stays_with_customers():
    graph = bgpsim_tree()
    graph.remove_link(2, 7)
    graph.add_link(
        Link(provider=2, customer=7, rel=RelType.P2C, partial_transit=True)
    )
    tree = compute_route_tree(AdjacencyIndex(graph), 7)
    # AS2's route is restricted: it goes to customer 6 only, never to
    # provider 1 or peer 3.
    assert _paths(tree) == {7: (7,), 2: (2, 7), 6: (6, 2, 7)}
    assert tree.pref == {7: SELF, 2: CUSTOMER, 6: PROVIDER}
    assert tree.restricted == {7: False, 2: True, 6: False}


def test_forged_origin_claim_from_stub_6():
    # Stub 6 claims a one-hop path to 13 (a forged-origin hijack).
    tree = compute_attack_tree(AdjacencyIndex(bgpsim_tree()), 13, 6, 1, set())
    # AS2 takes its customer's claim over a provider route; AS3 takes
    # it as a peer route; their customers follow.  AS1 keeps the
    # shorter customer route via 5.
    assert _paths(tree) == {
        13: (13,), 5: (5, 13), 1: (1, 5, 13), 4: (4, 5, 13),
        12: (12, 5, 13), 10: (10, 4, 5, 13), 11: (11, 4, 5, 13),
        6: (6,), 2: (2, 6), 3: (3, 2, 6), 7: (7, 2, 6),
        8: (8, 3, 2, 6), 9: (9, 3, 2, 6),
    }
    assert tree.pref == {
        13: SELF, 5: CUSTOMER, 1: CUSTOMER, 4: PEER, 12: PROVIDER,
        10: PROVIDER, 11: PROVIDER, 6: SELF, 2: CUSTOMER, 3: PEER,
        7: PROVIDER, 8: PROVIDER, 9: PROVIDER,
    }
    assert tree.dist[6] == 1 and tree.dist[2] == 2 and tree.dist[8] == 4
    attacked = {asn for asn, src in tree.src.items() if src == 1}
    assert attacked == {6, 2, 3, 7, 8, 9}


def test_blocked_provider_stops_the_claim():
    tree = compute_attack_tree(AdjacencyIndex(bgpsim_tree()), 13, 6, 1, {2})
    # AS2 refuses the claim, and 6 has no other neighbour.
    assert _paths(tree) == {
        13: (13,), 5: (5, 13), 1: (1, 5, 13), 4: (4, 5, 13),
        12: (12, 5, 13), 10: (10, 4, 5, 13), 11: (11, 4, 5, 13),
        6: (6,), 2: (2, 1, 5, 13), 3: (3, 1, 5, 13),
        7: (7, 2, 1, 5, 13), 8: (8, 3, 1, 5, 13), 9: (9, 3, 1, 5, 13),
    }
    assert tree.pref[2] is PROVIDER and tree.pref[3] is PROVIDER
    attacked = {asn for asn, src in tree.src.items() if src == 1}
    assert attacked == {6}
