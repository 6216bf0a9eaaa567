"""Tests for the looking-glass (Adj-RIB-In) simulation."""

import hashlib
import json

import pytest

from repro import ScenarioConfig, build_scenario
from repro.bgp import propagation
from repro.bgp.collectors import measurement_setup
from repro.bgp.communities import Meaning
from repro.bgp.lookingglass import LookingGlass
from repro.bgp.propagation import compute_origin_routes
from repro.service.query import casestudy_payload
from repro.topology.generator import generate_topology
from repro.topology.graph import RelType


@pytest.fixture
def glass(tiny_topology, tiny_communities):
    return LookingGlass(tiny_topology, tiny_communities)


class TestRoutesReceived:
    def test_customer_session_offers_cone(self, glass):
        # 10 receives from ordinary customer 30: 30 itself + its cone.
        routes = glass.routes_received(10, from_neighbor=30)
        origins = {route.origin for route in routes}
        assert origins == {30, 100, 300, 61, 70}

    def test_peer_session_offers_cone(self, glass):
        # 10 receives from its clique peer 20: 20's customer cone.
        routes = glass.routes_received(10, from_neighbor=20)
        origins = {route.origin for route in routes}
        assert 40 in origins and 200 in origins
        assert 30 not in origins  # 20 must not export peer routes

    def test_provider_session_offers_everything(self, glass):
        # 30 queries the session with its provider 10: full table,
        # except the partial-transit island is INCLUDED (customers get
        # those routes) and 30's own routes are excluded (loop check).
        routes = glass.routes_received(30, from_neighbor=10)
        origins = {route.origin for route in routes}
        assert 35 in origins and 350 in origins
        assert 200 in origins
        assert 30 not in origins

    def test_non_adjacent_rejected(self, glass):
        with pytest.raises(ValueError):
            glass.routes_received(10, from_neighbor=200)

    def test_paths_start_at_neighbor(self, glass):
        for route in glass.routes_received(10, from_neighbor=30):
            assert route.path[0] == 30
            assert route.path[-1] == route.origin


class TestPartialTransitDetection:
    def test_no_export_community_visible(self, glass, tiny_communities):
        # The §6.1 smoking gun: routes 10 received from its
        # partial-transit customer 35 carry 10's no-export community.
        marker = tiny_communities.codebook(10).encode(Meaning.NO_EXPORT_TO_PEERS)
        routes = glass.routes_received(10, from_neighbor=35)
        assert routes
        assert all(route.has_community(marker) for route in routes)

    def test_ordinary_customer_not_tagged(self, glass, tiny_communities):
        marker = tiny_communities.codebook(10).encode(Meaning.NO_EXPORT_TO_PEERS)
        routes = glass.routes_received(10, from_neighbor=30)
        assert routes
        assert not any(route.has_community(marker) for route in routes)

    def test_find_no_export_sessions(self, glass):
        assert glass.find_no_export_sessions(10) == [35]
        assert glass.find_no_export_sessions(20) == []


# ---------------------------------------------------------------------------
# block rows against the per-origin computation
# ---------------------------------------------------------------------------

#: Origins per propagation block in the block test: small enough that
#: every session spans several blocks.
_TEST_BLOCK = 7


def _per_origin_reference(glass, asn, neighbor):
    """``routes_received`` computed one origin at a time, each through
    :func:`compute_origin_routes` (a block of one)."""
    link = glass.topology.graph.link(asn, neighbor)
    exports_all = link.rel is RelType.P2C and link.provider == neighbor
    received = []
    for origin in sorted(glass._exportable_origins(neighbor, exports_all)):
        routes = compute_origin_routes(glass.plane, origin)
        entry = glass._received_route(asn, neighbor, routes, link)
        if entry is not None:
            received.append(entry)
    return received


@pytest.mark.parametrize("seed", [3, 5, 11])
def test_block_rows_match_per_origin_routes(seed, monkeypatch):
    config = ScenarioConfig.small(seed=seed)
    topology = generate_topology(config)
    _, communities, _ = measurement_setup(topology, config)
    glass = LookingGlass(topology, communities)
    plane = glass.plane
    monkeypatch.setattr(propagation, "CELLS", _TEST_BLOCK * plane.n)
    assert plane.block_size == _TEST_BLOCK

    member = topology.cogent_asn
    graph = topology.graph
    # Every session of the clique member, plus one of its customers'
    # session with it, where the member exports its whole table.
    sessions = [(member, neighbor)
                for neighbor in sorted(graph.neighbors_of(member))]
    sessions.append((min(graph.customers_of(member)), member))
    partial_last_block = 0
    for asn, neighbor in sessions:
        link = graph.link(asn, neighbor)
        exports_all = link.rel is RelType.P2C and link.provider == neighbor
        n_origins = len(glass._exportable_origins(neighbor, exports_all))
        if n_origins > _TEST_BLOCK and n_origins % _TEST_BLOCK:
            partial_last_block += 1
        received = glass.routes_received(asn, neighbor)
        assert received, (asn, neighbor)
        assert received == _per_origin_reference(glass, asn, neighbor), (
            asn, neighbor)
    assert partial_last_block, "no session ends in a partial block"
# ---------------------------------------------------------------------------

#: sha256 of ``casestudy_payload(scenario.case_study())`` (sorted-key
#: JSON) for ``ScenarioConfig.small(seed)``.
CASESTUDY_SHA256 = {
    3: "127ff137e7486c917c058ab61a89ecc7505601002e00a19fe210f6abf0ae8329",
    5: "d9347f1a1c0f5cddd0faba83f578eefb6118948e9d040809a0d5e76d36e76571",
    11: "3e5923ea956cd0b3d8679a5e40f2b052df5f75480f69db6b3769acb83498c185",
}

#: sha256 of the Cogent ASN's ``routes_received`` answers over every
#: adjacent session plus ``find_no_export_sessions``, on the seed-7
#: small scenario.
COGENT_GLASS_SHA256 = (
    "9d889ad664c87bb729d237e25c5d04d8df2df5dbb15d65c6368d33f14ff6ac67"
)


def _sha256(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


@pytest.mark.parametrize("seed", sorted(CASESTUDY_SHA256))
def test_case_study_matches_pinned_digest(seed):
    scenario = build_scenario(ScenarioConfig.small(seed=seed))
    payload = casestudy_payload(scenario.case_study())
    assert _sha256(payload) == CASESTUDY_SHA256[seed]


def test_cogent_looking_glass_matches_pinned_digest(scenario):
    glass = LookingGlass(scenario.topology, scenario.communities)
    cogent = scenario.topology.cogent_asn
    answers = [
        [
            neighbor,
            [
                [route.origin, list(route.path), [list(c) for c in route.communities]]
                for route in glass.routes_received(cogent, neighbor)
            ],
        ]
        for neighbor in sorted(scenario.topology.graph.neighbors_of(cogent))
    ]
    no_export = glass.find_no_export_sessions(cogent)
    assert no_export, "the seed-7 Cogent AS must have flagged sessions"
    payload = {"routes_received": answers, "no_export": no_export}
    assert _sha256(payload) == COGENT_GLASS_SHA256
