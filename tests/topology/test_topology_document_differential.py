"""Differential proof for the cached topology document.

A warm ``build_scenario`` reads its topology from ``topology.json``
(:mod:`repro.topology.document`) instead of running the generator, so
the read-back topology must be one no consumer can tell from a
generated one: every attribute, every scalar's type and the iteration
order of every set and dict (``graph.asns()`` and ``links()``, each
AS's provider/customer/peer/sibling set, org member lists, IXP member
sets and the per-AS membership index, delegations, the external lists).
:func:`tests.topology.topology_fields.first_difference` walks both
topologies field by field.  The documents go through the artifact cache
(``store_topology``/``load_topology``), so the JSON text on disk is
what is read back.

Covered: a 24-seed generator matrix (AS counts, IXP densities, sibling,
hybrid and partial-transit rates and transfer shares varied per seed),
scenario seeds 3/5/11, one ``ScenarioConfig.small`` config, one
2.5k-AS default config, and hand-built topologies whose sets were
filled in an order the document has to find (colliding IXP ids, an
unsorted external list, an AS without a region).
"""

from __future__ import annotations

import json
from functools import lru_cache

import pytest

from repro.config import ScenarioConfig
from repro.pipeline.cache import ArtifactCache
from repro.topology.document import (
    FIELDS,
    topology_document,
    topology_from_document,
)
from repro.topology.external_lists import ExternalLists
from repro.topology.generator import Topology, generate_topology
from repro.topology.graph import ASGraph, ASNode, Link, RelType, Role
from repro.topology.ixp import IXP, IXPRegistry
from repro.topology.orgs import Organisation, OrgMap
from repro.topology.regions import Region, RegionMap
from tests.topology.topology_fields import first_difference

pytestmark = pytest.mark.differential

MATRIX_SEEDS = tuple(range(24))
SCENARIO_SEEDS = (3, 5, 11)


def matrix_config(seed: int) -> ScenarioConfig:
    """One generator config per seed, its knobs varied with the seed."""
    config = ScenarioConfig.small(seed=100 + seed)
    topo = config.topology
    topo.n_ases = 140 + 37 * (seed % 8)
    topo.ixps_per_1000_ases = (6.0, 25.0, 60.0)[seed % 3]
    topo.multi_as_org_share = (0.045, 0.12)[seed % 2]
    topo.hybrid_link_prob = (0.012, 0.08)[(seed // 2) % 2]
    topo.clique_partial_transit_prob = (0.04, 0.3)[(seed // 4) % 2]
    topo.inter_rir_transfer_share = (0.015, 0.06)[(seed // 3) % 2]
    config.validate()
    return config


def two_half_k_config() -> ScenarioConfig:
    config = ScenarioConfig.default()
    config.topology.n_ases = 2500
    return config


@lru_cache(maxsize=None)
def generated(kind: str, seed: int) -> Topology:
    if kind == "matrix":
        return generate_topology(matrix_config(seed))
    if kind == "scenario":
        return generate_topology(ScenarioConfig.small(seed=seed))
    return generate_topology(two_half_k_config())


def round_trip(topology: Topology, tmp_path) -> Topology:
    """Store through the artifact cache and read the file back."""
    cache = ArtifactCache(root=tmp_path)
    config = ScenarioConfig.small(seed=3)
    key = cache.scenario_key(config)
    cache.store_topology(key, topology, config)
    loaded = cache.load_topology(key)
    assert loaded is not None and cache.hits == 1
    return loaded


def assert_indistinguishable(loaded: Topology, topology: Topology) -> None:
    difference = first_difference(loaded, topology)
    assert difference is None, difference


@pytest.mark.parametrize("seed", MATRIX_SEEDS)
def test_generator_matrix(seed, tmp_path):
    topology = generated("matrix", seed)
    assert_indistinguishable(round_trip(topology, tmp_path), topology)


@pytest.mark.parametrize("seed", SCENARIO_SEEDS)
def test_scenario_seeds(seed, tmp_path):
    topology = generated("scenario", seed)
    assert_indistinguishable(round_trip(topology, tmp_path), topology)


def test_small_config(tmp_path):
    topology = generate_topology(ScenarioConfig.small())
    assert_indistinguishable(round_trip(topology, tmp_path), topology)


def test_default_config_at_two_and_a_half_thousand(tmp_path):
    topology = generated("default", 2500)
    assert_indistinguishable(round_trip(topology, tmp_path), topology)


def test_the_matrix_covers_every_link_and_node_kind():
    """The matrix holds what the document must carry: hybrid, partial
    -transit and sibling links, multi-AS orgs, transferred ASes and
    ASes at several IXPs."""
    topologies = [generated("matrix", seed) for seed in MATRIX_SEEDS]
    links = [link for t in topologies for link in t.graph.links()]
    assert any(link.hybrid_secondary is RelType.P2C for link in links)
    assert any(link.partial_transit for link in links)
    assert any(link.rel is RelType.S2S for link in links)
    assert any(org.is_multi_as for t in topologies for org in t.orgs.orgs())
    assert any(len(t.region_map.delegations) > 30 for t in topologies)
    assert any(
        len(ids) > 1 for t in topologies for _, ids in t.ixps.memberships()
    )


def test_the_replay_is_the_generator_add_sequence():
    """Replaying ``add_as``/``add_link`` in ``asns()``/``links()`` order
    refills every adjacency set in the generator's order: the generator
    never removes a link, so ``links()`` is its whole add history."""
    for seed in MATRIX_SEEDS[:6]:
        topology = generated("matrix", seed)
        replay = ASGraph()
        for node in topology.graph.nodes():
            replay.add_as(node)
        for link in topology.graph.links():
            replay.add_link(link)
        difference = first_difference(replay, topology.graph, "graph")
        assert difference is None, difference


def test_document_is_sorted_key_json(tmp_path):
    topology = generated("scenario", 3)
    cache = ArtifactCache(root=tmp_path)
    config = ScenarioConfig.small(seed=3)
    key = cache.scenario_key(config)
    path = cache.store_topology(key, topology, config)
    text = path.read_text(encoding="utf-8")
    document = json.loads(text)
    assert text == json.dumps(document, sort_keys=True, separators=(",", ":"))
    assert document["fields"] == FIELDS
    assert [row[0] for row in document["nodes"]] == topology.graph.asns()


# ---------------------------------------------------------------------------
# hand-built topologies
# ---------------------------------------------------------------------------

def hand_topology() -> Topology:
    """A topology whose sets were filled out of their slot order.

    AS 7 joins IXP 7 before IXP 15 (both hash to slot 7 of an 8-slot
    set, so the set iterates 15 before 7), the Tier-1 list was filled
    against graph order, and AS 64512 has no region.
    """
    graph = ASGraph()
    asns = (7, 15, 23, 31, 39, 64512)
    for i, asn in enumerate(asns):
        graph.add_as(ASNode(
            asn=asn,
            region=None if asn == 64512 else Region.RIPE,
            role=Role.CLIQUE if i < 2 else Role.STUB,
            org_id=f"ORG-{i % 4}",
            business_type="research" if i == 3 else "enterprise",
            n_prefixes=i + 1,
            n_addresses=256 * (i + 1),
            manrs_member=i % 2 == 0,
            serial_hijacker=i == 5,
        ))
    graph.add_link(Link(7, 15, RelType.P2P, hybrid_secondary=RelType.P2C))
    graph.add_link(Link(7, 23, RelType.P2C, partial_transit=True))
    graph.add_link(Link(15, 31, RelType.P2C))
    graph.add_link(Link(7, 39, RelType.S2S))
    graph.add_link(Link(15, 64512, RelType.P2C))
    graph.add_link(Link(23, 39, RelType.P2P))
    orgs = OrgMap()
    orgs.add_org(Organisation("ORG-0", "Org 1", "R", [39, 7]))
    orgs.add_org(Organisation("ORG-1", "Org 2", "R", [15]))
    orgs.add_org(Organisation("ORG-2", "Org 3", "ZZ", [64512, 23, 31]))
    ixps = IXPRegistry()
    for ixp_id in range(16):
        ixps.add_ixp(IXP(ixp_id, f"R-IX-{ixp_id}", Region.RIPE))
    for asn, joins in ((7, (7, 15, 7)), (15, (15, 7, 3)), (31, (8, 0, 8))):
        for ixp_id in joins:
            ixps.join(asn, ixp_id)
    region_map = RegionMap()
    region_map.add_iana_block(1, 63999, Region.RIPE)
    region_map.add_delegation(31, Region.ARIN)
    region_map.add_delegation(7, Region.APNIC)
    region_map.transfer(31, Region.LACNIC)
    return Topology(
        graph=graph,
        orgs=orgs,
        ixps=ixps,
        region_map=region_map,
        external_lists=ExternalLists(
            tier1=frozenset([15, 7, 39]), hypergiants=frozenset([23])
        ),
        cogent_asn=7,
        special_stubs=[31, 23],
    )


def test_hand_topology_sets_filled_out_of_slot_order(tmp_path):
    topology = hand_topology()
    assert list(topology.ixps.memberships_of(7)) == [15, 7]
    assert list(set([15, 7])) == [7, 15], "iteration order is not a fill order"
    assert_indistinguishable(round_trip(topology, tmp_path), topology)


def test_empty_topology(tmp_path):
    topology = Topology(
        graph=ASGraph(),
        orgs=OrgMap(),
        ixps=IXPRegistry(),
        region_map=RegionMap(),
        external_lists=ExternalLists(frozenset(), frozenset()),
        cogent_asn=174,
    )
    assert_indistinguishable(round_trip(topology, tmp_path), topology)


@pytest.mark.parametrize("damage", [
    "columns", "truncated", "bad_rel", "unknown_ixp", "members",
])
def test_damaged_documents_are_refused(damage):
    document = json.loads(json.dumps(topology_document(hand_topology())))
    if damage == "columns":
        document["fields"]["links"] = document["fields"]["links"][:-1]
    elif damage == "truncated":
        del document["external_lists"]
    elif damage == "bad_rel":
        document["links"][0][2] = 7
    elif damage == "unknown_ixp":
        document["ixp_memberships"][0][1].append(99)
    else:
        document["ixps"][7][3].reverse()
    with pytest.raises((ValueError, KeyError, TypeError)):
        topology_from_document(document)
