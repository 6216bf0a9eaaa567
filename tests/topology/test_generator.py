"""Tests for the synthetic topology generator (structural invariants)."""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro import build_scenario
from repro.config import ScenarioConfig, config_from_canonical
from repro.topology.generator import _OpenSlots, generate_topology
from repro.topology.graph import RelType, Role


def topology_sha256(topology) -> str:
    """sha256 over the sorted links (provider, customer, rel, partial
    transit, hybrid secondary) and node attributes (region, role, org,
    business type) of a generated topology."""
    links = sorted(
        (link.provider, link.customer, link.rel.value, link.partial_transit,
         None if link.hybrid_secondary is None
         else link.hybrid_secondary.value)
        for link in topology.graph.links()
    )
    nodes = sorted(
        (node.asn, node.region.value, node.role.value, node.org_id,
         node.business_type)
        for node in topology.graph.nodes()
    )
    return hashlib.sha256(json.dumps([links, nodes]).encode()).hexdigest()


#: :func:`topology_sha256` of ``generate_topology(ScenarioConfig.small(
#: seed))``: the generator's draw stream, pinned.
TOPOLOGY_SHA256 = {
    3: "46128f7df2b455b2d72745eb8f2e59ac57fea3ad2e9932a1fbfe8c7279159205",
    5: "1f680f4481918560576d098d7a608e4702d76b8bc8bb23ba9568c0ebc5d59159",
    11: "1ddd9cac1f8ef91bbea7ee503d002cd876df467007d76025473a469243b95151",
}


@pytest.fixture(scope="module")
def topology():
    return generate_topology(ScenarioConfig.small())


class TestStructure:
    def test_as_count(self, topology):
        assert len(topology.graph) == 320

    def test_clique_is_full_mesh_of_p2p(self, topology):
        clique = topology.graph.clique()
        assert len(clique) == 7
        for i, a in enumerate(clique):
            for b in clique[i + 1 :]:
                link = topology.graph.link(a, b)
                assert link.rel is RelType.P2P

    def test_clique_is_provider_free(self, topology):
        for asn in topology.graph.clique():
            assert topology.graph.providers_of(asn) == frozenset()

    def test_cogent_is_clique_member(self, topology):
        assert topology.cogent_asn == 174
        assert topology.graph.node(174).role is Role.CLIQUE

    def test_everyone_else_has_a_provider(self, topology):
        for node in topology.graph.nodes():
            if node.role is Role.CLIQUE:
                continue
            assert topology.graph.providers_of(node.asn), (
                f"AS{node.asn} ({node.role}) has no provider"
            )

    def test_provider_graph_acyclic(self, topology):
        # customer_cone_sizes raises on provider cycles via the
        # topological order; it must succeed on generated graphs.
        sizes = topology.graph.customer_cone_sizes()
        assert all(size >= 0 for size in sizes.values())

    def test_stubs_have_no_customers(self, topology):
        for node in topology.graph.nodes():
            if node.role is Role.STUB:
                assert topology.graph.customers_of(node.asn) == frozenset()

    def test_partial_transit_only_under_clique(self, topology):
        for link in topology.graph.links():
            if link.partial_transit:
                assert topology.graph.node(link.provider).role is Role.CLIQUE
                assert topology.graph.node(link.customer).role.is_transit

    def test_hybrid_links_are_transit_peerings(self, topology):
        for link in topology.graph.links():
            if link.is_hybrid:
                assert link.rel is RelType.P2P
                assert link.hybrid_secondary is RelType.P2C

    def test_special_stubs_peer_with_clique(self, topology):
        clique = set(topology.graph.clique())
        assert topology.special_stubs
        for asn in topology.special_stubs:
            node = topology.graph.node(asn)
            assert node.business_type in ("research", "anycast-dns", "cdn", "cloud")
            t1_peers = topology.graph.peers_of(asn) & clique
            assert t1_peers, f"special stub AS{asn} has no T1 peering"


class TestRegistries:
    def test_every_as_has_an_org(self, topology):
        for node in topology.graph.nodes():
            assert node.org_id
            assert topology.orgs.org_of(node.asn) == node.org_id

    def test_sibling_links_match_orgs(self, topology):
        for link in topology.graph.links():
            if link.rel is RelType.S2S:
                assert topology.orgs.are_siblings(link.provider, link.customer)

    def test_region_map_covers_every_as(self, topology):
        for node in topology.graph.nodes():
            assert topology.region_map.lookup(node.asn) is node.region

    def test_transfers_recorded_as_delegations(self, topology):
        # At least the clique pool pins exist; transfers add more.
        assert len(topology.region_map.delegations) >= len(
            topology.graph.clique()
        )

    def test_external_lists_reasonable(self, topology):
        true_clique = set(topology.graph.clique())
        overlap = len(topology.external_lists.tier1 & true_clique)
        assert overlap >= len(true_clique) - 2

    def test_ixps_exist_with_members(self, topology):
        assert len(topology.ixps) >= 5
        total_members = sum(ixp.size for ixp in topology.ixps.ixps())
        assert total_members > 50


class TestDeterminism:
    @pytest.mark.parametrize("seed", sorted(TOPOLOGY_SHA256))
    def test_matches_pinned_digest(self, seed):
        topology = generate_topology(ScenarioConfig.small(seed=seed))
        assert topology_sha256(topology) == TOPOLOGY_SHA256[seed]

    def test_same_seed_same_topology(self):
        a = generate_topology(ScenarioConfig.small(seed=11))
        b = generate_topology(ScenarioConfig.small(seed=11))
        assert a.graph.asns() == b.graph.asns()
        assert [l.key for l in a.graph.links()] == [l.key for l in b.graph.links()]
        assert a.external_lists.tier1 == b.external_lists.tier1

    def test_different_seed_differs(self):
        a = generate_topology(ScenarioConfig.small(seed=11))
        b = generate_topology(ScenarioConfig.small(seed=12))
        assert [l.key for l in a.graph.links()] != [l.key for l in b.graph.links()]

    def test_region_dict_order_does_not_change_the_build(self):
        # The fingerprint ignores dict order, so a config rebuilt from
        # its canonical form (regions sorted) or with its per-region
        # dicts permuted must build the very same scenario.
        original = ScenarioConfig.small(seed=7)
        round_tripped = config_from_canonical(original.canonical_dict())
        permuted = ScenarioConfig.small(seed=7)
        for name in ("clique_per_region", "hypergiants_per_region"):
            counts = getattr(permuted.topology, name)
            setattr(permuted.topology, name, dict(reversed(counts.items())))
        order = list(original.topology.clique_per_region)
        assert list(round_tripped.topology.clique_per_region) != order
        assert list(permuted.topology.clique_per_region) != order
        base = build_scenario(original)

        def shape(topology):
            nodes = [(n.asn, n.region, n.role) for n in topology.graph.nodes()]
            links = [(l.key, l.rel, l.partial_transit)
                     for l in topology.graph.links()]
            return nodes, links

        for config in (round_tripped, permuted):
            assert config.fingerprint() == original.fingerprint()
            other = build_scenario(config)
            assert shape(other.topology) == shape(base.topology)
            assert other.inferred_links() == base.inferred_links()


class TestOpenSlots:
    """The organisation pass's open-position index against a list."""

    @settings(max_examples=200, deadline=None)
    @given(size=st.integers(0, 70), data=st.data())
    def test_matches_popping_from_a_list(self, size, data):
        slots = _OpenSlots(size)
        model = list(range(size))
        while model:
            if data.draw(st.booleans()):
                position = data.draw(st.sampled_from(model))
                model.remove(position)
                slots.close(position)
            else:
                k = data.draw(st.integers(0, len(model) - 1))
                assert slots.nth_open(k) == model[k]
                slots.close(model.pop(k))
            assert slots.count == len(model)


class TestConfigValidation:
    def test_bad_region_shares_rejected(self):
        config = ScenarioConfig.small()
        config.topology.region_shares = dict(config.topology.region_shares)
        first = next(iter(config.topology.region_shares))
        config.topology.region_shares[first] += 0.5
        with pytest.raises(ValueError):
            generate_topology(config)

    def test_too_small_rejected(self):
        config = ScenarioConfig.small()
        config.topology.n_ases = 10
        with pytest.raises(ValueError):
            generate_topology(config)
