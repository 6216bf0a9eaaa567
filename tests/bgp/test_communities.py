"""Tests for BGP communities, codebooks, and ambiguity."""

import pytest

from repro.bgp.communities import (
    INGRESS_MEANINGS,
    CommunityCodebook,
    CommunityRegistry,
    Meaning,
)
from repro.bgp.policy import RouteClass
from repro.utils.rng import make_rng


def _codebook(asn=174):
    return CommunityCodebook(
        asn=asn,
        values={
            Meaning.LEARNED_FROM_CUSTOMER: 100,
            Meaning.LEARNED_FROM_PEER: 200,
            Meaning.LEARNED_FROM_PROVIDER: 300,
            Meaning.BLACKHOLE: 666,
            Meaning.NO_EXPORT_TO_PEERS: 990,
        },
    )


class TestCodebook:
    def test_encode_decode_round_trip(self):
        book = _codebook()
        for meaning in Meaning:
            assert book.decode(book.encode(meaning)) is meaning

    def test_foreign_community_opaque(self):
        book = _codebook(asn=174)
        assert book.decode((3356, 100)) is None

    def test_unknown_value_opaque(self):
        book = _codebook()
        assert book.decode((174, 31337)) is None

    def test_cogent_990(self):
        # The §6.1 community: 174:990 means do-not-export-to-peers.
        assert _codebook(174).encode(Meaning.NO_EXPORT_TO_PEERS) == (174, 990)

    def test_ingress_meanings(self):
        # Customer, peer and provider routes are tagged with their
        # relationship; own routes carry no tag, and no action
        # community is an ingress tag.
        book = _codebook()
        values = {
            route_class: book.encode(meaning)[1]
            for route_class, meaning in INGRESS_MEANINGS.items()
        }
        assert values == {
            RouteClass.CUSTOMER: 100,
            RouteClass.PEER: 200,
            RouteClass.PROVIDER: 300,
        }


class TestRegistry:
    def test_build_assigns_everyone(self):
        registry = CommunityRegistry.build([1, 2, 3], make_rng(0))
        assert len(registry) == 3
        for asn in (1, 2, 3):
            assert asn in registry

    def test_duplicate_rejected(self):
        registry = CommunityRegistry()
        registry.add(_codebook(1))
        with pytest.raises(ValueError):
            registry.add(_codebook(1))

    def test_decode_uses_owner_book(self):
        registry = CommunityRegistry.build(range(1, 60), make_rng(1))
        for asn in range(1, 60):
            book = registry.codebook(asn)
            community = book.encode(Meaning.LEARNED_FROM_PEER)
            assert registry.decode(community) is Meaning.LEARNED_FROM_PEER

    def test_ambiguity_exists_across_layouts(self):
        # The §3.2 point: the same value means different things to
        # different ASes (e.g. 666 = blackhole vs tags peering routes).
        registry = CommunityRegistry.build(range(1, 200), make_rng(2))
        meanings = {registry.decode((asn, 666)) for asn in range(1, 200)}
        assert Meaning.BLACKHOLE in meanings
        assert Meaning.LEARNED_FROM_PEER in meanings
