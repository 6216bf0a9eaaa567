"""Tests for RIR regions and the two-layer ASN-to-region mapping."""

import pytest

from repro.topology.asn import AS_TRANS
from repro.topology.regions import REGION_ORDER, Region, RegionMap


class TestRegion:
    def test_abbreviations_match_paper(self):
        assert Region.AFRINIC.abbreviation == "AF"
        assert Region.APNIC.abbreviation == "AP"
        assert Region.ARIN.abbreviation == "AR"
        assert Region.LACNIC.abbreviation == "L"
        assert Region.RIPE.abbreviation == "R"

    def test_from_name_aliases(self):
        assert Region.from_name("ripencc") is Region.RIPE
        assert Region.from_name("RIPE NCC") is Region.RIPE
        assert Region.from_name("arin") is Region.ARIN
        with pytest.raises(ValueError):
            Region.from_name("iana")

    def test_registry_names_round_trip(self):
        for region in Region:
            assert Region.from_name(region.registry_name) is region

    def test_order_is_lexicographic_by_abbreviation(self):
        abbrs = [r.abbreviation for r in REGION_ORDER]
        assert abbrs == sorted(abbrs)

    def test_abbreviations_are_distinct(self):
        # Class names are built from abbreviations, so two regions must
        # never share one.
        assert len({r.abbreviation for r in Region}) == len(Region)


class TestRegionMap:
    def test_iana_block_lookup(self):
        rmap = RegionMap()
        rmap.add_iana_block(1000, 1999, Region.ARIN)
        assert rmap.lookup(1500) is Region.ARIN
        assert rmap.lookup(2500) is None

    def test_delegation_overrides_block(self):
        # The paper's methodology: the RIR delegation refinement wins
        # over IANA's initial assignment (inter-RIR transfers).
        rmap = RegionMap()
        rmap.add_iana_block(1000, 1999, Region.ARIN)
        rmap.transfer(1500, Region.LACNIC)
        assert rmap.lookup(1500) is Region.LACNIC
        assert rmap.lookup(1501) is Region.ARIN

    def test_delegation_outside_iana_blocks(self):
        rmap = RegionMap()
        rmap.add_iana_block(10, 19, Region.APNIC)
        rmap.add_delegation(50, Region.AFRINIC)
        assert [rmap.lookup(asn) for asn in (10, 50, 51)] == [
            Region.APNIC, Region.AFRINIC, None,
        ]
        with pytest.raises(ValueError):
            rmap.add_delegation(-1, Region.RIPE)

    def test_reserved_asns_unmapped(self):
        rmap = RegionMap()
        rmap.add_iana_block(0, 4294967295, Region.RIPE)
        assert rmap.lookup(AS_TRANS) is None
        assert rmap.lookup(64512) is None

    def test_overlapping_blocks_rejected(self):
        rmap = RegionMap()
        rmap.add_iana_block(100, 200, Region.ARIN)
        with pytest.raises(ValueError):
            rmap.add_iana_block(150, 300, Region.RIPE)

    def test_empty_block_rejected(self):
        rmap = RegionMap()
        with pytest.raises(ValueError):
            rmap.add_iana_block(200, 100, Region.ARIN)

    def test_coverage(self):
        rmap = RegionMap()
        rmap.add_iana_block(1, 10, Region.ARIN)
        rmap.add_iana_block(20, 24, Region.RIPE)
        assert rmap.coverage() == 15
