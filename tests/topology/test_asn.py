"""Tests for the ASN model (reserved ranges, AS_TRANS, ASDOT)."""

import pytest
from hypothesis import given, strategies as st

from repro.topology.asn import (
    AS_TRANS,
    MAX_ASN_32BIT,
    asdot,
    is_as_trans,
    is_reserved,
    is_routable,
    parse_asdot,
    validate_asn,
)


class TestReservedRanges:
    def test_as_trans(self):
        assert is_as_trans(23456)
        assert not is_as_trans(23455)
        assert not is_reserved(AS_TRANS)  # tracked separately
        assert not is_routable(AS_TRANS)

    def test_zero_reserved(self):
        assert is_reserved(0)

    def test_documentation_range(self):
        assert is_reserved(64496)
        assert is_reserved(64511)
        assert not is_reserved(64197)  # IANA reserved starts at 64198
        assert is_reserved(64198)
        assert is_reserved(64495)

    def test_private_use(self):
        assert is_reserved(64512)
        assert is_reserved(65534)
        assert is_reserved(4200000000)
        assert is_reserved(4294967294)

    def test_last_asns(self):
        assert is_reserved(65535)
        assert is_reserved(4294967295)

    def test_ordinary_asns_routable(self):
        for asn in (1, 174, 3356, 13335, 396982, 212483):
            assert is_routable(asn)

    def test_out_of_range_not_routable(self):
        assert not is_routable(-5)
        assert not is_routable(MAX_ASN_32BIT + 1)


class TestValidateAsn:
    def test_accepts_valid(self):
        assert validate_asn(174) == 174
        assert validate_asn(0) == 0
        assert validate_asn(MAX_ASN_32BIT) == MAX_ASN_32BIT

    def test_rejects_negative_and_huge(self):
        with pytest.raises(ValueError):
            validate_asn(-1)
        with pytest.raises(ValueError):
            validate_asn(MAX_ASN_32BIT + 1)

    def test_rejects_bool(self):
        with pytest.raises(ValueError):
            validate_asn(True)


class TestAsdot:
    def test_16bit_plain(self):
        assert asdot(174) == "174"
        assert asdot(65535) == "65535"

    def test_32bit_dotted(self):
        assert asdot(65536) == "1.0"
        assert asdot(196608) == "3.0"
        assert asdot(196613) == "3.5"

    def test_parse_round_trip_16bit(self):
        assert parse_asdot("3356") == 3356

    def test_parse_round_trip_32bit(self):
        assert parse_asdot("3.0") == 196608

    def test_parse_rejects_bad_dotted(self):
        with pytest.raises(ValueError):
            parse_asdot("70000.1")

    @given(st.integers(min_value=0, max_value=MAX_ASN_32BIT))
    def test_asdot_round_trip(self, asn):
        assert parse_asdot(asdot(asn)) == asn

    @given(st.integers(min_value=65536, max_value=MAX_ASN_32BIT))
    def test_32bit_only_asns_use_dot_notation(self, asn):
        assert "." in asdot(asn)


class TestRoutableFilter:
    def test_filters_junk(self):
        candidates = [174, AS_TRANS, 64512, 3356, 0]
        assert [asn for asn in candidates if is_routable(asn)] == [174, 3356]
