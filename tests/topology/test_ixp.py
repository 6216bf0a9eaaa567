"""Tests for the IXP registry."""

import pytest

from repro.topology.ixp import IXP, IXPRegistry
from repro.topology.regions import Region


def _registry() -> IXPRegistry:
    reg = IXPRegistry()
    reg.add_ixp(IXP(ixp_id=0, name="DE-IX", region=Region.RIPE, members={1, 2, 3}))
    reg.add_ixp(IXP(ixp_id=1, name="US-IX", region=Region.ARIN, members={2, 4}))
    return reg


class TestIXPRegistry:
    def test_membership_index(self):
        reg = _registry()
        assert reg.memberships_of(2) == {0, 1}
        assert reg.memberships_of(4) == {1}
        assert reg.memberships_of(99) == set()

    def test_memberships_of_is_a_copy(self):
        reg = _registry()
        reg.memberships_of(2).add(7)
        assert reg.memberships_of(2) == {0, 1}
        assert reg.common_ixps(1, 3) == {0}

    def test_common_ixps(self):
        reg = _registry()
        assert reg.common_ixps(1, 2) == {0}
        assert reg.common_ixps(2, 4) == {1}
        assert reg.common_ixps(1, 4) == set()
        assert reg.common_ixps(99, 1) == set()

    def test_join(self):
        reg = _registry()
        reg.join(5, 0)
        assert 5 in reg.ixp(0).members
        assert reg.memberships_of(5) == {0}

    def test_duplicate_id_rejected(self):
        reg = _registry()
        with pytest.raises(ValueError):
            reg.add_ixp(IXP(ixp_id=0, name="DUP", region=Region.RIPE))

    def test_sizes(self):
        reg = _registry()
        assert len(reg) == 2
        assert reg.ixp(0).size == 3
