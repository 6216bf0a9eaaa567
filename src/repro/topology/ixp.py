"""Internet Exchange Point (IXP) model.

IXPs drive *where* peering links form: they are regional by design
("keep local traffic local", §2 of the paper) and most of their members
interconnect with other members of the same IXP.  The topology generator
creates per-region IXPs, assigns members, and sources the bulk of its
P2P links from co-membership.

IXP membership is also one of the Appendix C candidate features (#10:
number of common IXPs of a link's endpoints), so the registry offers the
corresponding queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Set, Tuple

from repro.topology.regions import Region


@dataclass
class IXP:
    """One exchange point: an identifier, a home region, and members."""

    ixp_id: int
    name: str
    region: Region
    members: Set[int] = field(default_factory=set)

    def add_member(self, asn: int) -> None:
        self.members.add(asn)

    @property
    def size(self) -> int:
        return len(self.members)


class IXPRegistry:
    """All IXPs of a scenario, indexed by id, region, and member."""

    def __init__(self) -> None:
        self._ixps: Dict[int, IXP] = {}
        self._by_member: Dict[int, Set[int]] = {}

    def add_ixp(self, ixp: IXP) -> None:
        if ixp.ixp_id in self._ixps:
            raise ValueError(f"IXP {ixp.ixp_id} already present")
        self._ixps[ixp.ixp_id] = ixp
        for member in ixp.members:
            self._by_member.setdefault(member, set()).add(ixp.ixp_id)

    def join(self, asn: int, ixp_id: int) -> None:
        """Add an AS to an IXP's member list."""
        self._ixps[ixp_id].add_member(asn)
        self._by_member.setdefault(asn, set()).add(ixp_id)

    def ixps(self) -> Iterable[IXP]:
        return self._ixps.values()

    def __len__(self) -> int:
        return len(self._ixps)

    def ixp(self, ixp_id: int) -> IXP:
        return self._ixps[ixp_id]

    def memberships(self) -> Iterable[Tuple[int, Set[int]]]:
        """``(asn, IXP ids)`` per member AS, in first-join order (the
        registry's own sets; read-only)."""
        return self._by_member.items()

    def memberships_of(self, asn: int) -> Set[int]:
        """IXP ids the AS is a member of."""
        return set(self._by_member.get(asn, set()))

    def common_ixps(self, a: int, b: int) -> Set[int]:
        """IXPs where both ASes are present (Appendix C feature #10)."""
        return self.memberships_of(a) & self.memberships_of(b)
