"""BGP communities: values, per-AS codebooks, and the ambiguity problem.

A BGP community is a colon-separated pair ``asn:value`` (RFC 1997).  The
meaning of a value is private to the AS that defines it, which creates
the **ambiguity** the paper's §3.2 discusses: 3356:666 is a blackhole
request to most of the Internet but tags *peering routes* inside
AS3356's own scheme.

The simulator distinguishes two community kinds:

* **informational** communities: an AS tags routes at ingress with the
  relationship of the neighbour it learned them from ("learned from
  customer/peer/provider").  These are the raw material of the
  community-based validation data (Luckie et al.'s source (iii)).
* **action** communities: requests attached by a neighbour, of which the
  only one the paper needs is the *do-not-export-to-peers* request that
  implements partial transit (Cogent's 174:990).

Each AS owns a :class:`CommunityCodebook` mapping values to meanings.
Codebooks are drawn from a handful of popular layouts so that the same
value legitimately means different things at different ASes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.bgp.policy import RouteClass

#: A concrete community on a route: ``(asn, value)``.
Community = Tuple[int, int]


class Meaning(enum.Enum):
    """What a community value means inside one AS's codebook."""

    LEARNED_FROM_CUSTOMER = "customer"
    LEARNED_FROM_PEER = "peer"
    LEARNED_FROM_PROVIDER = "provider"
    BLACKHOLE = "blackhole"
    NO_EXPORT_TO_PEERS = "no_export_to_peers"


#: The informational meaning an AS tags at ingress on a route of each
#: class, i.e. the tags usable for validation.  Its own (SELF) routes
#: carry none.  Route collection and the looking glass both read this.
INGRESS_MEANINGS: Dict[RouteClass, Meaning] = {
    RouteClass.CUSTOMER: Meaning.LEARNED_FROM_CUSTOMER,
    RouteClass.PEER: Meaning.LEARNED_FROM_PEER,
    RouteClass.PROVIDER: Meaning.LEARNED_FROM_PROVIDER,
}

#: Popular codebook layouts (value per meaning).  Several real operators
#: use schemes like these; overlap between layouts is intentional — it
#: is precisely what makes communities ambiguous across ASes.
_CODEBOOK_LAYOUTS: Tuple[Dict[Meaning, int], ...] = (
    {
        Meaning.LEARNED_FROM_CUSTOMER: 100,
        Meaning.LEARNED_FROM_PEER: 200,
        Meaning.LEARNED_FROM_PROVIDER: 300,
        Meaning.BLACKHOLE: 666,
        Meaning.NO_EXPORT_TO_PEERS: 990,
    },
    {
        Meaning.LEARNED_FROM_CUSTOMER: 1000,
        Meaning.LEARNED_FROM_PEER: 2000,
        Meaning.LEARNED_FROM_PROVIDER: 3000,
        Meaning.BLACKHOLE: 9999,
        Meaning.NO_EXPORT_TO_PEERS: 2500,
    },
    {
        Meaning.LEARNED_FROM_CUSTOMER: 3,
        Meaning.LEARNED_FROM_PEER: 2,
        Meaning.LEARNED_FROM_PROVIDER: 1,
        Meaning.BLACKHOLE: 666,
        Meaning.NO_EXPORT_TO_PEERS: 50,
    },
    {
        # The Lumen-style scheme of the paper's example: 666 tags
        # *peering* routes rather than requesting a blackhole.
        Meaning.LEARNED_FROM_CUSTOMER: 500,
        Meaning.LEARNED_FROM_PEER: 666,
        Meaning.LEARNED_FROM_PROVIDER: 700,
        Meaning.BLACKHOLE: 911,
        Meaning.NO_EXPORT_TO_PEERS: 70,
    },
)


@dataclass(frozen=True)
class CommunityCodebook:
    """One AS's community scheme."""

    asn: int
    values: Dict[Meaning, int]

    def encode(self, meaning: Meaning) -> Community:
        """The concrete community this AS uses for ``meaning``."""
        return (self.asn, self.values[meaning])

    def decode(self, community: Community) -> Optional[Meaning]:
        """Decode a community *under this AS's scheme*.

        Returns ``None`` when the community belongs to another AS or
        uses an unknown value.  Decoding a foreign community with the
        wrong codebook is exactly the mistake the ambiguity discussion
        warns about; the registry below guards against it.
        """
        asn, value = community
        if asn != self.asn:
            return None
        for meaning, known_value in self.values.items():
            if known_value == value:
                return meaning
        return None


class CommunityRegistry:
    """All codebooks of a scenario.

    Every AS *has* a codebook (it tags routes internally); whether the
    codebook is *publicly documented* is a separate fact owned by the
    validation layer — scraping can only decode communities of
    documenting ASes.
    """

    def __init__(self) -> None:
        self._codebooks: Dict[int, CommunityCodebook] = {}

    @classmethod
    def build(
        cls,
        asns: Iterable[int],
        rng: np.random.Generator,
        pinned_layouts: Optional[Dict[int, int]] = None,
    ) -> "CommunityRegistry":
        """Assign every AS a codebook drawn from the popular layouts.

        ``pinned_layouts`` forces specific ASes onto a specific layout
        index — used to give the Cogent-like AS the classic scheme so
        its do-not-export community is literally ``174:990``.
        """
        registry = cls()
        pinned_layouts = pinned_layouts or {}
        for asn in asns:
            if asn in pinned_layouts:
                layout = _CODEBOOK_LAYOUTS[pinned_layouts[asn]]
            else:
                layout = _CODEBOOK_LAYOUTS[
                    int(rng.integers(0, len(_CODEBOOK_LAYOUTS)))
                ]
            registry.add(CommunityCodebook(asn=asn, values=dict(layout)))
        return registry

    def add(self, codebook: CommunityCodebook) -> None:
        if codebook.asn in self._codebooks:
            raise ValueError(f"codebook for AS{codebook.asn} already present")
        self._codebooks[codebook.asn] = codebook

    def __contains__(self, asn: int) -> bool:
        return asn in self._codebooks

    def __len__(self) -> int:
        return len(self._codebooks)

    def codebook(self, asn: int) -> CommunityCodebook:
        return self._codebooks[asn]

    def decode(self, community: Community) -> Optional[Meaning]:
        """Decode a community with its owner's codebook (unambiguous)."""
        owner = community[0]
        codebook = self._codebooks.get(owner)
        if codebook is None:
            return None
        return codebook.decode(community)
