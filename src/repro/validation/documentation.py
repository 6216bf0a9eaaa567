"""The community-documentation publication model.

The "best-effort" validation data the paper scrutinises is scraped from
*publicly documented* BGP community encodings (IRR remarks, operator
websites).  Whether an AS documents its encodings is therefore the
gatekeeper of validation coverage — and documentation culture is wildly
uneven across regions and network sizes, which is the mechanism behind
the paper's Figure 1/2 coverage rows.

:class:`DocumentationRegistry` records, per documenting AS, the
**published** codebook.  Publication can be *stale*: the operator's page
may no longer match what the routers actually tag (the paper's §6.1
found one such case).  Staleness is modelled by swapping the published
customer/peer values, which makes every label extracted from that AS's
communities wrong in the most confusable way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Optional

from repro.bgp.communities import Community, CommunityRegistry, Meaning
from repro.topology.generator import Topology
from repro.utils.rng import child_rng

if TYPE_CHECKING:
    from repro.config import ScenarioConfig


@dataclass(frozen=True)
class PublishedCodebook:
    """What the world believes an AS's communities mean."""

    asn: int
    values: Dict[Meaning, int]
    stale: bool

    def decode(self, community: Community) -> Optional[Meaning]:
        asn, value = community
        if asn != self.asn:
            return None
        for meaning, known in self.values.items():
            if known == value:
                return meaning
        return None


class DocumentationRegistry:
    """Which ASes publicly document their encodings, and what they say."""

    def __init__(self) -> None:
        self._published: Dict[int, PublishedCodebook] = {}

    def publish(self, codebook: PublishedCodebook) -> None:
        if codebook.asn in self._published:
            raise ValueError(f"AS{codebook.asn} already documented")
        self._published[codebook.asn] = codebook

    def documents(self, asn: int) -> bool:
        return asn in self._published

    def documenting_ases(self) -> Iterable[int]:
        return self._published.keys()

    def __len__(self) -> int:
        return len(self._published)

    def decode(self, community: Community) -> Optional[Meaning]:
        """Decode a community using only *published* knowledge.

        Communities of undocumented ASes are opaque to the scraper, no
        matter what they would have meant.
        """
        owner = community[0]
        published = self._published.get(owner)
        if published is None:
            return None
        return published.decode(community)

    def is_stale(self, asn: int) -> bool:
        published = self._published.get(asn)
        return bool(published and published.stale)


def build_documentation(
    topology: Topology,
    communities: CommunityRegistry,
    config: "ScenarioConfig",
) -> DocumentationRegistry:
    """Decide who documents, honouring the role/region probabilities."""
    rng = child_rng(config.seed, "validation.documentation")
    val_cfg = config.validation
    registry = DocumentationRegistry()
    for node in topology.graph.nodes():
        base = val_cfg.doc_prob_by_role[node.role.value]
        multiplier = (
            val_cfg.doc_region_multiplier[node.region] if node.region else 0.0
        )
        prob = min(1.0, base * multiplier)
        if rng.random() >= prob:
            continue
        actual = communities.codebook(node.asn)
        values = dict(actual.values)
        stale = bool(rng.random() < val_cfg.stale_encoding_prob)
        if stale:
            # The published page swaps the customer/peer tags relative
            # to what the routers really do.
            values[Meaning.LEARNED_FROM_CUSTOMER], values[Meaning.LEARNED_FROM_PEER] = (
                values[Meaning.LEARNED_FROM_PEER],
                values[Meaning.LEARNED_FROM_CUSTOMER],
            )
        registry.publish(
            PublishedCodebook(asn=node.asn, values=values, stale=stale)
        )
    return registry
