"""Complex-relationship detection (Giotsas et al., IMC 2014).

The paper's §3.1/§4.2 argue that *partial-transit* and *hybrid*
relationships must be handled explicitly during validation — simple
P2C/P2P labels are ambiguous for them.  The paper's own future outlook
(§7) asks classifiers to do exactly that.  This module implements the
observable core of Giotsas et al.'s approach on top of any base
inference:

* **Partial transit**: a customer whose routes the provider exports to
  its own customers but *not* to its peers or providers.  Observable
  signature in a path corpus: the link carries a full customer-style
  route set towards one side, yet is never seen in any path whose
  collector-side context crosses the provider's peers or the clique —
  equivalently, every vantage point that observes the link sits inside
  the provider's (inferred) customer cone.
* **Hybrid relationships**: the link shows *conflicting* direction
  evidence across vantage points — some VPs see it used
  provider-to-customer, others see the same pair peering (the
  PoP-dependent case) — or conflicting validation labels exist.

Detection is deliberately conservative (high precision over recall):
the paper's complaint is validation treating complex links as simple,
so flagged links should really be complex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.datasets.asrel import RelationshipSet
from repro.datasets.customercone import recursive_customer_cones
from repro.datasets.paths import PathCorpus
from repro.topology.graph import LinkKey, RelType
from repro.validation.data import ValidationData

#: Links seen by fewer VPs than this produce no verdict.
MIN_VISIBILITY = 3

#: Providers with cones smaller than this cannot be told apart from
#: peers.
MIN_CONE_SIZE = 5


@dataclass(frozen=True)
class ComplexLink:
    """One link flagged as complex."""

    key: LinkKey
    kind: str  # "partial_transit" or "hybrid"
    #: For partial transit: the side inferred to be the provider.
    provider: Optional[int]
    #: Supporting evidence summary for reporting.
    evidence: str


@dataclass
class ComplexReport:
    """All complex links found in one corpus."""

    partial_transit: List[ComplexLink] = field(default_factory=list)
    hybrid: List[ComplexLink] = field(default_factory=list)

    def all_links(self) -> List[ComplexLink]:
        return self.partial_transit + self.hybrid

    def keys(self) -> Set[LinkKey]:
        return {c.key for c in self.all_links()}


class ComplexRelationshipDetector:
    """Flags partial-transit and hybrid candidates over a corpus."""

    def __init__(
        self,
        base_inference: RelationshipSet,
        clique: Sequence[int],
    ) -> None:
        self.base = base_inference
        self.clique = set(clique)
        self._cones: Optional[Dict[int, Set[int]]] = None

    # ------------------------------------------------------------------
    def detect(
        self,
        corpus: PathCorpus,
        validation: Optional[ValidationData] = None,
    ) -> ComplexReport:
        """Run both detectors over every visible link."""
        report = ComplexReport()
        self._cones = recursive_customer_cones(self.base)
        direction_votes = self._direction_votes(corpus)
        for key in corpus.visible_links():
            if corpus.link_visibility(key) < MIN_VISIBILITY:
                continue
            partial = self._partial_transit_verdict(corpus, key, validation)
            if partial is not None:
                report.partial_transit.append(partial)
                continue
            hybrid = self._hybrid_verdict(key, direction_votes, validation)
            if hybrid is not None:
                report.hybrid.append(hybrid)
        return report

    # ------------------------------------------------------------------
    # partial transit
    # ------------------------------------------------------------------
    def _partial_transit_verdict(
        self,
        corpus: PathCorpus,
        key: LinkKey,
        validation: Optional[ValidationData],
    ) -> Optional[ComplexLink]:
        """Flag links whose observer set sits inside one endpoint's
        customer cone *and* whose community/validation evidence calls
        that endpoint the provider.

        The visibility signature alone (observers confined to one cone)
        is shared by ordinary peering — that ambiguity is exactly why
        ASRank fails on these links.  Giotsas et al. resolved it with
        extra data (BGP communities); we do the same: the cone side's
        tagged routes must claim a *customer* relationship (a P2C
        validation label naming it provider) while the path evidence
        shows peer-style restricted export.
        """
        assert self._cones is not None
        if validation is None or key not in validation:
            return None
        claimed_provider = validation.provider_claim(key)
        if claimed_provider is None:
            return None  # community data calls it peering: not partial
        a, b = key
        observers = corpus.vps_seeing(key)
        cone = self._cones.get(claimed_provider, set())
        if len(cone) < MIN_CONE_SIZE:
            return None
        customer = b if claimed_provider == a else a
        # Partial transit confines the link's visibility to the two
        # parties' own customer cones: the provider's customers receive
        # the customer's routes, and the customer's cone sees the full
        # table it buys.  Full transit is additionally observed from
        # *outside* both cones (other Tier-1s' feeds).
        allowed = (
            cone
            | self._cones.get(customer, set())
            | {claimed_provider, customer}
        )
        if not observers <= allowed:
            return None  # full transit: observed from outside the cones
        # The §6.1 signature completes with the base inference calling
        # the link P2P: restricted export starved it of the triplet
        # evidence a full-transit link would have.  (Links the base got
        # right as P2C need no complex handling anyway.)
        if self.base.rel_of(*key) is not RelType.P2P:
            return None
        # Partial transit is sold to networks that re-distribute; a
        # single-homed stub looks identical from path data alone.
        if not self.base.customers_map().get(customer):
            return None
        # And by the sellers at the top of the hierarchy.
        if claimed_provider not in self.clique:
            return None
        return ComplexLink(
            key=key,
            kind="partial_transit",
            provider=claimed_provider,
            evidence=(
                f"validated P2C (provider AS{claimed_provider}) but all "
                f"{len(observers)} observing VPs sit inside its customer "
                f"cone ({len(cone)} ASes)"
            ),
        )

    # ------------------------------------------------------------------
    # hybrid
    # ------------------------------------------------------------------
    def _direction_votes(
        self, corpus: PathCorpus
    ) -> Dict[LinkKey, Tuple[int, int]]:
        """Per link: how many distinct VPs' paths used it left-to-right
        vs right-to-left (canonical key order)."""
        index = corpus.columnar_index()
        occ = index.occurrences()
        slots = 2 * occ.link + occ.backward
        vps = corpus.columns().vp_column()[occ.route].astype(np.int64)
        # Distinct (link, direction, vp) triples, counted per slot the
        # way the link visibility counts are.
        distinct = np.unique((slots << 32) | vps)
        counts = np.bincount(distinct >> 32, minlength=2 * index.n_links)
        pairs = map(tuple, counts.reshape(-1, 2).tolist())
        return dict(zip(index.link_keys_list(), pairs))

    def _hybrid_verdict(
        self,
        key: LinkKey,
        direction_votes: Dict[LinkKey, Tuple[int, int]],
        validation: Optional[ValidationData],
    ) -> Optional[ComplexLink]:
        """Flag links with PoP-dependent behaviour.

        Two signals, either suffices:

        * conflicting validation labels (the §4.2 multi-label entries);
        * the link is inferred P2C yet carries substantial best-path
          traffic in *both* directions from disjoint VP populations —
          transit links are overwhelmingly used provider-to-customer,
          so two-sided usage hints at a peering PoP somewhere.
        """
        if validation is not None and key in validation:
            if validation.is_multi_label(key):
                return ComplexLink(
                    key=key,
                    kind="hybrid",
                    provider=validation.provider_claim(key),
                    evidence="conflicting validation labels",
                )
        if self.base.rel_of(*key) is RelType.P2C:
            forward, backward = direction_votes.get(key, (0, 0))
            smaller = min(forward, backward)
            larger = max(forward, backward)
            if smaller >= MIN_VISIBILITY and smaller >= 0.35 * larger:
                return ComplexLink(
                    key=key,
                    kind="hybrid",
                    provider=self.base.provider_of(*key),
                    evidence=(
                        f"two-sided usage: {forward} vs {backward} VPs"
                    ),
                )
        return None
