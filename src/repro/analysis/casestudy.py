"""§6.1 case study: why does a Tier-1's T1-TR precision collapse?

The paper drills into the T1-TR class for ASRank: 54 of the 111 links
wrongly inferred as P2P involve AS174 (Cogent).  Three findings are
reproduced as code:

1. **Concentration** — one clique member is involved in a large share
   of the wrong P2P inferences (:func:`concentration_by_clique_member`).
2. **Missing triplets** — for none of that AS's target links does a
   triplet ``clique | AS | X`` exist in the path corpus, which is the
   evidence ASRank needs for a P2C inference
   (:func:`triplet_evidence`).
3. **The looking glass explains it** — the routes the Tier-1 received
   over the target links carry its *do-not-export-to-peers* community:
   the customers bought partial transit (:func:`looking_glass_audit`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.bgp.communities import CommunityRegistry
from repro.bgp.lookingglass import LookingGlass
from repro.datasets.asrel import RelationshipSet
from repro.datasets.paths import PathCorpus
from repro.topology.generator import Topology
from repro.topology.graph import LinkKey, RelType
from repro.validation.cleaning import CleanedValidation


@dataclass
class TargetLink:
    """One wrongly-inferred P2P link under investigation."""

    key: LinkKey
    clique_member: int
    other: int
    has_clique_triplet: bool = False
    tagged_no_export: bool = False
    stale_validation: bool = False


@dataclass
class CaseStudyResult:
    """Everything the §6.1 analysis produces."""

    class_links_wrong_p2p: List[LinkKey]
    per_member_counts: Dict[int, int]
    focus_member: int
    targets: List[TargetLink]

    @property
    def n_wrong(self) -> int:
        return len(self.class_links_wrong_p2p)

    @property
    def focus_share(self) -> float:
        if not self.class_links_wrong_p2p:
            return 0.0
        return self.per_member_counts.get(self.focus_member, 0) / len(
            self.class_links_wrong_p2p
        )

    @property
    def n_partial_transit_confirmed(self) -> int:
        return sum(1 for t in self.targets if t.tagged_no_export)

    @property
    def n_stale_validation(self) -> int:
        return sum(1 for t in self.targets if t.stale_validation)


def wrong_p2p_links(
    class_links: Sequence[LinkKey],
    inferred: RelationshipSet,
    validation: CleanedValidation,
) -> List[LinkKey]:
    """Links of the class inferred P2P but validated P2C (the links
    that depress PPV_P)."""
    wrong: List[LinkKey] = []
    for key in class_links:
        if validation.rel_of(key) is RelType.P2C and (
            inferred.rel_of(*key) is RelType.P2P
        ):
            wrong.append(key)
    return wrong


def concentration_by_clique_member(
    wrong_links: Sequence[LinkKey], clique: Sequence[int]
) -> Dict[int, int]:
    """How many wrong links touch each clique member."""
    clique_set = set(clique)
    counts: Dict[int, int] = {}
    for a, b in wrong_links:
        for asn in (a, b):
            if asn in clique_set:
                counts[asn] = counts.get(asn, 0) + 1
    return counts


def triplet_evidence(
    corpus: PathCorpus, clique: Sequence[int], member: int, other: int
) -> bool:
    """Is there any observed triplet ``C | member | other`` with C a
    *different* clique member?  Its absence is what pushed ASRank to
    P2P."""
    for c in clique:
        if c == member:
            continue
        if corpus.has_triplet(c, member, other):
            return True
    return False


def looking_glass_audit(
    topology: Topology,
    communities: CommunityRegistry,
    member: int,
    others: Sequence[int],
) -> Dict[int, bool]:
    """Query the member's looking glass for each counterpart: do the
    received routes carry the member's do-not-export-to-peers
    community?  Read off :meth:`LookingGlass.find_no_export_sessions`:
    loop prevention keeps ``member`` off every path it receives, so only
    a partial-transit customer's session can carry that marker."""
    if not others:
        return {}
    glass = LookingGlass(topology, communities)
    flagged = set(glass.find_no_export_sessions(member))
    return {other: other in flagged for other in others}


def run_case_study(
    topology: Topology,
    corpus: PathCorpus,
    communities: CommunityRegistry,
    inferred: RelationshipSet,
    validation: CleanedValidation,
    class_links: Sequence[LinkKey],
    clique: Sequence[int],
    focus_member: Optional[int] = None,
) -> CaseStudyResult:
    """The full §6.1 pipeline for one (usually the T1-TR) class."""
    wrong = wrong_p2p_links(class_links, inferred, validation)
    per_member = concentration_by_clique_member(wrong, clique)
    if focus_member is None:
        if per_member:
            focus_member = max(per_member, key=lambda m: (per_member[m], -m))
        else:
            focus_member = topology.cogent_asn
    targets: List[TargetLink] = []
    focus_links = [key for key in wrong if focus_member in key]
    lg_results = looking_glass_audit(
        topology,
        communities,
        focus_member,
        [key[0] if key[1] == focus_member else key[1] for key in focus_links],
    )
    for key in focus_links:
        other = key[0] if key[1] == focus_member else key[1]
        tagged = lg_results.get(other, False)
        target = TargetLink(
            key=key,
            clique_member=focus_member,
            other=other,
            has_clique_triplet=triplet_evidence(
                corpus, clique, focus_member, other
            ),
            tagged_no_export=tagged,
            # If the looking glass shows plain full-transit customer
            # routes (no restriction) yet validation says P2C and the
            # ground truth disagrees with the label, the validation
            # entry itself is stale.
            stale_validation=(
                not tagged
                and topology.graph.has_link(*key)
                and topology.graph.link(*key).rel is RelType.P2P
            ),
        )
        targets.append(target)
    return CaseStudyResult(
        class_links_wrong_p2p=wrong,
        per_member_counts=per_member,
        focus_member=focus_member,
        targets=targets,
    )
