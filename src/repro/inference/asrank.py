"""ASRank relationship inference (Luckie et al., IMC 2013).

The implementation follows the published algorithm's load-bearing
structure:

1. **Transit degrees** are computed from path triplets.
2. **Clique inference**: greedy clique growth over the highest
   transit-degree ASes (see :func:`repro.inference.base.infer_clique`).
3. **Descending (P2C) inference**: a route that has crossed its apex
   can only travel provider-to-customer afterwards.  The only apex the
   algorithm can recognise *without* relationship knowledge is a link
   between two clique members, so P2C evidence starts at consecutive
   clique pairs in paths and is propagated through triplets to a
   fixpoint: once ``a -> b`` is known to descend, any observed triplet
   ``(a, b, c)`` makes ``b -> c`` descend too.
4. **Stub fallback**: an unresolved link whose one endpoint never
   appears in transit position (transit degree zero) is inferred P2C
   with the transit side as provider — but only when the link is widely
   visible.  Transit links are seen by vantage points everywhere,
   whereas a stub's peering link is only visible inside the peering
   partner's customer cone, so low visibility indicates peering.
5. Everything still unresolved defaults to **P2P**.

Step 3 is precisely why the §6.1 Cogent links are misinferred: a
partial-transit customer's routes never cross a second clique member,
so no ``clique | Cogent | X`` triplet exists, no descending evidence
reaches ``Cogent -> X``, the transit-degree fallback does not apply
(the customer is itself a transit network), and the link lands in the
default P2P bucket.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.datasets.asrel import RelationshipSet
from repro.datasets.paths import PathCorpus
from repro.inference.base import InferenceAlgorithm, infer_clique

#: A link is "widely seen" by at least this share of the vantage points
#: (and never fewer than three of them).
STUB_VISIBILITY_SHARE = 0.05

#: Unresolved links whose endpoints differ in transit degree by this
#: factor, and whose larger side has at least ``DEGREE_GAP_MIN``, are
#: inferred P2C: Luckie et al.'s folded-in degree-gap heuristics for
#: transit customers whose announcements never gained clique context.
DEGREE_GAP_RATIO = 12.0
DEGREE_GAP_MIN = 20


class ASRank(InferenceAlgorithm):
    """The ASRank classifier."""

    name = "asrank"

    def __init__(self, clique_override: Optional[List[int]] = None) -> None:
        #: Skip clique inference and use this clique instead.  Useful on
        #: tiny hand-built topologies whose transit degrees are too flat
        #: for the degree-based candidate selection to mean anything.
        self.clique_override = list(clique_override) if clique_override else None
        #: Populated by :meth:`infer` for downstream consumers
        #: (ProbLink, TopoScope, the case study).
        self.clique_: List[int] = []
        self.descending_: Set[Tuple[int, int]] = set()

    # ------------------------------------------------------------------
    def infer(self, corpus: PathCorpus) -> RelationshipSet:
        if self.clique_override is not None:
            clique = list(self.clique_override)
        else:
            clique = infer_clique(corpus)
        self.clique_ = clique
        descending = self._descending_fixpoint(corpus, set(clique))
        self.descending_ = descending
        return self._assemble(corpus, clique, descending)

    # ------------------------------------------------------------------
    def _descending_fixpoint(
        self, corpus: PathCorpus, clique: Set[int]
    ) -> Set[Tuple[int, int]]:
        """All directed pairs ``(provider, customer)`` with descending
        evidence, computed to a fixpoint over triplets."""
        # Triplets indexed by their leading directed pair — a single
        # vectorized pass on a columnar corpus.
        continuations: Dict[Tuple[int, int], List[int]] = (
            corpus.triplet_continuations()
        )
        descending: Set[Tuple[int, int]] = set()
        worklist: List[Tuple[int, int]] = []

        def mark(pair: Tuple[int, int]) -> None:
            if pair not in descending:
                descending.add(pair)
                worklist.append(pair)

        # Seeds: the suffix of every path after its first consecutive
        # clique pair descends.
        for pair in corpus.descending_seed_pairs(clique):
            mark(pair)
        # Fixpoint: descending evidence flows through triplets.
        while worklist:
            a, b = worklist.pop()
            for c in continuations.get((a, b), ()):
                mark((b, c))
        return descending

    # ------------------------------------------------------------------
    def _assemble(
        self,
        corpus: PathCorpus,
        clique: List[int],
        descending: Set[Tuple[int, int]],
    ) -> RelationshipSet:
        rels = RelationshipSet()
        clique_set = set(clique)
        degrees = corpus.transit_degrees()
        n_vps = max(1, len(corpus.vantage_points))
        for key in corpus.visible_links():
            a, b = key
            if a in clique_set and b in clique_set:
                rels.set_p2p(a, b)
                continue
            down_ab = (a, b) in descending
            down_ba = (b, a) in descending
            if down_ab and down_ba:
                # Conflicting descending evidence (possible with messy
                # visibility): the larger transit degree wins, matching
                # ASRank's reliance on the degree hierarchy.
                provider = a if degrees.get(a, 0) >= degrees.get(b, 0) else b
                rels.set_p2c(provider, a if provider == b else b)
            elif down_ab:
                rels.set_p2c(provider=a, customer=b)
            elif down_ba:
                rels.set_p2c(provider=b, customer=a)
            else:
                deg_a = degrees.get(a, 0)
                deg_b = degrees.get(b, 0)
                # Wide visibility means several VPs *and* a meaningful
                # share of the feed set: the absolute floor keeps tiny
                # sub-corpora (e.g. TopoScope's VP groups) from treating
                # every link as widely seen.
                needed = max(3.0, STUB_VISIBILITY_SHARE * n_vps)
                widely_seen = corpus.link_visibility(key) >= needed
                small_deg, large_deg = sorted((deg_a, deg_b))
                extreme_gap = (
                    large_deg >= DEGREE_GAP_MIN
                    and large_deg >= DEGREE_GAP_RATIO * max(1, small_deg)
                )
                if deg_a == 0 and deg_b > 0 and widely_seen:
                    rels.set_p2c(provider=b, customer=a)
                elif deg_b == 0 and deg_a > 0 and widely_seen:
                    rels.set_p2c(provider=a, customer=b)
                elif extreme_gap and min(deg_a, deg_b) > 0:
                    provider = a if deg_a > deg_b else b
                    rels.set_p2c(provider, b if provider == a else a)
                else:
                    rels.set_p2p(a, b)
        return rels
