"""TopoScope relationship inference (Jin et al., IMC 2020).

TopoScope's headline idea is to fight *observation fragmentation*: no
single vantage point (or small group) sees enough of the topology, and
naive aggregation lets well-placed VPs dominate.  The published system

1. partitions the vantage points into groups,
2. runs a base inference per group (bootstrapping),
3. reconciles the per-group votes per link, and
4. resolves disagreements and low-coverage links with a Bayesian
   classifier over link features,
5. additionally predicts *hidden links* that no VP observed.

This implementation keeps stages 1-3 faithfully at the algorithmic
level (ASRank as the base inferrer).  Stage 4 has nothing to resolve
here: every visible link lies on a route from some VP, the base
inference labels every link of its group's sub-corpus, so every link
gets at least one group vote, and split votes keep the full-view
label.  Stage 5 exists as :meth:`TopoScope.predict_hidden_links`, a
lightweight variant that proposes unobserved peerings from shared-IXP
co-membership — enough to exercise the paper's note that TopoScope
predicts links "that, despite not being visible, might exist".
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.datasets.asrel import RelationshipSet
from repro.datasets.paths import PathCorpus, filter_by_vps
from repro.inference.asrank import ASRank
from repro.inference.base import InferenceAlgorithm
from repro.topology.graph import LinkKey, RelType, link_key
from repro.topology.ixp import IXPRegistry
from repro.utils.rng import child_rng


class TopoScope(InferenceAlgorithm):
    """VP-bootstrapping ensemble over per-group ASRank votes."""

    name = "toposcope"

    def __init__(
        self,
        n_groups: Optional[int] = None,
        agreement_threshold: float = 0.75,
        ixps: Optional[IXPRegistry] = None,
        seed: int = 20,
    ) -> None:
        if n_groups is not None and n_groups < 2:
            raise ValueError("TopoScope needs at least two VP groups")
        #: ``None`` sizes groups adaptively (about 20 VPs per group, at
        #: least 2 and at most 8 groups) so each group retains enough
        #: visibility for the base inference to be meaningful.
        self.n_groups = n_groups
        self.agreement_threshold = agreement_threshold
        self.ixps = ixps
        self.seed = seed
        self.clique_: List[int] = []
        self.vote_share_: Dict[LinkKey, float] = {}

    # ------------------------------------------------------------------
    def infer(self, corpus: PathCorpus) -> RelationshipSet:
        full_asrank = ASRank()
        full_rels = full_asrank.infer(corpus)
        self.clique_ = list(full_asrank.clique_)

        votes = self._group_votes(corpus)
        confident = self._reconcile(corpus, votes)

        # Start from the full-view base inference; strong cross-group
        # majorities override it (that is the de-fragmentation payoff),
        # while split votes leave the full-view label in place — a lone
        # disagreeing group is noise, not signal.
        labels: Dict[LinkKey, RelType] = {}
        for key in corpus.visible_links():
            base = full_rels.rel_of(*key)
            labels[key] = RelType.P2P if base is RelType.P2P else RelType.P2C
        labels.update(confident)

        return self._assemble(labels, full_rels, corpus)

    # ------------------------------------------------------------------
    def _group_votes(
        self, corpus: PathCorpus
    ) -> Dict[LinkKey, List[RelType]]:
        """Stage 1+2: per-group base inference votes per link."""
        rng = child_rng(self.seed, "toposcope.groups")
        vps = sorted(corpus.vantage_points)
        n_groups = self.n_groups
        if n_groups is None:
            n_groups = max(2, min(8, len(vps) // 20))
        order = list(rng.permutation(len(vps)))
        groups: List[Set[int]] = [set() for _ in range(n_groups)]
        for position, vp_index in enumerate(order):
            groups[position % n_groups].add(vps[int(vp_index)])
        votes: Dict[LinkKey, List[RelType]] = {}
        for group in groups:
            if not group:
                continue
            sub = filter_by_vps(corpus, group)
            if not len(sub):
                continue
            sub_rels = ASRank().infer(sub)
            for key, rel, _provider in sub_rels.items():
                cls = RelType.P2P if rel is RelType.P2P else RelType.P2C
                votes.setdefault(key, []).append(cls)
        return votes

    def _reconcile(
        self, corpus: PathCorpus, votes: Dict[LinkKey, List[RelType]]
    ) -> Dict[LinkKey, RelType]:
        """Stage 3: strong majorities become confident labels."""
        confident: Dict[LinkKey, RelType] = {}
        for key in corpus.visible_links():
            link_votes = votes[key]
            n_p2p = sum(1 for v in link_votes if v is RelType.P2P)
            share = max(n_p2p, len(link_votes) - n_p2p) / len(link_votes)
            majority = (
                RelType.P2P if n_p2p * 2 >= len(link_votes) else RelType.P2C
            )
            self.vote_share_[key] = share
            if share >= self.agreement_threshold and len(link_votes) >= 2:
                confident[key] = majority
        return confident

    def _assemble(
        self,
        labels: Dict[LinkKey, RelType],
        full_rels: RelationshipSet,
        corpus: PathCorpus,
    ) -> RelationshipSet:
        degrees = corpus.transit_degrees()
        clique_set = set(self.clique_)
        rels = RelationshipSet()
        for key, cls in labels.items():
            a, b = key
            if a in clique_set and b in clique_set:
                rels.set_p2p(a, b)
                continue
            if cls is RelType.P2P:
                rels.set_p2p(a, b)
                continue
            provider = full_rels.provider_of(a, b)
            if provider is None:
                provider = a if degrees.get(a, 0) >= degrees.get(b, 0) else b
            rels.set_p2c(provider, b if provider == a else a)
        return rels

    # ------------------------------------------------------------------
    # stage 5 (extension): hidden-link prediction
    # ------------------------------------------------------------------
    def predict_hidden_links(
        self,
        corpus: PathCorpus,
        max_predictions: int = 500,
    ) -> List[LinkKey]:
        """Propose plausible but unobserved peering links.

        Candidates are pairs of ASes co-located at an IXP where both
        already peer visibly with at least two other members of that
        IXP; ranked by how many IXPs they share.  Requires an IXP
        registry.
        """
        if self.ixps is None:
            return []
        visible = set(corpus.visible_links())
        scored: List[Tuple[int, LinkKey]] = []
        for ixp in self.ixps.ixps():
            members = sorted(m for m in ixp.members if corpus.node_degree(m) > 0)
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    key = link_key(a, b)
                    if key in visible:
                        continue
                    common = len(self.ixps.common_ixps(a, b))
                    scored.append((common, key))
        scored.sort(key=lambda item: (-item[0], item[1]))
        seen: Set[LinkKey] = set()
        predictions: List[LinkKey] = []
        for _, key in scored:
            if key in seen:
                continue
            seen.add(key)
            predictions.append(key)
            if len(predictions) >= max_predictions:
                break
        return predictions


def infer_toposcope(
    corpus: PathCorpus, ixps: Optional[IXPRegistry] = None
) -> RelationshipSet:
    """Convenience wrapper used by examples and benchmarks."""
    return TopoScope(ixps=ixps).infer(corpus)
