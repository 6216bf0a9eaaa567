"""Consensus across classifiers, and disagreement as a hardness signal.

The paper's closing argument (§7) is that chasing a single global
correctness number hides per-class regressions, and that future efforts
should be "evaluated against more diverse goals".  One cheap, useful
instrument in that direction: run several classifiers and look at where
they *disagree* — the §6 problem classes are exactly where the
algorithms split.

:class:`ConsensusClassifier` wraps any set of base algorithms:

* the consensus label is the majority vote (ties break towards the
  first algorithm, conventionally ASRank);
* :attr:`disagreement_` records the minority share per link, a
  zero-cost hardness score;
* :func:`disagreement_by_class` aggregates it per link class, which the
  benchmarks use to show that T1-TR & friends are exactly the splits.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.datasets.asrel import RelationshipSet
from repro.datasets.paths import PathCorpus
from repro.inference.base import InferenceAlgorithm
from repro.topology.graph import LinkKey, RelType


class ConsensusClassifier(InferenceAlgorithm):
    """Majority vote over a panel of base algorithms."""

    name = "consensus"

    def __init__(self, algorithms: Sequence[InferenceAlgorithm]) -> None:
        if len(algorithms) < 2:
            raise ValueError("consensus needs at least two base algorithms")
        self.algorithms = list(algorithms)
        #: minority-vote share per link, filled by :meth:`infer`.
        self.disagreement_: Dict[LinkKey, float] = {}
        #: the individual results, for inspection.
        self.member_results_: Dict[str, RelationshipSet] = {}

    def infer(self, corpus: PathCorpus) -> RelationshipSet:
        results: List[RelationshipSet] = []
        for algorithm in self.algorithms:
            rels = algorithm.infer(corpus)
            results.append(rels)
            self.member_results_[algorithm.name] = rels
        consensus = RelationshipSet()
        self.disagreement_ = {}
        for key in corpus.visible_links():
            votes_p2p = 0
            total = 0
            provider_votes: Dict[int, int] = {}
            for rels in results:
                rel = rels.rel_of(*key)
                if rel is None:
                    continue
                total += 1
                if rel is RelType.P2P:
                    votes_p2p += 1
                else:
                    provider = rels.provider_of(*key)
                    if provider is not None:
                        provider_votes[provider] = (
                            provider_votes.get(provider, 0) + 1
                        )
            if total == 0:
                continue
            majority_p2p = votes_p2p * 2 > total or (
                votes_p2p * 2 == total
                and results[0].rel_of(*key) is RelType.P2P
            )
            minority = min(votes_p2p, total - votes_p2p)
            self.disagreement_[key] = minority / total
            if majority_p2p:
                consensus.set_p2p(*key)
            else:
                provider = (
                    max(provider_votes, key=lambda p: (provider_votes[p], -p))
                    if provider_votes
                    else key[0]
                )
                customer = key[1] if provider == key[0] else key[0]
                consensus.set_p2c(provider, customer)
        return consensus

    # ------------------------------------------------------------------
    def contested_links(self, min_disagreement: float = 0.3) -> List[LinkKey]:
        """Links where a substantial minority dissents — candidates for
        manual/looking-glass investigation."""
        return sorted(
            key
            for key, share in self.disagreement_.items()
            if share >= min_disagreement
        )


def disagreement_by_class(
    disagreement: Dict[LinkKey, float],
    classifier: Callable[[LinkKey], Optional[str]],
) -> Dict[str, float]:
    """Mean disagreement per link class (0 = unanimous)."""
    sums: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for key, share in disagreement.items():
        label = classifier(key)
        if label is None:
            continue
        sums[label] = sums.get(label, 0.0) + share
        counts[label] = counts.get(label, 0) + 1
    return {label: sums[label] / counts[label] for label in sums}
