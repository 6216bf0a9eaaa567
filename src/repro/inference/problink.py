"""ProbLink relationship inference (Jin et al., NSDI 2019).

ProbLink is a *meta-classifier*: it bootstraps from an existing
classification (ASRank here, as in the paper), assigns every link a
probability of being P2C or P2P from a naive-Bayes model over link
features, relabels each link with the most probable type, and iterates
until convergence.

The conditional feature distributions are re-estimated from the current
labelling each round (self-training).  This is the property the paper's
§6 observations hinge on: probability mass follows the majority, so
links whose feature neighbourhoods are dominated by another class —
e.g. the relatively few T1-TR peering links, which share features with
the many T1-TR partial-transit customer links — get pulled towards the
majority label, degrading exactly the small classes even while the
overall error rate improves or holds.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.datasets.asrel import RelationshipSet
from repro.datasets.paths import PathCorpus
from repro.inference.asrank import ASRank
from repro.inference.base import InferenceAlgorithm
from repro.inference.features import DiscreteFeatures, LinkFeatureExtractor
from repro.topology.graph import LinkKey, RelType
from repro.topology.ixp import IXPRegistry

#: The two classes ProbLink distinguishes (siblings are out of scope,
#: as in the published algorithm).
_CLASSES = (RelType.P2C, RelType.P2P)

#: The Laplace denominator's pseudo-vocabulary: each field's conditional
#: is smoothed as if the field took this many values.  It is one fixed
#: constant, not each field's own value count (two to about ten);
#: changing it changes every posterior.
_PSEUDO_VOCABULARY = 16

#: The Laplace pseudo-count added to every prior and conditional count.
SMOOTHING = 0.5

#: Self-training stops once an iteration relabels at most this share of
#: the links.
CONVERGENCE_FRACTION = 0.001


class ProbLink(InferenceAlgorithm):
    """Naive-Bayes iterative refinement on top of an initial inference."""

    name = "problink"

    def __init__(
        self,
        initial: Optional[InferenceAlgorithm] = None,
        ixps: Optional[IXPRegistry] = None,
        max_iterations: int = 5,
    ) -> None:
        self.initial = initial if initial is not None else ASRank()
        self.ixps = ixps
        self.max_iterations = max_iterations
        self.clique_: List[int] = []
        self.iterations_run_: int = 0
        #: Posterior P(P2P) per link from the final iteration — the
        #: "measure of certainty" interface UNARI later extended.
        self.posterior_p2p_: Dict[LinkKey, float] = {}

    # ------------------------------------------------------------------
    def infer(self, corpus: PathCorpus) -> RelationshipSet:
        # Results describe this corpus only, also on a reused instance.
        self.iterations_run_ = 0
        self.posterior_p2p_ = {}
        initial_rels = self.initial.infer(corpus)
        clique = list(getattr(self.initial, "clique_", []))
        self.clique_ = clique
        extractor = LinkFeatureExtractor(corpus, clique, ixps=self.ixps)
        features = extractor.discrete_all()
        degrees = corpus.transit_degrees()

        # Links share few feature vectors (about 300 for 33k links at
        # 2.5k ASes): the model is fitted from and evaluated on the
        # distinct vectors, and each link reads its vector's result
        # through ``inverse``.  Labels are indices into _CLASSES.
        links = corpus.visible_links()
        distinct: Dict[DiscreteFeatures, int] = {}
        inverse = np.fromiter(
            (distinct.setdefault(features[key], len(distinct)) for key in links),
            dtype=np.int64,
            count=len(links),
        )
        vectors = list(distinct)
        labels = np.fromiter(
            (initial_rels.rel_of(*key) is RelType.P2P for key in links),
            dtype=np.int64,
            count=len(links),
        )
        # The clique mesh is pinned to P2P: those links keep their
        # initial label.
        lo, hi = corpus.columnar_index().link_endpoint_arrays()
        clique_ids = np.array(clique, dtype=np.uint32)
        free = ~(np.isin(lo, clique_ids) & np.isin(hi, clique_ids))

        posteriors: List[float] = []
        for iteration in range(self.max_iterations):
            model = self._fit(labels, inverse, vectors)
            decided = [self._classify(model, feats) for feats in vectors]
            posteriors = [posterior for _, posterior in decided]
            best = np.array(
                [cls is RelType.P2P for cls, _ in decided], dtype=np.int64
            )[inverse]
            changed = int(np.count_nonzero(free & (best != labels)))
            labels = np.where(free, best, labels)
            self.iterations_run_ = iteration + 1
            if changed <= len(links) * CONVERGENCE_FRACTION:
                break
        if posteriors:
            for key, vector, is_free in zip(
                links, inverse.tolist(), free.tolist()
            ):
                if is_free:
                    self.posterior_p2p_[key] = posteriors[vector]

        return self._assemble(
            {key: _CLASSES[cls] for key, cls in zip(links, labels.tolist())},
            initial_rels,
            degrees,
        )

    # ------------------------------------------------------------------
    def _fit(
        self,
        labels: np.ndarray,
        inverse: np.ndarray,
        vectors: List[DiscreteFeatures],
    ) -> Dict:
        """Estimate priors and per-feature conditionals with Laplace
        smoothing from the current labelling (class indices per link,
        ``inverse`` mapping each link to its vector in ``vectors``)."""
        n_vectors = len(vectors)
        counts = np.bincount(
            labels * n_vectors + inverse, minlength=2 * n_vectors
        ).reshape(2, n_vectors)
        priors: Dict[RelType, float] = {}
        conditionals: List[Dict[Tuple[RelType, int], float]] = [
            {} for _ in DiscreteFeatures.FIELD_NAMES
        ]
        for cls, row in zip(_CLASSES, counts.tolist()):
            priors[cls] = SMOOTHING + sum(row)
            for feats, count in zip(vectors, row):
                if not count:
                    continue
                for table, value in zip(conditionals, feats.as_tuple()):
                    slot = (cls, value)
                    table[slot] = table.get(slot, 0.0) + count
        total = sum(priors.values())
        log_priors = {cls: math.log(priors[cls] / total) for cls in _CLASSES}
        return {
            "log_priors": log_priors,
            "conditionals": conditionals,
            "class_totals": priors,
        }

    def _classify(
        self, model: Dict, feats: DiscreteFeatures
    ) -> Tuple[RelType, float]:
        """Argmax class and the posterior probability of P2P."""
        scores = {}
        values = feats.as_tuple()
        for cls in _CLASSES:
            score = model["log_priors"][cls]
            class_total = model["class_totals"][cls]
            for field_index, value in enumerate(values):
                count = model["conditionals"][field_index].get(
                    (cls, value), 0.0
                )
                score += math.log(
                    (count + SMOOTHING)
                    / (class_total + SMOOTHING * _PSEUDO_VOCABULARY)
                )
            scores[cls] = score
        max_score = max(scores.values())
        weights = {cls: math.exp(s - max_score) for cls, s in scores.items()}
        z = sum(weights.values())
        posterior_p2p = weights[RelType.P2P] / z
        best = RelType.P2P if posterior_p2p >= 0.5 else RelType.P2C
        return best, posterior_p2p

    def _assemble(
        self,
        labels: Dict[LinkKey, RelType],
        initial: RelationshipSet,
        degrees: Dict[int, int],
    ) -> RelationshipSet:
        """Turn class labels into a directed relationship set.

        P2C direction: keep the initial algorithm's orientation when it
        had one; links flipped from P2P take the larger transit degree
        as provider (ProbLink's convention).
        """
        rels = RelationshipSet()
        for key, cls in labels.items():
            a, b = key
            if cls is RelType.P2P:
                rels.set_p2p(a, b)
                continue
            provider = initial.provider_of(a, b)
            if provider is None:
                provider = a if degrees.get(a, 0) >= degrees.get(b, 0) else b
            customer = b if provider == a else a
            rels.set_p2c(provider, customer)
        return rels
