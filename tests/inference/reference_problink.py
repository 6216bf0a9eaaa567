"""Scalar reference for ProbLink's self-training loop.

``ProbLink.infer`` used to classify every link on every iteration with
one ``_classify`` call and to re-fit the naive Bayes with a per-link
dict loop.  That loop is kept here verbatim as the oracle of the
per-distinct-feature-vector kernel (``test_problink_differential.py``):
:class:`ScalarProbLink` reuses ProbLink's constructor and
``_assemble`` and overrides ``infer``, ``_fit`` and ``_classify`` with
their old bodies, so a change to the kernel's scoring shows up as a
difference here.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.datasets.asrel import RelationshipSet
from repro.datasets.paths import PathCorpus
from repro.inference.features import DiscreteFeatures, LinkFeatureExtractor
from repro.inference.problink import ProbLink
from repro.topology.graph import LinkKey, RelType

_CLASSES = (RelType.P2C, RelType.P2P)


class ScalarProbLink(ProbLink):
    """ProbLink with the per-link classification loop."""

    # ------------------------------------------------------------------
    def infer(self, corpus: PathCorpus) -> RelationshipSet:
        initial_rels = self.initial.infer(corpus)
        clique = list(getattr(self.initial, "clique_", []))
        self.clique_ = clique
        extractor = LinkFeatureExtractor(corpus, clique, ixps=self.ixps)
        features = extractor.discrete_all()
        degrees = corpus.transit_degrees()
        clique_set = set(clique)

        labels: Dict[LinkKey, RelType] = {}
        for key in corpus.visible_links():
            rel = initial_rels.rel_of(*key)
            labels[key] = RelType.P2P if rel is RelType.P2P else RelType.P2C

        n_links = len(labels)
        for iteration in range(self.max_iterations):
            model = self._fit(labels, features)
            changed = 0
            for key, feats in features.items():
                if key[0] in clique_set and key[1] in clique_set:
                    continue  # the clique mesh is pinned to P2P
                best, posterior_p2p = self._classify(model, feats)
                self.posterior_p2p_[key] = posterior_p2p
                if best is not labels[key]:
                    labels[key] = best
                    changed += 1
            self.iterations_run_ = iteration + 1
            if changed <= n_links * self.convergence_fraction:
                break

        return self._assemble(labels, initial_rels, degrees)

    # ------------------------------------------------------------------
    def _fit(
        self,
        labels: Dict[LinkKey, RelType],
        features: Dict[LinkKey, DiscreteFeatures],
    ) -> Dict:
        """Estimate priors and per-feature conditionals with Laplace
        smoothing from the current labelling."""
        priors = {cls: self.smoothing for cls in _CLASSES}
        n_fields = len(DiscreteFeatures.FIELD_NAMES)
        conditionals: List[Dict[Tuple[RelType, int], float]] = [
            {} for _ in range(n_fields)
        ]
        for key, cls in labels.items():
            priors[cls] += 1
            values = features[key].as_tuple()
            for field_index, value in enumerate(values):
                slot = (cls, value)
                table = conditionals[field_index]
                table[slot] = table.get(slot, 0.0) + 1.0
        total = sum(priors.values())
        log_priors = {cls: math.log(priors[cls] / total) for cls in _CLASSES}
        class_totals = {cls: priors[cls] for cls in _CLASSES}
        return {
            "log_priors": log_priors,
            "conditionals": conditionals,
            "class_totals": class_totals,
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
                    (count + self.smoothing) / (class_total + self.smoothing * 16)
                )
            scores[cls] = score
        max_score = max(scores.values())
        weights = {cls: math.exp(s - max_score) for cls, s in scores.items()}
        z = sum(weights.values())
        posterior_p2p = weights[RelType.P2P] / z
        best = RelType.P2P if posterior_p2p >= 0.5 else RelType.P2C
        return best, posterior_p2p
