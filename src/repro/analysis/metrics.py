"""Classification-correctness metrics (§6 of the paper).

The paper evaluates each classifier with two binary confusion matrices
per link class — one treating P2C as the positive class, one treating
P2P as positive — and reports precision (PPV), recall (TPR), the link
counts, and Matthews' correlation coefficient (MCC) as a symmetric
summary.  The Fowlkes-Mallows index is implemented too (the paper
mentions it among the metrics it chose *not* to show).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.datasets.asrel import RelationshipSet
from repro.topology.graph import LinkKey, RelType
from repro.validation.cleaning import CleanedValidation


#: Per-link relationship codes: a validation label ("truth") or an
#: inferred one ("predicted").  ``CODE_NONE`` marks a link the source
#: lacks.  Predictions are P2P or P2C only (an inferred S2S counts as
#: P2C); a truth of ``CODE_S2S`` is kept apart so that it counts as
#: validated coverage but never enters a confusion matrix.
CODE_NONE, CODE_P2P, CODE_P2C, CODE_S2S = 0, 1, 2, 3

_TRUTH_CODE = {
    None: CODE_NONE,
    RelType.P2P: CODE_P2P,
    RelType.P2C: CODE_P2C,
    RelType.S2S: CODE_S2S,
}


@dataclass(frozen=True)
class RelationshipAccuracy:
    """Exact-label agreement of an inferred set against ground truth.

    A link counts as *correct* when the relationship type matches and,
    for P2C, the provider side matches too.  A link the truth set does
    not contain at all is *fake* — under attack pollution these are
    forged edges that never existed in the topology.
    """

    n_links: int
    n_real: int
    n_correct: int
    n_fake: int

    @property
    def accuracy(self) -> float:
        """Correct fraction over the real (truth-covered) links."""
        return self.n_correct / self.n_real if self.n_real else 0.0

    @property
    def fake_rate(self) -> float:
        """Fraction of inferred links that do not exist at all."""
        return self.n_fake / self.n_links if self.n_links else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "n_links": self.n_links,
            "n_real": self.n_real,
            "n_correct": self.n_correct,
            "n_fake": self.n_fake,
            "accuracy": self.accuracy,
            "fake_rate": self.fake_rate,
        }


def relationship_accuracy(
    inferred: RelationshipSet, truth: RelationshipSet
) -> RelationshipAccuracy:
    """Score every inferred link against a ground-truth set."""
    n_links = n_real = n_correct = n_fake = 0
    for key, rel, provider in inferred.items():
        n_links += 1
        truth_rel = truth.rel_of(*key)
        if truth_rel is None:
            n_fake += 1
            continue
        n_real += 1
        if truth_rel is not rel:
            continue
        if rel is RelType.P2C and truth.provider_of(*key) != provider:
            continue
        n_correct += 1
    return RelationshipAccuracy(
        n_links=n_links,
        n_real=n_real,
        n_correct=n_correct,
        n_fake=n_fake,
    )


@dataclass(frozen=True)
class BinaryConfusion:
    """A 2x2 confusion matrix."""

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def positives(self) -> int:
        """Ground-truth positives (the paper's ``LC`` link counts)."""
        return self.tp + self.fn

    def ppv(self) -> float:
        """Precision; 0 when nothing was predicted positive."""
        denominator = self.tp + self.fp
        return self.tp / denominator if denominator else 0.0

    def tpr(self) -> float:
        """Recall; 0 when there are no positives."""
        denominator = self.tp + self.fn
        return self.tp / denominator if denominator else 0.0

    def mcc(self) -> float:
        """Matthews correlation coefficient in [-1, 1]; 0 on degenerate
        matrices (any all-zero margin), following Chicco et al."""
        tp, fp, tn, fn = self.tp, self.fp, self.tn, self.fn
        denominator = math.sqrt(
            float(tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
        )
        if denominator == 0:
            return 0.0
        return (tp * tn - fp * fn) / denominator

    def fowlkes_mallows(self) -> float:
        """Geometric mean of precision and recall."""
        return math.sqrt(self.ppv() * self.tpr())

    def flipped(self) -> "BinaryConfusion":
        """The same matrix with the positive class swapped."""
        return BinaryConfusion(tp=self.tn, fp=self.fn, tn=self.tp, fn=self.fp)

    @classmethod
    def of_counts(cls, counts: np.ndarray) -> "BinaryConfusion":
        """The P2P-positive matrix of one group's ``(truth, predicted)``
        counts (:func:`confusion_counts`): links with no prediction or
        with an S2S or missing truth do not enter it."""
        return cls(
            tp=int(counts[CODE_P2P, CODE_P2P]),
            fp=int(counts[CODE_P2C, CODE_P2P]),
            tn=int(counts[CODE_P2C, CODE_P2C]),
            fn=int(counts[CODE_P2P, CODE_P2C]),
        )


def truth_codes(
    links: Sequence[LinkKey], validation: CleanedValidation
) -> np.ndarray:
    """The validation label of each link as a relationship code."""
    return np.fromiter(
        (_TRUTH_CODE[validation.rel_of(key)] for key in links),
        dtype=np.int8,
        count=len(links),
    )


def predicted_codes(
    links: Sequence[LinkKey], inferred: RelationshipSet
) -> np.ndarray:
    """The inferred label of each canonical link key: P2P, P2C (any
    other type) or ``CODE_NONE`` when the inference lacks the link."""
    codes = {None: CODE_NONE, RelType.P2P: CODE_P2P}
    get = inferred.by_key().get
    missing = (None, None)
    return np.fromiter(
        (codes.get(get(key, missing)[0], CODE_P2C) for key in links),
        dtype=np.int8,
        count=len(links),
    )


def confusion_counts(
    groups: np.ndarray,
    truth: np.ndarray,
    predicted: np.ndarray,
    n_groups: int,
) -> np.ndarray:
    """Per-group link counts by (truth, predicted) code, as one
    ``(n_groups, 4, 3)`` integer array; links of group ``-1`` are
    ignored.  Every confusion matrix of the analysis layer is read from
    this one tally (:meth:`BinaryConfusion.of_counts`)."""
    named = groups >= 0
    cells = (
        groups[named].astype(np.int64) * 4 + truth[named]
    ) * 3 + predicted[named]
    return np.bincount(cells, minlength=n_groups * 12).reshape(n_groups, 4, 3)


@dataclass(frozen=True)
class ClassMetrics:
    """One row of the paper's Tables 1-3."""

    class_name: str
    ppv_p2p: float
    tpr_p2p: float
    n_p2p: int
    ppv_p2c: float
    tpr_p2c: float
    n_p2c: int
    mcc: float
    fowlkes_mallows: float

    @classmethod
    def of_confusion(
        cls, class_name: str, conf_p2p: BinaryConfusion
    ) -> "ClassMetrics":
        """The row of a class's P2P-positive confusion matrix."""
        conf_p2c = conf_p2p.flipped()
        return cls(
            class_name=class_name,
            ppv_p2p=conf_p2p.ppv(),
            tpr_p2p=conf_p2p.tpr(),
            n_p2p=conf_p2p.positives,
            ppv_p2c=conf_p2c.ppv(),
            tpr_p2c=conf_p2c.tpr(),
            n_p2c=conf_p2c.positives,
            mcc=conf_p2p.mcc(),
            fowlkes_mallows=conf_p2p.fowlkes_mallows(),
        )

    @property
    def n_validated(self) -> int:
        return self.n_p2p + self.n_p2c
