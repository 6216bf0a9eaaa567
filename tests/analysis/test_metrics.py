"""Tests for the classification-correctness metrics."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.analysis.metrics import (
    BinaryConfusion,
    ClassMetrics,
    confusion_counts,
    predicted_codes,
    truth_codes,
)
from repro.datasets.asrel import RelationshipSet
from repro.topology.graph import RelType
from repro.validation.cleaning import CleanedValidation, CleaningReport


def _validation(entries):
    rels = {}
    for a, b, rel, provider in entries:
        key = (min(a, b), max(a, b))
        rels[key] = (rel, provider)
    return CleanedValidation(rels=rels, report=CleaningReport())


class TestBinaryConfusion:
    def test_perfect(self):
        conf = BinaryConfusion(tp=10, fp=0, tn=10, fn=0)
        assert conf.ppv() == 1.0
        assert conf.tpr() == 1.0
        assert conf.mcc() == pytest.approx(1.0)
        assert conf.fowlkes_mallows() == 1.0

    def test_inverted(self):
        conf = BinaryConfusion(tp=0, fp=10, tn=0, fn=10)
        assert conf.mcc() == pytest.approx(-1.0)

    def test_coin_toss_mcc_zero(self):
        conf = BinaryConfusion(tp=5, fp=5, tn=5, fn=5)
        assert conf.mcc() == pytest.approx(0.0)

    def test_degenerate_margins(self):
        assert BinaryConfusion(tp=0, fp=0, tn=10, fn=0).mcc() == 0.0
        assert BinaryConfusion(tp=0, fp=0, tn=0, fn=0).ppv() == 0.0
        assert BinaryConfusion(tp=0, fp=0, tn=0, fn=0).tpr() == 0.0

    def test_flip_swaps_classes(self):
        conf = BinaryConfusion(tp=3, fp=2, tn=7, fn=1)
        flipped = conf.flipped()
        assert flipped.tp == 7 and flipped.fn == 2
        # MCC is symmetric under class swap.
        assert conf.mcc() == pytest.approx(flipped.mcc())

    def test_positives_is_lc(self):
        conf = BinaryConfusion(tp=3, fp=2, tn=7, fn=1)
        assert conf.positives == 4

    def test_class_recalls(self):
        # The P2P recall and, on the flipped matrix, the P2C recall.
        conf = BinaryConfusion(tp=8, fp=2, tn=6, fn=4)
        assert conf.total == 20
        assert conf.tpr() == pytest.approx(8 / 12)
        assert conf.flipped().tpr() == pytest.approx(6 / 8)

    @given(
        st.integers(0, 200), st.integers(0, 200),
        st.integers(0, 200), st.integers(0, 200),
    )
    def test_mcc_bounded(self, tp, fp, tn, fn):
        mcc = BinaryConfusion(tp=tp, fp=fp, tn=tn, fn=fn).mcc()
        assert -1.0 <= mcc <= 1.0

    @given(
        st.integers(0, 200), st.integers(0, 200),
        st.integers(0, 200), st.integers(0, 200),
    )
    def test_fmi_is_geometric_mean(self, tp, fp, tn, fn):
        conf = BinaryConfusion(tp=tp, fp=fp, tn=tn, fn=fn)
        assert conf.fowlkes_mallows() == pytest.approx(
            math.sqrt(conf.ppv() * conf.tpr())
        )


class TestConfusionCounts:
    def _codes(self):
        inferred = RelationshipSet()
        inferred.set_p2p(1, 2)       # true P2P -> TP (P2P positive)
        inferred.set_p2c(3, 4)       # true P2C -> TN
        inferred.set_p2p(5, 6)       # true P2C -> FP
        inferred.set_p2c(7, 8)       # true P2P -> FN
        validation = _validation([
            (1, 2, RelType.P2P, None),
            (3, 4, RelType.P2C, 3),
            (5, 6, RelType.P2C, 5),
            (7, 8, RelType.P2P, None),
            (9, 10, RelType.P2P, None),   # not inferred: skipped
        ])
        links = [(1, 2), (3, 4), (5, 6), (7, 8), (9, 10), (11, 12)]
        return truth_codes(links, validation), predicted_codes(links, inferred)

    def _confusion(self):
        truth, predicted = self._codes()
        groups = np.zeros(len(truth), dtype=np.int64)
        return BinaryConfusion.of_counts(
            confusion_counts(groups, truth, predicted, 1)[0]
        )

    def test_matrix(self):
        conf = self._confusion()
        assert (conf.tp, conf.fp, conf.tn, conf.fn) == (1, 1, 1, 1)

    def test_positive_class_flip(self):
        p2p = self._confusion()
        p2c = p2p.flipped()
        assert p2c.tp == p2p.tn and p2c.fn == p2p.fp

    def test_ungrouped_links_ignored(self):
        truth, predicted = self._codes()
        groups = np.array([0, -1, 0, -1, 0, 0])
        conf = BinaryConfusion.of_counts(
            confusion_counts(groups, truth, predicted, 1)[0]
        )
        assert (conf.tp, conf.fp, conf.tn, conf.fn) == (1, 1, 0, 0)

    def test_s2s_truth_excluded(self):
        inferred = RelationshipSet()
        inferred.set_p2p(1, 2)
        inferred.set_p2c(3, 4)
        validation = _validation([
            (1, 2, RelType.S2S, None),
            (3, 4, RelType.P2C, 3),
        ])
        links = [(1, 2), (3, 4)]
        counts = confusion_counts(
            np.zeros(2, dtype=np.int64),
            truth_codes(links, validation),
            predicted_codes(links, inferred),
            1,
        )[0]
        # The S2S link is tallied but enters neither class.
        assert counts.sum() == 2
        conf = BinaryConfusion.of_counts(counts)
        assert (conf.tp, conf.fp, conf.tn, conf.fn) == (0, 0, 1, 0)


class TestClassMetrics:
    def test_of_confusion(self):
        metrics = ClassMetrics.of_confusion(
            "X", BinaryConfusion(tp=1, fp=0, tn=1, fn=0)
        )
        assert metrics.ppv_p2p == 1.0
        assert metrics.n_p2p == 1 and metrics.n_p2c == 1
        assert metrics.n_validated == 2
        assert metrics.mcc == pytest.approx(1.0)
