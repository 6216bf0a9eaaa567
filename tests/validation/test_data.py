"""Tests for the validation-data containers."""

import pytest

from repro.topology.graph import RelType
from repro.validation.data import LabelSource, ValidationData, ValidationLabel


def _p2c(provider):
    return ValidationLabel(rel=RelType.P2C, provider=provider,
                           source=LabelSource.COMMUNITY)


def _p2p(source=LabelSource.COMMUNITY):
    return ValidationLabel(rel=RelType.P2P, provider=None, source=source)


class TestValidationLabel:
    def test_p2c_requires_provider(self):
        with pytest.raises(ValueError):
            ValidationLabel(rel=RelType.P2C, provider=None,
                            source=LabelSource.RPSL)

    def test_p2p_rejects_provider(self):
        with pytest.raises(ValueError):
            ValidationLabel(rel=RelType.P2P, provider=1,
                            source=LabelSource.RPSL)


class TestValidationData:
    def test_add_and_lookup(self):
        data = ValidationData()
        data.add(1, 2, _p2c(1))
        assert (1, 2) in data
        assert data.single_rel((1, 2)) is RelType.P2C
        assert data.provider_claim((1, 2)) == 1

    def test_duplicate_labels_collapse(self):
        data = ValidationData()
        data.add(1, 2, _p2c(1))
        data.add(2, 1, _p2c(1))  # same link, same label
        assert len(data.labels_of((1, 2))) == 1

    def test_multi_label_detection(self):
        data = ValidationData()
        data.add(1, 2, _p2p())
        data.add(1, 2, _p2c(1))
        assert data.is_multi_label((1, 2))
        assert data.single_rel((1, 2)) is None
        assert data.multi_label_links() == [(1, 2)]

    def test_counts_exclude_multi_label(self):
        data = ValidationData()
        data.add(1, 2, _p2p())
        data.add(3, 4, _p2c(3))
        data.add(5, 6, _p2p())
        data.add(5, 6, _p2c(5))
        rels = [data.single_rel(key) for key in data.links()]
        assert rels.count(RelType.P2P) == 1
        assert rels.count(RelType.P2C) == 1
        assert rels.count(None) == 1

    def test_same_rel_different_source_not_multi(self):
        data = ValidationData()
        data.add(1, 2, _p2p(LabelSource.COMMUNITY))
        data.add(1, 2, _p2p(LabelSource.RPSL))
        assert not data.is_multi_label((1, 2))
        assert len(data.labels_of((1, 2))) == 2

    def test_first_label_order_preserved(self):
        data = ValidationData()
        data.add(1, 2, _p2p())
        data.add(1, 2, _p2c(2))
        first = data.first_label((1, 2))
        assert first is not None and first.rel is RelType.P2P

    def test_copy_independent(self):
        data = ValidationData()
        data.add(1, 2, _p2p())
        clone = data.copy()
        clone.add(3, 4, _p2c(3))
        assert (3, 4) not in data

    def test_remove_link(self):
        data = ValidationData()
        data.add(1, 2, _p2p())
        data.remove_link((1, 2))
        assert (1, 2) not in data
        data.remove_link((1, 2))  # idempotent

    def test_stats(self):
        data = ValidationData()
        data.add(1, 2, _p2p())
        data.add(1, 2, _p2c(1))
        data.add(3, 4, _p2p())
        stats = data.stats()
        assert stats == {"n_links": 2, "n_labels": 3, "n_multi_label": 1}
