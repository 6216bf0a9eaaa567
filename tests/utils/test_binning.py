"""Tests for the capped 2-D histogram binning."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.binning import BinSpec, Histogram2D


class TestBinSpec:
    def test_regular_bins(self):
        spec = BinSpec(cap=100, n_bins=10)
        assert spec.index(0) == 0
        assert spec.index(9.99) == 0
        assert spec.index(10) == 1
        assert spec.index(99.9) == 9

    def test_catch_all_bin(self):
        spec = BinSpec(cap=100, n_bins=10)
        assert spec.index(100) == 10
        assert spec.index(10**9) == 10
        assert spec.total_bins == 11

    def test_paper_caps(self):
        # "the row above 150 and the column to the right of 1500 catch
        # all transit degrees equal or larger" (footnote 7).
        x = BinSpec(cap=1500, n_bins=10)
        y = BinSpec(cap=150, n_bins=10)
        assert x.index(1500) == 10
        assert x.index(1499) == 9
        assert y.index(150) == 10

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            BinSpec(cap=10, n_bins=2).index(-1)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            BinSpec(cap=0, n_bins=5)
        with pytest.raises(ValueError):
            BinSpec(cap=10, n_bins=0)

    def test_edges_and_labels(self):
        spec = BinSpec(cap=30, n_bins=3)
        assert spec.edges() == [0.0, 10.0, 20.0, 30.0]
        labels = spec.labels()
        assert labels[0] == "[0,10)"
        assert labels[-1] == ">=30"

    @given(st.floats(min_value=0, max_value=10**6, allow_nan=False))
    def test_index_in_range(self, value):
        spec = BinSpec(cap=150, n_bins=10)
        assert 0 <= spec.index(value) <= 10


class TestHistogram2D:
    def _make(self):
        return Histogram2D(BinSpec(cap=100, n_bins=10), BinSpec(cap=50, n_bins=10))

    def test_add_orders_larger_on_x(self):
        hist = self._make()
        hist.add(5, 95)  # smaller=5 (y), larger=95 (x)
        assert hist.counts[1, 9] == 1
        hist.add(95, 5)  # argument order must not matter
        assert hist.counts[1, 9] == 2

    def test_fractions_sum_to_one(self):
        hist = self._make()
        for a, b in [(1, 2), (30, 40), (200, 300)]:
            hist.add(a, b)
        assert hist.total == 3
        assert hist.fractions().sum() == pytest.approx(1.0)

    def test_empty_fractions_are_zero(self):
        hist = self._make()
        assert hist.fractions().sum() == 0.0
        assert hist.total == 0

    def test_mass_below_bottom_left(self):
        hist = self._make()
        hist.add(1, 1)      # bottom-left
        hist.add(999, 999)  # catch-all corner
        assert hist.mass_below(0.2, 0.2) == pytest.approx(0.5)

    def test_mass_below_validates_fractions(self):
        hist = self._make()
        with pytest.raises(ValueError):
            hist.mass_below(0.0, 0.5)
        with pytest.raises(ValueError):
            hist.mass_below(0.5, 1.5)

    def test_distance_zero_for_identical(self):
        a, b = self._make(), self._make()
        for pair in [(1, 2), (10, 60), (45, 45)]:
            a.add(*pair)
            b.add(*pair)
        assert a.earth_mover_distance_1d(b) == pytest.approx(0.0)

    def test_distance_positive_for_different(self):
        a, b = self._make(), self._make()
        a.add(1, 1)
        b.add(500, 500)
        assert a.earth_mover_distance_1d(b) > 0

    def test_distance_shape_mismatch_rejected(self):
        a = self._make()
        b = Histogram2D(BinSpec(cap=100, n_bins=5), BinSpec(cap=50, n_bins=5))
        with pytest.raises(ValueError):
            a.earth_mover_distance_1d(b)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2000),
                st.integers(min_value=0, max_value=2000),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_total_matches_adds(self, pairs):
        hist = self._make()
        for a, b in pairs:
            hist.add(a, b)
        assert hist.total == len(pairs)
        assert hist.fractions().sum() == pytest.approx(1.0)
