"""Tests for the deterministic RNG plumbing."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.rng import (
    child_rng,
    draw_from_cdf,
    make_rng,
    weighted_choice,
    weights_to_cdf,
)


class TestMakeRng:
    def test_same_seed_same_stream(self):
        a = make_rng(42)
        b = make_rng(42)
        assert a.integers(0, 1_000_000) == b.integers(0, 1_000_000)

    def test_different_seeds_diverge(self):
        a = make_rng(1)
        b = make_rng(2)
        draws_a = [int(a.integers(0, 10**9)) for _ in range(8)]
        draws_b = [int(b.integers(0, 10**9)) for _ in range(8)]
        assert draws_a != draws_b

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            make_rng(-1)


class TestChildRng:
    def test_label_independence(self):
        a = child_rng(7, "topology.links")
        b = child_rng(7, "validation.rpsl")
        assert [int(a.integers(0, 10**9)) for _ in range(4)] != [
            int(b.integers(0, 10**9)) for _ in range(4)
        ]

    def test_label_stability(self):
        a = child_rng(7, "x")
        b = child_rng(7, "x")
        assert int(a.integers(0, 10**9)) == int(b.integers(0, 10**9))

    def test_seed_changes_stream(self):
        a = child_rng(7, "x")
        b = child_rng(8, "x")
        assert [int(a.integers(0, 10**9)) for _ in range(4)] != [
            int(b.integers(0, 10**9)) for _ in range(4)
        ]


class TestWeightedChoice:
    def test_single_item(self):
        rng = make_rng(0)
        assert weighted_choice(rng, ["only"]) == "only"

    def test_zero_weight_never_chosen(self):
        rng = make_rng(0)
        for _ in range(50):
            assert weighted_choice(rng, ["a", "b"], [1.0, 0.0]) == "a"

    def test_empty_items_rejected(self):
        with pytest.raises(ValueError):
            weighted_choice(make_rng(0), [])

    def test_mismatched_weights_rejected(self):
        with pytest.raises(ValueError):
            weighted_choice(make_rng(0), ["a"], [1.0, 2.0])

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            weighted_choice(make_rng(0), ["a", "b"], [1.0, -1.0])

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            weighted_choice(make_rng(0), ["a", "b"], [0.0, 0.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_weights_rejected(self, bad):
        with pytest.raises(ValueError):
            weighted_choice(make_rng(0), ["a", "b"], [1.0, bad])

    @given(st.integers(min_value=0, max_value=10**6))
    def test_choice_is_member(self, seed):
        rng = make_rng(seed)
        items = ["a", "b", "c"]
        assert weighted_choice(rng, items, [1, 2, 3]) in items

    def test_distribution_roughly_follows_weights(self):
        rng = make_rng(3)
        counts = {"a": 0, "b": 0}
        for _ in range(4000):
            counts[weighted_choice(rng, ["a", "b"], [3.0, 1.0])] += 1
        assert 0.65 < counts["a"] / 4000 < 0.85


class TestStreamIdentity:
    """Weighted draws return what ``Generator.choice(len(w), p=w /
    w.sum())`` returns on a twin generator, and leave the stream where
    it leaves it."""

    @staticmethod
    def _weights(maker, n):
        """``n`` seeded weights of one random magnitude, ~30% zeros."""
        w = maker.random(n) * 10.0 ** int(maker.integers(-4, 5))
        w[maker.random(n) < 0.3] = 0.0
        if w.sum() == 0:
            w[int(maker.integers(0, n))] = 1.0
        return w

    @pytest.mark.parametrize("seed", range(5))
    def test_draws_match_generator_choice(self, seed):
        maker = make_rng(seed)
        for trial in range(200):
            n = 1 + trial % 11  # one-element lists included
            w = self._weights(maker, n)
            stream = int(maker.integers(0, 2**32))
            twin, wrapped, helper = (make_rng(stream) for _ in range(3))
            cdf = weights_to_cdf(w)
            for _ in range(20):
                expected = int(twin.choice(n, p=w / w.sum()))
                assert weighted_choice(wrapped, list(range(n)),
                                       w.tolist()) == expected
                assert draw_from_cdf(helper, cdf) == expected
            after = twin.random()
            assert wrapped.random() == after
            assert helper.random() == after
