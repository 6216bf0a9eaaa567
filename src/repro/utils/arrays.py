"""Vectorized numpy idioms shared by the propagation engine and the
corpus index."""

from __future__ import annotations

import numpy as np


def concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``np.concatenate([np.arange(s, s + c) for s, c in ...])`` without
    the Python loop: the vectorized range-concatenation trick.

    ``counts`` must be non-negative (``np.repeat`` refuses otherwise).
    """
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    base = np.repeat(starts.astype(np.int64), counts)
    resets = np.repeat(np.cumsum(counts) - counts, counts)
    return base + np.arange(total, dtype=np.int64) - resets


def group_starts(sorted_values: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values."""
    starts = np.empty(len(sorted_values), dtype=bool)
    starts[:1] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=starts[1:])
    return starts
