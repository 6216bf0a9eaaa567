"""Capped 2-D histogram binning for the imbalance heatmaps.

Figures 3, 7, 8, and 9 of the paper bin every transit-to-transit link by
a *size* metric of its two incident ASes (transit degree, customer cone
size, or node degree).  Two conventions from the paper are implemented
here:

* the **smaller** value goes on the y-axis and the **larger** value on
  the x-axis, i.e. a link is an unordered pair and the histogram lives
  in the upper triangle of the metric space;
* both axes have a **catch-all top bin**: "the row above 150 and the
  column to the right of 1500 catch all transit degrees equal or larger
  than 150 and 1500, respectively", which keeps a handful of huge ASes
  from stretching the plot.

Cell values are *fractions of links* (each histogram sums to 1.0 when it
contains at least one link), matching the paper's colour scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np


@dataclass(frozen=True)
class BinSpec:
    """Axis specification: ``n_bins`` regular bins over [0, cap) plus one
    catch-all bin for values >= ``cap``.

    Attributes
    ----------
    cap:
        Lower edge of the catch-all bin.
    n_bins:
        Number of regular (equal-width) bins below the cap.  The total
        number of bins is ``n_bins + 1``.
    """

    cap: float
    n_bins: int

    def __post_init__(self) -> None:
        if self.cap <= 0:
            raise ValueError(f"cap must be positive, got {self.cap}")
        if self.n_bins < 1:
            raise ValueError(f"n_bins must be >= 1, got {self.n_bins}")

    @property
    def total_bins(self) -> int:
        """Regular bins plus the catch-all bin."""
        return self.n_bins + 1

    @property
    def width(self) -> float:
        """Width of one regular bin."""
        return self.cap / self.n_bins

    def index(self, value: float) -> int:
        """Map a metric value to its bin index (last index = catch-all)."""
        if value < 0:
            raise ValueError(f"metric values must be non-negative, got {value}")
        if value >= self.cap:
            return self.n_bins
        return min(int(value / self.width), self.n_bins - 1)

    def edges(self) -> List[float]:
        """Lower edges of every bin, including the catch-all bin."""
        return [i * self.width for i in range(self.n_bins)] + [self.cap]

    def labels(self) -> List[str]:
        """Human-readable labels, e.g. ``"[30,45)"`` and ``">=150"``."""
        out = []
        for i in range(self.n_bins):
            lo = i * self.width
            hi = lo + self.width
            out.append(f"[{lo:g},{hi:g})")
        out.append(f">={self.cap:g}")
        return out


class Histogram2D:
    """Fraction-of-links histogram over (larger metric, smaller metric).

    The add() method accepts the two incident-AS metric values in any
    order; the histogram internally sorts them so that the x-axis is the
    larger value.
    """

    def __init__(self, x_spec: BinSpec, y_spec: BinSpec) -> None:
        self.x_spec = x_spec
        self.y_spec = y_spec
        self._counts = np.zeros((y_spec.total_bins, x_spec.total_bins), dtype=np.int64)

    @property
    def counts(self) -> np.ndarray:
        """Raw counts, shape ``(y_bins, x_bins)``; row 0 is the smallest
        y bin."""
        return self._counts

    @property
    def total(self) -> int:
        """Number of links added so far."""
        return int(self._counts.sum())

    def add(self, value_a: float, value_b: float) -> None:
        """Record one link whose endpoints have the given metric values."""
        larger, smaller = (value_a, value_b) if value_a >= value_b else (value_b, value_a)
        xi = self.x_spec.index(larger)
        yi = self.y_spec.index(smaller)
        self._counts[yi, xi] += 1

    def fractions(self) -> np.ndarray:
        """Cell values as fractions of all links (sums to 1 when total > 0)."""
        total = self.total
        if total == 0:
            return np.zeros_like(self._counts, dtype=float)
        return self._counts / float(total)

    def mass_below(self, x_fraction: float, y_fraction: float) -> float:
        """Fraction of links in the lower-left corner of the histogram.

        ``x_fraction`` / ``y_fraction`` select the leading share of the
        regular bins on each axis (e.g. ``0.2`` keeps the lowest 20 % of
        bins below the cap).  Used by tests and benchmarks to assert the
        paper's qualitative claim that inference mass concentrates in the
        bottom-left corner while validation mass is spread out.
        """
        if not 0 < x_fraction <= 1 or not 0 < y_fraction <= 1:
            raise ValueError("fractions must be in (0, 1]")
        total = self.total
        if total == 0:
            return 0.0
        nx = max(1, int(round(self.x_spec.n_bins * x_fraction)))
        ny = max(1, int(round(self.y_spec.n_bins * y_fraction)))
        return float(self._counts[:ny, :nx].sum()) / total

    def earth_mover_distance_1d(self, other: "Histogram2D") -> float:
        """A cheap distributional distance between two histograms.

        Both histograms are flattened in row-major order and compared
        via the L1 distance between their cumulative fraction vectors
        (a 1-D Wasserstein surrogate).  Used to quantify the
        inference-vs-validation mismatch without pulling in scipy.
        """
        if self._counts.shape != other._counts.shape:
            raise ValueError("histograms have different shapes")
        a = np.cumsum(self.fractions().ravel())
        b = np.cumsum(other.fractions().ravel())
        return float(np.abs(a - b).sum() / len(a))
