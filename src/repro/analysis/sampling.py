"""Appendix A: does performance correlate with validation coverage?

The paper checks whether a class's *measured* performance is an
artefact of how much of it is validated: it uniformly subsamples the
validated links of a class at 50-99 % of the original size (step 1 %),
recomputes precision/recall/MCC on each subsample, repeats each size
100 times, and finds **no trend** — the medians stay flat while the
interquartile range widens as samples shrink (Figures 4-6).

:func:`sampling_experiment` reproduces the experiment for any link
class; :func:`trend_slope` quantifies "no trend" as an ordinary
least-squares slope of the per-size medians, which the benchmark then
asserts to be negligibly small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.analysis.metrics import (
    BinaryConfusion,
    confusion_counts,
    predicted_codes,
    truth_codes,
)
from repro.datasets.asrel import RelationshipSet
from repro.topology.graph import LinkKey
from repro.validation.cleaning import CleanedValidation


@dataclass(frozen=True)
class SamplePoint:
    """Metrics of one subsample."""

    size_percent: int
    ppv_p2p: float
    tpr_p2p: float
    mcc: float


@dataclass
class SamplingResult:
    """All subsample measurements for one link class."""

    class_name: str
    points: List[SamplePoint]

    def sizes(self) -> List[int]:
        return sorted({p.size_percent for p in self.points})

    def _values(self, size: int, metric: str) -> np.ndarray:
        return np.array(
            [getattr(p, metric) for p in self.points if p.size_percent == size]
        )

    def median_series(self, metric: str) -> List[Tuple[int, float]]:
        """(size, median) per sample size — the line in Figures 4-6."""
        return [
            (size, float(np.median(self._values(size, metric))))
            for size in self.sizes()
        ]

    def iqr_series(self, metric: str) -> List[Tuple[int, float, float]]:
        """(size, q25, q75) per sample size — the shaded band."""
        out = []
        for size in self.sizes():
            values = self._values(size, metric)
            out.append(
                (
                    size,
                    float(np.percentile(values, 25)),
                    float(np.percentile(values, 75)),
                )
            )
        return out


def sampling_experiment(
    class_links: Sequence[LinkKey],
    inferred: RelationshipSet,
    validation: CleanedValidation,
    class_name: str = "",
    sizes_percent: Iterable[int] = range(50, 100),
    repetitions: int = 100,
    seed: int = 42,
) -> SamplingResult:
    """Run the Appendix A experiment for one class."""
    validated = [key for key in class_links if key in validation]
    if not validated:
        raise ValueError(f"class {class_name!r} has no validated links")
    rng = np.random.Generator(np.random.PCG64(seed))
    points: List[SamplePoint] = []
    n = len(validated)
    truth = truth_codes(validated, validation)
    predicted = predicted_codes(validated, inferred)
    for size_percent in sizes_percent:
        sample_size = max(1, int(round(n * size_percent / 100)))
        one_group = np.zeros(sample_size, dtype=np.int64)
        for _ in range(repetitions):
            chosen = rng.choice(n, size=sample_size, replace=False)
            conf = BinaryConfusion.of_counts(
                confusion_counts(one_group, truth[chosen], predicted[chosen], 1)[0]
            )
            points.append(
                SamplePoint(
                    size_percent=int(size_percent),
                    ppv_p2p=conf.ppv(),
                    tpr_p2p=conf.tpr(),
                    mcc=conf.mcc(),
                )
            )
    return SamplingResult(class_name=class_name, points=points)


def trend_slope(series: Sequence[Tuple[int, float]]) -> float:
    """OLS slope of a (size, value) series, per percentage point.

    A |slope| close to zero over a 50-point size range backs the
    paper's "neither an increasing nor a decreasing trend" conclusion.
    """
    if len(series) < 2:
        return 0.0
    xs = np.array([s for s, _ in series], dtype=float)
    ys = np.array([v for _, v in series], dtype=float)
    xs -= xs.mean()
    denominator = float((xs**2).sum())
    if denominator == 0:
        return 0.0
    return float((xs * (ys - ys.mean())).sum() / denominator)


def iqr_widening(result: SamplingResult, metric: str = "mcc") -> float:
    """IQR at the smallest size minus IQR at the largest size.

    Positive values reproduce the paper's observation that variance
    grows as the sample shrinks.
    """
    series = result.iqr_series(metric)
    if len(series) < 2:
        return 0.0
    first = series[0]
    last = series[-1]
    return (first[2] - first[1]) - (last[2] - last[1])
