"""Uncertainty-aware evaluation (the UNARI angle, §3.1).

UNARI (Feng et al. 2019) "produces a measure of certainty for each
link type as its outcome"; the paper wanted to analyse it but the
authors published no artifacts.  Our ProbLink implementation exposes
per-link posteriors (:attr:`repro.inference.problink.ProbLink.posterior_p2p_`),
which lets us run the analysis UNARI invites:

* **calibration** — when the classifier says "80 % P2P", is it right
  80 % of the time?  :func:`calibration_curve` bins posteriors and
  compares claimed confidence with empirical accuracy against a
  validation set; :func:`expected_calibration_error` summarises it.
* **selective risk** — does abstaining on the least-certain links
  raise precision?  :func:`selective_accuracy` sweeps a confidence
  threshold.
* and the paper-shaped question: **are the biased classes also the
  uncertain ones?**  :func:`uncertainty_by_class` averages the
  decision margin per link class, showing whether T1-TR & friends at
  least *look* risky to the classifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.topology.graph import LinkKey, RelType
from repro.validation.cleaning import CleanedValidation

#: The confidence thresholds of the selective-accuracy curve.
SELECTIVE_THRESHOLDS = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95)


@dataclass(frozen=True)
class CalibrationBin:
    """One confidence bucket of the reliability diagram."""

    lower: float
    upper: float
    n_links: int
    mean_confidence: float
    empirical_accuracy: float


def _prediction(posterior_p2p: float) -> RelType:
    return RelType.P2P if posterior_p2p >= 0.5 else RelType.P2C


def _confidence(posterior_p2p: float) -> float:
    """Confidence in the argmax class."""
    return max(posterior_p2p, 1.0 - posterior_p2p)


def _validated_pairs(
    posteriors: Mapping[LinkKey, float],
    validation: CleanedValidation,
) -> List[Tuple[float, bool]]:
    """(confidence, correct?) over the validated subset."""
    pairs: List[Tuple[float, bool]] = []
    for key, posterior in posteriors.items():
        truth = validation.rel_of(key)
        if truth is None or truth is RelType.S2S:
            continue
        predicted = _prediction(posterior)
        truth_binary = RelType.P2P if truth is RelType.P2P else RelType.P2C
        pairs.append((_confidence(posterior), predicted is truth_binary))
    return pairs


def calibration_curve(
    posteriors: Mapping[LinkKey, float],
    validation: CleanedValidation,
    n_bins: int = 10,
) -> List[CalibrationBin]:
    """Reliability diagram over [0.5, 1.0] confidence."""
    if n_bins < 1:
        raise ValueError("need at least one bin")
    pairs = _validated_pairs(posteriors, validation)
    width = 0.5 / n_bins
    bins: List[CalibrationBin] = []
    for index in range(n_bins):
        lower = 0.5 + index * width
        upper = lower + width
        members = [
            (confidence, correct)
            for confidence, correct in pairs
            if lower <= confidence < upper
            or (index == n_bins - 1 and confidence == upper)
        ]
        if members:
            mean_confidence = sum(c for c, _ in members) / len(members)
            accuracy = sum(1 for _, ok in members if ok) / len(members)
        else:
            mean_confidence = accuracy = 0.0
        bins.append(
            CalibrationBin(
                lower=lower,
                upper=upper,
                n_links=len(members),
                mean_confidence=mean_confidence,
                empirical_accuracy=accuracy,
            )
        )
    return bins


def expected_calibration_error(
    posteriors: Mapping[LinkKey, float],
    validation: CleanedValidation,
    n_bins: int = 10,
) -> float:
    """Weighted |confidence - accuracy| over the bins (ECE)."""
    bins = calibration_curve(posteriors, validation, n_bins)
    total = sum(b.n_links for b in bins)
    if total == 0:
        return 0.0
    return sum(
        b.n_links * abs(b.mean_confidence - b.empirical_accuracy)
        for b in bins
    ) / total


def selective_accuracy(
    posteriors: Mapping[LinkKey, float],
    validation: CleanedValidation,
) -> List[Tuple[float, float, float]]:
    """(threshold, coverage, accuracy) for each of
    ``SELECTIVE_THRESHOLDS``, abstaining below the confidence
    threshold."""
    pairs = _validated_pairs(posteriors, validation)
    out: List[Tuple[float, float, float]] = []
    if not pairs:
        return out
    for threshold in SELECTIVE_THRESHOLDS:
        kept = [(c, ok) for c, ok in pairs if c >= threshold]
        coverage = len(kept) / len(pairs)
        accuracy = (
            sum(1 for _, ok in kept if ok) / len(kept) if kept else 0.0
        )
        out.append((threshold, coverage, accuracy))
    return out


def uncertainty_by_class(
    posteriors: Mapping[LinkKey, float],
    classifier: Callable[[LinkKey], Optional[str]],
) -> Dict[str, float]:
    """Mean decision margin (confidence - 0.5) per link class; small
    margins mean the classifier itself knows the class is shaky."""
    sums: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for key, posterior in posteriors.items():
        label = classifier(key)
        if label is None:
            continue
        margin = _confidence(posterior) - 0.5
        sums[label] = sums.get(label, 0.0) + margin
        counts[label] = counts.get(label, 0) + 1
    return {label: sums[label] / counts[label] for label in sums}
