"""Bias analysis: link shares and validation coverage (Figures 1-2).

For a set of inferred links, a classifier (regional or topological),
and a validation set, :func:`bias_profile` computes per class

* the **share** of inferred links falling into the class (the top bar
  row of Figures 1 and 2), and
* the **validation coverage** — the fraction of the class's inferred
  links for which a validation label exists (the bottom row).

The *mismatch* the paper highlights is a class holding a large share of
inferred links but (almost) no validation coverage: LACNIC-internal
links and the big S-TR / TR° classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.topology.graph import LinkKey
from repro.validation.cleaning import CleanedValidation

#: Anything that maps a link to a class label (or None to discard it).
LinkClassifier = Callable[[LinkKey], Optional[str]]


@dataclass(frozen=True)
class ClassBias:
    """One bar pair of Figure 1/2."""

    class_name: str
    n_links: int
    share: float
    n_validated: int
    coverage: float


@dataclass
class BiasProfile:
    """All classes of one grouping, largest share first."""

    classes: List[ClassBias]

    def by_name(self) -> Dict[str, ClassBias]:
        return {c.class_name: c for c in self.classes}

    def top(self, n: int) -> List[ClassBias]:
        return self.classes[:n]

    def coverage_spread(self) -> float:
        """Max minus min coverage across classes — a one-number summary
        of how unevenly validation covers the groups."""
        if not self.classes:
            return 0.0
        coverages = [c.coverage for c in self.classes]
        return max(coverages) - min(coverages)

    def mismatch_classes(
        self, min_share: float = 0.05, max_coverage: float = 0.02
    ) -> List[ClassBias]:
        """Classes with a substantial link share but (nearly) no
        validation — the paper's headline finding shape."""
        return [
            c
            for c in self.classes
            if c.share >= min_share and c.coverage <= max_coverage
        ]


def bias_profile(
    links: Iterable[LinkKey],
    classifier: LinkClassifier,
    validation: CleanedValidation,
    min_class_links: int = 1,
) -> BiasProfile:
    """Compute shares and coverage per class over ``links``."""
    links = list(links)
    names: Dict[str, int] = {}
    codes = label_codes(map(classifier, links), names)
    validated = np.array([key in validation for key in links], dtype=bool)
    return profile_of_codes(list(names), codes, validated, min_class_links)


def label_codes(
    labels: Iterable[Optional[str]], names: Dict[str, int]
) -> np.ndarray:
    """Class codes of ``labels`` (``-1`` for ``None``), numbering each
    new name in ``names`` as it first appears."""
    return np.array(
        [
            -1 if label is None else names.setdefault(label, len(names))
            for label in labels
        ],
        dtype=np.int64,
    )


def profile_of_codes(
    class_names: Sequence[str],
    codes: np.ndarray,
    validated: np.ndarray,
    min_class_links: int = 1,
) -> BiasProfile:
    """Shares and coverage from per-link class codes into
    ``class_names`` (``-1``: the link has no class and is dropped) and
    a per-link "has a validation label" mask."""
    named = codes >= 0
    n_classes = len(class_names)
    counts = np.bincount(codes[named], minlength=n_classes)
    covered = np.bincount(codes[named & validated], minlength=n_classes)
    total = int(np.count_nonzero(named))
    classes = []
    for code in np.flatnonzero(counts).tolist():
        n_links = int(counts[code])
        if n_links < min_class_links:
            continue
        n_val = int(covered[code])
        classes.append(
            ClassBias(
                class_name=class_names[code],
                n_links=n_links,
                share=n_links / total,
                n_validated=n_val,
                coverage=n_val / n_links,
            )
        )
    classes.sort(key=lambda c: (-c.share, c.class_name))
    return BiasProfile(classes=classes)


def share_drift(a: BiasProfile, b: BiasProfile) -> float:
    """Total-variation distance between two profiles' share
    distributions.

    ``0.5 * Σ |share_a - share_b|`` over the union of class names —
    0.0 when the groupings carry identical link shares, 1.0 when they
    are disjoint.  The adversarial impact workload uses this to report
    how far corpus pollution moves the paper's Figure 1/2 bars.
    """
    a_shares = {c.class_name: c.share for c in a.classes}
    b_shares = {c.class_name: c.share for c in b.classes}
    names = sorted(set(a_shares) | set(b_shares))
    return 0.5 * sum(
        abs(a_shares.get(name, 0.0) - b_shares.get(name, 0.0))
        for name in names
    )
