"""Per-group validation tables (Tables 1-3 of the paper).

Each table has one row per link class (regional and topological classes
with enough validated links, plus the ``Total°`` row for the entire
validation set) and the columns

    PPV_P  TPR_P  LC_P  PPV_C  TPR_C  LC_C  MCC

The paper colours cells relative to the ``Total°`` row: green when at
least 1 % better, yellow / orange / red when at least 1 % / 5 % / 10 %
worse.  The same thresholds are implemented here as
:class:`CellColour` annotations so the benchmark output carries the
paper's visual message in plain text.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.metrics import BinaryConfusion, ClassMetrics, confusion_counts

#: Paper row order for the default class set.
PAPER_CLASS_ORDER: Tuple[str, ...] = (
    "Total°",
    "AP-AR",
    "AP-R",
    "AP°",
    "AR-L",
    "AR-R",
    "AR°",
    "R°",
    "S-T1",
    "S-TR",
    "T1-TR",
    "TR°",
)


class CellColour(enum.Enum):
    """Colour classes of the paper's tables (relative to Total°)."""

    GREEN = "green"    # >= 1 % better
    NEUTRAL = ""       # within +-1 %
    YELLOW = "yellow"  # >= 1 % worse
    ORANGE = "orange"  # >= 5 % worse
    RED = "red"        # >= 10 % worse

    @classmethod
    def grade(cls, value: float, reference: float) -> "CellColour":
        delta = value - reference
        if delta >= 0.01:
            return cls.GREEN
        if delta <= -0.10:
            return cls.RED
        if delta <= -0.05:
            return cls.ORANGE
        if delta <= -0.01:
            return cls.YELLOW
        return cls.NEUTRAL

    def mark(self) -> str:
        """One-character suffix used in text rendering."""
        return {
            CellColour.GREEN: "+",
            CellColour.NEUTRAL: " ",
            CellColour.YELLOW: "~",
            CellColour.ORANGE: "!",
            CellColour.RED: "*",
        }[self]


@dataclass(frozen=True)
class TableRow:
    """One class row with its colour annotations."""

    metrics: ClassMetrics
    colour_ppv_p2p: CellColour
    colour_tpr_p2p: CellColour
    colour_ppv_p2c: CellColour
    colour_tpr_p2c: CellColour
    colour_mcc: CellColour


@dataclass
class ValidationTable:
    """A full per-group validation table for one algorithm."""

    algorithm: str
    total: ClassMetrics
    rows: List[TableRow]

    def row(self, class_name: str) -> Optional[TableRow]:
        for row in self.rows:
            if row.metrics.class_name == class_name:
                return row
        return None

    def metrics(self, class_name: str) -> Optional[ClassMetrics]:
        if class_name == self.total.class_name:
            return self.total
        row = self.row(class_name)
        return row.metrics if row else None

    def worst_p2p_classes(self, n: int = 3) -> List[ClassMetrics]:
        """Classes with the lowest P2P precision (the paper's AR-L,
        S-T1, T1-TR finding), among rows with at least one P2P link."""
        candidates = [r.metrics for r in self.rows if r.metrics.n_p2p > 0]
        candidates.sort(key=lambda m: (m.ppv_p2p, m.class_name))
        return candidates[:n]


def tabulate(
    algorithm: str,
    class_names: Sequence[str],
    groupings: Sequence[np.ndarray],
    truth: np.ndarray,
    predicted: np.ndarray,
    min_class_links: int = 20,
) -> ValidationTable:
    """The table from per-link codes.

    Each array of ``groupings`` gives every link's class code into
    ``class_names`` under one classifier (``-1``: no class); ``truth``
    and ``predicted`` are the links' relationship codes.  One tally
    counts the ``Total°`` row and every class row
    (:func:`~repro.analysis.metrics.confusion_counts`).  Classes with
    fewer than ``min_class_links`` validated links are dropped (the
    paper's ">= 500 relationships" cut-off, scaled by the caller); the
    rest follow :data:`PAPER_CLASS_ORDER`, unlisted classes last by
    name.
    """
    n_classes = len(class_names)
    total_group = np.full(len(truth), n_classes, dtype=np.int64)
    counts = confusion_counts(
        np.concatenate([total_group, *groupings]),
        np.tile(truth, len(groupings) + 1),
        np.tile(predicted, len(groupings) + 1),
        n_classes + 1,
    )
    total = ClassMetrics.of_confusion(
        "Total°", BinaryConfusion.of_counts(counts[n_classes])
    )
    rows: List[TableRow] = []
    for code in np.flatnonzero(counts[:n_classes].sum(axis=(1, 2))).tolist():
        metrics = ClassMetrics.of_confusion(
            class_names[code], BinaryConfusion.of_counts(counts[code])
        )
        if metrics.n_validated < min_class_links:
            continue
        rows.append(
            TableRow(
                metrics=metrics,
                colour_ppv_p2p=CellColour.grade(metrics.ppv_p2p, total.ppv_p2p),
                colour_tpr_p2p=CellColour.grade(metrics.tpr_p2p, total.tpr_p2p),
                colour_ppv_p2c=CellColour.grade(metrics.ppv_p2c, total.ppv_p2c),
                colour_tpr_p2c=CellColour.grade(metrics.tpr_p2c, total.tpr_p2c),
                colour_mcc=CellColour.grade(metrics.mcc, total.mcc),
            )
        )
    position = {name: i for i, name in enumerate(PAPER_CLASS_ORDER)}
    rows.sort(
        key=lambda r: (
            position.get(r.metrics.class_name, len(PAPER_CLASS_ORDER)),
            r.metrics.class_name,
        )
    )
    return ValidationTable(algorithm=algorithm, total=total, rows=rows)
