"""Per-link reference loops for the analysis that now counts codes.

Before the link table (:class:`repro.analysis.classes.LinkTable`),
Tables 1-3 and Figures 1-2 classified every link again on each call and
counted with one validation and one inference lookup per link and class
row.  Those loops are kept here verbatim as the test oracles of the
coded path (``test_tables_differential.py``):

* :func:`confusion_for_links` and :func:`class_metrics_from_links` —
  the per-link confusion count and one table row;
* :func:`build_table` — Tables 1-3 from classifier callables;
* :func:`bias_profile` — Figures 1-2 from a classifier callable;
* :func:`sampling_experiment` — Appendix A's subsample loop;
* the ``Scenario`` and ``ScenarioView`` loops that read them:
  :func:`inferred_links`, :func:`class_links`, :func:`heatmap_links`,
  :func:`validation_table`, :func:`regional_bias`,
  :func:`topological_bias` and :func:`view_classes`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.bias import BiasProfile, ClassBias, LinkClassifier
from repro.analysis.metrics import BinaryConfusion, ClassMetrics
from repro.analysis.sampling import SamplePoint, SamplingResult
from repro.analysis.tables import (
    PAPER_CLASS_ORDER,
    CellColour,
    TableRow,
    ValidationTable,
)
from repro.datasets.asrel import RelationshipSet
from repro.scenario import Scenario
from repro.topology.graph import LinkKey, RelType
from repro.validation.cleaning import CleanedValidation


def confusion_for_links(
    links: Iterable[LinkKey],
    inferred: RelationshipSet,
    validation: CleanedValidation,
    positive: RelType,
) -> BinaryConfusion:
    """Confusion matrix over the validated subset of ``links``.

    Only links present in *both* the inference and the cleaned
    validation data contribute; S2S validation entries are skipped (the
    cleaning layer removes them, but hand-built data may contain them).
    """
    if positive not in (RelType.P2C, RelType.P2P):
        raise ValueError("positive class must be P2C or P2P")
    tp = fp = tn = fn = 0
    for key in links:
        true_rel = validation.rel_of(key)
        if true_rel is None or true_rel is RelType.S2S:
            continue
        pred_rel = inferred.rel_of(*key)
        if pred_rel is None:
            continue
        pred_rel = RelType.P2P if pred_rel is RelType.P2P else RelType.P2C
        truth_positive = true_rel is positive
        pred_positive = pred_rel is positive
        if truth_positive and pred_positive:
            tp += 1
        elif truth_positive:
            fn += 1
        elif pred_positive:
            fp += 1
        else:
            tn += 1
    return BinaryConfusion(tp=tp, fp=fp, tn=tn, fn=fn)


def class_metrics_from_links(
    class_name: str,
    links: Iterable[LinkKey],
    inferred: RelationshipSet,
    validation: CleanedValidation,
) -> ClassMetrics:
    links = list(links)
    conf_p2p = confusion_for_links(links, inferred, validation, RelType.P2P)
    conf_p2c = conf_p2p.flipped()
    return ClassMetrics(
        class_name=class_name,
        ppv_p2p=conf_p2p.ppv(),
        tpr_p2p=conf_p2p.tpr(),
        n_p2p=conf_p2p.positives,
        ppv_p2c=conf_p2c.ppv(),
        tpr_p2c=conf_p2c.tpr(),
        n_p2c=conf_p2c.positives,
        mcc=conf_p2p.mcc(),
        fowlkes_mallows=conf_p2p.fowlkes_mallows(),
    )


def build_table(
    algorithm: str,
    inferred: RelationshipSet,
    validation: CleanedValidation,
    classifiers: Sequence[LinkClassifier],
    evaluation_links: Iterable[LinkKey],
    min_class_links: int = 20,
) -> ValidationTable:
    """Assemble the table over the evaluation link set.

    ``classifiers`` typically holds the regional and the topological
    classifier; a link contributes one row membership per classifier
    (the paper mixes both groupings in one table).  Classes with fewer
    than ``min_class_links`` validated links are dropped, mirroring the
    paper's ">= 500 relationships in summary" cut-off (scaled down for
    smaller scenarios via the parameter).
    """
    links = list(evaluation_links)
    grouped: Dict[str, List[LinkKey]] = {}
    for key in links:
        for classifier in classifiers:
            label = classifier(key)
            if label is not None:
                grouped.setdefault(label, []).append(key)

    total = class_metrics_from_links("Total°", links, inferred, validation)
    rows: List[TableRow] = []
    for class_name, class_links in grouped.items():
        metrics = class_metrics_from_links(
            class_name, class_links, inferred, validation
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


def bias_profile(
    links: Iterable[LinkKey],
    classifier: LinkClassifier,
    validation: CleanedValidation,
    min_class_links: int = 1,
) -> BiasProfile:
    """Compute shares and coverage per class over ``links``."""
    counts: Dict[str, int] = {}
    validated: Dict[str, int] = {}
    total = 0
    for key in links:
        label = classifier(key)
        if label is None:
            continue
        total += 1
        counts[label] = counts.get(label, 0) + 1
        if key in validation:
            validated[label] = validated.get(label, 0) + 1
    classes = []
    for label, n_links in counts.items():
        if n_links < min_class_links:
            continue
        n_val = validated.get(label, 0)
        classes.append(
            ClassBias(
                class_name=label,
                n_links=n_links,
                share=n_links / total if total else 0.0,
                n_validated=n_val,
                coverage=n_val / n_links if n_links else 0.0,
            )
        )
    classes.sort(key=lambda c: (-c.share, c.class_name))
    return BiasProfile(classes=classes)


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
    for size_percent in sizes_percent:
        sample_size = max(1, int(round(n * size_percent / 100)))
        for _ in range(repetitions):
            chosen = rng.choice(n, size=sample_size, replace=False)
            subset = [validated[int(i)] for i in chosen]
            conf = confusion_for_links(subset, inferred, validation, RelType.P2P)
            points.append(
                SamplePoint(
                    size_percent=int(size_percent),
                    ppv_p2p=conf.ppv(),
                    tpr_p2p=conf.tpr(),
                    mcc=conf.mcc(),
                )
            )
    return SamplingResult(class_name=class_name, points=points)


def inferred_links(scenario: Scenario, exclude_siblings: bool = True) -> List[LinkKey]:
    links = scenario.corpus.visible_links()
    if not exclude_siblings:
        return list(links)
    orgs = scenario.topology.orgs
    return [key for key in links if not orgs.are_siblings(*key)]


def class_links(scenario: Scenario, class_name: str) -> List[LinkKey]:
    regional = scenario.regional_classifier()
    topological = scenario.topological_classifier()
    out = []
    for key in inferred_links(scenario):
        if (
            regional.classify(key) == class_name
            or topological.classify(key) == class_name
        ):
            out.append(key)
    return out


def heatmap_links(scenario: Scenario) -> List[LinkKey]:
    """The TR° population of ``Scenario.imbalance_heatmaps``."""
    topological = scenario.topological_classifier()
    return [
        key
        for key in inferred_links(scenario)
        if topological.classify(key) == "TR°"
    ]


def validation_table(
    scenario: Scenario, algorithm: str, min_class_links: Optional[int] = None
) -> ValidationTable:
    if min_class_links is None:
        min_class_links = max(10, len(scenario.validation) // 90)
    return build_table(
        algorithm=algorithm,
        inferred=scenario.infer(algorithm),
        validation=scenario.validation,
        classifiers=[
            scenario.regional_classifier().classify,
            scenario.topological_classifier().classify,
        ],
        evaluation_links=inferred_links(scenario),
        min_class_links=min_class_links,
    )


def regional_bias(scenario: Scenario) -> BiasProfile:
    return bias_profile(
        inferred_links(scenario),
        scenario.regional_classifier().classify,
        scenario.validation,
    )


def topological_bias(scenario: Scenario) -> BiasProfile:
    return bias_profile(
        inferred_links(scenario),
        scenario.topological_classifier().classify,
        scenario.validation,
    )


def view_classes(
    scenario: Scenario,
) -> Dict[LinkKey, Tuple[Optional[str], Optional[str]]]:
    """The ``classes`` of ``ScenarioView``'s served records."""
    regional = scenario.regional_classifier()
    topological = scenario.topological_classifier()
    return {
        key: (regional.classify(key), topological.classify(key))
        for key in scenario.corpus.visible_links()
    }
