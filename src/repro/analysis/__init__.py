"""Bias and implication analysis (systems S11-S12 of DESIGN.md)."""

from repro.analysis.bias import BiasProfile, ClassBias, bias_profile
from repro.analysis.casestudy import (
    CaseStudyResult,
    TargetLink,
    concentration_by_clique_member,
    looking_glass_audit,
    run_case_study,
    triplet_evidence,
    wrong_p2p_links,
)
from repro.analysis.classes import RegionalClassifier, TopologicalClassifier
from repro.analysis.export import (
    load_results_bundle,
    results_bundle,
    write_results_bundle,
)
from repro.analysis.hardlinks import (
    HARD_CATEGORIES,
    HardLinkClassifier,
    HardLinkReport,
    hard_link_report,
)
from repro.analysis.heatmap import (
    METRIC_CAPS,
    ImbalanceHeatmaps,
    build_heatmaps,
    metric_values,
)
from repro.analysis.metrics import BinaryConfusion, ClassMetrics
from repro.analysis.report import (
    render_bias_figure,
    render_class_shares,
    render_imbalance_heatmaps,
    render_sampling_figure,
    render_validation_table,
)
from repro.analysis.uncertainty import (
    CalibrationBin,
    calibration_curve,
    expected_calibration_error,
    selective_accuracy,
    uncertainty_by_class,
)
from repro.analysis.sampling import (
    SamplePoint,
    SamplingResult,
    iqr_widening,
    sampling_experiment,
    trend_slope,
)
from repro.analysis.tables import (
    CellColour,
    PAPER_CLASS_ORDER,
    TableRow,
    ValidationTable,
)

__all__ = [
    "BiasProfile",
    "ClassBias",
    "bias_profile",
    "CaseStudyResult",
    "TargetLink",
    "concentration_by_clique_member",
    "looking_glass_audit",
    "run_case_study",
    "triplet_evidence",
    "wrong_p2p_links",
    "RegionalClassifier",
    "TopologicalClassifier",
    "load_results_bundle",
    "results_bundle",
    "write_results_bundle",
    "HARD_CATEGORIES",
    "HardLinkClassifier",
    "HardLinkReport",
    "hard_link_report",
    "CalibrationBin",
    "calibration_curve",
    "expected_calibration_error",
    "selective_accuracy",
    "uncertainty_by_class",
    "METRIC_CAPS",
    "ImbalanceHeatmaps",
    "build_heatmaps",
    "metric_values",
    "BinaryConfusion",
    "ClassMetrics",
    "render_bias_figure",
    "render_class_shares",
    "render_imbalance_heatmaps",
    "render_sampling_figure",
    "render_validation_table",
    "SamplePoint",
    "SamplingResult",
    "iqr_widening",
    "sampling_experiment",
    "trend_slope",
    "CellColour",
    "PAPER_CLASS_ORDER",
    "TableRow",
    "ValidationTable",
]
