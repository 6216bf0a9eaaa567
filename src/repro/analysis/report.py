"""Text rendering of the paper's figures and tables.

Everything the benchmark harness prints flows through here, so that
``pytest benchmarks/ --benchmark-only`` reproduces the paper's rows and
series in a terminal:

* :func:`render_bias_figure` — Figures 1-2 (share row + coverage row);
* :func:`render_validation_table` — Tables 1-3 with colour marks;
* :func:`render_imbalance_heatmaps` — Figures 3 / 7-9 as shade maps;
* :func:`render_sampling_figure` — Figures 4-6 as median/IQR series.
"""

from __future__ import annotations

from typing import List

from repro.analysis.bias import BiasProfile
from repro.analysis.heatmap import ImbalanceHeatmaps
from repro.analysis.sampling import SamplingResult
from repro.analysis.tables import ValidationTable
from repro.utils.text import format_table, render_bars, render_heatmap


def render_bias_figure(profile: BiasProfile, title: str) -> str:
    """Figure 1/2 style: one bar block for shares, one for coverage."""
    labels = [c.class_name for c in profile.classes]
    shares = [c.share for c in profile.classes]
    coverages = [c.coverage for c in profile.classes]
    parts = [
        render_bars(labels, shares, title=f"{title} — links (share)"),
        "",
        render_bars(labels, coverages, title=f"{title} — validation coverage"),
    ]
    return "\n".join(parts)


def render_validation_table(table: ValidationTable) -> str:
    """Table 1/2/3 style with colour marks.

    Cell suffixes: ``+`` at least 1 % above Total°, ``~``/``!``/``*``
    at least 1 %/5 %/10 % below (the paper's green/yellow/orange/red).
    """
    headers = ["Class", "PPV_P", "TPR_P", "LC_P", "PPV_C", "TPR_C", "LC_C", "MCC"]
    rows: List[List[str]] = []
    total = table.total
    rows.append(
        [
            total.class_name,
            f"{total.ppv_p2p:.3f} ",
            f"{total.tpr_p2p:.3f} ",
            str(total.n_p2p),
            f"{total.ppv_p2c:.3f} ",
            f"{total.tpr_p2c:.3f} ",
            str(total.n_p2c),
            f"{total.mcc:.3f} ",
        ]
    )
    for row in table.rows:
        m = row.metrics
        rows.append(
            [
                m.class_name,
                f"{m.ppv_p2p:.3f}{row.colour_ppv_p2p.mark()}",
                f"{m.tpr_p2p:.3f}{row.colour_tpr_p2p.mark()}",
                str(m.n_p2p),
                f"{m.ppv_p2c:.3f}{row.colour_ppv_p2c.mark()}",
                f"{m.tpr_p2c:.3f}{row.colour_tpr_p2c.mark()}",
                str(m.n_p2c),
                f"{m.mcc:.3f}{row.colour_mcc.mark()}",
            ]
        )
    return format_table(
        headers, rows, title=f"Per-group validation table — {table.algorithm}"
    )


def render_imbalance_heatmaps(heatmaps: ImbalanceHeatmaps) -> str:
    """Figure 3/7/8/9 style: the inference map above the validation
    map, consistently scaled (each shows fractions of its own total)."""
    x_labels = [spec for spec in heatmaps.inference.x_spec.labels()]
    parts = [
        render_heatmap(
            heatmaps.inference.fractions(),
            title=f"{heatmaps.metric} — inference "
            f"({heatmaps.inference.total} links)",
        ),
        "",
        render_heatmap(
            heatmaps.validation.fractions(),
            title=f"{heatmaps.metric} — validation "
            f"({heatmaps.validation.total} links)",
        ),
        "",
        "x bins: " + " ".join(x_labels),
    ]
    corner_inf, corner_val = heatmaps.corner_masses()
    parts.append(
        f"bottom-left mass: inference {corner_inf:.2f} vs "
        f"validation {corner_val:.2f}"
    )
    return "\n".join(parts)


def render_sampling_figure(result: SamplingResult, metric: str) -> str:
    """Figure 4/5/6 style: per-size median and IQR of one metric."""
    medians = dict(result.median_series(metric))
    iqrs = {size: (q25, q75) for size, q25, q75 in result.iqr_series(metric)}
    headers = ["size%", "median", "q25", "q75"]
    rows = []
    for size in result.sizes():
        q25, q75 = iqrs[size]
        rows.append(
            [str(size), f"{medians[size]:.4f}", f"{q25:.4f}", f"{q75:.4f}"]
        )
    return format_table(
        headers,
        rows,
        title=f"Sampling correlation — {result.class_name} / {metric}",
    )


def render_class_shares(profile: BiasProfile) -> str:
    """Compact numeric dump used by EXPERIMENTS.md generation."""
    headers = ["class", "links", "share", "validated", "coverage"]
    rows = [
        [
            c.class_name,
            str(c.n_links),
            f"{c.share:.3f}",
            str(c.n_validated),
            f"{c.coverage:.3f}",
        ]
        for c in profile.classes
    ]
    return format_table(headers, rows)
