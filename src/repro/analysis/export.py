"""Machine-readable export of every reproduced experiment.

Reproduction artefacts should be consumable without running Python:
:func:`results_bundle` collects the data behind every figure and table
into one JSON-serialisable dictionary, and :func:`write_results_bundle`
writes it to disk as ``results.json`` plus one CSV per experiment —
ready for the reader's own plotting pipeline.

Layout of the bundle::

    {
      "scenario": {...corpus/validation sizes...},
      "fig1_regional":    [{class, n_links, share, n_validated, coverage}, ...],
      "fig2_topological": [...],
      "fig3_transit_degree": {"inference": [[...]], "validation": [[...]],
                               "x_edges": [...], "y_edges": [...]},
      "tables": {"asrank": {"total": {...}, "rows": [{...}, ...]}, ...},
      "sec42_cleaning": {...},
      "sec61_casestudy": {...}
    }

The row serialisers (:func:`profile_rows`, :func:`metrics_row`,
:func:`table_dict`) are public: the HTTP query service
(:mod:`repro.service`) serves the same shapes, so bundle files and API
responses stay field-compatible.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Sequence, Union

from repro.analysis.bias import BiasProfile
from repro.analysis.heatmap import SCALED_TRANSIT_DEGREE_CAPS
from repro.analysis.metrics import ClassMetrics
from repro.analysis.tables import ValidationTable

if TYPE_CHECKING:  # avoid an analysis <-> scenario import cycle
    from repro.scenario import Scenario

#: Algorithms included in the tables section by default.
DEFAULT_ALGORITHMS = ("asrank", "problink", "toposcope")


def profile_rows(profile: BiasProfile) -> List[Dict[str, Any]]:
    return [
        {
            "class": entry.class_name,
            "n_links": entry.n_links,
            "share": round(entry.share, 6),
            "n_validated": entry.n_validated,
            "coverage": round(entry.coverage, 6),
        }
        for entry in profile.classes
    ]


def metrics_row(metrics: ClassMetrics) -> Dict[str, Any]:
    return {
        "class": metrics.class_name,
        "ppv_p2p": round(metrics.ppv_p2p, 6),
        "tpr_p2p": round(metrics.tpr_p2p, 6),
        "n_p2p": metrics.n_p2p,
        "ppv_p2c": round(metrics.ppv_p2c, 6),
        "tpr_p2c": round(metrics.tpr_p2c, 6),
        "n_p2c": metrics.n_p2c,
        "mcc": round(metrics.mcc, 6),
        "fowlkes_mallows": round(metrics.fowlkes_mallows, 6),
    }


def table_dict(table: ValidationTable) -> Dict[str, Any]:
    return {
        "total": metrics_row(table.total),
        "rows": [metrics_row(row.metrics) for row in table.rows],
    }


def results_bundle(
    scenario: "Scenario",
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
) -> Dict[str, Any]:
    """Assemble the full experiment bundle for one scenario."""
    heatmaps = scenario.imbalance_heatmaps(
        "transit_degree", caps=SCALED_TRANSIT_DEGREE_CAPS
    )
    case = scenario.case_study("asrank")
    bundle: Dict[str, Any] = {
        "scenario": {
            **scenario.corpus.stats(),
            "n_validated_links": len(scenario.validation),
            "seed": scenario.config.seed,
            "n_ases": scenario.config.topology.n_ases,
        },
        "fig1_regional": profile_rows(scenario.regional_bias()),
        "fig2_topological": profile_rows(scenario.topological_bias()),
        "fig3_transit_degree": {
            "inference": heatmaps.inference.fractions().tolist(),
            "validation": heatmaps.validation.fractions().tolist(),
            "x_edges": heatmaps.inference.x_spec.edges(),
            "y_edges": heatmaps.inference.y_spec.edges(),
            "corner_masses": list(heatmaps.corner_masses()),
        },
        "tables": {
            name: table_dict(scenario.validation_table(name))
            for name in algorithms
        },
        "sec42_cleaning": scenario.validation.report.as_dict(),
        "sec61_casestudy": {
            "n_wrong_p2p": case.n_wrong,
            "focus_member": case.focus_member,
            "focus_share": round(case.focus_share, 6),
            "n_targets": len(case.targets),
            "n_partial_transit_confirmed": case.n_partial_transit_confirmed,
            "n_stale_validation": case.n_stale_validation,
        },
    }
    return bundle


def _write_csv(path: Path, rows: Iterable[Dict[str, Any]]) -> None:
    rows = list(rows)
    if not rows:
        path.write_text("", encoding="utf-8")
        return
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def write_results_bundle(
    scenario: "Scenario",
    directory: Union[str, Path],
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
) -> Path:
    """Write ``results.json`` + per-experiment CSVs; returns the dir."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    bundle = results_bundle(scenario, algorithms=algorithms)
    (directory / "results.json").write_text(
        json.dumps(bundle, indent=2, sort_keys=True), encoding="utf-8"
    )
    _write_csv(directory / "fig1_regional.csv", bundle["fig1_regional"])
    _write_csv(directory / "fig2_topological.csv", bundle["fig2_topological"])
    for name, table in bundle["tables"].items():
        _write_csv(
            directory / f"table_{name}.csv",
            [table["total"]] + table["rows"],
        )
    return directory


def load_results_bundle(directory: Union[str, Path]) -> Dict[str, Any]:
    """Read back a bundle written by :func:`write_results_bundle`."""
    path = Path(directory) / "results.json"
    return json.loads(path.read_text(encoding="utf-8"))
