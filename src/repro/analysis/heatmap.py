"""Imbalance heatmaps (Figure 3 and Appendix B's Figures 7-9).

For the TR° links (transit-to-transit), the paper bins every link by a
size metric of its two endpoints — the larger value on the x-axis, the
smaller on the y-axis, with catch-all top bins — once over the inferred
links and once over the validatable ones, and compares the two mass
distributions: inference mass sits in the bottom-left corner (links
between small transit ASes) while validation mass is spread far more
uniformly.

Four metric variants are provided, matching the paper's figures:

* ``transit_degree`` (Figure 3, caps 1500/150),
* ``ppdc`` — provider/peer observed customer cone size (Figure 7,
  caps 750/45),
* ``ppdc_no_vp`` — PPDC ignoring links incident to route-collector
  peers (Figure 8),
* ``node_degree`` (Figure 9, caps 1500/150).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Mapping, Optional, Tuple

from repro.datasets.asrel import RelationshipSet
from repro.datasets.customercone import ppdc_sizes
from repro.datasets.paths import PathCorpus
from repro.topology.graph import LinkKey
from repro.utils.binning import BinSpec, Histogram2D
from repro.validation.cleaning import CleanedValidation

#: Paper cap values per metric (larger axis, smaller axis).
METRIC_CAPS: Dict[str, Tuple[float, float]] = {
    "transit_degree": (1500.0, 150.0),
    "ppdc": (750.0, 45.0),
    "ppdc_no_vp": (750.0, 45.0),
    "node_degree": (1500.0, 150.0),
}

#: Figure 3's caps scaled to the simulator, whose synthetic Internet's
#: transit degrees are an order of magnitude below the real ones: the
#: ``figures`` command and the results bundle render with these.
SCALED_TRANSIT_DEGREE_CAPS: Tuple[float, float] = (300.0, 60.0)


@dataclass
class ImbalanceHeatmaps:
    """The inference/validation histogram pair for one metric."""

    metric: str
    inference: Histogram2D
    validation: Histogram2D

    def corner_masses(
        self, x_fraction: float = 0.2, y_fraction: float = 0.2
    ) -> Tuple[float, float]:
        """Bottom-left mass of (inference, validation)."""
        return (
            self.inference.mass_below(x_fraction, y_fraction),
            self.validation.mass_below(x_fraction, y_fraction),
        )

    def mismatch(self) -> float:
        """Distributional distance between the two histograms."""
        return self.inference.earth_mover_distance_1d(self.validation)


def metric_values(
    metric: str,
    corpus: PathCorpus,
    rels: Optional[RelationshipSet] = None,
) -> Mapping[int, int]:
    """Per-AS values for one of the supported metrics."""
    if metric == "transit_degree":
        return corpus.transit_degrees()
    if metric == "node_degree":
        return corpus.node_degrees()
    if metric == "ppdc":
        if rels is None:
            raise ValueError("PPDC requires inferred relationships")
        return ppdc_sizes(corpus, rels)
    if metric == "ppdc_no_vp":
        if rels is None:
            raise ValueError("PPDC requires inferred relationships")
        return ppdc_sizes(corpus, rels, ignore_vp_incident=True)
    raise ValueError(f"unknown metric {metric!r}")


def build_heatmaps(
    metric: str,
    links: Iterable[LinkKey],
    values: Mapping[int, int],
    validation: CleanedValidation,
    n_bins: int = 10,
    caps: Optional[Tuple[float, float]] = None,
    skip_links: Optional[Callable[[LinkKey], bool]] = None,
) -> ImbalanceHeatmaps:
    """Bin ``links`` into the inference/validation histogram pair.

    ``skip_links`` implements Figure 8's "ignore links incident to a
    route collector peer" variant.
    """
    if caps is None:
        caps = METRIC_CAPS.get(metric)
    if caps is None:
        raise ValueError(f"no default caps for metric {metric!r}")
    x_cap, y_cap = caps
    x_spec = BinSpec(cap=x_cap, n_bins=n_bins)
    y_spec = BinSpec(cap=y_cap, n_bins=n_bins)
    inference = Histogram2D(x_spec, y_spec)
    validatable = Histogram2D(x_spec, y_spec)
    for key in links:
        if skip_links is not None and skip_links(key):
            continue
        value_a = values.get(key[0], 0)
        value_b = values.get(key[1], 0)
        inference.add(value_a, value_b)
        if key in validation:
            validatable.add(value_a, value_b)
    return ImbalanceHeatmaps(
        metric=metric, inference=inference, validation=validatable
    )
