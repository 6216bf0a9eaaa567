"""Small, dependency-free helpers shared across the library.

The submodules are intentionally tiny and self-contained:

``repro.utils.rng``
    Deterministic random-number plumbing.  Every stochastic component in
    the library draws from a :class:`numpy.random.Generator` that is
    derived from a single scenario seed, so a scenario is reproducible
    bit-for-bit from its :class:`~repro.config.ScenarioConfig`.

``repro.utils.binning``
    Capped 2-D histogram binning used by the transit-degree / customer
    cone / node-degree imbalance heatmaps (Figures 3 and 7-9 of the
    paper).

``repro.utils.arrays``
    Vectorized numpy idioms (range concatenation, first-of-run masks)
    shared by the propagation engine and the corpus index.

``repro.utils.text``
    Plain-text rendering helpers (aligned tables, horizontal bar charts,
    ASCII heatmaps) used by the reporting layer and the benchmark
    harness to print paper-style figures in a terminal.
"""

from repro.utils.rng import child_rng, make_rng, weighted_choice
from repro.utils.binning import BinSpec, Histogram2D
from repro.utils.text import format_table, render_bars, render_heatmap

__all__ = [
    "child_rng",
    "make_rng",
    "weighted_choice",
    "BinSpec",
    "Histogram2D",
    "format_table",
    "render_bars",
    "render_heatmap",
]
