"""Plain-text rendering helpers for paper-style output.

The benchmark harness prints every reproduced table and figure as text.
Three primitives cover all of them:

* :func:`format_table` — aligned, optionally colour-annotated tables
  (Tables 1-3 of the paper);
* :func:`render_bars` — the two-row bar charts of Figures 1 and 2
  (fraction of links on top, validation coverage below);
* :func:`render_heatmap` — coarse ASCII heatmaps for Figures 3 / 7-9.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

_SHADES = " .:-=+*#%@"


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render a list of rows as an aligned monospace table.

    Cells are converted with ``str``; floats should be pre-formatted by
    the caller so that the table layer stays presentation-only.
    """
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_bars(
    labels: Sequence[str],
    values: Sequence[float],
    width: int = 40,
    title: Optional[str] = None,
) -> str:
    """Render one horizontal bar per label, scaled to the maximum value.

    Mirrors the visual layout of Figures 1 and 2: category labels on the
    left, a proportional bar, and the numeric value (two decimals) on
    the right.
    """
    if len(labels) != len(values):
        raise ValueError("labels and values must have the same length")
    if width < 1:
        raise ValueError("width must be >= 1")
    lines = []
    if title:
        lines.append(title)
    vmax = max(values) if values else 0.0
    label_width = max((len(label) for label in labels), default=0)
    for label, value in zip(labels, values):
        bar_len = 0 if vmax <= 0 else int(round(width * value / vmax))
        bar = "#" * bar_len
        lines.append(
            f"{label.ljust(label_width)} |{bar.ljust(width)}| {value:.2f}"
        )
    return "\n".join(lines)


def render_heatmap(
    fractions: np.ndarray,
    title: Optional[str] = None,
) -> str:
    """Render a 2-D fraction matrix as an ASCII shade map.

    Row 0 of ``fractions`` is drawn at the *bottom* to match the paper's
    orientation (small metric values in the lower-left corner).  Shades
    are scaled to the maximum cell so that sparse heatmaps stay legible.
    """
    grid = np.asarray(fractions, dtype=float)
    if grid.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {grid.shape}")
    vmax = grid.max()
    lines = []
    if title:
        lines.append(title)
    n_rows, n_cols = grid.shape
    for yi in range(n_rows - 1, -1, -1):
        cells = []
        for xi in range(n_cols):
            value = grid[yi, xi]
            if vmax <= 0 or value <= 0:
                shade = _SHADES[0]
            else:
                level = int(round((len(_SHADES) - 1) * value / vmax))
                shade = _SHADES[max(1, level)]
            cells.append(shade * 2)
        lines.append("".join(cells))
    return "\n".join(lines)
