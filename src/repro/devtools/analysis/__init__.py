"""repro.devtools.analysis — whole-program analysis under the linter.

The per-file linter (PR 3) sees one AST at a time, but the contracts it
guards — determinism of fingerprints, columnar hot paths, a never-
blocked event loop — are *cross-module* properties.  This package adds
the project-wide layer:

* :mod:`~repro.devtools.analysis.summaries` — per-module analysis
  summaries (defs, import aliases, call edges, taint/perf/concurrency
  facts) extracted in one AST pass;
* :mod:`~repro.devtools.analysis.cache` — content-hash module cache:
  one entry per module holds its summary, raw module-rule findings and
  noqa markers, so warm re-runs skip parsing, rule walks and tokenizing;
* :mod:`~repro.devtools.analysis.graph` — the
  :class:`~repro.devtools.analysis.graph.ProjectGraph`: module index,
  conservative name-resolved call graph, executor edges, reachability;
* :mod:`~repro.devtools.analysis.project` — produces each module's
  entry through the cache and builds the graph from the summaries.

The interprocedural rule families themselves (FLOW1xx, PERF0xx,
CONC0xx) live with the other rules in :mod:`repro.devtools.rules` and
are registered through the same registry; the engine runs them when
``repro lint --whole-program`` is requested.
"""

from repro.devtools.analysis.cache import (
    SummaryCache,
    default_cache_root,
    module_config_digest,
    summary_key,
)
from repro.devtools.analysis.graph import ProjectGraph
from repro.devtools.analysis.project import build_project
from repro.devtools.analysis.summaries import (
    ANALYSIS_VERSION,
    module_name_for,
    summarize_module,
)

__all__ = [
    "ANALYSIS_VERSION",
    "ProjectGraph",
    "SummaryCache",
    "build_project",
    "default_cache_root",
    "module_config_digest",
    "module_name_for",
    "summarize_module",
    "summary_key",
]
