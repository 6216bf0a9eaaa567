"""Per-module lint entries through the cache, and the project graph.

:class:`ModuleEntries` is the one place a module's entry is produced:
served from the cache on a hit (no parse, no rule walk, no tokenize),
otherwise parsed, listed once by :func:`walk_module`, walked once by
the selected module rules and the summariser together, scanned for noqa
markers, then stored once.  The engine's per-file loop and
``--call-graph`` (through :func:`build_project`) both use it, so they
share every entry.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.devtools.analysis.cache import (
    ModuleEntry,
    SummaryCache,
    module_config_digest,
    summary_key,
)
from repro.devtools.analysis.graph import ProjectGraph
# perfbench's traced run wraps this module's ``summarize_module``.
from repro.devtools.analysis.summaries import (
    _Summarizer,
    module_name_for,
    summarize_module,
)
from repro.devtools.engine import check_module
from repro.devtools.registry import scoped_rule_ids, walk_module
from repro.devtools.rules.determinism import _numpy_aliases
from repro.devtools.suppressions import SuppressionIndex


class ModuleEntries:
    """The entries of one run's modules (see module docstring).

    ``summarize`` is off only for runs without a program pass; those
    never have a cache either.
    """

    def __init__(self, config, cache: Optional[SummaryCache] = None,
                 summarize: bool = True):
        self.config = config
        self.cache = cache
        self.summarize = summarize
        self.module_ids = scoped_rule_ids(config.select, config.ignore,
                                          "module")
        self._digest = module_config_digest(config)

    def entry(self, relpath: str, source: str,
              tree: Optional[ast.Module] = None) -> ModuleEntry:
        """The entry for one module; raises ``SyntaxError`` on a miss
        whose source does not parse (such files are never stored)."""
        module = module_name_for(Path(relpath))
        if self.cache is not None:
            key = summary_key(relpath, source, self._digest, module)
            document = self.cache.get(key)
            if document is not None:
                return ModuleEntry.from_document(document, relpath)
        if tree is None:
            tree = ast.parse(source, filename=relpath)
        # The one walk of a miss: the module rules and the summariser
        # share its node list, the facts drawn from it and the walk.
        nodes = walk_module(tree)
        numpy_aliases = _numpy_aliases(nodes)
        summarizer = (_Summarizer(relpath, tree,
                                  tuple(self.config.perf_hot_names),
                                  module, nodes, numpy_aliases)
                      if self.summarize else None)
        findings = check_module(relpath, tree, nodes, numpy_aliases,
                                self.config, self.module_ids,
                                [summarizer] if summarizer else [])
        suppressions = SuppressionIndex.from_source(source)
        entry = ModuleEntry(summarizer.summary() if summarizer else None,
                            findings, suppressions)
        if self.cache is not None:
            self.cache.put(key, entry.document())
        return entry


def project_graph(
    summaries: List[Dict[str, Any]],
    cache: Optional[SummaryCache] = None,
) -> Tuple[ProjectGraph, Dict[str, int]]:
    """``(graph, stats)``: the call graph plus module/edge and cache
    counts."""
    graph = ProjectGraph(summaries)
    stats = dict(graph.stats())
    if cache is not None:
        stats.update(cache.stats())
    else:
        stats.update({"hits": 0, "misses": len(summaries), "stores": 0})
    return graph, stats


def build_project(
    items: Iterable[Tuple[str, str, Optional[ast.Module]]],
    config,
    cache: Optional[SummaryCache] = None,
) -> Tuple[ProjectGraph, Dict[str, int]]:
    """``(graph, stats)`` for ``(relpath, source, tree)`` items.

    ``tree`` may be ``None``; the source is then parsed on a cache miss.
    Files that do not parse contribute no summary.
    """
    modules = ModuleEntries(config, cache)
    summaries: List[Dict[str, Any]] = []
    for relpath, source, tree in items:
        try:
            summaries.append(modules.entry(relpath, source, tree).summary)
        except SyntaxError:
            continue
    return project_graph(summaries, cache)
