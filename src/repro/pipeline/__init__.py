"""Execution layer: process-parallel propagation and artifact caching.

The per-origin route computation that dominates scenario building is
embarrassingly parallel — every origin's routes depend only on the
(read-only) propagation plane — and its outputs are small, hashable
artifacts.  This package exploits both facts:

* :class:`~repro.pipeline.parallel.ParallelPropagator` shards origins
  across a :class:`concurrent.futures.ProcessPoolExecutor` behind the
  same iteration API as the serial code, with a ``workers=0`` fallback
  that bypasses multiprocessing entirely;
* :class:`~repro.pipeline.cache.ArtifactCache` stores the expensive
  scenario artifacts (path corpus, inferred relationship sets, cleaned
  validation sets) content-addressed by a stable fingerprint of the
  :class:`~repro.config.ScenarioConfig` plus a code version, so a warm
  ``build_scenario`` skips propagation entirely.

Both are wired into :func:`repro.scenario.build_scenario` and the CLI
(``--workers``, ``--cache``, ``repro cache``); see
``docs/architecture.md`` for the worker model and cache layout.

The cache is safe for concurrent and crashing writers sharing one
root: writes publish unique per-writer temp files via atomic rename,
cross-process builders single-flight through advisory
:class:`~repro.pipeline.locks.EntryLock` files, reads retry once when a
file vanishes mid-parse, and every filesystem primitive flows through
the :class:`~repro.pipeline.fsops.CacheFilesystem` seam so
:mod:`repro.testing.faults` can prove the degrade-to-miss guarantee.
"""

from repro.pipeline.cache import (
    PIPELINE_CACHE_VERSION,
    ArtifactCache,
    default_cache_root,
    resolve_cache,
)
from repro.pipeline.fsops import CacheFilesystem
from repro.pipeline.locks import EntryLock, is_locked
from repro.pipeline.parallel import ParallelPropagator, resolve_workers

__all__ = [
    "ArtifactCache",
    "CacheFilesystem",
    "EntryLock",
    "ParallelPropagator",
    "PIPELINE_CACHE_VERSION",
    "default_cache_root",
    "is_locked",
    "resolve_cache",
    "resolve_workers",
]
