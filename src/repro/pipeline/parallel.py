"""Process-parallel per-origin route collection.

Every origin's routes are an independent function of the (read-only)
:class:`~repro.bgp.propagation.PropagationPlane`, so the per-origin fan-out —
the hot path of scenario building — shards cleanly across worker
processes.  :class:`ParallelPropagator` does exactly that while keeping
the output stream *indistinguishable* from the serial code:

* origins are split into contiguous chunks and submitted in order;
* results are yielded strictly in submission order (origin-major), so
  consumers observe the same sequence the serial loop produces;
* inside a worker the collector's own
  :class:`~repro.bgp.collectors.RouteReducer` runs the same block
  collection as the serial loop, so each route is identical, not merely
  equivalent — the differential tests in ``tests/pipeline/`` assert
  byte-identical corpus artifacts.

``workers=0`` falls back to plain in-process iteration (no executor,
no pickling), which is also the default everywhere; ``workers=None`` or
a negative count auto-sizes to the cores the process may run on.

One worker pool serves every collection round of the process: the
converged round, the churn rounds and any later build with the same
worker count reuse its processes, so only the first round pays process
start-up.  Each chunk carries its round's propagation plane and reducer
— a few flat arrays that pickle in O(bytes) — so a warm worker needs no
per-round initialisation; in a churn round it also carries the
converged routes of its own origins only.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence

from repro.bgp.propagation import PropagationPlane

#: More worker processes than this is a typo, not a deployment.
MAX_WORKERS = 256

#: The process-wide worker pool, keyed by its worker count; replaced
#: when a different count is asked for.
_POOLS: Dict[int, ProcessPoolExecutor] = {}


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a worker-count request.

    ``0`` means serial, positive counts up to :data:`MAX_WORKERS` are
    taken literally, and ``None`` or negative values auto-size to the
    cores this process may run on (its CPU affinity, or the CPU count
    where affinity is unknown).  Larger counts raise ``ValueError``.
    """
    if workers is None or workers < 0:
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except AttributeError:  # no affinity API on this platform
            return max(1, os.cpu_count() or 1)
    if workers > MAX_WORKERS:
        raise ValueError(
            f"worker count {workers} is absurd (maximum {MAX_WORKERS})"
        )
    return workers


def _chunk(origins: Sequence[int], workers: int) -> List[Sequence[int]]:
    """Contiguous origin chunks, sized for ~4 chunks per worker.

    Chunking amortises task-submission overhead while staying fine
    grained enough that an unlucky slow chunk cannot serialise the pool.
    """
    size = max(1, -(-len(origins) // (workers * 4)))
    return [origins[i : i + size] for i in range(0, len(origins), size)]


# ---------------------------------------------------------------------------
# worker functions (module-level so they pickle under every start method)
# ---------------------------------------------------------------------------

def _collect_chunk(
    plane: PropagationPlane,
    reducer: Any,
    origins: Sequence[int],
    converged: Any,
) -> Any:
    from repro.pipeline.columnar import CorpusColumns

    # One set of columns per chunk: a few contiguous buffers pickle in
    # O(bytes), and the parent ingests them as they are.
    return CorpusColumns.concat(
        list(reducer.collect_blocks(plane, origins, converged))
    )


def _shared_pool(workers: int) -> ProcessPoolExecutor:
    """The process-wide pool of ``workers`` processes, started on first
    use and kept for later rounds."""
    pool = _POOLS.get(workers)
    if pool is None:
        # Join the old pool before forking the new one: no executor
        # thread of it may hold a lock across the fork.
        for stale in _POOLS.values():
            stale.shutdown()
        _POOLS.clear()
        pool = _POOLS[workers] = ProcessPoolExecutor(max_workers=workers)
    return pool


class ParallelPropagator:
    """Sharded route collection behind the serial iteration API.

    Parameters
    ----------
    plane:
        The read-only propagation plane routes are computed over.
    workers:
        ``0`` (default) for the serial fallback, a positive count for
        that many worker processes, ``None``/negative for the usable cores.
    """

    def __init__(
        self, plane: PropagationPlane, workers: Optional[int] = 0
    ) -> None:
        self.plane = plane
        self.workers = 0 if workers == 0 else resolve_workers(workers)

    def collect_columns(
        self, reducer: Any, origins: Iterable[int], converged: Any = None
    ) -> Iterator[Any]:
        """Yield the collector-visible routes of ``origins`` as
        :class:`~repro.pipeline.columnar.CorpusColumns`, in the exact
        order the serial :class:`~repro.bgp.collectors.RouteCollector`
        records them (origin-major in the given order, vantage-point
        order within).

        Each worker of the shared pool runs the block collection of
        :meth:`~repro.bgp.collectors.RouteReducer.collect_blocks` over a
        contiguous chunk of origins with the collector's own reducer and
        this round's plane; per-origin route arrays never cross the
        process boundary.  A churn round's ``converged`` routes
        (:class:`~repro.bgp.collectors.ConvergedRoutes`) travel with
        each chunk cut to that chunk's origins.
        """
        origin_list = list(origins)
        if self.workers == 0 or len(origin_list) <= 1:
            yield from reducer.collect_blocks(
                self.plane, origin_list, converged
            )
            return
        pool = _shared_pool(self.workers)
        try:
            futures = [
                pool.submit(
                    _collect_chunk,
                    self.plane,
                    reducer,
                    chunk,
                    None
                    if converged is None
                    else converged.restrict(self.plane.ids(chunk)),
                )
                for chunk in _chunk(origin_list, self.workers)
            ]
            # Futures are drained in submission order, which gives the
            # deterministic origin-major merge the differential tests
            # rely on — whatever order the workers *finish* in is
            # invisible to the caller.
            for future in futures:
                yield future.result()
        except BrokenProcessPool:
            # A dead worker breaks the pool for good: drop it so the
            # next round starts a fresh one.
            _POOLS.pop(self.workers, None)
            raise
