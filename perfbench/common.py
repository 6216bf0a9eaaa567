"""Shared plumbing: metric catalogue, statistics, host facts, setup clock."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

#: End-to-end metrics: every untraced run reports all of them.
#: name -> unit.  Each workload defines its own "operation" (README.md).
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "op_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics: every traced run reports all of them; a layer the
#: workload does not exercise reads 0.  name -> unit.
PER_LAYER: Dict[str, str] = {
    # the workloads' headline figures, from the untraced ops of the run
    "reproduce_s": "s",
    "reanalyze_s": "s",
    "serve_rps": "1/s",
    "serve_p50_ms": "ms",
    "serve_p99_ms": "ms",
    "serve_samples": "count",
    "lint_cold_s": "s",
    "lint_warm_s": "s",
    "fail_share": "ratio",
    # pipeline layers (self time per operation, counts per operation)
    "topology.generate_s": "s",
    "bgp.collect_self_s": "s",
    "bgp.propagate_s": "s",
    "bgp.origins": "count",
    "bgp.routes": "count",
    "bgp.measurement_s": "s",
    "bgp.lookingglass_s": "s",
    "datasets.ingest_s": "s",
    "datasets.index_s": "s",
    "datasets.visible_links": "count",
    "datasets.triplets": "count",
    "pipeline.cache_store_s": "s",
    "pipeline.cache_bytes_written": "bytes",
    "pipeline.cache_load_s": "s",
    "pipeline.cache_hits": "count",
    "pipeline.cache_misses": "count",
    "validation.compile_s": "s",
    "validation.clean_s": "s",
    "validation.entries": "count",
    "inference.asrank_s": "s",
    "inference.problink_s": "s",
    "inference.toposcope_s": "s",
    "inference.links": "count",
    "analysis.tables_s": "s",
    "analysis.bias_s": "s",
    "analysis.heatmap_s": "s",
    "analysis.casestudy_self_s": "s",
    # service layer, timed at the client and read from the server
    "service.rel_p50_ms": "ms",
    "service.rel_p99_ms": "ms",
    "service.batch_p50_ms": "ms",
    "service.batch_p99_ms": "ms",
    "service.neighbors_p50_ms": "ms",
    "service.neighbors_p99_ms": "ms",
    "service.table_p50_ms": "ms",
    "service.table_p99_ms": "ms",
    "service.client_mean_ms": "ms",
    "service.server_mean_ms": "ms",
    "service.server_cpu_ms_per_req": "ms",
    "service.client_cpu_ms_per_req": "ms",
    "service.admit_s": "s",
    "service.build_s": "s",
    "service.indexes_built_delta": "count",
    "service.status_2xx": "count",
    "service.status_other": "count",
    "service.reconnects": "count",
    # devtools layer
    "devtools.summarize_s": "s",
    "devtools.graph_s": "s",
    "devtools.rules_s": "s",
    "devtools.modules": "count",
    "devtools.edges": "count",
    "devtools.findings": "count",
    "devtools.cache_hits": "count",
    "devtools.cache_misses": "count",
    # what no span covers, and what tracing costs
    "reproduce_cold.untraced_s": "s",
    "reanalyze_warm.untraced_s": "s",
    "serve_mix.untraced_s": "s",
    "lint_synth.untraced_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: The scale every pipeline workload runs at.  Collection keeps the
#: dominant share of a cold build here that it has at paper scale.
MID_ASES = 240
MID_VPS = 40


def mid_config(seed: int):
    """The mid-scale scenario config for ``seed``."""
    from repro import ScenarioConfig

    config = ScenarioConfig.small(seed=seed)
    config.topology.n_ases = MID_ASES
    config.measurement.n_vantage_points = MID_VPS
    config.validate()
    return config


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def digest(value: Any) -> str:
    """sha256 of canonical JSON (or of raw bytes)."""
    if isinstance(value, bytes):
        blob = value
    else:
        blob = json.dumps(value, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def layer_medians(per_op: List[Dict[str, float]]) -> Dict[str, float]:
    """Median over operations of each per-operation layer figure."""
    names = sorted({name for op in per_op for name in op})
    return {name: median([op.get(name, 0.0) for op in per_op])
            for name in names}


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
#: A :func:`calibrate` reading of an uncontended core of the reference
#: host.  Corrected times are "seconds on a host this fast".
CAL_REF_S = 0.030

_CAL_GRAPH: List[List[int]] = []


def calibrate() -> float:
    """Seconds for a fixed pure-Python kernel (BFS over a seeded graph,
    dict and set churn).

    It shares no code with the program, so it tracks how fast the host
    runs Python right now, not how fast the program is.  On a shared
    host that swings by a factor of two within seconds.
    """
    import random
    from collections import deque

    if not _CAL_GRAPH:
        rng = random.Random(12345)
        _CAL_GRAPH.extend([] for _ in range(3000))
        for i in range(1, 3000):
            for _ in range(1 + i % 3):
                j = rng.randrange(i)
                _CAL_GRAPH[i].append(j)
                _CAL_GRAPH[j].append(i)
    adj = _CAL_GRAPH
    start = time.perf_counter()
    total = 0
    for src in range(0, 3000, 100):
        dist = {src: 0}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            du = dist[u] + 1
            for v in adj[u]:
                if v not in dist:
                    dist[v] = du
                    queue.append(v)
        total += len(dist) + len({(a, b) for a in range(30) for b in range(a, 30)})
    return time.perf_counter() - start


class HostClock:
    """Drift correction from calibration readings around timed work.

    Each timed piece is bracketed by two readings (the previous piece's
    closing reading opens the next).  ``correct(raw)`` scales the piece
    by ``CAL_REF_S`` over the mean of its two readings, which removes
    most of the host's contention swings while a program change, which
    the kernel does not share, shows in full.

    With ``cpu`` set, every reading is taken on that core (the process
    moves there for the reading and back), so it gauges the core that
    does the measured work even when that is another process's core.
    """

    def __init__(self, cpu: Optional[int] = None) -> None:
        self.cpu = cpu
        self.readings: List[float] = []
        #: seconds spent calibrating (all, and before set-up ended)
        self.spent = 0.0
        self.setup_spent = 0.0
        self._last = self._read()

    def _read(self) -> float:
        start = time.perf_counter()
        if self.cpu is None:
            value = calibrate()
        else:
            home = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {self.cpu})
            try:
                value = calibrate()
            finally:
                os.sched_setaffinity(0, home)
        self.spent += time.perf_counter() - start
        self.readings.append(value)
        return value

    def factor(self) -> float:
        """Correction factor for the piece that just ended."""
        now = self._read()
        factor = CAL_REF_S / ((self._last + now) / 2.0)
        self._last = now
        return factor

    def correct(self, raw: float) -> float:
        return raw * self.factor()


#: Long pieces of timed work are cut into segments of about this length.
CUT_S = 0.3


class Segments:
    """Times one piece of work in segments, each drift-corrected by the
    calibration readings at its two ends.

    A benchmark-owned interval timer (``SIGALRM``) closes a segment
    every ``CUT_S`` seconds, so the correction follows the host's speed
    through a long operation without hooking into the program: where
    the cuts fall does not depend on how the program is structured.
    ``mark()`` closes a segment and takes a reading.  Reading time is
    excluded from the piece and, through ``tracer.pause``, from every
    span it overlaps.  Outside ``begin()``/``end()`` a mark does nothing.
    """

    def __init__(self, clock: HostClock, tracer=None) -> None:
        self.clock = clock
        self.tracer = tracer
        self.active = False
        self.marks = 0
        self._cuts = False
        self._busy = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, _signum, _frame) -> None:
        # A mark already under way re-arms the timer when it is done.
        if self.active and not self._busy:
            self.mark()

    def _arm(self) -> None:
        if self._cuts and self.active:
            signal.setitimer(signal.ITIMER_REAL, CUT_S)

    def begin(self, cuts: bool = True) -> None:
        """Start timing; ``cuts=False`` reads only at the two ends (for
        work done by another process, which a reading would slow)."""
        self.raw = self.corrected = 0.0
        self._cuts = cuts
        self.active = True
        self._start = time.perf_counter()
        self._arm()

    def mark(self) -> None:
        if not self.active:
            return
        self._busy = True
        try:
            now = time.perf_counter()
            segment = now - self._start
            factor = self.clock.factor()
            self.raw += segment
            self.corrected += segment * factor
            self.marks += 1
            self._start = time.perf_counter()
            if self.tracer is not None:
                self.tracer.pause(now, self._start)
        finally:
            self._busy = False
        self._arm()

    def end(self) -> Tuple[float, float]:
        """``(raw seconds, corrected seconds)`` of the piece."""
        self._cuts = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.mark()
        self.active = False
        return self.raw, self.corrected


# ----------------------------------------------------------------------
# host facts
# ----------------------------------------------------------------------
def _cgroup_cpu_quota() -> Optional[float]:
    try:
        quota, period = Path("/sys/fs/cgroup/cpu.max").read_text().split()
    except (OSError, ValueError):
        return None
    if quota == "max":
        return None
    return int(quota) / int(period)


def host_facts() -> Dict[str, Any]:
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    quota = _cgroup_cpu_quota()
    usable = min(cores, quota) if quota else cores
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "cpu_cores": cores,
        "cpu_quota": quota,
        # Fewer than 4 usable cores: the serving client and server
        # share them, and parallel speed-ups cannot show.
        "cpu_limited": usable < 4,
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------
# run context and setup clock
# ----------------------------------------------------------------------
@dataclass
class Context:
    root: Path
    workdir: Path
    workload: str
    seed: int
    seconds: float
    trace: bool
    #: perf_counter() when the process began importing ``repro``.
    t0: float
    #: the cores the run may use (the run itself is pinned to one)
    cpus: Tuple[int, ...] = ()
    setup_units: List[float] = field(default_factory=list)
    setup_units_raw: List[float] = field(default_factory=list)
    setup_end: Optional[float] = None
    setup_readings: int = 0
    clock: Optional[HostClock] = None
    segments: Optional[Segments] = None

    def use_clock(self, clock: Optional[HostClock] = None) -> Segments:
        """The run's clock and segment timer, made on first use."""
        if self.clock is None:
            self.clock = clock if clock is not None else HostClock()
        if self.segments is None:
            self.segments = Segments(self.clock)
        return self.segments

    @contextmanager
    def setup_unit(self, cuts: bool = True) -> Iterator[None]:
        """Time one repeated unit of set-up work (see :meth:`setup`)."""
        segments = self.use_clock()
        segments.begin(cuts)
        try:
            yield
        finally:
            raw, corrected = segments.end()
            self.setup_units_raw.append(raw)
            self.setup_units.append(corrected)

    def end_setup(self) -> None:
        self.use_clock()
        self.clock.setup_spent = self.clock.spent
        self.setup_readings = len(self.clock.readings)
        self.setup_end = time.perf_counter()

    def setup(self) -> Dict[str, Any]:
        """Set-up time, corrected and raw.

        Set-up is the import plus a few units of similar work (warm-up
        operations, cold builds, warm-up lints).  ``setup_s`` is the
        drift-corrected rest plus the units' count times the median of
        their drift-corrected times, so one unit caught by a burst of
        host contention does not move it.  ``setup_raw_s`` is the plain
        wall time, calibration readings excluded.
        """
        clock = self.clock
        raw = self.setup_end - self.t0 - clock.setup_spent
        rest = raw - sum(self.setup_units_raw)
        rest_factor = CAL_REF_S / median(clock.readings[:self.setup_readings])
        units = self.setup_units
        robust = rest * rest_factor + len(units) * median(units)
        return {"setup_s": robust, "setup_raw_s": raw,
                "setup_units_s": list(units),
                "setup_units_raw_s": list(self.setup_units_raw)}


@dataclass
class Outcome:
    """What a workload hands back to the runner."""

    attempted: int
    failed: int
    end_to_end: Dict[str, float]
    per_layer: Dict[str, float]
    record: Dict[str, Any] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)


def peak_rss_mb_self() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
