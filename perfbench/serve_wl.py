"""The ``serve_mix`` workload: relationship queries against the service.

Set-up starts one ``repro serve`` worker in a subprocess on a fresh
cache root, waits for its ``listening on`` banner, and admits three
mid-scale scenarios through ``POST /v1/scenarios`` with all three
algorithms (three cold builds in the server).  The table and bias
reports are primed so the timed phase builds nothing.

The timed phase is a closed loop over two keep-alive connections: mostly
``GET /v1/rel/{algo}/{a}/{b}``, a minority of ``:batch`` (256 links),
``/v1/as/{asn}/neighbors`` and ``/v1/table|bias/{algo}``.  Afterwards
every distinct response body is checked against answers computed in
this process from the run's cache, and the server's per-route counts
against the client's.
"""

from __future__ import annotations

import json
import os
import random
import selectors
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from common import (CAL_REF_S, MID_ASES, MID_VPS, Context, HostClock, Outcome,
                    median, mid_config, percentile)
from httpclient import LoopStats, Prepared, closed_loop, encode_request, request
from spans import Span, Tracer

ALGORITHMS = ("asrank", "problink", "toposcope")
#: The scenarios every run admits and queries.
SERVE_SEEDS = (7001, 7002, 7003)
CONNECTIONS = 2
BATCH_LINKS = 256
#: Request mix: kind -> share of the distinct-request pool.
MIX = (("rel", 0.80), ("neighbors", 0.12), ("batch", 0.04), ("table", 0.04))
POOL_REQUESTS = 1200
#: Traced runs alternate traced and untraced segments of this length.
TRACE_SEGMENT_S = 0.5
#: The timed phase runs in slices of this length, each followed by a
#: calibration reading; the run reports medians over slices.
SLICE_S = 0.5

REL_NAMES = {"P2C": "p2c", "P2P": "p2p", "S2S": "s2s"}


# ----------------------------------------------------------------------
# the server subprocess
# ----------------------------------------------------------------------
def _server_child(cpu: int) -> None:
    """In the server child: run on ``cpu`` only, and get SIGTERM if the
    benchmark process dies."""
    os.sched_setaffinity(0, {cpu})
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass


class Server:
    def __init__(self, ctx: Context, cache_root: Path, cpu: int):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ctx.root / "src")
        self.stderr = open(ctx.workdir / "server.stderr", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--pool-size", str(len(SERVE_SEEDS) + 1), "--cache",
             "--cache-dir", str(cache_root)],
            stdout=subprocess.PIPE, stderr=self.stderr, env=env,
            cwd=str(ctx.workdir), preexec_fn=lambda: _server_child(cpu))
        self.host, self.port = self._await_banner(timeout=120.0)

    def _await_banner(self, timeout: float) -> Tuple[str, int]:
        """Block until the server prints ``listening on http://h:p``."""
        selector = selectors.DefaultSelector()
        selector.register(self.proc.stdout, selectors.EVENT_READ)
        deadline = time.monotonic() + timeout
        buf = b""
        try:
            while time.monotonic() < deadline:
                if not selector.select(timeout=deadline - time.monotonic()):
                    break
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    break
                buf += chunk
                for line in buf.decode("utf-8", "replace").splitlines():
                    if "listening on http://" in line:
                        address = line.rsplit("http://", 1)[1].strip()
                        host, _, port = address.rpartition(":")
                        return host, int(port)
        finally:
            selector.close()
        self.stop()
        raise RuntimeError(f"server did not announce itself: {buf[-500:]!r}")

    def cpu_seconds(self) -> float:
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        ticks = os.sysconf("SC_CLK_TCK")
        return (int(fields[11]) + int(fields[12])) / ticks

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=20)
        self.proc.stdout.close()
        self.stderr.close()


# ----------------------------------------------------------------------
# expected answers, computed in this process from the run's cache
# ----------------------------------------------------------------------
class Oracle:
    """Answers for one admitted scenario, from the pipeline's own API."""

    def __init__(self, scenario, scenario_id: str):
        self.scenario = scenario
        self.sid = scenario_id
        corpus = scenario.corpus
        self.links = list(corpus.visible_links())
        self.visible = set(self.links)
        neighbors: Dict[int, List[int]] = {}
        for a, b in self.links:
            neighbors.setdefault(a, []).append(b)
            neighbors.setdefault(b, []).append(a)
        self.neighbors = {asn: sorted(v) for asn, v in neighbors.items()}
        self.rels = {algo: scenario.infer(algo) for algo in ALGORITHMS}
        self.regional = scenario.regional_classifier()
        self.topological = scenario.topological_classifier()

    def link(self, algo: str, a: int, b: int) -> Dict[str, Any]:
        key = (min(a, b), max(a, b))
        rels = self.rels[algo]
        rel = rels.rel_of(*key)
        validated = self.scenario.validation.rels.get(key)
        return {
            "as1": key[0], "as2": key[1], "algorithm": algo,
            "relationship": REL_NAMES[rel.name] if rel is not None else None,
            "provider": (rels.provider_of(*key)
                         if rel is not None and rel.name == "P2C" else None),
            "validation": ({"relationship": REL_NAMES[validated[0].name],
                            "provider": validated[1]} if validated else None),
            "classes": {"regional": self.regional.classify(key),
                        "topological": self.topological.classify(key)},
            "visibility": self.scenario.corpus.link_visibility(key),
        }

    def rel_body(self, algo: str, a: int, b: int) -> Dict[str, Any]:
        return {**self.link(algo, a, b), "scenario": self.sid}

    def batch_body(self, algo: str, pairs: List[List[int]]) -> Dict[str, Any]:
        results = []
        unknown = 0
        for a, b in pairs:
            key = (min(a, b), max(a, b))
            if key in self.visible:
                results.append({**self.link(algo, a, b), "visible": True})
            else:
                unknown += 1
                results.append({
                    "as1": key[0], "as2": key[1], "algorithm": algo,
                    "relationship": None, "provider": None,
                    "validation": None,
                    "classes": {"regional": None, "topological": None},
                    "visibility": 0, "visible": False})
        return {"scenario": self.sid, "algorithm": algo,
                "count": len(results), "n_unknown": unknown,
                "results": results}

    def neighbors_body(self, asn: int) -> Dict[str, Any]:
        neighbors = self.neighbors[asn]
        return {"asn": asn, "neighbors": neighbors, "degree": len(neighbors),
                "transit_degree": self.scenario.corpus.transit_degree(asn),
                "scenario": self.sid}

    def table_body(self, algo: str) -> Dict[str, Any]:
        from repro.analysis.export import table_dict

        return {"scenario": self.sid, "algorithm": algo,
                "table": table_dict(self.scenario.validation_table(algo))}

    def bias_body(self, algo: str) -> Dict[str, Any]:
        from repro.analysis.export import profile_rows

        regional = self.scenario.regional_bias()
        topological = self.scenario.topological_bias()
        return {
            "scenario": self.sid, "algorithm": algo,
            "regional": profile_rows(regional),
            "topological": profile_rows(topological),
            "coverage_spread": {
                "regional": round(regional.coverage_spread(), 6),
                "topological": round(topological.coverage_spread(), 6)},
            "mismatch_classes": {
                "regional": [c.class_name for c in regional.mismatch_classes()],
                "topological": [c.class_name
                                for c in topological.mismatch_classes()]},
        }


def build_requests(rng: random.Random, oracles: List[Oracle], host: str
                   ) -> Tuple[List[Prepared], List[Tuple[str, tuple]]]:
    """The distinct-request pool and, per request, how to answer it."""
    prepared: List[Prepared] = []
    answers: List[Tuple[str, tuple]] = []
    # Exact shares, in a seeded order: the mix is the same in every run.
    kinds = [kind for kind, share in MIX
             for _ in range(round(share * POOL_REQUESTS))]
    rng.shuffle(kinds)
    for kind in kinds:
        oracle = rng.choice(oracles)
        query = f"?scenario={oracle.sid}"
        algo = rng.choice(ALGORITHMS)
        if kind == "rel":
            a, b = rng.choice(oracle.links)
            if rng.random() < 0.5:
                a, b = b, a
            route = "GET /v1/rel/{algorithm}/{as1}/{as2}"
            wire = encode_request("GET", f"/v1/rel/{algo}/{a}/{b}{query}",
                                  host)
            answer = ("rel_body", (algo, a, b))
        elif kind == "neighbors":
            asn = rng.choice(sorted(oracle.neighbors))
            route = "GET /v1/as/{asn}/neighbors"
            wire = encode_request("GET", f"/v1/as/{asn}/neighbors{query}",
                                  host)
            answer = ("neighbors_body", (asn,))
        elif kind == "batch":
            pairs = []
            for _ in range(BATCH_LINKS):
                if rng.random() < 0.9:
                    a, b = rng.choice(oracle.links)
                else:  # a pair never observed in paths
                    a, b = rng.sample(sorted(oracle.neighbors), 2)
                pairs.append([a, b] if rng.random() < 0.5 else [b, a])
            route = "POST /v1/rel/{algorithm}:batch"
            wire = encode_request("POST", f"/v1/rel/{algo}:batch{query}",
                                  host, {"links": pairs})
            answer = ("batch_body", (algo, pairs))
        else:
            report = rng.choice(("table", "bias"))
            route = f"GET /v1/{report}/{{algorithm}}"
            wire = encode_request("GET", f"/v1/{report}/{algo}{query}", host)
            answer = (f"{report}_body", (algo,))
        prepared.append((kind, route, wire))
        answers.append((oracle.sid, answer))
    return prepared, answers


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
def body_errors(bodies: Dict[int, Dict[bytes, list]],
                answers: List[Tuple[str, tuple]], oracles: Dict[str, Any]
                ) -> Tuple[List[str], int]:
    """Check every status-200 response against the oracle's answer.

    Returns one error per distinct request with a wrong response, and
    the number of wrong responses.  A response is wrong if its body
    differs from the pipeline's answer, or if it is not the body the
    request was most often answered with (one request, one answer).
    """
    errors, wrong_total = [], 0
    for index, seen in sorted(bodies.items()):
        sid, (method, args) = answers[index]
        want = json.loads(json.dumps(getattr(oracles[sid], method)(*args)))
        ordered = sorted(seen.values(), key=lambda v: -v[0])
        wrong = sum(count for rank, (count, body) in enumerate(ordered)
                    if rank > 0 or json.loads(body) != want)
        if wrong:
            served = sum(count for count, _ in ordered)
            errors.append(f"request {index} ({method}{args[:1]}): {wrong} "
                          f"of {served} responses differ from the "
                          f"pipeline's answer")
        wrong_total += wrong
    return errors, wrong_total


def run_serve_mix(ctx: Context) -> Outcome:
    from repro import build_scenario
    from repro.pipeline.cache import ArtifactCache

    cache_root = ctx.workdir / "cache"
    # The server and this process (the client) each get a fixed core of
    # their own, so the client's work does not dilute the server's, and
    # neither can land differently from run to run.  Calibration
    # readings are taken on the server's core, which does the measured
    # work, and only while the server is idle: at the two ends of each
    # admission (a cut in the middle would slow the build it measures;
    # the other core's speed does not track this one's), and between
    # slices of the timed loop.  With a single core both share it.
    server_cpu, client_cpu = ctx.cpus[0], ctx.cpus[-1]
    server = Server(ctx, cache_root, server_cpu)
    os.sched_setaffinity(0, {client_cpu})
    ctx.use_clock(HostClock(cpu=server_cpu))
    try:
        host, port = server.host, server.port
        # Fixed scenarios, like reanalyze_warm: heavy requests cost in
        # proportion to a scenario's size, so seed-drawn scenarios would
        # move the figures with the draw.  The seed draws the requests.
        configs = [mid_config(seed) for seed in SERVE_SEEDS]
        admitted = []
        for config in configs:
            body = {"preset": "small", "seed": config.seed, "ases": MID_ASES,
                    "vps": MID_VPS, "algorithms": list(ALGORITHMS)}
            start = time.perf_counter()
            with ctx.setup_unit(cuts=False):
                status, payload = request(host, port, "POST",
                                          "/v1/scenarios", body)
            if status != 201:
                raise RuntimeError(f"admission failed: {status} {payload}")
            admitted.append((time.perf_counter() - start,
                             payload["build_seconds"], payload["scenario"]))
        # Prime the memoised reports so the timed phase builds nothing.
        for _, _, sid in admitted:
            for algo in ALGORITHMS:
                for report in ("table", "bias"):
                    request(host, port, "GET",
                            f"/v1/{report}/{algo}?scenario={sid}")
        oracles = [
            Oracle(build_scenario(config, cache=ArtifactCache(root=cache_root)),
                   sid)
            for config, (_, _, sid) in zip(configs, admitted)]
        rng = random.Random(f"serve_mix:{ctx.seed}")
        prepared, answers = build_requests(rng, oracles, f"{host}:{port}")
        # Every request of the pool in turn, so each kind is served in
        # its exact share.
        order = list(range(len(prepared)))
        _, before = request(host, port, "GET", "/metrics")
        cpu_before = server.cpu_seconds()
        ctx.end_setup()

        tracer = Tracer() if ctx.trace else None
        ctx.clock.factor()  # a fresh reading opens the first slice
        loop_start = time.perf_counter()

        def traced_at(t: float) -> bool:
            if tracer is None:
                return False
            return int((t - loop_start) / TRACE_SEGMENT_S) % 2 == 0

        def on_span(kind: str, start: float, end: float) -> None:
            span = Span(f"service.{kind}", start, None)
            span.end = end
            tracer.spans.append(span)

        if tracer is not None:
            tracer.begin_op(True)
        stats = LoopStats()
        # (requests, wall seconds, drift-correction factor) per slice
        slices: List[Tuple[int, float, float]] = []
        factors: List[float] = []  # per completed request
        client_cpu_s = 0.0
        deadline = loop_start + ctx.seconds
        while time.perf_counter() < deadline:
            done, wall = len(stats.samples), stats.wall_s
            cpu_start = time.process_time()
            closed_loop(host, port, prepared, order,
                        min(SLICE_S, deadline - time.perf_counter()),
                        CONNECTIONS, traced_at,
                        on_span if tracer is not None else None, stats)
            client_cpu_s += time.process_time() - cpu_start
            factor = ctx.clock.factor()
            count = len(stats.samples) - done
            slices.append((count, stats.wall_s - wall, factor))
            factors.extend([factor] * count)
        cpu_after = server.cpu_seconds()
        _, after = request(host, port, "GET", "/metrics")
        peak_rss = server.peak_rss_mb()
    finally:
        server.stop()

    errors = list(stats.errors)
    wrong_errors, wrong = body_errors(stats.bodies, answers,
                                      {o.sid: o for o in oracles})
    errors += wrong_errors
    # Failed operations: refused or broken requests, wrong bodies (one
    # per response), requests the server did not count or counted twice,
    # and indexes built while timed (requests that did set-up work).
    failed = stats.failed + wrong
    # The server's per-route counts must equal the client's.
    for route, count in sorted(stats.by_route.items()):
        served = (after["requests"]["by_route"].get(route, {}).get("count", 0)
                  - before["requests"]["by_route"].get(route, {}).get("count", 0))
        if served != count:
            errors.append(f"{route}: server counted {served}, client {count}")
            failed += abs(served - count)
    indexes_delta = after["indexes_built"] - before["indexes_built"]
    if indexes_delta:
        errors.append(f"{indexes_delta} indexes built during the timed phase")
        failed += indexes_delta
    failed = min(failed, stats.attempted)

    raw_latencies = [s[1] for s in stats.samples]
    latencies = [lat * f for lat, f in zip(raw_latencies, factors)]
    n = len(latencies)
    # Per-slice figures, drift-corrected by the slice's calibration
    # readings; the run reports their medians, so a slice caught by a
    # burst of host contention does not move it.  A short last slice is
    # left out.
    full, start = [], 0
    for count, wall, factor in slices:
        if wall >= SLICE_S / 2 and count:
            full.append((count / (wall * factor),
                         median(latencies[start:start + count])))
        start += count
    rps = median([r for r, _ in full])
    p50 = median([p for _, p in full])
    server_count = after["latency_ms"]["count"] - before["latency_ms"]["count"]
    server_sum = after["latency_ms"]["sum_ms"] - before["latency_ms"]["sum_ms"]
    setup = ctx.setup()
    end_to_end = {
        "setup_s": setup["setup_s"],
        "op_ms": p50 * 1000.0,
        "ops_per_s": rps,
        "peak_rss_mb": peak_rss,
    }
    per_layer: Dict[str, float] = {
        "serve_rps": rps,
        "serve_p50_ms": p50 * 1000.0,
        "serve_p99_ms": percentile(latencies, 99) * 1000.0,
        "serve_samples": float(n),
        "fail_share": failed / max(stats.attempted, 1),
        "service.client_mean_ms": sum(raw_latencies) / max(n, 1) * 1000.0,
        "service.server_mean_ms": server_sum / max(server_count, 1),
        "service.server_cpu_ms_per_req": (cpu_after - cpu_before) * 1000.0
        / max(n, 1),
        "service.client_cpu_ms_per_req": client_cpu_s * 1000.0 / max(n, 1),
        "service.admit_s": median(ctx.setup_units),
        "service.build_s": median([a[1] for a in admitted]),
        "service.indexes_built_delta": float(indexes_delta),
        "service.status_2xx": float(sum(c for s, c in stats.by_status.items()
                                        if 200 <= s < 300)),
        "service.status_other": float(sum(c for s, c in stats.by_status.items()
                                          if not 200 <= s < 300)),
        "service.reconnects": float(stats.reconnects),
        "serve_mix.untraced_s": max(stats.wall_s * CONNECTIONS
                                    - sum(raw_latencies), 0.0) / max(n, 1),
    }
    for kind, _ in MIX:
        values = [lat for lat, s in zip(latencies, stats.samples)
                  if s[0] == kind]
        per_layer[f"service.{kind}_p50_ms"] = median(values) * 1000.0
        # p99 only where at least ten samples lie beyond it
        if len(values) >= 1000:
            per_layer[f"service.{kind}_p99_ms"] = percentile(values, 99) * 1000.0
    if tracer is not None:
        traced = [lat for lat, s in zip(latencies, stats.samples) if s[2]]
        untraced = [lat for lat, s in zip(latencies, stats.samples)
                    if not s[2]]
        if traced and untraced:
            per_layer["trace.overhead_ratio"] = median(traced) / median(untraced)
    record = {
        **setup,
        "scenario_seeds": [c.seed for c in configs],
        "requests": {"attempted": stats.attempted,
                     "succeeded": stats.attempted - failed, "failed": failed,
                     "refused_or_broken": stats.failed, "wrong_body": wrong},
        "by_status": {str(k): v for k, v in sorted(stats.by_status.items())},
        "by_kind": {kind: sum(1 for s in stats.samples if s[0] == kind)
                    for kind, _ in MIX},
        "distinct_requests_checked": len(stats.bodies),
        "server_cpu": server_cpu,
        "client_cpu": client_cpu,
        "server_cpu_ms_per_req": (cpu_after - cpu_before) * 1000.0 / max(n, 1),
        "client_cpu_ms_per_req": client_cpu_s * 1000.0 / max(n, 1),
        "admit_wall_s": [a[0] for a in admitted],
        "admit_build_s": [a[1] for a in admitted],
        "connections": CONNECTIONS,
        "loop": "closed",
        "raw_p50_ms": median(raw_latencies) * 1000.0,
        "raw_rps": n / stats.wall_s,
        "slices": slices,
        "calibration_s": ctx.clock.readings,
        "calibration_ref_s": CAL_REF_S,
    }
    return Outcome(stats.attempted, failed, end_to_end, per_layer, record,
                   errors)
