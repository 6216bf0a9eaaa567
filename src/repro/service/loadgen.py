"""Closed-loop async load generator for the repro query service.

``repro loadgen`` (or :func:`run_loadgen` programmatically) drives a
running service deterministically, with machine-readable output.
``concurrency`` tasks each hold one keep-alive connection and issue
requests back-to-back (closed loop: a task's next request starts when
its previous response finishes), drawing endpoints from a weighted mix
with a per-task :func:`~repro.utils.rng.child_rng` stream — two runs
with equal parameters issue the same request sequence.

The result records throughput plus per-endpoint p50/p99/max latency;
``repro loadgen`` prints it as JSON.

The **prepare** phase is synchronous and runs before timing starts: it
admits the target scenario through ``POST /v1/scenarios`` and harvests
a working set of real visible links/ASNs via neighbor expansion, so the
timed loop measures serving — not scenario building.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.service.client import ServiceClient
from repro.service.http import TruncatedMessage, read_response
from repro.utils.rng import child_rng, weighted_choice

#: Endpoints the mix may reference.
ENDPOINTS = ("rel", "batch", "neighbors", "healthz")

#: Default endpoint mix (weights, not percentages).
DEFAULT_MIX: Dict[str, float] = {"rel": 4.0, "batch": 1.0, "neighbors": 2.0}


def parse_mix(text: str) -> Dict[str, float]:
    """Parse ``"rel=4,batch=1"`` into an endpoint→weight dict."""
    mix: Dict[str, float] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, sep, raw = chunk.partition("=")
        name = name.strip()
        if name not in ENDPOINTS:
            raise ValueError(
                f"unknown endpoint {name!r} in mix "
                f"(accepted: {', '.join(ENDPOINTS)})"
            )
        try:
            weight = float(raw) if sep else 1.0
        except ValueError as exc:
            raise ValueError(f"bad weight for {name!r}: {raw!r}") from exc
        if weight < 0:
            raise ValueError(f"negative weight for {name!r}")
        mix[name] = weight
    if not mix or sum(mix.values()) <= 0:
        raise ValueError("endpoint mix must have at least one positive weight")
    return mix


@dataclass
class LoadgenPlan:
    """Everything the timed loop needs, fixed before timing starts."""

    host: str
    port: int
    scenario: str
    algorithm: str
    links: List[Tuple[int, int]]
    asns: List[int]
    mix: Dict[str, float]
    batch_size: int
    seed: int


@dataclass
class LoadgenResult:
    """One loadgen run's measurements."""

    duration_s: float
    concurrency: int
    total_requests: int
    errors: int
    reconnects: int
    throughput_rps: float
    mix: Dict[str, float]
    batch_size: int
    latency_ms: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "duration_s": round(self.duration_s, 3),
            "concurrency": self.concurrency,
            "total_requests": self.total_requests,
            "errors": self.errors,
            "reconnects": self.reconnects,
            "throughput_rps": round(self.throughput_rps, 2),
            "mix": self.mix,
            "batch_size": self.batch_size,
            "latency_ms": self.latency_ms,
        }


# ----------------------------------------------------------------------
# prepare phase (synchronous, untimed)
# ----------------------------------------------------------------------
def prepare_plan(
    host: str,
    port: int,
    preset: str = "small",
    seed: int = 7,
    ases: Optional[int] = None,
    vps: Optional[int] = None,
    algorithm: str = "asrank",
    mix: Optional[Dict[str, float]] = None,
    batch_size: int = 256,
    n_links: int = 256,
    loadgen_seed: int = 0,
) -> LoadgenPlan:
    """Admit the scenario and harvest a link/ASN working set."""
    with ServiceClient(host, port, timeout=600.0) as client:
        admitted = client.build_scenario(
            preset=preset, seed=seed, ases=ases, vps=vps,
            algorithms=[algorithm],
        )
        sid = admitted["scenario"]
        links = {tuple(link) for link in admitted["sample_links"]}
        frontier = sorted({asn for link in links for asn in link})
        seen_asns = set(frontier)
        # Breadth-first neighbor expansion until the working set is big
        # enough; every link here is genuinely visible in the corpus.
        while frontier and len(links) < max(n_links, batch_size):
            asn = frontier.pop(0)
            payload = client.neighbors(asn, scenario=sid)
            for neighbor in payload["neighbors"]:
                links.add((min(asn, neighbor), max(asn, neighbor)))
                if neighbor not in seen_asns:
                    seen_asns.add(neighbor)
                    frontier.append(neighbor)
            if len(links) >= max(n_links, batch_size):
                break
    return LoadgenPlan(
        host=host,
        port=port,
        scenario=sid,
        algorithm=algorithm,
        links=sorted(links),
        asns=sorted(seen_asns),
        mix=dict(mix or DEFAULT_MIX),
        batch_size=batch_size,
        seed=loadgen_seed,
    )


# ----------------------------------------------------------------------
# the timed loop (async; responses framed by repro.service.http)
# ----------------------------------------------------------------------
def _request_bytes(plan: LoadgenPlan, name: str, rng: Any) -> bytes:
    sid = plan.scenario
    if name == "rel":
        a, b = plan.links[int(rng.integers(0, len(plan.links)))]
        path = f"/v1/rel/{plan.algorithm}/{a}/{b}?scenario={sid}"
        return (
            f"GET {path} HTTP/1.1\r\nHost: {plan.host}\r\n\r\n"
        ).encode("latin-1")
    if name == "batch":
        indices = rng.integers(0, len(plan.links), size=plan.batch_size)
        body = json.dumps(
            {"links": [list(plan.links[int(i)]) for i in indices]}
        ).encode("utf-8")
        path = f"/v1/rel/{plan.algorithm}:batch?scenario={sid}"
        head = (
            f"POST {path} HTTP/1.1\r\nHost: {plan.host}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        return head + body
    if name == "neighbors":
        asn = plan.asns[int(rng.integers(0, len(plan.asns)))]
        path = f"/v1/as/{asn}/neighbors?scenario={sid}"
        return (
            f"GET {path} HTTP/1.1\r\nHost: {plan.host}\r\n\r\n"
        ).encode("latin-1")
    if name == "healthz":
        return (
            f"GET /healthz HTTP/1.1\r\nHost: {plan.host}\r\n\r\n"
        ).encode("latin-1")
    raise ValueError(f"unknown endpoint {name!r}")


async def _task_loop(
    plan: LoadgenPlan,
    index: int,
    deadline: float,
    samples: List[Tuple[str, float, int]],
    counters: Dict[str, int],
) -> None:
    rng = child_rng(plan.seed, f"loadgen-task-{index}")
    names = sorted(plan.mix)
    weights = [plan.mix[name] for name in names]
    reader = writer = None
    try:
        while time.monotonic() < deadline:
            if writer is None:
                reader, writer = await asyncio.open_connection(
                    plan.host, plan.port
                )
            name = weighted_choice(rng, names, weights)
            request = _request_bytes(plan, name, rng)
            started = time.monotonic()
            try:
                writer.write(request)
                await writer.drain()
                response = await read_response(reader)
            except (ConnectionResetError, BrokenPipeError, TruncatedMessage):
                response = None
            if response is None:
                # A worker restart (or idle drop) killed the
                # connection; reconnect and keep going.
                counters["reconnects"] += 1
                writer.close()
                with contextlib.suppress(Exception):
                    await writer.wait_closed()
                writer = None
                continue
            elapsed_ms = (time.monotonic() - started) * 1000.0
            status = response[0]
            samples.append((name, elapsed_ms, status))
            if status >= 400:
                counters["errors"] += 1
    finally:
        if writer is not None:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()


async def _run_tasks(
    plan: LoadgenPlan, concurrency: int, duration_s: float
) -> Tuple[List[Tuple[str, float, int]], Dict[str, int], float]:
    samples: List[Tuple[str, float, int]] = []
    counters = {"errors": 0, "reconnects": 0}
    started = time.monotonic()
    deadline = started + duration_s
    outcomes = await asyncio.gather(
        *(
            _task_loop(plan, index, deadline, samples, counters)
            for index in range(concurrency)
        ),
        return_exceptions=True,
    )
    for outcome in outcomes:
        if isinstance(outcome, BaseException):
            raise outcome
    return samples, counters, time.monotonic() - started


def _summarise(
    samples: Sequence[Tuple[str, float, int]],
    counters: Dict[str, int],
    elapsed_s: float,
    plan: LoadgenPlan,
    concurrency: int,
) -> LoadgenResult:
    by_endpoint: Dict[str, List[float]] = {}
    for name, elapsed_ms, _status in samples:
        by_endpoint.setdefault(name, []).append(elapsed_ms)
    latency = {}
    for name, values in sorted(by_endpoint.items()):
        arr = np.asarray(values, dtype=float)
        latency[name] = {
            "count": int(arr.size),
            "p50": round(float(np.percentile(arr, 50)), 3),
            "p99": round(float(np.percentile(arr, 99)), 3),
            "mean": round(float(arr.mean()), 3),
            "max": round(float(arr.max()), 3),
        }
    return LoadgenResult(
        duration_s=elapsed_s,
        concurrency=concurrency,
        total_requests=len(samples),
        errors=counters["errors"],
        reconnects=counters["reconnects"],
        throughput_rps=len(samples) / elapsed_s if elapsed_s > 0 else 0.0,
        mix=dict(plan.mix),
        batch_size=plan.batch_size,
        latency_ms=latency,
    )


def run_loadgen(
    plan: LoadgenPlan, concurrency: int = 8, duration_s: float = 5.0
) -> LoadgenResult:
    """Run the closed loop against a live service and summarise it."""
    if concurrency < 1:
        raise ValueError("concurrency must be at least 1")
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    samples, counters, elapsed_s = asyncio.run(
        _run_tasks(plan, concurrency, duration_s)
    )
    return _summarise(samples, counters, elapsed_s, plan, concurrency)

