"""The closed-loop load generator and the worker-labelled metrics."""

from __future__ import annotations

import pytest

from repro.service import ReproService, serve_in_thread
from repro.service.http import MAX_BODY_BYTES, ProtocolError
from repro.service.loadgen import (
    DEFAULT_MIX,
    LoadgenPlan,
    parse_mix,
    prepare_plan,
    run_loadgen,
)
from tests.service.stub_server import response


# ---------------------------------------------------------------------------
# mix parsing
# ---------------------------------------------------------------------------

def test_parse_mix():
    assert parse_mix("rel=4,batch=1") == {"rel": 4.0, "batch": 1.0}
    assert parse_mix("healthz") == {"healthz": 1.0}


@pytest.mark.parametrize("text", ["bogus=1", "rel=x", "rel=-1", "", "rel=0"])
def test_parse_mix_rejects(text):
    with pytest.raises(ValueError):
        parse_mix(text)


# ---------------------------------------------------------------------------
# a short real run
# ---------------------------------------------------------------------------

def test_loadgen_end_to_end():
    mix = dict(DEFAULT_MIX, healthz=1.0)
    service = ReproService(pool_size=1)
    with serve_in_thread(service) as live:
        plan = prepare_plan(
            "127.0.0.1", live.port,
            preset="small", seed=7, mix=mix,
            batch_size=16, n_links=32,
        )
        assert plan.links and plan.asns
        result = run_loadgen(plan, concurrency=3, duration_s=1.0)
    assert result.total_requests > 0
    assert result.errors == 0
    assert result.throughput_rps > 0
    # Every endpoint in the mix reported p50/p99.
    assert sorted(result.latency_ms) == sorted(mix)
    for stats in result.latency_ms.values():
        assert stats["count"] > 0
        assert stats["p50"] <= stats["p99"] <= stats["max"] + 1e-9


def test_loadgen_is_deterministic_in_request_streams():
    """Equal (seed, task) pairs draw identical endpoint sequences."""
    from repro.utils.rng import child_rng, weighted_choice

    plan_mix = dict(DEFAULT_MIX)
    names = sorted(plan_mix)
    weights = [plan_mix[name] for name in names]

    def stream(seed, index, n=50):
        rng = child_rng(seed, f"loadgen-task-{index}")
        return [weighted_choice(rng, names, weights) for _ in range(n)]

    assert stream(0, 1) == stream(0, 1)
    assert stream(0, 1) != stream(0, 2)  # independent per-task streams


def test_loadgen_validates_arguments():
    plan = LoadgenPlan(
        host="127.0.0.1", port=1, scenario="x", algorithm="asrank",
        links=[(1, 2)], asns=[1], mix=dict(DEFAULT_MIX),
        batch_size=4, seed=0,
    )
    with pytest.raises(ValueError):
        run_loadgen(plan, concurrency=0)
    with pytest.raises(ValueError):
        run_loadgen(plan, duration_s=0)


# ---------------------------------------------------------------------------
# worker-labelled metrics
# ---------------------------------------------------------------------------

def test_metrics_reports_worker_label():
    import os

    service = ReproService(pool_size=1)
    snapshot = service.metrics.snapshot(service.pool)
    assert snapshot["worker"] == {"index": 0, "pid": os.getpid()}
    service.metrics.worker_index = 3
    assert service.metrics.snapshot()["worker"]["index"] == 3
    service.pool.close()


# ---------------------------------------------------------------------------
# response framing against a stub server
# ---------------------------------------------------------------------------

def _healthz_plan(port: int) -> LoadgenPlan:
    return LoadgenPlan(
        host="127.0.0.1", port=port, scenario="x", algorithm="asrank",
        links=[(1, 2)], asns=[1], mix={"healthz": 1.0},
        batch_size=1, seed=0,
    )


def test_loadgen_reconnects_after_a_drop_mid_body(serve):
    body = b'{"status": "ok"}'

    def drop_first_mid_body(server, conn):
        if server.connections == 1:
            server.read_request(conn)
            conn.sendall(response(200, body)[:-5])
            return
        while server.read_request(conn):
            conn.sendall(response(200, body))

    server = serve(drop_first_mid_body)
    result = run_loadgen(_healthz_plan(server.port), concurrency=1,
                         duration_s=0.3)
    assert result.reconnects == 1
    assert result.errors == 0
    assert result.total_requests > 0
    assert server.connections == 2


@pytest.mark.parametrize("answer, match", [
    (b"HTTP/1.1 OK\r\n\r\n", "malformed status line"),
    (
        f"HTTP/1.1 200 OK\r\nContent-Length: {MAX_BODY_BYTES + 1}"
        "\r\n\r\n".encode(),
        "Content-Length out of range",
    ),
])
def test_loadgen_fails_on_a_malformed_response(serve, answer, match):
    def garble(server, conn):
        server.read_request(conn)
        conn.sendall(answer)

    server = serve(garble)
    with pytest.raises(ProtocolError, match=match):
        run_loadgen(_healthz_plan(server.port), concurrency=1,
                    duration_s=0.3)
