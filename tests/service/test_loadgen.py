"""The closed-loop load generator and the worker-labelled metrics."""

from __future__ import annotations

import pytest

from repro.service import ReproService, serve_in_thread
from repro.service.loadgen import (
    DEFAULT_MIX,
    LoadgenPlan,
    parse_mix,
    prepare_plan,
    run_loadgen,
)


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
