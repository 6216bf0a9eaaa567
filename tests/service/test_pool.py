"""Unit tests for :class:`repro.service.pool.ScenarioPool`.

These run against an injected builder/view factory, so the LRU,
single-flight, and failure semantics are tested in milliseconds without
building real scenarios (the end-to-end suite covers those).
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, List

import pytest

from repro.config import ScenarioConfig
from repro.service.pool import ScenarioPool, scenario_id


class DummyView:
    def __init__(self, scenario: Any):
        self.scenario = scenario


def make_pool(
    calls: List[int], capacity: int = 2, delay: float = 0.0, fail: bool = False
) -> ScenarioPool:
    def builder(config: ScenarioConfig, workers: int = 0, cache: Any = None):
        calls.append(config.seed)
        if delay:
            time.sleep(delay)
        if fail:
            raise RuntimeError(f"boom seed={config.seed}")
        return {"seed": config.seed}

    return ScenarioPool(
        capacity=capacity, builder=builder, view_factory=DummyView
    )


def test_scenario_id_is_canonical_fingerprint_prefix():
    config = ScenarioConfig.small(seed=3)
    assert scenario_id(config) == config.fingerprint()[:12]
    # Equal configs address the same pool slot.
    assert scenario_id(ScenarioConfig.small(seed=3)) == scenario_id(config)
    assert scenario_id(ScenarioConfig.small(seed=4)) != scenario_id(config)


def test_hit_returns_same_entry_without_rebuilding():
    calls: List[int] = []
    pool = make_pool(calls)

    async def scenario():
        first = await pool.get_or_build(ScenarioConfig.small(seed=3))
        second = await pool.get_or_build(ScenarioConfig.small(seed=3))
        return first, second

    first, second = asyncio.run(scenario())
    assert first is second
    assert calls == [3]
    assert pool.builds == 1
    assert pool.hits == 1
    assert pool.misses == 1
    asyncio.run(pool.aclose())


def test_concurrent_same_config_triggers_exactly_one_build():
    calls: List[int] = []
    pool = make_pool(calls, delay=0.2)

    async def scenario():
        config = ScenarioConfig.small(seed=5)
        entries = await asyncio.gather(
            *(pool.get_or_build(config) for _ in range(6))
        )
        return entries

    entries = asyncio.run(scenario())
    assert calls == [5]
    assert pool.builds == 1
    assert pool.coalesced == 5
    assert len({id(entry) for entry in entries}) == 1
    asyncio.run(pool.aclose())


def test_lru_eviction_at_capacity_one():
    calls: List[int] = []
    pool = make_pool(calls, capacity=1)

    async def scenario():
        first = await pool.get_or_build(ScenarioConfig.small(seed=1))
        second = await pool.get_or_build(ScenarioConfig.small(seed=2))
        return first, second

    first, second = asyncio.run(scenario())
    assert pool.evictions == 1
    assert len(pool) == 1
    assert first.scenario_id not in pool
    assert second.scenario_id in pool
    assert pool.latest() is second
    asyncio.run(pool.aclose())


def test_lru_recency_decides_the_victim():
    calls: List[int] = []
    pool = make_pool(calls, capacity=2)

    async def scenario():
        a = await pool.get_or_build(ScenarioConfig.small(seed=1))
        await pool.get_or_build(ScenarioConfig.small(seed=2))
        # Touch the older entry, then admit a third: seed=2 must go.
        assert pool.get(a.scenario_id) is a
        await pool.get_or_build(ScenarioConfig.small(seed=3))
        return a

    a = asyncio.run(scenario())
    assert a.scenario_id in pool
    assert scenario_id(ScenarioConfig.small(seed=2)) not in pool
    assert scenario_id(ScenarioConfig.small(seed=3)) in pool
    asyncio.run(pool.aclose())


def test_failed_build_propagates_and_does_not_poison_the_pool():
    calls: List[int] = []
    pool = make_pool(calls, fail=True, delay=0.05)

    async def failing():
        config = ScenarioConfig.small(seed=9)
        results = await asyncio.gather(
            pool.get_or_build(config),
            pool.get_or_build(config),
            return_exceptions=True,
        )
        return results

    results = asyncio.run(failing())
    assert all(isinstance(result, RuntimeError) for result in results)
    assert calls == [9]  # the waiters shared the one failed build
    assert len(pool) == 0
    assert pool.builds_in_progress == 0

    # The failure is not cached: the next request builds again.
    async def retry():
        with pytest.raises(RuntimeError):
            await pool.get_or_build(ScenarioConfig.small(seed=9))

    asyncio.run(retry())
    assert calls == [9, 9]
    asyncio.run(pool.aclose())


def test_unknown_id_lookup_counts_a_miss():
    calls: List[int] = []
    pool = make_pool(calls)
    assert pool.get("does-not-exist") is None
    assert pool.misses == 1
    assert pool.latest() is None
    asyncio.run(pool.aclose())


def test_aclose_cancels_and_reaps_in_flight_builds():
    calls: List[int] = []
    pool = make_pool(calls, delay=0.3)

    async def scenario():
        waiter = asyncio.ensure_future(
            pool.get_or_build(ScenarioConfig.small(seed=9))
        )
        while pool.builds_in_progress == 0:
            await asyncio.sleep(0.01)
        await pool.aclose()
        assert pool.builds_in_progress == 0, "aclose must reap _building"
        with pytest.raises(asyncio.CancelledError):
            await waiter
        # The executor has been joined: no build thread outlives aclose,
        # so admission after shutdown cannot happen behind our back.
        assert len(pool) == 0

    asyncio.run(scenario())


def test_aclose_idles_cleanly_with_nothing_in_flight():
    pool = make_pool([])

    async def scenario():
        await pool.aclose()
        await pool.aclose()  # idempotent

    asyncio.run(scenario())
