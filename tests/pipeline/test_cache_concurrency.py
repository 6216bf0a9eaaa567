"""Concurrency and crash safety of the artifact cache.

The invariant under test (see the ``cache.py`` module docstring):
**every fault — a crashed writer, a full disk, a concurrent deleter —
degrades to a recorded miss plus a recompute, never a crash or a wrong
artifact.**  Three layers of evidence:

* the full fault-injection matrix of :mod:`repro.testing.faults`, one
  parametrised case per (operation, kind) injection point, over the
  corpus artifact and again over the topology document;
* advisory :class:`~repro.pipeline.locks.EntryLock` semantics — mutual
  exclusion, timeout degradation, stale-lock recovery — plus the
  in-process proof that concurrent cold builds of one key single-flight;
* a multi-process stress test hammering one scenario key from
  concurrent writers, readers, fault-injected writers, and a clearer,
  asserting zero exceptions and byte-identical final artifacts.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import subprocess
import sys
import threading
import traceback
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache
from pathlib import Path
from typing import List, Tuple

import pytest

import repro.scenario as scenario_module
from repro.config import ScenarioConfig
from repro.datasets.bgpdump import write_path_corpus
from repro.datasets.paths import CollectedRoute, PathCorpus
from repro.pipeline.cache import ArtifactCache
from repro.pipeline.locks import EntryLock, is_locked, lock_path
from repro.scenario import build_scenario
from repro.topology.generator import generate_topology
from repro.testing.faults import (
    INJECTION_MATRIX,
    Fault,
    FaultyFilesystem,
    InjectedCrash,
    full_fault_matrix,
    seeded_fault_plan,
)
from tests.topology.topology_fields import first_difference

#: Operations exercised by the store path vs the load path.
_WRITE_OPS = frozenset({"write_text", "run_writer", "replace"})


def _canonical_corpus() -> PathCorpus:
    """A tiny, fully deterministic corpus (no scenario build needed)."""
    corpus = PathCorpus()
    for path in ((10, 20, 30), (10, 20, 40), (11, 20, 30), (11, 40, 50)):
        corpus.add_route(CollectedRoute(
            vp=path[0], origin=path[-1], path=path,
            communities=((path[1], 100),),
        ))
    return corpus


def _corpus_bytes(corpus: PathCorpus, path: Path) -> bytes:
    write_path_corpus(corpus, path)
    return path.read_bytes()


def _tiny_topology_config() -> ScenarioConfig:
    config = ScenarioConfig.small(seed=3)
    config.topology.n_ases = 160
    return config


@lru_cache(maxsize=None)
def _generated_topology():
    return generate_topology(_tiny_topology_config())


def _assert_same_topology(got, want) -> None:
    difference = first_difference(got, want)
    assert difference is None, difference


def _topology_faults() -> List[Fault]:
    """The fault matrix aimed at the topology document.

    The document is published as text, never through a writer
    callback, so ``run_writer`` has no topology injection point; a
    ``read_text`` fault hits the entry's ``meta.json``, the only file a
    topology load reads through ``read_text``.
    """
    return [
        Fault(
            op=fault.op,
            kind=fault.kind,
            path_substring="meta.json" if fault.op == "read_text"
            else "topology.json",
        )
        for fault in full_fault_matrix()
        if fault.op != "run_writer"
    ]


# ---------------------------------------------------------------------------
# the fault-injection matrix
# ---------------------------------------------------------------------------

class TestFaultMatrix:
    @pytest.mark.parametrize(
        "fault", full_fault_matrix(), ids=lambda f: f"{f.op}-{f.kind}"
    )
    def test_every_fault_degrades_to_miss_plus_recompute(
        self, fault: Fault, tmp_path
    ):
        config = ScenarioConfig.small(seed=3)
        corpus = _canonical_corpus()
        ref = _corpus_bytes(corpus, tmp_path / "ref.paths")
        root = tmp_path / "cache"
        fs = FaultyFilesystem([fault])
        faulty = ArtifactCache(root=root, fs=fs)
        key = faulty.scenario_key(config)

        if fault.op in _WRITE_OPS:
            # Store under fault.  A crash/partial aborts the caller like
            # process death; ENOSPC must be swallowed (degrade, not die).
            try:
                faulty.store_corpus(key, corpus, config)
            except InjectedCrash:
                pass
            if fault.kind == "enospc":
                assert faulty.store_errors >= 1
        else:
            # Read-side faults: publish cleanly first, then load through
            # the faulty filesystem.
            ArtifactCache(root=root).store_corpus(key, corpus, config)
            if fault.op == "stat_size":
                records = faulty.entries()  # concurrent clear vs list
                assert isinstance(records, list)  # and above all: no raise
            else:
                loaded = faulty.load_corpus(key)
                if loaded is not None:
                    # Never a wrong artifact: anything served is exact.
                    got = _corpus_bytes(loaded, tmp_path / "got.paths")
                    assert got == ref
                if fault.op == "run_reader" and fault.kind == "flicker":
                    # Transient vanish: retry-once must recover the hit.
                    assert loaded is not None
                    assert faulty.read_retries == 1

        assert fs.injected, "the armed fault never fired"

        # Inspection never crashes, whatever residue the fault left.
        residue = ArtifactCache(root=root).entries()
        assert isinstance(residue, list)

        # Recovery: a fresh process sees a miss (or the intact artifact),
        # recomputes, and ends byte-identical to the reference.
        clean = ArtifactCache(root=root)
        recovered = clean.load_corpus(key)
        if recovered is None:
            clean.store_corpus(key, corpus, config)
            recovered = clean.load_corpus(key)
        assert recovered is not None
        assert _corpus_bytes(recovered, tmp_path / "out.paths") == ref

    @pytest.mark.parametrize(
        "fault", _topology_faults(), ids=lambda f: f"{f.op}-{f.kind}"
    )
    def test_every_topology_fault_degrades_to_miss_plus_regeneration(
        self, fault: Fault, tmp_path
    ):
        config = _tiny_topology_config()
        topology = _generated_topology()
        root = tmp_path / "cache"
        fs = FaultyFilesystem([fault])
        faulty = ArtifactCache(root=root, fs=fs)
        key = faulty.scenario_key(config)

        if fault.op in _WRITE_OPS:
            try:
                faulty.store_topology(key, topology, config)
            except InjectedCrash:
                pass
            if fault.kind == "enospc":
                assert faulty.store_errors >= 1
        else:
            ArtifactCache(root=root).store_topology(key, topology, config)
            if fault.op == "stat_size":
                assert isinstance(faulty.entries(), list)
            else:
                loaded = faulty.load_topology(key)
                if loaded is not None:
                    _assert_same_topology(loaded, topology)
                if fault.op == "run_reader" and fault.kind == "flicker":
                    assert loaded is not None
                    assert faulty.read_retries == 1

        assert fs.injected, "the armed fault never fired"
        assert isinstance(ArtifactCache(root=root).entries(), list)

        # Recovery: a miss regenerates and stores, then a load serves
        # a topology identical to the generated one.
        clean = ArtifactCache(root=root)
        recovered = clean.load_topology(key)
        if recovered is None:
            clean.store_topology(key, generate_topology(config), config)
            recovered = clean.load_topology(key)
        assert recovered is not None
        _assert_same_topology(recovered, topology)

    def test_crashed_writer_leaves_only_a_visible_straggler(self, tmp_path):
        config = ScenarioConfig.small(seed=3)
        corpus = _canonical_corpus()
        fs = FaultyFilesystem(
            [Fault(op="run_writer", kind="partial", path_substring="corpus")]
        )
        cache = ArtifactCache(root=tmp_path, fs=fs)
        key = cache.scenario_key(config)
        with pytest.raises(InjectedCrash):
            cache.store_corpus(key, corpus, config)
        (record,) = ArtifactCache(root=tmp_path).entries()
        assert record["stragglers"] == 1
        assert "corpus.npc" not in record["files"]  # half-writes unpublished

    def test_seeded_fault_plan_is_deterministic(self):
        assert seeded_fault_plan(42, n_faults=5) == seeded_fault_plan(
            42, n_faults=5
        )
        for fault in seeded_fault_plan(7, n_faults=10):
            assert fault.kind in INJECTION_MATRIX[fault.op]

    def test_fault_validates_injection_point(self):
        with pytest.raises(ValueError):
            Fault(op="replace", kind="partial")  # rename is atomic
        with pytest.raises(ValueError):
            Fault(op="no_such_op", kind="crash")


# ---------------------------------------------------------------------------
# advisory entry locks
# ---------------------------------------------------------------------------

class TestEntryLock:
    def test_mutual_exclusion_and_probe(self, tmp_path):
        a = EntryLock(tmp_path, "k1", timeout=5.0)
        b = EntryLock(tmp_path, "k1", timeout=0.2, poll_interval=0.02)
        assert a.acquire()
        assert is_locked(tmp_path, "k1")
        assert not b.acquire(), "second holder must time out, not deadlock"
        a.release()
        assert not is_locked(tmp_path, "k1")
        assert b.acquire()
        b.release()

    def test_distinct_entries_do_not_contend(self, tmp_path):
        a = EntryLock(tmp_path, "k1", timeout=1.0)
        b = EntryLock(tmp_path, "k2", timeout=1.0)
        assert a.acquire() and b.acquire()
        a.release()
        b.release()

    def test_context_manager_records_outcome(self, tmp_path):
        with EntryLock(tmp_path, "k", timeout=1.0) as lock:
            assert lock.acquired
            # A second taker inside the window degrades, not raises.
            with EntryLock(
                tmp_path, "k", timeout=0.1, poll_interval=0.02
            ) as loser:
                assert not loser.acquired
        assert not is_locked(tmp_path, "k")

    def test_fallback_breaks_unparsable_stale_lock(self, tmp_path):
        path = lock_path(tmp_path, "k")
        path.parent.mkdir(parents=True)
        path.write_text("not-a-pid\n", encoding="ascii")
        lock = EntryLock(
            tmp_path, "k", timeout=2.0, poll_interval=0.01, use_fcntl=False
        )
        assert lock.acquire(), "a pid-less lock file is stale by definition"
        lock.release()
        assert not path.exists()

    def test_fallback_breaks_dead_owner_lock(self, tmp_path):
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait(timeout=60)
        path = lock_path(tmp_path, "k")
        path.parent.mkdir(parents=True)
        path.write_text(f"{proc.pid}\n", encoding="ascii")
        lock = EntryLock(
            tmp_path, "k", timeout=2.0, poll_interval=0.01, use_fcntl=False
        )
        assert lock.acquire(), "a dead owner's lock must be recovered"
        lock.release()

    def test_fallback_respects_live_owner(self, tmp_path):
        path = lock_path(tmp_path, "k")
        path.parent.mkdir(parents=True)
        path.write_text(f"{_my_pid()}\n", encoding="ascii")
        lock = EntryLock(
            tmp_path, "k", timeout=0.15, poll_interval=0.02, use_fcntl=False
        )
        assert not lock.acquire()
        assert path.exists(), "a fresh live-owner lock must not be broken"

    def test_clear_sweeps_unheld_locks_only(self, tmp_path):
        cache = ArtifactCache(root=tmp_path)
        config = ScenarioConfig.small(seed=3)
        key = cache.scenario_key(config)
        cache.store_corpus(key, _canonical_corpus(), config)
        held = cache.entry_lock(key)
        assert held.acquire()
        stale = lock_path(tmp_path, "dead0000000000000000")
        stale.parent.mkdir(parents=True, exist_ok=True)
        stale.write_text("", encoding="ascii")
        assert cache.clear() == 1
        assert not stale.exists(), "unheld lock files are swept"
        assert held.path.exists(), "a held lock must survive clear()"
        held.release()


def _my_pid() -> int:
    import os

    return os.getpid()


# ---------------------------------------------------------------------------
# single-flight cold builds
# ---------------------------------------------------------------------------

def test_concurrent_cold_builds_single_flight(tmp_path, monkeypatch):
    """Two simultaneous cold builders of one key: one propagation run.

    The entry lock serialises them and the loser's post-lock re-check
    loads the winner's published corpus instead of recomputing.  Uses
    threads (the lock is fd-based, so it contends within one process
    too) and a config small enough to build in well under a second.
    """
    config = ScenarioConfig.small(seed=3)
    config.topology.n_ases = 160
    config.measurement.n_vantage_points = 20
    config.measurement.n_churn_rounds = 1

    n_collects: List[int] = []
    real_collect = scenario_module.collect_rounds

    def counting_collect(*args, **kwargs):
        n_collects.append(1)
        return real_collect(*args, **kwargs)

    monkeypatch.setattr(scenario_module, "collect_rounds", counting_collect)

    errors: List[str] = []

    def build_one() -> None:
        try:
            build_scenario(config, cache=ArtifactCache(root=tmp_path))
        except Exception:  # pragma: no cover - failure reporting only
            errors.append(traceback.format_exc())

    threads = [threading.Thread(target=build_one) for _ in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert errors == []
    assert len(n_collects) == 1, "cold stampede: propagation ran twice"


# ---------------------------------------------------------------------------
# multi-process contention stress
# ---------------------------------------------------------------------------

#: (role, cache root, scratch dir, chaos seed, iterations)
_StressSpec = Tuple[str, str, str, int, int]


def _stress_worker(spec: _StressSpec) -> List[str]:
    """One stress process; returns formatted errors (empty = clean)."""
    role, root, scratch, seed, n_iters = spec
    errors: List[str] = []
    try:
        config = ScenarioConfig.small(seed=3)
        corpus = _canonical_corpus()
        scratch_dir = Path(scratch)
        scratch_dir.mkdir(parents=True, exist_ok=True)
        ref = _corpus_bytes(corpus, scratch_dir / "ref.paths")
        if role == "chaos":
            cache = ArtifactCache(
                root=root,
                fs=FaultyFilesystem(seeded_fault_plan(seed, n_faults=4)),
                lock_timeout=30.0,
            )
        else:
            cache = ArtifactCache(root=root, lock_timeout=30.0)
        key = cache.scenario_key(config)
        for i in range(n_iters):
            try:
                if role in ("writer", "chaos"):
                    with cache.entry_lock(key):
                        if cache.load_corpus(key) is None:
                            cache.store_corpus(key, corpus, config)
                elif role == "reader":
                    loaded = cache.load_corpus(key)
                    if loaded is not None:
                        got = _corpus_bytes(
                            loaded, scratch_dir / f"got-{i}.paths"
                        )
                        if got != ref:
                            errors.append(
                                f"{role}: served artifact differs on "
                                f"iteration {i}"
                            )
                else:  # clearer
                    cache.entries()
                    if i % 4 == 2:
                        cache.clear()
            except InjectedCrash:
                # Simulated process death: abandon the operation exactly
                # where it stood and keep hammering, like a restarted job.
                continue
    except Exception:  # noqa: BLE001 - everything is a stress failure
        errors.append(f"{role}: {traceback.format_exc()}")
    return errors


def test_multiprocess_contention_stress(tmp_path):
    """Writers + fault-injected writers + readers + a clearer, one key.

    Zero exceptions in any process, no reader ever observes non-exact
    bytes, and the final state recomputes to a byte-identical artifact.
    """
    root = tmp_path / "shared-cache"
    roles = ["writer", "writer", "writer", "chaos", "chaos",
             "reader", "reader", "clearer"]
    specs: List[_StressSpec] = [
        (role, str(root), str(tmp_path / f"scratch-{i}"), 1000 + i, 12)
        for i, role in enumerate(roles)
    ]
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(
        max_workers=len(specs), mp_context=context
    ) as pool:
        results = list(pool.map(_stress_worker, specs))
    flat = [error for errors in results for error in errors]
    assert flat == [], "\n".join(flat)

    # Whatever interleaving happened, the survivors converge: a fresh
    # cache serves (or recomputes to) the exact canonical bytes.
    cache = ArtifactCache(root=root)
    config = ScenarioConfig.small(seed=3)
    key = cache.scenario_key(config)
    final = cache.load_corpus(key)
    if final is None:
        cache.store_corpus(key, _canonical_corpus(), config)
        final = cache.load_corpus(key)
    assert final is not None
    assert _corpus_bytes(final, tmp_path / "final.paths") == _corpus_bytes(
        _canonical_corpus(), tmp_path / "canonical.paths"
    )


# ---------------------------------------------------------------------------
# event-loop interaction sanity
# ---------------------------------------------------------------------------

def test_entry_lock_never_blocks_forever(tmp_path):
    """A held lock plus an impatient taker resolves within the timeout.

    (Regression guard for the serve path: a wedged lock must degrade to
    an unlocked build, not hang the build thread.)
    """
    holder = EntryLock(tmp_path, "k", timeout=1.0)
    assert holder.acquire()

    async def impatient() -> bool:
        loop = asyncio.get_running_loop()
        taker = EntryLock(tmp_path, "k", timeout=0.2, poll_interval=0.02)
        return await loop.run_in_executor(None, taker.acquire)

    assert asyncio.run(impatient()) is False
    holder.release()
