"""The pre-fork supervisor: fan-out, invariance, restarts, CLI guards.

The heavy tests drive a real ``repro serve --serve-workers 2`` child
process over a shared artifact cache and assert the multi-worker
contract: connections spread across ≥ 2 worker pids, every worker
returns byte-identical answers for the same request, a SIGKILLed worker
is replaced, and SIGTERM drains the whole tree with exit code 0.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import cli
from repro.config import ScenarioConfig
from repro.scenario import build_scenario
from repro.pipeline.cache import ArtifactCache
from repro.service.client import ServiceClient
from repro.service import supervisor as supervisor_module
from repro.service.supervisor import Supervisor, _WorkerSlot

REPO_ROOT = Path(__file__).resolve().parents[2]


def subprocess_env() -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    return env


@pytest.fixture(scope="module")
def supervised(tmp_path_factory):
    """A 2-worker supervisor over a pre-warmed cache; yields (proc, port,
    scenario id, cache dir)."""
    cache_dir = tmp_path_factory.mktemp("supervisor-cache")
    config = ScenarioConfig.small(seed=7)
    # Pre-warm the shared cache so worker admissions are cheap and the
    # cross-worker resolution path has meta records to scan.
    build_scenario(config, cache=ArtifactCache(cache_dir))
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--pool-size", "2",
            "--serve-workers", "2",
            "--cache", "--cache-dir", str(cache_dir),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=subprocess_env(),
        text=True,
    )
    try:
        banner = proc.stdout.readline().strip()
        match = re.search(r"listening on http://[^:]+:(\d+)$", banner)
        assert match, f"unexpected banner: {banner!r}"
        port = int(match.group(1))
        client = ServiceClient(port=port, timeout=300.0)
        built = client.build_scenario(
            preset="small", seed=7, algorithms=["asrank"]
        )
        client.close()
        yield proc, port, built["scenario"], cache_dir
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30)
        proc.stdout.close()


def _worker_pids(port: int, attempts: int = 60) -> set:
    """Worker pids observed over many *fresh* connections."""
    pids = set()
    for _ in range(attempts):
        client = ServiceClient(port=port, timeout=60.0)
        pids.add(client.metrics()["worker"]["pid"])
        client.close()
        if len(pids) >= 2:
            break
    return pids


def test_connections_spread_across_workers(supervised):
    _proc, port, _sid, _cache_dir = supervised
    pids = _worker_pids(port)
    assert len(pids) >= 2, f"all connections landed on {pids}"


def test_workers_answer_byte_identically(supervised):
    """The same requests, landed on whichever worker accepts them,
    serialise to exactly the same bytes."""
    _proc, port, sid, _cache_dir = supervised
    # Only endpoints pinned to an explicit scenario id are invariant —
    # unpinned ones (e.g. the pool listing) legitimately reflect
    # per-worker pool state.
    requests = [
        ("POST", f"/v1/rel/asrank:batch?scenario={sid}",
         {"links": [[1, 2], [999_999, 1]]}),
        ("GET", f"/v1/table/asrank?scenario={sid}", None),
        ("GET", f"/v1/bias/asrank?scenario={sid}", None),
    ]
    for method, path, body in requests:
        seen = set()
        for _ in range(12):
            client = ServiceClient(port=port, timeout=300.0)
            status, payload = client.request_bytes(method, path, body)
            client.close()
            assert status == 200, payload
            seen.add(payload)
        assert len(seen) == 1, f"{path} diverged across workers"


def test_single_and_multi_worker_deployments_byte_identical(supervised):
    """Worker-count invariance across *deployments*: a 1-worker service
    over the same cache answers the identical request stream with the
    identical bytes as the 2-worker supervisor."""
    from repro.service import ReproService, serve_in_thread

    _proc, port, sid, cache_dir = supervised
    requests = [
        ("POST", f"/v1/rel/asrank:batch?scenario={sid}",
         {"links": [[1, 2], [2, 3], [999_999, 1]]}),
        ("GET", f"/v1/table/asrank?scenario={sid}", None),
        ("GET", f"/v1/bias/asrank?scenario={sid}", None),
    ]

    def stream(target_port: int) -> list:
        client = ServiceClient(port=target_port, timeout=300.0)
        try:
            return [
                client.request_bytes(method, path, body)
                for method, path, body in requests
            ]
        finally:
            client.close()

    single = ReproService(pool_size=2, cache=ArtifactCache(cache_dir))
    with serve_in_thread(single) as live:
        single_bodies = stream(live.port)
    multi_bodies = stream(port)
    assert single_bodies == multi_bodies


def test_sibling_worker_resolves_foreign_scenario(supervised):
    """A scenario admitted by one worker is served by every worker via
    the shared cache (worker-count invariance)."""
    _proc, port, sid, _cache_dir = supervised
    statuses = set()
    bodies = set()
    pids = set()
    for _ in range(16):
        client = ServiceClient(port=port, timeout=300.0)
        pids.add(client.metrics()["worker"]["pid"])
        status, body = client.request_bytes(
            "GET", f"/v1/as/1/neighbors?scenario={sid}"
        )
        client.close()
        statuses.add(status)
        bodies.add(body)
    # Whatever the answer is (the ASN may or may not be visible), every
    # worker must give the same one — never unknown_scenario.
    assert len(bodies) == 1
    payload = json.loads(next(iter(bodies)))
    if "error" in payload:
        assert payload["error"]["code"] != "unknown_scenario"


def test_killed_worker_is_restarted(supervised):
    proc, port, _sid, _cache_dir = supervised
    victim = next(iter(_worker_pids(port)))
    os.kill(victim, signal.SIGKILL)
    deadline = time.monotonic() + 30
    replaced = set()
    while time.monotonic() < deadline:
        try:
            replaced = _worker_pids(port, attempts=8)
        except (ConnectionError, OSError):
            time.sleep(0.2)
            continue
        if replaced and victim not in replaced:
            break
        time.sleep(0.2)
    assert replaced, "service stopped answering after a worker kill"
    assert victim not in replaced
    assert proc.poll() is None  # the supervisor itself survived


def test_sigterm_drains_cleanly(tmp_path):
    """A fresh supervisor exits 0 on SIGTERM without serving anything."""
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--pool-size", "1",
            "--serve-workers", "2",
            "--cache", "--cache-dir", str(tmp_path),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=subprocess_env(),
        text=True,
    )
    banner = proc.stdout.readline().strip()
    assert "listening on" in banner
    proc.send_signal(signal.SIGTERM)
    returncode = proc.wait(timeout=30)
    proc.stdout.close()
    assert returncode == 0


# ---------------------------------------------------------------------------
# CLI validation (no processes spawned)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("value", ["0", "-3"])
def test_serve_workers_must_be_positive(value, capsys):
    rc = cli.main(["serve", "--serve-workers", value, "--port", "0"])
    assert rc == 2
    assert "--serve-workers" in capsys.readouterr().err


def test_serve_workers_absurd_count_rejected(capsys):
    rc = cli.main(["serve", "--serve-workers", "100000", "--port", "0"])
    assert rc == 2
    assert "absurd" in capsys.readouterr().err


def test_multi_worker_requires_cache(capsys):
    rc = cli.main(["serve", "--serve-workers", "2", "--port", "0"])
    assert rc == 2
    assert "--cache" in capsys.readouterr().err


def test_supervisor_rejects_bad_worker_count():
    with pytest.raises(ValueError, match="at least 1"):
        Supervisor(lambda: None, serve_workers=0)


# ---------------------------------------------------------------------------
# socket plumbing and restart backoff (no processes spawned)
# ---------------------------------------------------------------------------

def test_parent_reserves_the_port_and_worker_listeners_take_connections():
    supervisor = Supervisor(lambda: None, port=0)
    supervisor._bind()
    reservation = supervisor._parent_sock
    try:
        assert supervisor.port == reservation.getsockname()[1] != 0
        # The reservation does not listen: nothing answers yet.
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection((supervisor.host, supervisor.port), 5)
        listener = supervisor_module._reuseport_socket(
            supervisor.host, supervisor.port, listen=True
        )
        with listener, socket.create_connection(
            (supervisor.host, supervisor.port), 5
        ):
            accepted, _ = listener.accept()
            accepted.close()
    finally:
        reservation.close()


def test_reservation_keeps_other_sockets_off_the_port():
    supervisor = Supervisor(lambda: None, port=0)
    supervisor._bind()
    try:
        with socket.socket() as plain, pytest.raises(OSError):
            plain.bind((supervisor.host, supervisor.port))
    finally:
        supervisor._parent_sock.close()


def test_failed_bind_closes_the_socket(monkeypatch):
    made = []

    class Recorded(socket.socket):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen(1)
        monkeypatch.setattr(supervisor_module.socket, "socket", Recorded)
        with pytest.raises(OSError):
            supervisor_module._reuseport_socket(
                "127.0.0.1", taken.getsockname()[1], listen=True
            )
    assert len(made) == 1
    assert made[0].fileno() == -1


def test_restart_backoff_doubles_up_to_the_cap():
    slot = _WorkerSlot(0)
    delays = []
    for restarts in range(12):
        slot.restarts = restarts
        delays.append(slot.backoff())
    assert delays[:5] == [0.0, 0.5, 1.0, 2.0, 4.0]
    assert max(delays) == delays[-1] == supervisor_module.BACKOFF_CAP_S
