"""Pre-fork multi-process serving: ``repro serve --serve-workers N``.

One :class:`Supervisor` parent binds the service port, forks N worker
processes, and babysits them.  The parent binds a non-listening
``SO_REUSEPORT`` *reservation* socket (resolving ``port=0`` and holding
the port), and every worker opens its own ``SO_REUSEPORT`` listening
socket on the resolved address.  The kernel hashes incoming connections
across the listening sockets, so load spreads with no accept-lock in
userspace, and a dead worker's backlog dies with it.  Every platform
with ``os.fork`` has ``SO_REUSEPORT``.

Workers run the ordinary :class:`~repro.service.ReproService` event
loop (``announce=False`` — the parent prints the single canonical
``listening on`` banner).  Crashed workers are restarted with capped
exponential backoff; SIGTERM/SIGINT to the parent is propagated to the
children, which drain in-flight requests through the service's own
signal handling, and stragglers are SIGKILLed after ``DRAIN_TIMEOUT_S``.

Workers do **not** share scenario pools — they share the *artifact
cache*.  A scenario admitted by any worker is recorded there
(``meta.json`` + mmap-able ``corpus.npc``), so every sibling can
warm-admit it on first reference and all workers answer identically;
multi-worker serving therefore requires an attached cache (the CLI
enforces this).
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import select
import signal
import socket
import sys
import time
import traceback
from typing import Any, Callable, List, Optional

#: Restart backoff: ``BASE * 2**(restarts-1)`` seconds, capped.
BACKOFF_BASE_S = 0.5
BACKOFF_CAP_S = 30.0
#: A worker alive this long resets its slot's restart counter.
STABLE_RESET_S = 30.0
#: Parent poll interval while supervising / draining.
POLL_S = 0.05
#: How long the parent waits for a freshly forked worker to report that
#: its listening socket exists (socket setup is pre-import, so this is
#: normally milliseconds; the timeout only bounds pathological forks).
READY_TIMEOUT_S = 15.0
#: How long a shutdown waits for workers to drain before SIGKILL.
DRAIN_TIMEOUT_S = 10.0


def _reuseport_socket(host: str, port: int, listen: bool) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
        if listen:
            sock.listen(128)
    except BaseException:
        sock.close()
        raise
    return sock


class _WorkerSlot:
    """Bookkeeping for one worker position (pid, uptime, restarts)."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.pid: Optional[int] = None
        self.started = 0.0
        self.restarts = 0

    def backoff(self) -> float:
        if self.restarts == 0:
            return 0.0
        return min(BACKOFF_CAP_S, BACKOFF_BASE_S * 2 ** (self.restarts - 1))


class Supervisor:
    """Fork-and-babysit N service workers on one shared port."""

    def __init__(
        self,
        service_factory: Callable[[], Any],
        host: str = "127.0.0.1",
        port: int = 0,
        serve_workers: int = 2,
        announce: bool = True,
    ) -> None:
        if serve_workers < 1:
            raise ValueError("serve_workers must be at least 1")
        self._factory = service_factory
        self.requested_host = host
        self.requested_port = port
        self.serve_workers = serve_workers
        self.announce = announce
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._slots: List[_WorkerSlot] = [
            _WorkerSlot(i) for i in range(serve_workers)
        ]
        self._parent_sock: Optional[socket.socket] = None
        self._shutdown = False
        self._signum = signal.SIGTERM

    # ------------------------------------------------------------------
    # socket plumbing
    # ------------------------------------------------------------------
    def _bind(self) -> None:
        """Resolve and hold the service port in the parent.

        The parent's socket is bound but **not** listening — TCP only
        delivers connections to listening members of a reuseport group,
        so this is a pure port reservation and every worker's own
        listening socket receives the traffic.
        """
        self._parent_sock = _reuseport_socket(
            self.requested_host, self.requested_port, listen=False
        )
        bound = self._parent_sock.getsockname()
        self.host, self.port = bound[0], bound[1]

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, slot: _WorkerSlot) -> None:
        ready_r, ready_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(ready_r)
            self._worker_main(slot.index, ready_w)  # never returns
        os.close(ready_w)
        slot.pid = pid
        slot.started = time.monotonic()
        # Block until the worker's listening socket exists (it writes a
        # readiness byte right after socket setup, before building the
        # service).  Connections arriving from here on land in a kernel
        # backlog, not on a refused port — which is what lets run()
        # print the banner only once the port actually answers.  If the
        # child dies first, its end closes and the read returns b"".
        try:
            select.select([ready_r], [], [], READY_TIMEOUT_S)
            with contextlib.suppress(OSError):
                os.read(ready_r, 1)
        finally:
            os.close(ready_r)

    def _worker_main(self, index: int, ready_fd: int) -> None:
        """The child: reset signals, open the socket, run the service.

        Runs under ``os._exit`` so a worker can never fall back into
        the parent's supervision loop (or its atexit handlers).
        """
        status = 1
        try:
            # First thing after fork: drop the parent's Python-level
            # handlers.  Between here and the event loop installing its
            # own, an inherited handler would run the *parent's*
            # propagation code inside the child.
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            signal.signal(signal.SIGINT, signal.SIG_DFL)
            sock = _reuseport_socket(self.host, self.port, listen=True)
            # The port now queues connections for this worker; tell the
            # parent before the (comparatively slow) service build.
            os.write(ready_fd, b"1")
            os.close(ready_fd)
            # The service (and its executor threads, event loop, pool)
            # is constructed entirely post-fork.
            service = self._factory()
            service.metrics.worker_index = index
            asyncio.run(service.run(sock=sock, announce=False))
            status = 0
        except BaseException:
            traceback.print_exc(file=sys.stderr)
        finally:
            os._exit(status)

    def _alive_pids(self) -> List[int]:
        return [slot.pid for slot in self._slots if slot.pid is not None]

    def _slot_for(self, pid: int) -> Optional[_WorkerSlot]:
        for slot in self._slots:
            if slot.pid == pid:
                return slot
        return None

    # ------------------------------------------------------------------
    # signals
    # ------------------------------------------------------------------
    def _on_signal(self, signum: int, frame: Any) -> None:
        self._shutdown = True
        self._signum = signum
        self._forward(signum)

    def _forward(self, signum: int) -> None:
        for pid in self._alive_pids():
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signum)

    # ------------------------------------------------------------------
    # the supervision loop
    # ------------------------------------------------------------------
    def run(self) -> int:
        """Serve until SIGTERM/SIGINT; returns a process exit code."""
        self._bind()
        signal.signal(signal.SIGTERM, self._on_signal)
        signal.signal(signal.SIGINT, self._on_signal)
        try:
            for slot in self._slots:
                self._spawn(slot)
            if self.announce:
                # Same banner (and same first-stdout-line contract) as
                # the single-process path, so callers parse one shape.
                # Printed only after every first-wave worker reported
                # its listening socket, so the port answers by now.
                print(
                    f"repro service listening on "
                    f"http://{self.host}:{self.port}",
                    flush=True,
                )
            while not self._shutdown:
                self._reap_and_restart()
                time.sleep(POLL_S)
        finally:
            self._drain()
            if self._parent_sock is not None:
                self._parent_sock.close()
                self._parent_sock = None
        return 0

    def _reap_and_restart(self) -> None:
        while True:
            try:
                pid, _status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return
            if pid == 0:
                return
            slot = self._slot_for(pid)
            if slot is None:
                continue  # not ours (shouldn't happen)
            slot.pid = None
            uptime = time.monotonic() - slot.started
            if uptime >= STABLE_RESET_S:
                slot.restarts = 0
            slot.restarts += 1
            delay = slot.backoff()
            print(
                f"repro supervisor: worker {slot.index} (pid {pid}) exited "
                f"after {uptime:.1f}s; restarting in {delay:.1f}s",
                file=sys.stderr,
                flush=True,
            )
            self._sleep_unless_shutdown(delay)
            if self._shutdown:
                return
            self._spawn(slot)

    def _sleep_unless_shutdown(self, delay: float) -> None:
        deadline = time.monotonic() + delay
        while not self._shutdown and time.monotonic() < deadline:
            time.sleep(POLL_S)

    def _drain(self) -> None:
        """Propagate the shutdown signal, wait, SIGKILL stragglers."""
        self._forward(self._signum)
        deadline = time.monotonic() + DRAIN_TIMEOUT_S
        while self._alive_pids() and time.monotonic() < deadline:
            self._reap_nohang()
            time.sleep(POLL_S)
        for slot in self._slots:
            if slot.pid is None:
                continue
            with contextlib.suppress(ProcessLookupError):
                os.kill(slot.pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(slot.pid, 0)
            slot.pid = None

    def _reap_nohang(self) -> None:
        while True:
            try:
                pid, _status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return
            if pid == 0:
                return
            slot = self._slot_for(pid)
            if slot is not None:
                slot.pid = None
