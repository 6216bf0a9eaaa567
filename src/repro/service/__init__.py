"""HTTP query service for scenarios, relationships, and bias reports.

The paper argues that validation bias should be inspectable per link
and per class; this package makes it inspectable *on demand* — the way
CAIDA serves its AS-relationship datasets — instead of requiring every
consumer to import Python and rebuild a scenario in-process.

The subsystem is stdlib-only (``asyncio`` + hand-rolled HTTP/1.1 over
:func:`asyncio.start_server`, JSON bodies) and splits into:

* :mod:`repro.service.http` — request framing, JSON responses, and
  the structured :class:`~repro.service.http.ApiError` every handler
  speaks;
* :mod:`repro.service.pool` — :class:`~repro.service.pool.ScenarioPool`,
  an LRU of built :class:`~repro.scenario.Scenario` objects keyed by
  canonical config fingerprint, with single-flight builds that run in an
  executor so the event loop keeps serving while propagation crunches;
* :mod:`repro.service.query` — the O(1) per-scenario indexes (adjacency,
  link→relationship per algorithm, link→validation, link→classes) behind
  the point and batch endpoints;
* :mod:`repro.service.app` — :class:`~repro.service.app.ReproService`,
  the routed application plus ``/healthz`` and ``/metrics``;
* :mod:`repro.service.client` — the small blocking
  :class:`~repro.service.client.ServiceClient` used by tests, examples,
  and scripts, and the package's one HTTP/1.1 client;
* :mod:`repro.service.supervisor` — the pre-fork
  :class:`~repro.service.supervisor.Supervisor` behind
  ``repro serve --serve-workers N`` (SO_REUSEPORT fan-out, crash
  restarts with backoff, signal-propagated drain).

Serving numbers come from perfbench's ``serve_mix`` workload::

    python3 perfbench/run.py --workload serve_mix --seed 1 --seconds 15

Run it from the CLI (``repro serve --port 8787``) or embed it::

    from repro.service import ReproService, ServiceClient, serve_in_thread

    with serve_in_thread(ReproService(pool_size=2)) as service:
        client = ServiceClient(port=service.port)
        client.build_scenario(preset="small", seed=7)
        print(client.rel("asrank", 11, 42))
"""

from repro.service.app import ReproService, serve_in_thread
from repro.service.client import ServiceClient, ServiceError
from repro.service.http import ApiError
from repro.service.pool import ScenarioPool
from repro.service.query import ScenarioView
from repro.service.supervisor import Supervisor

__all__ = [
    "ApiError",
    "ReproService",
    "ScenarioPool",
    "ScenarioView",
    "ServiceClient",
    "ServiceError",
    "Supervisor",
    "serve_in_thread",
]
