"""End-to-end service tests over a real ephemeral socket.

One module-scoped server holds the small seed-7 scenario; every
relationship the HTTP API serves is cross-checked against the in-process
``Scenario.infer`` results (the acceptance criterion of the service PR).
Separate short-lived servers cover LRU eviction at pool size 1,
single-flight admission under thread concurrency, event-loop
responsiveness while a build is in flight, the worker label in
``/metrics``, and the read deadline and shutdown of idle and building
connections.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import logging
import os
import sys
import threading
import time
from typing import Iterator

import pytest

from repro import small_scenario
from repro.analysis.export import profile_rows, table_dict
from repro.service import ReproService, ServiceClient, ServiceError, serve_in_thread
from repro.service import app as app_module
from repro.service.query import REL_NAMES, ScenarioView

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


@pytest.fixture(scope="module")
def server() -> Iterator[ReproService]:
    service = ReproService(pool_size=2)
    with serve_in_thread(service) as running:
        yield running


@pytest.fixture(scope="module")
def client(server: ReproService) -> Iterator[ServiceClient]:
    with ServiceClient(port=server.port) as instance:
        yield instance


@pytest.fixture(scope="module")
def admitted(client: ServiceClient) -> dict:
    """The seed-7 small scenario, built once through the API."""
    return client.build_scenario(preset="small", seed=7)


def expected_rel_name(scenario, algorithm, key):
    rel = scenario.infer(algorithm).rel_of(*key)
    return REL_NAMES[rel] if rel is not None else None


# ---------------------------------------------------------------------------
# liveness + admission
# ---------------------------------------------------------------------------

def test_healthz(client):
    health = client.healthz()
    assert health["status"] == "ok"
    assert health["uptime_s"] >= 0


def test_build_response_shape(admitted, scenario):
    assert admitted["built"] is True
    assert admitted["seed"] == 7
    assert admitted["stats"]["n_inferred_links"] == len(
        scenario.inferred_links()
    )
    assert admitted["stats"]["n_validated_links"] == len(scenario.validation)
    assert "asrank" in admitted["algorithms_indexed"]
    assert len(admitted["sample_links"]) == 5


def test_rebuild_request_is_a_pool_hit(client, admitted):
    again = client.build_scenario(preset="small", seed=7)
    assert again["scenario"] == admitted["scenario"]
    assert again["built"] is False
    assert again["pool"]["builds"] == admitted["pool"]["builds"]


def test_scenarios_listing(client, admitted):
    listing = client.scenarios()
    assert admitted["scenario"] in [
        entry["scenario"] for entry in listing["scenarios"]
    ]
    assert listing["default"] == admitted["scenario"]
    assert listing["capacity"] == 2


# ---------------------------------------------------------------------------
# the acceptance criterion: point + batch queries == Scenario.infer,
# with zero builds across >= 1000 point lookups
# ---------------------------------------------------------------------------

def test_point_queries_match_inprocess_for_every_link(
    client, admitted, scenario
):
    links = scenario.inferred_links()
    assert links, "small scenario must expose inferred links"
    before = client.metrics()

    queried = 0
    index = 0
    while queried < max(1000, len(links)):
        key = links[index % len(links)]
        record = client.rel("asrank", key[0], key[1])
        assert (record["as1"], record["as2"]) == key
        assert record["relationship"] == expected_rel_name(
            scenario, "asrank", key
        ), f"mismatch at {key}"
        queried += 1
        index += 1

    after = client.metrics()
    # O(1) serving: a thousand point queries ran zero scenario builds
    # and zero new inference/index computations.
    assert after["pool"]["builds"] == before["pool"]["builds"]
    assert after["indexes_built"] == before["indexes_built"]
    assert (
        after["requests"]["total"] >= before["requests"]["total"] + queried
    )


def test_batch_queries_match_inprocess(client, admitted, scenario):
    links = scenario.inferred_links()
    response = client.rel_batch("asrank", links)
    assert response["count"] == len(links)
    assert response["n_unknown"] == 0
    for key, record in zip(links, response["results"]):
        assert (record["as1"], record["as2"]) == key
        assert record["visible"] is True
        assert record["relationship"] == expected_rel_name(
            scenario, "asrank", key
        )


def test_batch_marks_unknown_links(client, admitted):
    response = client.rel_batch("asrank", [[999999, 999998]])
    assert response["n_unknown"] == 1
    record = response["results"][0]
    assert record["visible"] is False
    assert record["relationship"] is None


def test_second_algorithm_served_and_consistent(client, admitted, scenario):
    links = scenario.inferred_links()[:25]
    response = client.rel_batch("gao", links)
    for key, record in zip(links, response["results"]):
        assert record["relationship"] == expected_rel_name(
            scenario, "gao", key
        )


# ---------------------------------------------------------------------------
# adjacency, bias, tables, case study
# ---------------------------------------------------------------------------

def test_neighbors_match_corpus(client, admitted, scenario):
    asn = admitted["sample_links"][0][0]
    payload = client.neighbors(asn)
    expected = sorted(
        key[0] if key[1] == asn else key[1]
        for key in scenario.corpus.visible_links()
        if asn in key
    )
    assert payload["neighbors"] == expected
    assert payload["degree"] == len(expected)
    assert payload["transit_degree"] == scenario.corpus.transit_degree(asn)


def test_bias_report_matches_inprocess(client, admitted, scenario):
    payload = client.bias("asrank")
    assert payload["regional"] == profile_rows(scenario.regional_bias())
    assert payload["topological"] == profile_rows(scenario.topological_bias())
    assert payload["scenario"] == admitted["scenario"]


def test_table_matches_inprocess(client, admitted, scenario):
    payload = client.table("asrank")
    assert payload["table"] == table_dict(scenario.validation_table("asrank"))


def test_casestudy_summary(client, admitted, scenario):
    payload = client.casestudy("asrank", "T1-TR")
    result = scenario.case_study("asrank", "T1-TR")
    assert payload["n_wrong_p2p"] == result.n_wrong
    assert payload["focus_member"] == result.focus_member
    assert payload["n_targets"] == len(result.targets)


# ---------------------------------------------------------------------------
# error shapes: structured JSON, never a traceback
# ---------------------------------------------------------------------------

def expect_error(call, status, code):
    with pytest.raises(ServiceError) as excinfo:
        call()
    assert excinfo.value.status == status
    assert excinfo.value.code == code
    assert isinstance(excinfo.value.payload["error"]["message"], str)
    return excinfo.value


def test_404_shapes(client, admitted):
    expect_error(lambda: client.request("GET", "/nope"), 404, "not_found")
    expect_error(lambda: client.rel("nope", 1, 2), 404, "unknown_algorithm")
    expect_error(
        lambda: client.rel("asrank", 999999, 999998), 404, "unknown_link"
    )
    expect_error(lambda: client.neighbors(999999), 404, "unknown_asn")
    error = expect_error(
        lambda: client.rel("asrank", 1, 2, scenario="ffffffffffff"),
        404,
        "unknown_scenario",
    )
    assert admitted["scenario"] in error.details["pooled"]


def test_405_shape(client):
    expect_error(
        lambda: client.request("POST", "/healthz"), 405, "method_not_allowed"
    )


def test_400_shapes(client):
    expect_error(
        lambda: client.request("POST", "/v1/scenarios", {"preset": "huge"}),
        400,
        "invalid_preset",
    )
    expect_error(
        lambda: client.request("POST", "/v1/scenarios", {"bogus": 1}),
        400,
        "unknown_field",
    )
    expect_error(
        lambda: client.request(
            "POST", "/v1/scenarios", {"preset": "small", "ases": 3}
        ),
        400,
        "invalid_config",
    )
    expect_error(
        lambda: client.request(
            "POST", "/v1/scenarios", {"preset": "small", "seed": "x"}
        ),
        400,
        "invalid_config",
    )
    expect_error(
        lambda: client.request("POST", "/v1/rel/asrank:batch", {}),
        400,
        "invalid_body",
    )
    expect_error(
        lambda: client.request(
            "POST", "/v1/rel/asrank:batch", {"links": [[1]]}
        ),
        400,
        "invalid_body",
    )


def test_self_loop_links_are_structured_400s(client, admitted):
    error = expect_error(
        lambda: client.rel("asrank", 174, 174), 400, "invalid_link"
    )
    assert error.details == {"as1": 174, "as2": 174}
    error = expect_error(
        lambda: client.request(
            "POST", "/v1/rel/asrank:batch", {"links": [[1, 2], [174, 174]]}
        ),
        400,
        "invalid_body",
    )
    assert error.message.startswith("links[1] must be")


def test_oversized_asns_are_structured_400s(client, admitted):
    # One digit past int()'s int-string digit limit (4,300 by default).
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("int() reads integer strings of any length here")
    huge = "9" * (limit + 1)
    for path in (f"/v1/rel/asrank/{huge}/1", f"/v1/as/{huge}/neighbors"):
        error = expect_error(
            lambda: client.request("GET", path), 400, "invalid_asn"
        )
        assert error.details == {"digits": limit + 1}
    # Every ASN int() reads keeps its answer: 20 digits is just unknown.
    expect_error(
        lambda: client.rel("asrank", 10**19, 1), 404, "unknown_link"
    )
    expect_error(
        lambda: client.neighbors(10**19), 404, "unknown_asn"
    )


def test_batch_too_large_shape():
    """The 413 contract fires before any scenario is even resolved."""
    service = ReproService(pool_size=1)
    with serve_in_thread(service) as live:
        client = ServiceClient(port=live.port)
        status, body = client.request_bytes(
            "POST", "/v1/rel/asrank:batch",
            {"links": [[1, 2]] * 10_001},
        )
        client.close()
    assert status == 413
    payload = json.loads(body)
    assert payload["error"]["code"] == "batch_too_large"
    assert "10000" in payload["error"]["message"]

def test_malformed_json_body_is_a_structured_400(server):
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    try:
        conn.request(
            "POST", "/v1/scenarios", body="{not json",
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        assert response.status == 400
        import json as json_module

        payload = json_module.loads(response.read())
        assert payload["error"]["code"] == "invalid_json"
    finally:
        conn.close()


def test_metrics_counters_move(client):
    before = client.metrics()
    client.healthz()
    client.healthz()
    after = client.metrics()
    assert after["requests"]["total"] >= before["requests"]["total"] + 3
    assert after["requests"]["by_route"]["GET /healthz"]["count"] >= 2
    assert after["latency_ms"]["count"] > before["latency_ms"]["count"]
    assert after["pool"]["capacity"] == 2


def test_mixed_endpoints_share_one_keep_alive_connection(server, admitted):
    """Point, batch, neighbour and health requests, interleaved, all
    answer 200 on the one connection they arrived on."""
    a, b = admitted["sample_links"][0]
    mix = [
        ("GET", f"/v1/rel/asrank/{a}/{b}", None),
        ("POST", "/v1/rel/asrank:batch", {"links": [[a, b], [b, a]]}),
        ("GET", f"/v1/as/{a}/neighbors", None),
        ("GET", "/healthz", None),
    ]
    with ServiceClient(port=server.port) as fresh:
        assert fresh.request_bytes("GET", "/healthz")[0] == 200
        sock = fresh._conn.sock
        for _ in range(5):
            for method, path, body in mix:
                assert fresh.request_bytes(method, path, body)[0] == 200
        assert fresh._conn.sock is sock


# ---------------------------------------------------------------------------
# pool behaviour through the API: eviction, single-flight, liveness
# ---------------------------------------------------------------------------

def test_lru_eviction_at_pool_size_one():
    service = ReproService(pool_size=1)
    with serve_in_thread(service) as running:
        with ServiceClient(port=running.port) as client:
            first = client.build_scenario(preset="small", seed=7)
            second = client.build_scenario(preset="small", seed=11)
            listing = client.scenarios()
            assert [entry["scenario"] for entry in listing["scenarios"]] == [
                second["scenario"]
            ]
            assert client.metrics()["pool"]["evictions"] == 1
            expect_error(
                lambda: client.rel(
                    "asrank", 1, 2, scenario=first["scenario"]
                ),
                404,
                "unknown_scenario",
            )


def test_concurrent_same_config_builds_once():
    service = ReproService(pool_size=2)
    with serve_in_thread(service) as running:
        results = []
        errors = []

        def build():
            try:
                with ServiceClient(port=running.port) as client:
                    results.append(
                        client.build_scenario(preset="small", seed=7)
                    )
            except Exception as exc:  # pragma: no cover - defensive
                errors.append(exc)

        threads = [threading.Thread(target=build) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert len(results) == 6
        assert len({result["scenario"] for result in results}) == 1
        with ServiceClient(port=running.port) as client:
            pool = client.metrics()["pool"]
        assert pool["builds"] == 1
        assert pool["coalesced"] >= 1


def test_concurrent_first_requests_compute_once(monkeypatch, scenario):
    """On a fresh entry, concurrent first requests for one rel index,
    and separately for one table, run one computation between them and
    get identical bodies."""

    class SlowView(ScenarioView):
        def build_rel_index(self, algorithm):
            time.sleep(0.3)
            return super().build_rel_index(algorithm)

    def slow_table_dict(table):
        time.sleep(0.3)
        return table_dict(table)

    monkeypatch.setattr(app_module, "table_dict", slow_table_dict)
    service = ReproService(
        pool_size=1,
        builder=lambda config, workers=0, cache=None: scenario,
        view_factory=SlowView,
    )
    a, b = scenario.inferred_links()[0]
    with serve_in_thread(service) as running:
        with ServiceClient(port=running.port) as client:
            client.build_scenario(preset="small", seed=7)
            for path in (f"/v1/rel/problink/{a}/{b}", "/v1/table/asrank"):
                before = client.metrics()["indexes_built"]
                start = threading.Barrier(6)
                responses = []

                def fetch():
                    with ServiceClient(port=running.port) as own:
                        start.wait(timeout=30)
                        responses.append(own.request_bytes("GET", path))

                threads = [threading.Thread(target=fetch) for _ in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert len(responses) == 6
                assert {status for status, _ in responses} == {200}
                assert len({body for _, body in responses}) == 1
                after = client.metrics()["indexes_built"]
                assert after == before + 1, path


def test_healthz_stays_responsive_during_build():
    # Deterministic slow build: the builder blocks in the executor for
    # 2.5 s, returning the session's already-built small scenario.
    prebuilt = small_scenario()

    def slow_builder(config, workers=0, cache=None):
        time.sleep(2.5)
        return prebuilt

    service = ReproService(pool_size=1, builder=slow_builder)
    with serve_in_thread(service) as running:
        with ServiceClient(port=running.port) as prober:
            build_done = threading.Event()

            def build():
                with ServiceClient(port=running.port, timeout=120) as client:
                    client.build_scenario(preset="small", seed=7)
                build_done.set()

            builder_thread = threading.Thread(target=build)
            builder_thread.start()
            deadline = time.monotonic() + 2.0
            probes = 0
            try:
                while time.monotonic() < deadline:
                    started = time.monotonic()
                    health = prober.healthz()
                    elapsed = time.monotonic() - started
                    assert health["status"] == "ok"
                    assert elapsed < 1.0, (
                        f"healthz took {elapsed:.2f}s during a build"
                    )
                    probes += 1
                    time.sleep(0.1)
                # The probes all ran while the 2.5 s build was in flight.
                assert not build_done.is_set()
                assert probes >= 5
            finally:
                builder_thread.join(timeout=120)
            assert build_done.is_set()


def test_metrics_reports_worker_label():
    service = ReproService(pool_size=1)
    snapshot = service.metrics.snapshot(service.pool)
    assert snapshot["worker"] == {"index": 0, "pid": os.getpid()}
    service.metrics.worker_index = 3
    assert service.metrics.snapshot()["worker"]["index"] == 3
    asyncio.run(service.pool.aclose())


# ---------------------------------------------------------------------------
# connection lifetime: the read deadline and shutdown
# ---------------------------------------------------------------------------

def _idle_keep_alive(port: int) -> http.client.HTTPConnection:
    """A connection that has had one answer and now waits, kept open."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    conn.request("GET", "/healthz")
    response = conn.getresponse()
    response.read()
    assert response.status == 200
    return conn


@pytest.mark.parametrize("sent", [b"", b"GET /hea"])
def test_read_deadline_closes_stalled_connections(monkeypatch, sent):
    """An idle keep-alive connection and a stalled request head are both
    closed once the read deadline passes."""
    monkeypatch.setattr(app_module, "READ_TIMEOUT_S", 0.2)
    with serve_in_thread(ReproService(pool_size=1)) as live:
        conn = _idle_keep_alive(live.port)
        conn.sock.sendall(sent)
        started = time.monotonic()
        assert conn.sock.recv(1024) == b""
        assert time.monotonic() - started < 5
        conn.close()


def test_stop_closes_idle_connections_promptly():
    service = ReproService(pool_size=1)
    with serve_in_thread(service) as live:
        idle = _idle_keep_alive(live.port)
        stalled = _idle_keep_alive(live.port)
        stalled.sock.sendall(b"GET /hea")
        started = time.monotonic()
    # The read deadline is a minute; stop() must not wait for it.
    assert time.monotonic() - started < 5
    assert not service._connections
    for conn in (idle, stalled):
        assert conn.sock.recv(1024) == b""
        conn.close()


def test_stop_mid_build_answers_503(capfd, caplog):
    """A build cut short by stop() answers 503 and closes; nothing is
    printed and no callback error is logged."""
    prebuilt = small_scenario()

    def slow_builder(config, workers=0, cache=None):
        time.sleep(2.0)
        return prebuilt

    answers = []

    def build(port):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        conn.request("POST", "/v1/scenarios", body=b'{"preset": "small"}')
        response = conn.getresponse()
        answers.append((response.status, response.getheader("Connection"),
                        json.loads(response.read())))
        conn.close()

    capfd.readouterr()
    with serve_in_thread(ReproService(pool_size=1, builder=slow_builder)) as live:
        requester = threading.Thread(target=build, args=(live.port,))
        requester.start()
        time.sleep(0.5)
    requester.join(timeout=30)
    assert len(answers) == 1
    status, connection, body = answers[0]
    assert status == 503
    assert connection == "close"
    assert body["error"]["code"] == "shutting_down"
    assert capfd.readouterr().err == ""
    assert not [r for r in caplog.records if r.levelno >= logging.ERROR]
