"""Blocking client for the repro query service (stdlib ``http.client``).

The counterpart to :class:`~repro.service.app.ReproService` used by the
test suite, the examples, and shell scripts.  One method per endpoint,
JSON in/out, persistent keep-alive connection with a single transparent
reconnect when the server (or an idle timeout) dropped it.

Error responses never raise bare HTTP exceptions: anything with an
``{"error": ...}`` body becomes a :class:`ServiceError` carrying the
structured ``status``/``code``/``message`` triple the server sent.
"""

from __future__ import annotations

import http.client
import json
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

LinkLike = Union[Tuple[int, int], List[int]]


class ServiceError(RuntimeError):
    """A structured error answer from the service."""

    def __init__(self, status: int, payload: Any):
        error = payload.get("error", {}) if isinstance(payload, dict) else {}
        self.status = status
        self.code = error.get("code", "unknown")
        self.message = error.get("message", str(payload))
        self.details = error.get("details", {})
        self.payload = payload
        super().__init__(f"[{status} {self.code}] {self.message}")


class ServiceClient:
    """Small synchronous HTTP/JSON client for one service instance."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8787,
        timeout: float = 60.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def request(
        self, method: str, path: str, body: Any = None
    ) -> Any:
        """One JSON round trip; raises :class:`ServiceError` on >= 400."""
        status, data = self.request_bytes(method, path, body)
        try:
            decoded = json.loads(data.decode("utf-8")) if data else None
        except ValueError:
            decoded = {"error": {"code": "bad_payload",
                                 "message": data.decode("utf-8", "replace")}}
        if status >= 400:
            raise ServiceError(status, decoded)
        return decoded

    def request_bytes(
        self, method: str, path: str, body: Any = None
    ) -> Tuple[int, bytes]:
        """One round trip returning ``(status, raw body bytes)``.

        No JSON decoding and no :class:`ServiceError` raising — the
        transport for byte-identity assertions (e.g. that every worker
        of a multi-worker deployment serialises the same answer).
        """
        payload = None if body is None else json.dumps(body)
        headers = {"Content-Type": "application/json"} if payload else {}
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=payload, headers=headers)
                response = conn.getresponse()
                data = response.read()
                break
            except (
                http.client.RemoteDisconnected,
                ConnectionResetError,
                BrokenPipeError,
            ):
                # A dropped keep-alive connection gets one clean retry.
                self.close()
                if attempt:
                    raise
            except BaseException:
                # Any other failure (a garbled or truncated answer)
                # leaves the connection mid-exchange; drop it so the
                # next call starts fresh instead of CannotSendRequest.
                self.close()
                raise
        return response.status, data

    @staticmethod
    def _scenario_suffix(scenario: Optional[str]) -> str:
        return f"?scenario={scenario}" if scenario else ""

    # ------------------------------------------------------------------
    # ops surface
    # ------------------------------------------------------------------
    def healthz(self) -> Dict[str, Any]:
        return self.request("GET", "/healthz")

    def metrics(self) -> Dict[str, Any]:
        return self.request("GET", "/metrics")

    # ------------------------------------------------------------------
    # scenarios
    # ------------------------------------------------------------------
    def scenarios(self) -> Dict[str, Any]:
        return self.request("GET", "/v1/scenarios")

    def build_scenario(
        self,
        preset: str = "small",
        seed: Optional[int] = None,
        ases: Optional[int] = None,
        vps: Optional[int] = None,
        churn_rounds: Optional[int] = None,
        algorithms: Optional[Sequence[str]] = None,
    ) -> Dict[str, Any]:
        """``POST /v1/scenarios`` — build (or re-admit) a scenario."""
        body: Dict[str, Any] = {"preset": preset}
        if seed is not None:
            body["seed"] = seed
        if ases is not None:
            body["ases"] = ases
        if vps is not None:
            body["vps"] = vps
        if churn_rounds is not None:
            body["churn_rounds"] = churn_rounds
        if algorithms is not None:
            body["algorithms"] = list(algorithms)
        return self.request("POST", "/v1/scenarios", body)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def rel(
        self, algorithm: str, as1: int, as2: int,
        scenario: Optional[str] = None,
    ) -> Dict[str, Any]:
        return self.request(
            "GET",
            f"/v1/rel/{algorithm}/{as1}/{as2}"
            + self._scenario_suffix(scenario),
        )

    def rel_batch(
        self, algorithm: str, links: Sequence[LinkLike],
        scenario: Optional[str] = None,
    ) -> Dict[str, Any]:
        return self.request(
            "POST",
            f"/v1/rel/{algorithm}:batch" + self._scenario_suffix(scenario),
            {"links": [list(link) for link in links]},
        )

    def neighbors(
        self, asn: int, scenario: Optional[str] = None
    ) -> Dict[str, Any]:
        return self.request(
            "GET", f"/v1/as/{asn}/neighbors" + self._scenario_suffix(scenario)
        )

    def bias(
        self, algorithm: str = "asrank", scenario: Optional[str] = None
    ) -> Dict[str, Any]:
        return self.request(
            "GET", f"/v1/bias/{algorithm}" + self._scenario_suffix(scenario)
        )

    def table(
        self, algorithm: str = "asrank", scenario: Optional[str] = None
    ) -> Dict[str, Any]:
        return self.request(
            "GET", f"/v1/table/{algorithm}" + self._scenario_suffix(scenario)
        )

    def casestudy(
        self,
        algorithm: str = "asrank",
        class_name: str = "T1-TR",
        scenario: Optional[str] = None,
    ) -> Dict[str, Any]:
        path = f"/v1/casestudy?algorithm={algorithm}&class={class_name}"
        if scenario:
            path += f"&scenario={scenario}"
        return self.request("GET", path)
