"""Fixtures shared by the service tests."""

from __future__ import annotations

import pytest

from tests.service.stub_server import StubServer


@pytest.fixture
def serve():
    """Start stub servers for one test; each is closed at teardown."""
    servers = []

    def start(handler):
        server = StubServer(handler)
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.close()
