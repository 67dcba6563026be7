from __future__ import annotations

import pytest


@pytest.fixture
def disable_network(monkeypatch):
    """Fail fast if anything opens a socket during the test."""
    import socket

    def guard(*args, **kwargs):
        raise AssertionError("network access attempted during an offline test")

    monkeypatch.setattr(socket.socket, "connect", guard)
    monkeypatch.setattr(socket, "create_connection", guard)
