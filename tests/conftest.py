from __future__ import annotations

import pytest


@pytest.fixture(autouse=True)
def disable_network(monkeypatch):
    """Fail fast if any test in this directory opens a socket."""
    import socket

    def guard(*args, **kwargs):
        raise AssertionError("network access attempted during an offline test")

    monkeypatch.setattr(socket.socket, "connect", guard)
    monkeypatch.setattr(socket, "create_connection", guard)
