from __future__ import annotations

import json
import os
import random
import re
import sqlite3
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from types import SimpleNamespace

import pytest
import requests

import dahl
from dahl.backends import (
    BackendSpec,
    CachedBackend,
    ChatRequest,
    HttpBackend,
    MockBackend,
    MockMissError,
    PermanentBackendError,
    RetryPolicy,
    ThrottledBackend,
    TokenBucket,
    TransientExhaustedError,
    build_http_backend,
    cache_key,
)
from dahl.types import GenConfig


class FakeResponse:
    def __init__(self, status_code, payload=None, body_text=""):
        self.status_code = status_code
        self._payload = payload
        self.text = body_text or (json.dumps(payload) if payload is not None else "")

    def json(self):
        if self._payload is None:
            raise ValueError("not json")
        return self._payload


class FakeSession:
    """Replays a script of FakeResponses / exceptions, recording calls."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = []
        self.closed = False

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        item = self.script.pop(0)
        if isinstance(item, Exception):
            raise item
        return item

    def close(self):
        self.closed = True


def ok_payload(text="All good.", finish="stop"):
    return {"choices": [{"message": {"content": text}, "finish_reason": finish}]}


def spec(**kwargs):
    defaults = dict(
        backend_id="gen",
        endpoint="http://unit.test/v1/chat",
        model="m-1",
        retry=RetryPolicy(max_attempts=4, base_backoff_s=0.5, max_backoff_s=30.0),
    )
    defaults.update(kwargs)
    return BackendSpec(**defaults)


def request(prompt="Say something.", temperature=0.6, max_tokens=64, seed=None):
    return ChatRequest(
        user_prompt=prompt,
        gen_config=GenConfig(temperature=temperature, max_tokens=max_tokens, seed=seed),
    )


def test_chat_request_rejects_empty_prompt():
    with pytest.raises(ValueError):
        ChatRequest(user_prompt="", gen_config=GenConfig())


def test_http_success_first_try():
    session = FakeSession([FakeResponse(200, ok_payload("Hi there.", "length"))])
    backend = HttpBackend(spec(), session=session, sleeper=lambda s: None)
    resp = backend.complete(request())
    assert resp.text == "Hi there."
    assert resp.finish_reason == "length"
    assert resp.attempts == 1
    assert not resp.from_cache
    body = session.calls[0]["json"]
    assert body["model"] == "m-1"
    assert body["temperature"] == 0.6
    assert body["max_tokens"] == 64
    assert "seed" not in body
    assert body["messages"] == [{"role": "user", "content": "Say something."}]


def test_http_request_carries_seed():
    session = FakeSession([FakeResponse(200, ok_payload())])
    backend = HttpBackend(spec(), session=session)
    backend.complete(request(seed=7))
    body = session.calls[0]["json"]
    assert body["seed"] == 7


def test_http_retries_429_then_succeeds():
    session = FakeSession(
        [FakeResponse(429), FakeResponse(429), FakeResponse(200, ok_payload())]
    )
    sleeps = []
    backend = HttpBackend(
        spec(), session=session, sleeper=sleeps.append, rng=random.Random(0)
    )
    resp = backend.complete(request())
    assert resp.attempts == 3
    assert len(session.calls) == 3
    # backoff grows exponentially with jitter in [delay/2, delay]
    assert 0.25 <= sleeps[0] <= 0.5
    assert 0.5 <= sleeps[1] <= 1.0


def test_http_retries_timeouts_and_connection_errors():
    session = FakeSession(
        [
            requests.Timeout("too slow"),
            requests.ConnectionError("reset"),
            requests.exceptions.ChunkedEncodingError("peer dropped the body"),
            requests.exceptions.ContentDecodingError("bad gzip"),
            FakeResponse(200, ok_payload()),
        ]
    )
    retry = RetryPolicy(max_attempts=5, base_backoff_s=0.5)
    backend = HttpBackend(spec(retry=retry), session=session, sleeper=lambda s: None)
    assert backend.complete(request()).attempts == 5


def test_http_other_transport_errors_are_permanent():
    session = FakeSession([requests.TooManyRedirects("redirect loop")])
    backend = HttpBackend(spec(), session=session, sleeper=lambda s: None)
    with pytest.raises(PermanentBackendError, match="TooManyRedirects"):
        backend.complete(request())
    assert len(session.calls) == 1


def test_http_gives_up_after_attempt_budget():
    session = FakeSession([FakeResponse(503)] * 4)
    backend = HttpBackend(spec(), session=session, sleeper=lambda s: None)
    with pytest.raises(TransientExhaustedError, match="after 4 attempts"):
        backend.complete(request())
    assert len(session.calls) == 4


def test_http_4xx_is_permanent_no_retry():
    session = FakeSession([FakeResponse(401, body_text="bad key")])
    sleeps = []
    backend = HttpBackend(spec(), session=session, sleeper=sleeps.append)
    with pytest.raises(PermanentBackendError, match="HTTP 401"):
        backend.complete(request())
    assert len(session.calls) == 1
    assert sleeps == []


def test_http_malformed_payload_is_permanent():
    session = FakeSession([FakeResponse(200, {"choices": []})])
    backend = HttpBackend(spec(), session=session)
    with pytest.raises(PermanentBackendError, match="malformed"):
        backend.complete(request())


def test_http_non_json_body_is_permanent():
    session = FakeSession([FakeResponse(200, None, body_text="<html>oops</html>")])
    backend = HttpBackend(spec(), session=session)
    with pytest.raises(PermanentBackendError, match="not JSON"):
        backend.complete(request())


def test_http_non_string_content_is_permanent():
    payload = {"choices": [{"message": {"content": 42}, "finish_reason": "stop"}]}
    backend = HttpBackend(spec(), session=FakeSession([FakeResponse(200, payload)]))
    with pytest.raises(PermanentBackendError, match="not a string"):
        backend.complete(request())


def test_http_reply_utf8_cannot_encode_is_permanent_and_never_cached(tmp_path):
    session = FakeSession(
        [FakeResponse(200, ok_payload("Gout \ud800 flares.")), FakeResponse(200, ok_payload())]
    )
    with CachedBackend(HttpBackend(spec(), session=session), str(tmp_path)) as backend:
        with pytest.raises(PermanentBackendError, match=r"backend gen: .* holds U\+D800"):
            backend.complete(request())
        assert len(session.calls) == 1
        assert backend.complete(request()).text == "All good."  # nothing cached: calls again
    assert len(session.calls) == 2


def test_unknown_finish_reason_normalizes_to_other():
    session = FakeSession([FakeResponse(200, ok_payload(finish="content_filter"))])
    backend = HttpBackend(spec(), session=session)
    assert backend.complete(request()).finish_reason == "other"


def test_auth_token_read_from_environment(monkeypatch):
    monkeypatch.setenv("UNIT_TEST_TOKEN", "sekrit")
    session = FakeSession([FakeResponse(200, ok_payload())])
    backend = HttpBackend(spec(auth_env="UNIT_TEST_TOKEN"), session=session)
    backend.complete(request())
    assert session.calls[0]["headers"]["Authorization"] == "Bearer sekrit"


def test_missing_auth_env_fails_before_any_call(monkeypatch):
    monkeypatch.delenv("UNIT_TEST_TOKEN", raising=False)
    session = FakeSession([])
    with pytest.raises(PermanentBackendError, match="UNIT_TEST_TOKEN"):
        HttpBackend(spec(auth_env="UNIT_TEST_TOKEN"), session=session)
    assert session.calls == []


# ---------------------------------------------------------------------------
# throttling


def test_token_bucket_waits_with_fake_clock():
    now = [0.0]
    sleeps = []

    def clock():
        return now[0]

    def sleeper(s):
        sleeps.append(s)
        now[0] += s

    bucket = TokenBucket(2.0, clock=clock, sleeper=sleeper)
    bucket.acquire()
    bucket.acquire()  # burst capacity of 2
    bucket.acquire()  # must wait for a refill
    assert sleeps and sleeps[0] == pytest.approx(0.5)


def test_token_bucket_refills_over_time():
    now = [0.0]
    bucket = TokenBucket(1.0, clock=lambda: now[0], sleeper=lambda s: None)
    bucket.acquire()
    now[0] += 5.0
    bucket.acquire()  # refilled, no sleep needed


def test_token_bucket_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        TokenBucket(0.0)


class InstrumentedBackend:
    backend_id = "inner"
    model = "inner-model"

    def __init__(self):
        self._lock = threading.Lock()
        self.active = 0
        self.max_active = 0

    def complete(self, req):
        with self._lock:
            self.active += 1
            self.max_active = max(self.max_active, self.active)
        time.sleep(0.005)
        with self._lock:
            self.active -= 1
        from dahl.backends import ChatResponse

        return ChatResponse(text="ok")


def test_throttled_backend_caps_concurrency():
    inner = InstrumentedBackend()
    throttled = ThrottledBackend(inner, max_concurrency=3)
    with ThreadPoolExecutor(max_workers=10) as pool:
        list(pool.map(lambda _: throttled.complete(request()), range(20)))
    assert inner.max_active <= 3


def test_throttled_backend_validates_concurrency():
    with pytest.raises(ValueError):
        ThrottledBackend(InstrumentedBackend(), max_concurrency=0)


# ---------------------------------------------------------------------------
# caching


def addressee(role="gen", model="model-x", endpoint=None):
    """Just the attributes cache_key reads from a backend."""
    return SimpleNamespace(backend_id=role, model=model, endpoint=endpoint)


def test_cache_key_depends_on_every_field():
    base = request("prompt A", temperature=0.2, max_tokens=10, seed=1)
    to = addressee()
    k = cache_key(base, to)
    assert k != cache_key(request("prompt B", temperature=0.2, max_tokens=10, seed=1), to)
    assert k != cache_key(request("prompt A", temperature=0.3, max_tokens=10, seed=1), to)
    assert k != cache_key(request("prompt A", temperature=0.2, max_tokens=11, seed=1), to)
    assert k != cache_key(request("prompt A", temperature=0.2, max_tokens=10, seed=2), to)
    assert k != cache_key(base, addressee(model="model-y"))
    assert k != cache_key(base, addressee(endpoint="http://b.test/v1/chat"))
    assert k != cache_key(base, addressee(role="checker"))
    assert k == cache_key(request("prompt A", temperature=0.2, max_tokens=10, seed=1), to)


def test_cache_hit_skips_inner_backend(tmp_path):
    inner = MockBackend(default="cached answer", model="m")
    cached = CachedBackend(inner, str(tmp_path / "cache"))
    first = cached.complete(request("same prompt"))
    second = cached.complete(request("same prompt"))
    assert inner.calls == 1
    assert not first.from_cache
    assert second.from_cache
    assert second.text == "cached answer"
    assert second.attempts == 0
    assert second.latency_ms == 0


def test_cache_misses_on_different_temperature(tmp_path):
    inner = MockBackend(default="x", model="m")
    cached = CachedBackend(inner, str(tmp_path))
    cached.complete(request("p", temperature=0.1))
    cached.complete(request("p", temperature=0.9))
    assert inner.calls == 2


def _sql(cache_dir, statement):
    """Run one statement on the cache file through a connection of its own."""
    path = os.path.join(cache_dir, "cache.sqlite")
    with closing(sqlite3.connect(path, isolation_level=None)) as db:
        return db.execute(statement).fetchall()


def _rows(cache_dir):
    return _sql(cache_dir, "SELECT key, text, finish_reason FROM responses")


def test_cache_is_one_sqlite_file_that_persists_across_instances(tmp_path):
    inner = MockBackend(default="stored", model="m")
    CachedBackend(inner, str(tmp_path)).complete(request("persist me"))
    assert set(os.listdir(tmp_path)) <= {"cache.sqlite", "cache.sqlite-wal", "cache.sqlite-shm"}
    assert _rows(tmp_path) == [(cache_key(request("persist me"), inner), "stored", "stop")]

    resp = CachedBackend(inner, str(tmp_path)).complete(request("persist me"))
    assert resp.from_cache and resp.text == "stored"
    assert inner.calls == 1


def test_corrupt_cache_entry_is_a_miss_and_gets_rewritten(tmp_path):
    inner = MockBackend(default="fresh", model="m")
    cached = CachedBackend(inner, str(tmp_path))
    req = request("poisoned")
    cached.complete(req)
    _sql(tmp_path, "UPDATE responses SET text = 42")
    resp = cached.complete(req)
    assert not resp.from_cache
    assert inner.calls == 2
    assert _rows(tmp_path) == [(cache_key(req, inner), "fresh", "stop")]
    assert cached.complete(req).from_cache


def test_cache_file_that_is_not_a_database_names_the_path(tmp_path):
    path = tmp_path / "cache.sqlite"
    path.write_bytes(b"this is not an SQLite database, just some bytes" * 4)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        CachedBackend(MockBackend(default="x"), str(tmp_path))


def test_cache_failure_is_not_stored(tmp_path):
    cached = CachedBackend(MockBackend(rules=[("known", "x")], model="m"), str(tmp_path))
    with pytest.raises(MockMissError):
        cached.complete(request("another prompt"))
    assert _rows(tmp_path) == []


def test_cache_shared_by_16_threads(tmp_path):
    def reply(req):
        time.sleep(0.001)
        return req.user_prompt.upper()

    inner = MockBackend(default=reply, model="m")
    cached = CachedBackend(inner, str(tmp_path))
    prompts = [f"prompt {i // 16}" for i in range(640)]  # 40 keys, each asked 16 times in a row
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=16) as pool:
            replies = list(pool.map(lambda p: cached.complete(request(p)).text, prompts))
    finally:
        sys.setswitchinterval(old_interval)
    assert replies == [p.upper() for p in prompts]
    assert len(_rows(tmp_path)) == 40
    calls = inner.calls
    assert all(cached.complete(request(p)).from_cache for p in set(prompts))
    assert inner.calls == calls


def test_closed_cache_leaves_only_its_file_and_keeps_every_row(tmp_path):
    prompts = [f"prompt {i}" for i in range(20)]
    inner = MockBackend(default=lambda req: req.user_prompt.upper(), model="m")
    with CachedBackend(inner, str(tmp_path)) as cached:
        for p in prompts:
            cached.complete(request(p))
    cached.close()  # closing twice is harmless
    assert os.listdir(tmp_path) == ["cache.sqlite"]

    strict = MockBackend(model="m")  # any miss would raise
    with CachedBackend(strict, str(tmp_path)) as reopened:
        replies = [reopened.complete(request(p)) for p in prompts]
    assert all(r.from_cache for r in replies)
    assert [r.text for r in replies] == [p.upper() for p in prompts]
    assert strict.calls == 0
    assert os.listdir(tmp_path) == ["cache.sqlite"]


def test_close_reaches_the_session_only_when_the_backend_made_it(tmp_path, monkeypatch):
    closed = []
    monkeypatch.setattr(requests.Session, "close", lambda self: closed.append(self))
    build_http_backend(spec(), cache_dir=str(tmp_path)).close()
    assert len(closed) == 1
    assert os.listdir(tmp_path) == ["cache.sqlite"]

    injected = FakeSession([])
    ThrottledBackend(HttpBackend(spec(), session=injected), max_concurrency=2).close()
    assert not injected.closed
    ThrottledBackend(MockBackend(), max_concurrency=2).close()  # nothing to close inside
    assert len(closed) == 1


def test_two_endpoints_sharing_a_cache_dir_do_not_share_entries(tmp_path, monkeypatch):
    urls = []

    def post(self, url, json=None, headers=None, timeout=None):
        urls.append(url)
        return FakeResponse(200, ok_payload(f"from {url}"))

    monkeypatch.setattr(requests.Session, "post", post)
    a = build_http_backend(spec(endpoint="http://a.test/v1/chat"), cache_dir=str(tmp_path))
    b = build_http_backend(spec(endpoint="http://b.test/v1/chat"), cache_dir=str(tmp_path))
    assert a.complete(request()).text == "from http://a.test/v1/chat"
    assert b.complete(request()).text == "from http://b.test/v1/chat"
    assert a.complete(request()).from_cache and b.complete(request()).from_cache
    assert urls == ["http://a.test/v1/chat", "http://b.test/v1/chat"]


# ---------------------------------------------------------------------------
# mock backend


def test_mock_rules_first_match_wins_case_insensitive():
    backend = MockBackend(
        rules=[("alpha", "first"), ("ALPHA BETA", "never reached"), ("beta", "second")]
    )
    assert backend.complete(request("contains Alpha Beta")).text == "first"
    assert backend.complete(request("only BETA here")).text == "second"
    assert backend.calls == 2


def test_mock_callable_reply_sees_the_request():
    backend = MockBackend(rules=[("echo", lambda req: req.user_prompt.upper())])
    assert backend.complete(request("echo this")).text == "ECHO THIS"


def test_mock_default_and_miss():
    assert MockBackend(default="fallback").complete(request("anything")).text == "fallback"
    strict = MockBackend(rules=[("nope", "x")])
    with pytest.raises(MockMissError, match="no rule matches"):
        strict.complete(request("a very distinctive prompt"))
    try:
        strict.complete(request("a very distinctive prompt"))
    except MockMissError as exc:
        assert "a very distinctive prompt" in str(exc)


def test_mock_miss_is_a_permanent_backend_error():
    assert issubclass(MockMissError, PermanentBackendError)


# ---------------------------------------------------------------------------
# assembly


def test_build_http_backend_stacks_cache_over_throttle(tmp_path):
    # The throttle sits between cache and HTTP only for a declared provider limit.
    with build_http_backend(spec(), cache_dir=str(tmp_path)) as backend:
        assert isinstance(backend._inner, HttpBackend)
        assert backend.backend_id == "gen"
        assert backend.model == "m-1"
    with build_http_backend(spec(max_concurrency=2), cache_dir=str(tmp_path)) as capped:
        assert isinstance(capped._inner, ThrottledBackend)
        assert isinstance(capped._inner._inner, HttpBackend)
    assert isinstance(build_http_backend(spec()), HttpBackend)
    rate_only = build_http_backend(spec(requests_per_second=5.0))
    assert isinstance(rate_only, ThrottledBackend)
    assert not isinstance(rate_only._slots, threading.BoundedSemaphore)


def _heavy_modules_after(code):
    """Which of requests, urllib3 and sqlite3 a fresh interpreter holds after running code."""
    probe = code + (
        "\nimport sys"
        "\nprint(' '.join(m for m in ('requests', 'urllib3', 'sqlite3') if m in sys.modules))"
    )
    src = os.path.dirname(os.path.dirname(dahl.__file__))
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout.split()


def test_an_offline_run_loads_neither_the_http_client_nor_sqlite():
    code = "import dahl.cli, dahl.pipeline, dahl.dataset, dahl.mocks, dahl.score"
    assert _heavy_modules_after(code) == []


def test_each_backend_loads_only_what_it_uses():
    http = (
        "from dahl.backends import BackendSpec, HttpBackend\n"
        "HttpBackend(BackendSpec('gen', 'http://unit.test/v1/chat', 'm'), session=object())"
    )
    cached = (
        "import tempfile\n"
        "from dahl.backends import CachedBackend, MockBackend\n"
        "with tempfile.TemporaryDirectory() as d:\n"
        "    CachedBackend(MockBackend(), d).close()"
    )
    assert _heavy_modules_after(http) == ["requests", "urllib3"]
    assert _heavy_modules_after(cached) == ["sqlite3"]
