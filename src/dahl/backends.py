"""Chat-completion backends.

Four layers, composable from the inside out:

  HttpBackend        talks JSON to a chat-completion endpoint with
                     retries (exponential backoff plus jitter)
  ThrottledBackend   caps in-flight calls and request rate
  CachedBackend      response cache in one SQLite file, keyed by a
                     hash of the request and of who it goes to, so
                     reruns and resumes cost nothing
  MockBackend        deterministic offline stand-in for tests

Auth tokens come only from environment variables named in the
BackendSpec; they never appear in config files or on disk.
"""

from __future__ import annotations

import hashlib
import os
import random
import sqlite3
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol, Sequence, Tuple, Union

import requests

from .records import dumps_compact
from .types import GenConfig


class BackendError(Exception):
    """Base for all completion failures."""


class PermanentBackendError(BackendError):
    """Non-retryable failure (4xx other than 429, malformed reply, bad auth)."""


class TransientExhaustedError(BackendError):
    """Retryable failures kept happening until the attempt budget ran out."""


class MockMissError(PermanentBackendError):
    """A mock backend had no rule for the prompt and no default."""


@dataclass(frozen=True)
class ChatRequest:
    """What is sent; the backend it is sent to says who answers."""

    user_prompt: str
    gen_config: GenConfig

    def __post_init__(self) -> None:
        if not self.user_prompt:
            raise ValueError("user_prompt must be non-empty")


@dataclass(frozen=True)
class ChatResponse:
    """One completion. attempts counts network tries (0 for cache hits)."""

    text: str
    finish_reason: str = "stop"
    latency_ms: int = 0
    from_cache: bool = False
    attempts: int = 1


@dataclass(frozen=True)
class RetryPolicy:
    max_attempts: int = 5
    base_backoff_s: float = 0.5
    max_backoff_s: float = 30.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts: must be >= 1, got {self.max_attempts}")
        if not self.base_backoff_s >= 0:
            raise ValueError(f"base_backoff_s: must be >= 0, got {self.base_backoff_s}")


@dataclass(frozen=True)
class BackendSpec:
    """Wiring for one HTTP backend."""

    backend_id: str
    endpoint: str
    model: str
    auth_env: Optional[str] = None
    max_concurrency: int = 4
    timeout_s: float = 60.0
    requests_per_second: Optional[float] = None  # None: no limit
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        if not self.backend_id:
            raise ValueError("backend_id: must be non-empty")
        if self.max_concurrency < 1:
            raise ValueError(f"max_concurrency: must be >= 1, got {self.max_concurrency}")
        if not self.timeout_s > 0:
            raise ValueError(f"timeout_s: must be > 0, got {self.timeout_s}")
        if self.requests_per_second is not None and not self.requests_per_second > 0:
            raise ValueError(
                f"requests_per_second: must be > 0 or unset, got {self.requests_per_second}"
            )


class Backend(Protocol):
    backend_id: str
    model: str

    def complete(self, req: ChatRequest) -> ChatResponse:
        ...


_TRANSIENT_TRANSPORT_ERRORS = (
    requests.Timeout,
    requests.ConnectionError,
    requests.exceptions.ChunkedEncodingError,
    requests.exceptions.ContentDecodingError,
)


def _normalize_finish_reason(raw: Optional[str]) -> str:
    if raw in ("stop", "length"):
        return raw
    return "other"


class HttpBackend:
    """Plain JSON chat-completion client with retry logic.

    The auth token is read once, on construction, which fails if its
    variable is unset. The session and sleep function are injectable
    for tests. 429 and 5xx responses, timeouts, connection drops, and
    bodies cut off or garbled in transit are retried with exponential
    backoff and jitter; other 4xx and any other transport error fail
    immediately. Every failure surfaces as a BackendError.
    """

    def __init__(
        self,
        spec: BackendSpec,
        session: Optional[requests.Session] = None,
        sleeper: Callable[[float], None] = time.sleep,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.spec = spec
        self.backend_id = spec.backend_id
        self.model = spec.model
        self.endpoint = spec.endpoint
        self._headers = {"Content-Type": "application/json"}
        if spec.auth_env:
            token = os.environ.get(spec.auth_env)
            if not token:
                raise PermanentBackendError(
                    f"backend {self.backend_id}: auth env var {spec.auth_env} is not set"
                )
            self._headers["Authorization"] = f"Bearer {token}"
        self._owns_session = session is None
        self._session = session if session is not None else requests.Session()
        self._sleep = sleeper
        self._rng = rng if rng is not None else random.Random()

    def _body(self, req: ChatRequest) -> dict:
        body = {
            "model": self.spec.model,
            "messages": [{"role": "user", "content": req.user_prompt}],
            "temperature": req.gen_config.temperature,
            "max_tokens": req.gen_config.max_tokens,
        }
        if req.gen_config.seed is not None:
            body["seed"] = req.gen_config.seed
        return body

    def _parse(self, payload: dict) -> Tuple[str, str]:
        try:
            choice = payload["choices"][0]
            text = choice["message"]["content"]
            finish = _normalize_finish_reason(choice.get("finish_reason"))
        except (KeyError, IndexError, TypeError) as exc:
            raise PermanentBackendError(
                f"backend {self.backend_id}: malformed completion payload ({exc!r})"
            ) from exc
        if not isinstance(text, str):
            raise PermanentBackendError(
                f"backend {self.backend_id}: completion content is not a string"
            )
        return text, finish

    def _backoff(self, attempt: int) -> float:
        policy = self.spec.retry
        delay = min(policy.max_backoff_s, policy.base_backoff_s * (2.0 ** (attempt - 1)))
        return self._rng.uniform(delay / 2.0, delay)

    def complete(self, req: ChatRequest) -> ChatResponse:
        body = self._body(req)
        policy = self.spec.retry
        last_failure = "no attempt made"
        started = time.monotonic()
        for attempt in range(1, policy.max_attempts + 1):
            try:
                resp = self._session.post(
                    self.endpoint, json=body, headers=self._headers, timeout=self.spec.timeout_s
                )
            except _TRANSIENT_TRANSPORT_ERRORS as exc:
                last_failure = f"{type(exc).__name__}: {exc}"
            except requests.RequestException as exc:
                raise PermanentBackendError(
                    f"backend {self.backend_id}: {type(exc).__name__}: {exc}"
                ) from exc
            else:
                if resp.status_code == 200:
                    try:
                        payload = resp.json()
                    except ValueError as exc:
                        raise PermanentBackendError(
                            f"backend {self.backend_id}: response is not JSON ({exc})"
                        ) from exc
                    text, finish = self._parse(payload)
                    latency_ms = int((time.monotonic() - started) * 1000)
                    return ChatResponse(
                        text=text,
                        finish_reason=finish,
                        latency_ms=latency_ms,
                        from_cache=False,
                        attempts=attempt,
                    )
                if resp.status_code == 429 or resp.status_code >= 500:
                    last_failure = f"HTTP {resp.status_code}"
                else:
                    raise PermanentBackendError(
                        f"backend {self.backend_id}: HTTP {resp.status_code} "
                        f"({resp.text[:200]})"
                    )
            if attempt < policy.max_attempts:
                self._sleep(self._backoff(attempt))
        raise TransientExhaustedError(
            f"backend {self.backend_id}: still failing after {policy.max_attempts} attempts "
            f"({last_failure})"
        )

    def close(self) -> None:
        """Close the session if this backend created it; an injected one stays open."""
        if self._owns_session:
            self._session.close()


class TokenBucket:
    """Client-side rate limiter. Thread-safe; clock injectable for tests."""

    def __init__(
        self,
        rate_per_second: float,
        clock: Callable[[], float] = time.monotonic,
        sleeper: Callable[[float], None] = time.sleep,
    ) -> None:
        if rate_per_second <= 0:
            raise ValueError("rate_per_second must be positive")
        self._rate = rate_per_second
        self._capacity = max(1.0, rate_per_second)
        self._tokens = self._capacity
        self._clock = clock
        self._sleep = sleeper
        self._last = clock()
        self._lock = threading.Lock()

    def acquire(self) -> None:
        while True:
            with self._lock:
                now = self._clock()
                self._tokens = min(self._capacity, self._tokens + (now - self._last) * self._rate)
                self._last = now
                if self._tokens >= 1.0:
                    self._tokens -= 1.0
                    return
                wait = (1.0 - self._tokens) / self._rate
            self._sleep(wait)


class ThrottledBackend:
    """Caps in-flight calls (semaphore) and request rate (token bucket)."""

    def __init__(
        self,
        inner: Backend,
        max_concurrency: int,
        requests_per_second: Optional[float] = None,
    ) -> None:
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        self._inner = inner
        self.backend_id = inner.backend_id
        self.model = inner.model
        self.endpoint = endpoint_of(inner)
        self._semaphore = threading.BoundedSemaphore(max_concurrency)
        self._bucket = TokenBucket(requests_per_second) if requests_per_second is not None else None

    def complete(self, req: ChatRequest) -> ChatResponse:
        with self._semaphore:
            if self._bucket is not None:
                self._bucket.acquire()
            return self._inner.complete(req)

    def close(self) -> None:
        close_backend(self._inner)


def cache_key(req: ChatRequest, backend: Backend) -> str:
    """Content hash of a request and of the role, model and endpoint it goes to."""
    material = dumps_compact(
        {
            "backend_id": backend.backend_id,
            "endpoint": endpoint_of(backend),
            "max_tokens": req.gen_config.max_tokens,
            "model": backend.model,
            "seed": req.gen_config.seed,
            "temperature": req.gen_config.temperature,
            "user_prompt": req.user_prompt,
        }
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class CachedBackend:
    """Response cache in front of another backend.

    One SQLite file, cache_dir/cache.sqlite, maps cache_key (request,
    role, model and endpoint) to the reply. WAL with synchronous=NORMAL:
    a crash can lose the last entries, which only costs misses. A row
    whose text or finish_reason is not a str is a miss and gets
    overwritten; failures are never stored.
    """

    def __init__(self, inner: Backend, cache_dir: str) -> None:
        self._inner = inner
        self.backend_id = inner.backend_id
        self.model = inner.model
        self.endpoint = endpoint_of(inner)
        self._lock = threading.Lock()
        os.makedirs(cache_dir, exist_ok=True)
        path = os.path.join(cache_dir, "cache.sqlite")
        self._db = sqlite3.connect(path, check_same_thread=False, isolation_level=None)
        try:
            self._db.executescript(
                "PRAGMA journal_mode=WAL; PRAGMA synchronous=NORMAL; CREATE TABLE IF NOT EXISTS"
                " responses (key TEXT PRIMARY KEY, text, finish_reason) WITHOUT ROWID;"
            )
        except sqlite3.DatabaseError as exc:
            self._db.close()
            raise ValueError(f"response cache {path}: {exc}") from exc

    def complete(self, req: ChatRequest) -> ChatResponse:
        key = cache_key(req, self)
        with self._lock:
            row = self._db.execute(
                "SELECT text, finish_reason FROM responses WHERE key = ?", (key,)
            ).fetchone()
        if row and isinstance(row[0], str) and isinstance(row[1], str):
            return ChatResponse(row[0], row[1], latency_ms=0, from_cache=True, attempts=0)
        resp = self._inner.complete(req)
        with self._lock:
            self._db.execute(
                "REPLACE INTO responses VALUES (?, ?, ?)", (key, resp.text, resp.finish_reason)
            )
        return resp

    def close(self) -> None:
        """Close the cache file, then the backend behind it. Safe to call twice.

        Closing checkpoints the write-ahead log into cache.sqlite and
        removes the -wal and -shm files.
        """
        with self._lock:
            self._db.close()
        close_backend(self._inner)

    def __enter__(self) -> "CachedBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


MockRule = Tuple[str, Union[str, Callable[[ChatRequest], str]]]


class MockBackend:
    """Deterministic offline backend driven by substring rules.

    rules is an ordered sequence of (needle, reply) pairs; the first
    needle found in the user prompt (case-insensitive) wins. A reply
    may be a string or a callable taking the ChatRequest. With no
    match, the default applies; with no default either, the call fails
    naming the prompt.
    """

    def __init__(
        self,
        rules: Optional[Sequence[MockRule]] = None,
        default: Optional[Union[str, Callable[[ChatRequest], str]]] = None,
        backend_id: str = "mock",
        model: str = "mock-model",
    ) -> None:
        self._rules = list(rules) if rules else []
        self._default = default
        self.backend_id = backend_id
        self.model = model
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, req: ChatRequest) -> ChatResponse:
        with self._lock:
            self.calls += 1
        prompt_cf = req.user_prompt.casefold()
        reply: Optional[Union[str, Callable[[ChatRequest], str]]] = None
        for needle, out in self._rules:
            if needle.casefold() in prompt_cf:
                reply = out
                break
        if reply is None:
            if self._default is None:
                raise MockMissError(
                    f"mock backend {self.backend_id}: no rule matches prompt "
                    f"{req.user_prompt[:160]!r}"
                )
            reply = self._default
        text = reply(req) if callable(reply) else reply
        return ChatResponse(text)


def close_backend(backend: Backend) -> None:
    """Release what a backend holds open; backends without close() hold nothing."""
    close = getattr(backend, "close", None)
    if close is not None:
        close()


def endpoint_of(backend: Backend) -> Optional[str]:
    """The URL a backend's calls go to; None for one without (a mock, say)."""
    return getattr(backend, "endpoint", None)


def build_http_backend(spec: BackendSpec, cache_dir: Optional[str] = None) -> Backend:
    """Assemble the standard stack: cache over throttle over HTTP."""
    backend: Backend = HttpBackend(spec)
    backend = ThrottledBackend(
        backend, spec.max_concurrency, requests_per_second=spec.requests_per_second
    )
    if cache_dir:
        backend = CachedBackend(backend, cache_dir)
    return backend
