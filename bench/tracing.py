"""Span tracing for the traced benchmark run, and the per-layer metrics.

Spans are recorded only from the benchmark's own files, in two ways:

* timing shims that the benchmark inserts between the backend layers it
  composes (TimedBackend, TimedSession, timed_sleeper);
* for the traced run only, rebinding the module-level names that dahl
  calls (HOOKS), restored when the run ends.

Each span has a name, start, end, parent and question id. Spans are
kept in memory; a span opened in a thread with no open span gets the
tracer's current root as its parent, so pool threads hang under the run
that started them. Self time is a span's duration minus the part of it
covered by its children's intervals.
"""

from __future__ import annotations

import importlib
import itertools
import json
import math
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


class HookError(RuntimeError):
    """A name the tracer hooks no longer exists in dahl."""


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    qid: Optional[str] = None
    n: Optional[int] = None  # work count noted by the hook (units, items, bytes)
    failed: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._ids = itertools.count()
        self._root: Optional[Span] = None

    @contextmanager
    def span(self, name: str, qid: Optional[str] = None) -> Iterator[Span]:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self._root
        if qid is None and parent is not None:
            qid = parent.qid
        span = Span(
            sid=next(self._ids),
            name=name,
            start=time.perf_counter(),
            parent=None if parent is None else parent.sid,
            qid=qid,
        )
        stack.append(span)
        try:
            yield span
        except BaseException:
            span.failed = True
            raise
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    @contextmanager
    def root(self, name: str) -> Iterator[Span]:
        """A span that also parents spans opened in threads with no open span."""
        with self.span(name) as span:
            previous, self._root = self._root, span
            try:
                yield span
            finally:
                self._root = previous

    def wrap(
        self,
        name: str,
        fn: Callable,
        qid_of: Optional[Callable] = None,
        note: Optional[Callable] = None,
    ) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name, qid_of(args) if qid_of else None) as span:
                result = fn(*args, **kwargs)
                if note is not None:
                    span.n = note(args, result)
                return result

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(span.sid, ())):
            start = max(start, reach)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out[span.sid] = span.duration - covered
    return out


# --- hooks on dahl's module-level names --------------------------------------


def _qid(args) -> str:
    return args[0].question_id


def _units(args, result) -> int:
    return len(result.units)


def _items(args, result) -> int:
    return len(result)


def _file_size(args, result) -> int:
    return os.path.getsize(args[1])


# (module, name, span name, question id of the call, work count of the call)
Hook = Tuple[str, str, str, Optional[Callable], Optional[Callable]]
HOOKS: List[Hook] = [
    ("dahl.pipeline", "generate_response", "responses.generate_response", _qid, None),
    ("dahl.pipeline", "preprocess", "responses.preprocess", _qid, None),
    ("dahl.pipeline", "split_into_units", "split.split_into_units", _qid, _units),
    ("dahl.pipeline", "check_response", "check.check_response", _qid, _units),
    ("dahl.pipeline", "write_records", "records.write_records", None, _file_size),
    ("dahl.pipeline", "read_eval_records", "records.read_eval_records", None, None),
    ("dahl.pipeline", "dahl_score", "score.dahl_score", None, None),
    ("dahl.pipeline", "write_report_files", "score.write_report_files", None, None),
    ("dahl.responses", "segment_sentences", "responses.segment_sentences", None, None),
    ("dahl.split", "parse_list_output", "listparse.parse_list_output", None, _items),
    ("dahl.check", "parse_checker_output", "check.parse_checker_output", None, None),
    ("dahl.defaults", "parse_line_file", "defaults.parse_line_file", None, None),
    ("dahl.dataset", "generate_questions", "dataset.generate_questions", None, _items),
    ("dahl.dataset", "parse_list_output", "listparse.parse_list_output", None, _items),
    ("dahl.dataset", "filter_context_dependent", "dataset.filter_context_dependent", None, None),
    ("dahl.dataset", "resolve_category_reply", "dataset.resolve_category_reply", None, None),
    ("dahl.dataset", "categorize", "dataset.categorize", None, None),
    # Called by the benchmark itself when it writes a built dataset.
    ("dahl.records", "write_records", "records.write_records", None, _file_size),
]


@contextmanager
def hooked(tracer: Tracer, hooks: Sequence[Hook] = HOOKS) -> Iterator[None]:
    """Rebind every hooked name to a traced wrapper; restore on exit.

    Raises HookError before tracing anything if a name is gone, so a
    renamed function fails the run instead of reporting zero.
    """
    originals = []
    for module_name, attr, _, _, _ in hooks:
        fn = getattr(importlib.import_module(module_name), attr, None)
        if not callable(fn):
            raise HookError(f"{module_name}.{attr} no longer exists; update HOOKS in bench/tracing.py")
        originals.append(fn)
    installed = []
    try:
        for (module_name, attr, name, qid_of, note), fn in zip(hooks, originals):
            module = importlib.import_module(module_name)
            setattr(module, attr, tracer.wrap(name, fn, qid_of, note))
            installed.append((module, attr, fn))
        yield
    finally:
        for module, attr, fn in reversed(installed):
            setattr(module, attr, fn)


# --- timing shims between backend layers -------------------------------------


class TimedBackend:
    """Backend layer shim: one span per complete() call."""

    def __init__(self, inner, tracer: Tracer, name: str) -> None:
        self._inner = inner
        self._tracer = tracer
        self._name = name
        self.backend_id = inner.backend_id
        self.model = inner.model

    def complete(self, req):
        with self._tracer.span(self._name):
            return self._inner.complete(req)


class TimedSession:
    """HTTP session shim: one span per post(), the simulated server's time."""

    def __init__(self, inner, tracer: Tracer, name: str) -> None:
        self._inner = inner
        self._tracer = tracer
        self._name = name

    def post(self, *args, **kwargs):
        with self._tracer.span(self._name):
            return self._inner.post(*args, **kwargs)


def timed_sleeper(tracer: Tracer, name: str) -> Callable[[float], None]:
    def sleep(seconds: float) -> None:
        with tracer.span(name):
            time.sleep(seconds)

    return sleep


# --- per-layer metrics -------------------------------------------------------

ROLES = ("generator", "splitter", "checker", "question_generator", "categorizer")
_RUN_SPANS = ("run.evaluate", "run.build_dataset")
_STAGES = ("generate", "preprocess", "split", "check", "score")
_MODULES = ("responses", "split", "check", "listparse", "defaults", "records", "score", "dataset")


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]; 0.0 for no values."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def layer_metrics(
    spans: Sequence[Span], iterations: int, questions: int, concurrency: int
) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics from the spans of `iterations` traced iterations.

    Totals are reported per iteration (one measured run of the
    workload); `questions` is the number of questions per iteration.
    A layer the workload never reaches reads 0.
    """
    by_id = {s.sid: s for s in spans}
    own = self_times(spans)
    named: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        named[span.name].append(span)

    def prefixed(prefix: str) -> List[Span]:
        return [s for s in spans if s.name.startswith(prefix)]

    def per_iter(value: float) -> float:
        return value / iterations

    def mean(values: Sequence[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    def parent_name(span: Span) -> Optional[str]:
        parent = by_id.get(span.parent) if span.parent is not None else None
        return None if parent is None else parent.name

    m: Dict[str, Tuple[float, str]] = {}

    preprocess_us = [s.duration * 1e6 for s in named["responses.preprocess"]]
    m["responses.preprocess_us_p50"] = (percentile(preprocess_us, 50), "us")
    m["responses.preprocess_us_p99"] = (percentile(preprocess_us, 99), "us")
    segments = named["responses.segment_sentences"]
    m["responses.segment_sentences_s"] = (per_iter(sum(s.duration for s in segments)), "s")
    m["responses.segment_sentences.calls"] = (per_iter(len(segments)), "count")
    m["defaults.parse_line_file.calls_per_question"] = (
        per_iter(len(named["defaults.parse_line_file"])) / questions,
        "count",
    )

    splits = named["split.split_into_units"]
    parses = named["listparse.parse_list_output"]
    m["split.self_us_per_record"] = (mean([own[s.sid] * 1e6 for s in splits]), "us")
    m["split.units_per_record"] = (mean([s.n or 0 for s in splits if not s.failed]), "count")
    m["split.parse_failures"] = (
        per_iter(sum(1 for s in parses if s.n == 0 and parent_name(s) == "split.split_into_units")),
        "count",
    )
    parse_us = [s.duration * 1e6 for s in parses]
    m["listparse.parse_us_p50"] = (percentile(parse_us, 50), "us")
    m["listparse.parse_us_p99"] = (percentile(parse_us, 99), "us")

    checks = named["check.check_response"]
    units_checked = sum(s.n or 0 for s in checks)
    m["check.self_us_per_unit"] = (
        sum(own[s.sid] for s in checks) * 1e6 / units_checked if units_checked else 0.0,
        "us",
    )
    m["check.parse_checker_output_us_p50"] = (
        percentile([s.duration * 1e6 for s in named["check.parse_checker_output"]], 50),
        "us",
    )

    runs = [s for s in spans if s.name in _RUN_SPANS]
    run_time = sum(s.duration for s in runs)
    stage_s = dict.fromkeys(_STAGES, 0.0)
    writes_by_run: Dict[int, List[Span]] = defaultdict(list)
    for span in named["records.write_records"]:
        if span.parent is not None:
            writes_by_run[span.parent].append(span)
    for run in named["run.evaluate"]:
        previous = run.start
        writes = sorted(writes_by_run[run.sid], key=lambda s: s.end)
        for stage, write in zip(_STAGES, writes[:4]):
            stage_s[stage] += write.end - previous
            previous = write.end
        if len(writes) == 5:
            stage_s["score"] += run.end - previous
    for stage in _STAGES:
        m[f"pipeline.stage_{stage}_s"] = (per_iter(stage_s[stage]), "s")
    calls = prefixed("backends.call.")
    m["pipeline.worker_busy_ratio"] = (
        sum(s.duration for s in calls) / (concurrency * run_time) if run_time else 0.0,
        "ratio",
    )

    for role in ROLES:
        role_calls = named[f"backends.call.{role}"]
        m[f"backends.calls.{role}"] = (per_iter(len(role_calls)), "count")
        call_ms = [s.duration * 1e3 for s in role_calls]
        m[f"backends.call_ms_p50.{role}"] = (percentile(call_ms, 50), "ms")
        m[f"backends.call_ms_p99.{role}"] = (percentile(call_ms, 99), "ms")
    all_call_ms = [s.duration * 1e3 for s in calls]
    m["backends.call_ms_p50"] = (percentile(all_call_ms, 50), "ms")
    m["backends.call_ms_p99"] = (percentile(all_call_ms, 99), "ms")
    servers = prefixed("backends.server.")
    m["backends.server_s"] = (per_iter(sum(s.duration for s in servers)), "s")
    wait_ms = [own[s.sid] * 1e3 for s in prefixed("backends.throttle.")]
    m["backends.throttle.wait_ms_p50"] = (percentile(wait_ms, 50), "ms")
    m["backends.throttle.wait_ms_p99"] = (percentile(wait_ms, 99), "ms")
    https = prefixed("backends.http.")
    https = [s for s in https if not s.name.startswith("backends.http.backoff.")]
    m["backends.http.self_us_per_call"] = (mean([own[s.sid] * 1e6 for s in https]), "us")
    posts = [s for s in servers if (parent_name(s) or "").startswith("backends.http.")]
    retries = len(posts) - len(https)
    m["backends.retries"] = (per_iter(retries), "count")
    m["backends.retry_ratio"] = (retries / len(https) if https else 0.0, "ratio")
    m["backends.failures"] = (per_iter(sum(1 for s in calls if s.failed)), "count")
    has_child = {s.parent for s in spans if s.parent is not None}
    caches = prefixed("backends.cache.")
    hits = [s for s in caches if s.sid not in has_child]
    misses = [s for s in caches if s.sid in has_child]
    m["backends.cache.hit_ratio"] = (len(hits) / len(caches) if caches else 0.0, "ratio")
    m["backends.cache.get_us_p50"] = (percentile([s.duration * 1e6 for s in hits], 50), "us")
    m["backends.cache.get_us_p99"] = (percentile([s.duration * 1e6 for s in hits], 99), "us")
    m["backends.cache.miss_us_p50"] = (percentile([own[s.sid] * 1e6 for s in misses], 50), "us")
    m["backends.cache.miss_us_p99"] = (percentile([own[s.sid] * 1e6 for s in misses], 99), "us")

    writes = named["records.write_records"]
    m["records.write_s"] = (per_iter(sum(s.duration for s in writes)), "s")
    m["records.writes"] = (per_iter(len(writes)), "count")
    m["records.bytes_written"] = (per_iter(sum(s.n or 0 for s in writes)), "bytes")
    m["records.read_s"] = (
        per_iter(sum(s.duration for s in named["records.read_eval_records"])),
        "s",
    )
    m["score.dahl_score_ms"] = (
        per_iter(sum(s.duration for s in named["score.dahl_score"])) * 1e3,
        "ms",
    )
    m["score.report_write_ms"] = (
        per_iter(sum(s.duration for s in named["score.write_report_files"])) * 1e3,
        "ms",
    )

    m["dataset.filter_us_per_question"] = (
        mean([s.duration * 1e6 for s in named["dataset.filter_context_dependent"]]),
        "us",
    )
    resolve_us = [s.duration * 1e6 for s in named["dataset.resolve_category_reply"]]
    m["dataset.resolve_category_us_p50"] = (percentile(resolve_us, 50), "us")
    m["dataset.resolve_category_us_p99"] = (percentile(resolve_us, 99), "us")
    m["dataset.generate_questions_self_us"] = (
        mean([own[s.sid] * 1e6 for s in named["dataset.generate_questions"]]),
        "us",
    )

    # Share of the traced runs' wall time spent in each module's own code.
    # Under concurrency the shares of work done in pool threads add up
    # across threads and can exceed 1.
    def share(selected: Iterable[Span]) -> float:
        return sum(own[s.sid] for s in selected) / run_time if run_time else 0.0

    for module in _MODULES:
        m[f"{module}.self_share"] = (share(prefixed(f"{module}.")), "ratio")
    m["pipeline.self_share"] = (share(runs), "ratio")
    m["backends.self_share"] = (
        share(s for s in prefixed("backends.") if not s.name.startswith("backends.server.")),
        "ratio",
    )
    m["backends.server_share"] = (share(servers), "ratio")
    return m
