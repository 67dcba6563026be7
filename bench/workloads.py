"""The four benchmark workloads and the checks on their outputs.

Each workload is driven by one thread and calls only dahl's public API:
run_evaluation, build_dataset, write_records and the backend classes.
setup() builds the inputs from the seed and composes the backend stack;
run() does one measured run of the workload into a fresh directory and
checks everything it wrote.

offline-eval   run_evaluation, concurrency 1, zero-latency simulated
               models, long answers (1-6 KB). CPU-bound: text cleanup,
               parsing and record writes.
http-latency   run_evaluation, concurrency 16, ThrottledBackend over
               HttpBackend over an in-process fake session with
               heavy-tailed latency and 429/503 retries. I/O-bound.
cache-resume   run_evaluation over CachedBackend, filled once untimed:
               stop after split, resume to score, then a full rerun.
dataset-build  build_dataset over a generated corpus, concurrency 1.
"""

from __future__ import annotations

import json
import os
import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from dahl import defaults
from dahl.backends import (
    BackendSpec,
    CachedBackend,
    HttpBackend,
    RetryPolicy,
    ThrottledBackend,
)
from dahl.dataset import OverrideList, build_dataset, load_filter_rules
from dahl.pipeline import run_evaluation
from dahl import records as dahl_records
from dahl.types import GenConfig

from sim import (
    FakeSession,
    SimBackend,
    eval_models,
    make_corpus,
    make_questions,
    question_generator_reply,
    categorizer_reply,
)
from tracing import TimedBackend, TimedSession, Tracer, timed_sleeper

GEN_CONFIG = GenConfig(temperature=0.6, max_tokens=1024, seed=7)
EVAL_ROLES = ("generator", "splitter", "checker")
REPORT_FILES = ("report.json", "report.csv", "report.md")
TERMINAL = {"scored", "excluded_noncommittal", "excluded_unknown", "excluded_mismatch", "failed"}


@dataclass
class Iteration:
    """Outcome of one measured run of a workload."""

    questions: int
    failed: int = 0
    outputs: Dict[str, bytes] = field(default_factory=dict)
    server_s: float = 0.0  # simulated model latency injected during the run
    errors: List[str] = field(default_factory=list)

    def fail(self, n: int, message: str) -> None:
        self.failed = min(self.questions, self.failed + n)
        self.errors.append(message)


def _root(tracer: Optional[Tracer], name: str):
    return tracer.root(name) if tracer is not None else nullcontext()


def _read_outputs(out_dir: str, names) -> Dict[str, bytes]:
    outputs = {}
    for name in names:
        with open(os.path.join(out_dir, name), "rb") as fh:
            outputs[name] = fh.read()
    return outputs


def check_eval_outputs(question_ids: List[str], result: Iteration) -> None:
    """One terminal record per question, and a report that matches a recount."""
    counts = dict.fromkeys(question_ids, 0)
    precisions = []
    statuses: Dict[str, int] = {}
    for line in result.outputs["records.jsonl"].decode("utf-8").splitlines():
        record = json.loads(line)
        qid = record["question_id"]
        status = record["status"]
        statuses[status] = statuses.get(status, 0) + 1
        if qid not in counts or status not in TERMINAL:
            counts[qid] = counts.get(qid, 0) + 2  # stray or unfinished: never exactly one
        else:
            counts[qid] += 1
        if status == "scored":
            verdicts = [u["verdict"] for u in record["units"]]
            precisions.append(sum(1 for v in verdicts if v == "True") / len(verdicts))
    bad = [qid for qid, n in counts.items() if n != 1]
    if bad:
        result.fail(len(bad), f"{len(bad)} questions lack exactly one terminal record: {bad[:3]}")

    report = json.loads(result.outputs["report.json"])
    expected = {
        "n_scored": len(precisions),
        "n_excluded_noncommittal": statuses.get("excluded_noncommittal", 0),
        "n_excluded_unknown": statuses.get("excluded_unknown", 0),
        "n_excluded_mismatch": statuses.get("excluded_mismatch", 0),
        "n_failed": statuses.get("failed", 0),
    }
    wrong = {k: (report[k], v) for k, v in expected.items() if report[k] != v}
    score = sum(precisions) / len(precisions) if precisions else float("nan")
    if abs(report["dahl_score"] - score) > 1e-12:
        wrong["dahl_score"] = (report["dahl_score"], score)
    if wrong:
        result.fail(len(question_ids), f"report disagrees with recount (report, recount): {wrong}")


class Workload:
    name = ""
    concurrency = 1

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def prepare(self, work_dir: str) -> None:
        """Untimed one-off work after setup, such as a reference run."""

    def run(self, out_dir: str, tracer: Optional[Tracer] = None) -> Iteration:
        raise NotImplementedError

    def aborted(self) -> Iteration:
        """The outcome of a run that raised: every question attempted, none done."""
        raise NotImplementedError

    def _sim_stack(self, tracer: Optional[Tracer], wrap=None) -> dict:
        """role -> zero-latency simulated model, optionally wrapped, with shims when traced.

        The bare SimBackends are left in self.sims.
        """
        stack = {}
        self.sims = {}
        for role, reply in self.models.items():
            backend = self.sims[role] = SimBackend(role, reply)
            if tracer is not None:
                backend = TimedBackend(backend, tracer, f"backends.server.{role}")
            if wrap is not None:
                backend = wrap(role, backend)
            if tracer is not None:
                backend = TimedBackend(backend, tracer, f"backends.call.{role}")
            stack[role] = backend
        return stack


class _EvalWorkload(Workload):
    n_questions = 0
    answer_bytes = (0, 0)

    def _inputs(self, seed: int) -> None:
        self.questions, answers = make_questions(seed, self.n_questions, *self.answer_bytes)
        self.question_ids = [q.question_id for q in self.questions]
        self.models = eval_models(answers)
        self.prompts = {name: defaults.load_prompt(name) for name in defaults.PROMPT_NAMES}

    def _evaluate(self, out_dir: str, stack: dict, tracer: Optional[Tracer], **kwargs):
        kwargs.setdefault("concurrency", self.concurrency)
        with _root(tracer, "run.evaluate"):
            return run_evaluation(
                self.questions,
                out_dir,
                stack["generator"],
                stack["splitter"],
                stack["checker"],
                GEN_CONFIG,
                prompts=self.prompts,
                **kwargs,
            )

    def aborted(self) -> Iteration:
        return Iteration(questions=len(self.questions))

    def _checked(self, out_dir: str) -> Iteration:
        result = Iteration(questions=len(self.questions))
        result.outputs = _read_outputs(out_dir, ("records.jsonl",) + REPORT_FILES)
        check_eval_outputs(self.question_ids, result)
        return result


class OfflineEval(_EvalWorkload):
    """CPU-bound: long answers through zero-latency simulated models."""

    name = "offline-eval"
    n_questions = 32
    answer_bytes = (1000, 6000)

    def setup(self, seed: int) -> None:
        self._inputs(seed)
        self.stack = self._sim_stack(None)

    def run(self, out_dir: str, tracer: Optional[Tracer] = None) -> Iteration:
        stack = self.stack if tracer is None else self._sim_stack(tracer)
        self._evaluate(out_dir, stack, tracer)
        return self._checked(out_dir)


class HttpLatency(_EvalWorkload):
    """I/O-bound: the production HTTP stack against a slow simulated server."""

    name = "http-latency"
    concurrency = 16
    n_questions = 96
    answer_bytes = (300, 1000)

    def setup(self, seed: int) -> None:
        self._inputs(seed)
        self.seed = seed
        self.sessions = {r: FakeSession(r, self.models[r], 1.0) for r in EVAL_ROLES}
        self.stack = self._http_stack(self.sessions, None)

    def _http_stack(self, sessions: dict, tracer: Optional[Tracer]) -> dict:
        stack = {}
        for role in EVAL_ROLES:
            spec = BackendSpec(
                backend_id=role,
                endpoint="http://simulated.invalid/v1/chat/completions",
                model=f"sim-{role}",
                # One in-flight slot per pool thread, and no rate limit (the
                # production default): the throttle layer runs but never waits.
                max_concurrency=self.concurrency,
                retry=RetryPolicy(max_attempts=4, base_backoff_s=0.002, max_backoff_s=0.02),
            )
            session = sessions[role]
            kwargs = {"rng": random.Random(f"backoff:{self.seed}:{role}")}
            if tracer is not None:
                session = TimedSession(session, tracer, f"backends.server.{role}")
                kwargs["sleeper"] = timed_sleeper(tracer, f"backends.http.backoff.{role}")
            backend = HttpBackend(spec, session=session, **kwargs)
            if tracer is not None:
                backend = TimedBackend(backend, tracer, f"backends.http.{role}")
            backend = ThrottledBackend(backend, spec.max_concurrency, spec.requests_per_second)
            if tracer is not None:
                backend = TimedBackend(backend, tracer, f"backends.throttle.{role}")
                backend = TimedBackend(backend, tracer, f"backends.call.{role}")
            stack[role] = backend
        return stack

    def prepare(self, work_dir: str) -> None:
        # Zero-latency serial run of the same inputs: every measured run
        # must write the same bytes.
        sessions = {r: FakeSession(r, self.models[r], 0.0) for r in EVAL_ROLES}
        out_dir = os.path.join(work_dir, "serial-reference")
        self._evaluate(out_dir, self._http_stack(sessions, None), None, concurrency=1)
        self.reference = self._checked(out_dir)

    def run(self, out_dir: str, tracer: Optional[Tracer] = None) -> Iteration:
        for session in self.sessions.values():
            session.reset()
        stack = self.stack if tracer is None else self._http_stack(self.sessions, tracer)
        self._evaluate(out_dir, stack, tracer)
        result = self._checked(out_dir)
        result.server_s = sum(s.injected_s for s in self.sessions.values())
        if result.outputs != self.reference.outputs:
            result.fail(result.questions, "outputs differ from the zero-latency serial run")
        return result


class CacheResume(_EvalWorkload):
    """Interrupt after split and resume, then rerun, through a warm cache."""

    name = "cache-resume"
    n_questions = 48
    answer_bytes = (300, 1000)

    def setup(self, seed: int) -> None:
        self._inputs(seed)

    def _cached_stack(self, tracer: Optional[Tracer]) -> dict:
        def cached(role, backend):
            backend = CachedBackend(backend, self.cache_dir)
            if tracer is not None:
                backend = TimedBackend(backend, tracer, f"backends.cache.{role}")
            return backend

        return self._sim_stack(tracer, wrap=cached)

    def prepare(self, work_dir: str) -> None:
        # Fill the cache once, untimed. Every new entry costs an fsync,
        # whose time on a shared virtual disk varies too much to measure;
        # the measured runs read the entries back.
        self.cache_dir = os.path.join(work_dir, "cache")
        out_dir = os.path.join(work_dir, "cold")
        self._evaluate(out_dir, self._cached_stack(None), None)
        self.cold = self._checked(out_dir)

    def run(self, out_dir: str, tracer: Optional[Tracer] = None) -> Iteration:
        stack = self._cached_stack(tracer)
        resumed = os.path.join(out_dir, "resumed")
        self._evaluate(resumed, stack, tracer, stop_after="split")
        self._evaluate(resumed, stack, tracer, resume=True)
        result = self._checked(resumed)
        warm = os.path.join(out_dir, "warm")
        self._evaluate(warm, stack, tracer)
        # Rejected requests are never cached, so the runs on the warm
        # cache repeat those and call the models for nothing else.
        calls = sum(s.calls for s in self.sims.values())
        rejected = sum(s.rejected for s in self.sims.values())
        if calls != rejected:
            result.fail(result.questions, f"runs on the warm cache made {calls - rejected} model calls")
        if result.outputs != self.cold.outputs:
            result.fail(result.questions, "the resumed run differs from the cold-cache run")
        if _read_outputs(warm, result.outputs) != result.outputs:
            result.fail(result.questions, "the warm-cache rerun differs from the resumed run")
        return result


class DatasetBuild(Workload):
    """build_dataset: regex filter, categorizer replies, question-list parsing."""

    name = "dataset-build"
    n_docs = 192
    questions_per_doc = 8

    def setup(self, seed: int) -> None:
        self.corpus = make_corpus(seed, self.n_docs)
        self.category_set = defaults.load_category_set()
        self.rules = load_filter_rules()
        self.prompts = {name: defaults.load_prompt(name) for name in defaults.PROMPT_NAMES}
        self.distinct = 0

        def generator(prompt: str) -> str:
            text, distinct = question_generator_reply(prompt)
            self.distinct += distinct
            return text

        self.models = {"question_generator": generator, "categorizer": categorizer_reply}
        self.stack = self._sim_stack(None)

    def aborted(self) -> Iteration:
        return Iteration(questions=self.n_docs * self.questions_per_doc)

    def run(self, out_dir: str, tracer: Optional[Tracer] = None) -> Iteration:
        stack = self.stack if tracer is None else self._sim_stack(tracer)
        self.distinct = 0
        with _root(tracer, "run.build_dataset"):
            kept, dropped, report = build_dataset(
                self.corpus,
                stack["question_generator"],
                stack["categorizer"],
                self.rules,
                OverrideList(),
                self.category_set,
                questions_per_doc=self.questions_per_doc,
                question_prompt=self.prompts["question_generation"],
                categorizer_prompt=self.prompts["categorizer"],
                concurrency=self.concurrency,
            )
            os.makedirs(out_dir, exist_ok=True)
            dahl_records.write_records(kept, os.path.join(out_dir, "questions.jsonl"))
            dahl_records.write_records(dropped, os.path.join(out_dir, "questions_dropped.jsonl"))
        self.kept_ratio = len(kept) / max(1, report.n_generated)
        self.ambiguous_ratio = report.n_dropped_ambiguous / max(1, report.n_generated)

        result = Iteration(questions=self.distinct)
        result.outputs = _read_outputs(out_dir, ("questions.jsonl", "questions_dropped.jsonl"))
        if report.failures:
            result.fail(len(report.failures), f"build failures: {report.failures[:3]}")
        if not len(kept) + len(dropped) == report.n_generated == self.distinct:
            result.fail(
                self.distinct,
                f"kept {len(kept)} + dropped {len(dropped)} != generated "
                f"{report.n_generated} (model wrote {self.distinct})",
            )
        outside = [q.question_id for q in kept if q.category not in self.category_set]
        if outside:
            result.fail(len(outside), f"kept questions with unknown categories: {outside[:3]}")
        return result


WORKLOADS = {w.name: w for w in (OfflineEval, HttpLatency, CacheResume, DatasetBuild)}
