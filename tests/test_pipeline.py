from __future__ import annotations

import requests

from dahl.backends import BackendSpec, HttpBackend, MockBackend, RetryPolicy
from dahl.pipeline import run_evaluation
from dahl.types import GenConfig, Status

from conftest import make_question


QUESTIONS = [
    make_question(qid="q-1", text="What is the first-line treatment for gout?"),
    make_question(qid="q-2", text="Which test confirms iron deficiency?"),
    make_question(qid="q-3", text="What causes atrial fibrillation?"),
]


def _backends():
    generator = MockBackend(default="Allopurinol is used. Colchicine helps too.")
    splitter = MockBackend(default="1. Allopurinol is used.\n2. Colchicine helps too.")
    checker = MockBackend(default="True")
    return generator, splitter, checker


def _run(out_dir, questions, generator, splitter, checker, **kwargs):
    return run_evaluation(
        questions, str(out_dir), generator, splitter, checker, GenConfig(), **kwargs
    )


def test_resume_writes_orphans_back_unchanged_and_never_advances_them(tmp_path):
    backends = _backends()
    _run(tmp_path, QUESTIONS, *backends, stop_after="preprocess")
    lines = (tmp_path / "records.jsonl").read_text(encoding="utf-8").splitlines()
    orphan_line = next(line for line in lines if '"q-3"' in line)

    generator, splitter, checker = _backends()
    result = _run(tmp_path, QUESTIONS[:2], generator, splitter, checker, resume=True)

    assert generator.calls == 0
    assert splitter.calls == 2  # q-1 and q-2 only
    assert checker.calls == 4  # two units each for q-1 and q-2
    assert result.report is not None and result.report.n_scored == 2
    lines = (tmp_path / "records.jsonl").read_text(encoding="utf-8").splitlines()
    assert lines[-1] == orphan_line
    assert [r.status for r in result.records[:2]] == [Status.SCORED, Status.SCORED]


class _Response:
    status_code = 200

    def json(self):
        text = "Allopurinol is used. Colchicine helps too."
        return {"choices": [{"message": {"content": text}, "finish_reason": "stop"}]}


class _DroppingSession:
    """A peer that drops the body mid-stream for one question's prompt."""

    def __init__(self, needle):
        self.needle = needle
        self.calls = 0

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls += 1
        if self.needle in json["messages"][-1]["content"]:
            raise requests.exceptions.ChunkedEncodingError("connection broken mid-body")
        return _Response()


def test_transport_error_fails_the_record_and_the_run_completes(tmp_path):
    session = _DroppingSession("atrial fibrillation")
    generator = HttpBackend(
        BackendSpec(
            backend_id="generator",
            endpoint="http://unit.test/v1/chat",
            model="mock-model",
            retry=RetryPolicy(max_attempts=2, base_backoff_s=0.0),
        ),
        session=session,
        sleeper=lambda s: None,
    )
    _, splitter, checker = _backends()

    result = _run(tmp_path, QUESTIONS, generator, splitter, checker)

    assert session.calls == 4  # the dropped body is retried once as transient
    assert [r.status for r in result.records] == [Status.SCORED, Status.SCORED, Status.FAILED]
    assert "ChunkedEncodingError" in result.records[2].error
    assert result.report is not None and result.report.n_scored == 2
