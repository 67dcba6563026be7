from __future__ import annotations

import hashlib
import itertools
import json
import re
import threading
import time
from importlib import resources
from types import SimpleNamespace

import pytest
import requests

from dahl.backends import BackendSpec, HttpBackend, MockBackend, PermanentBackendError, RetryPolicy
from dahl.pipeline import PipelineError, run_evaluation, run_temperature_ablation
from dahl.score import NoScorableResponsesError
from dahl.types import GenConfig, Status

from factories import cached, make_question


QUESTIONS = [
    make_question(qid="q-1", text="What is the first-line treatment for gout?"),
    make_question(qid="q-2", text="Which test confirms iron deficiency?"),
    make_question(qid="q-3", text="What causes atrial fibrillation?"),
]


ANSWER = "Allopurinol is used. Colchicine helps too."
SIX = [make_question(qid=f"q-{i}", text=f"What is the treatment for case {i}?") for i in range(6)]
OUTPUTS = ("records.jsonl", "report.json", "report.csv", "report.md")


def _backends(checker_model="mock-model"):
    generator = MockBackend(default=ANSWER)
    splitter = MockBackend(default="1. Allopurinol is used.\n2. Colchicine helps too.")
    checker = MockBackend(default="True", model=checker_model)
    return generator, splitter, checker


def _case_answer(request):
    case = re.search(r"case (\d+)", request.user_prompt).group(1)
    return f"Case {case} is treated with rest. Case {case} resolves in days."


def _case_backends():
    """Backends for SIX whose requests all differ, so a response cache merges no two calls."""

    def units(request):
        case = re.search(r"Case (\d+)", request.user_prompt).group(1)
        return f"1. Case {case} is treated with rest.\n2. Case {case} resolves in days."

    return MockBackend(default=_case_answer), MockBackend(default=units), MockBackend(default="True")


def _dying_generator(k):
    """A generator for SIX that raises RuntimeError from its k-th call on."""
    calls = itertools.count(1)

    def reply(request):
        if next(calls) >= k:
            raise RuntimeError("generator process died")
        return _case_answer(request)

    return MockBackend(default=reply)


def _same_outputs(a, b):
    return all((a / name).read_bytes() == (b / name).read_bytes() for name in OUTPUTS)


def _run(out_dir, questions, generator, splitter, checker, gen_config=GenConfig(), **kwargs):
    return run_evaluation(
        questions, str(out_dir), generator, splitter, checker, gen_config, **kwargs
    )


def test_resume_over_fewer_questions_writes_records_for_those_questions_only(tmp_path):
    _run(tmp_path / "straight", QUESTIONS[::2], *_backends())
    out = tmp_path / "out"
    _run(out, QUESTIONS, *_backends(), stop_after="preprocess")

    generator, splitter, checker = _backends()
    result = _run(out, QUESTIONS[::2], generator, splitter, checker, resume=True)

    assert [r.question_id for r in result.records] == ["q-1", "q-3"]
    assert (generator.calls, splitter.calls, checker.calls) == (2, 2, 4)
    assert result.report is not None and result.report.n_scored == 2
    assert _same_outputs(out, tmp_path / "straight")


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


class _LoneSurrogateSession:
    """Answers one question's prompt with text holding an unpaired surrogate escape."""

    def __init__(self, needle):
        self.needle = needle

    def post(self, url, json=None, headers=None, timeout=None):
        text = ANSWER
        if self.needle in json["messages"][-1]["content"]:
            text = "Rate control \ud800 helps."
        payload = {"choices": [{"message": {"content": text}, "finish_reason": "stop"}]}
        return SimpleNamespace(status_code=200, json=lambda: payload)


def test_a_reply_utf8_cannot_encode_fails_its_record_and_the_run_writes_its_files(tmp_path):
    generator = HttpBackend(
        BackendSpec(backend_id="generator", endpoint="http://unit.test/v1/chat", model="m"),
        session=_LoneSurrogateSession("atrial fibrillation"),
    )
    _, splitter, checker = _backends()

    result = _run(tmp_path, QUESTIONS, generator, splitter, checker)

    assert [r.status for r in result.records] == [Status.SCORED, Status.SCORED, Status.FAILED]
    assert "backend generator: completion content holds U+D800" in result.records[2].error
    assert all((tmp_path / name).exists() for name in OUTPUTS)


def test_crash_keeps_finished_replies_and_resume_repeats_only_the_rest(tmp_path):
    _run(tmp_path / "straight", SIX, *_case_backends())
    out = tmp_path / "out"
    _, splitter, checker = _case_backends()

    with cached(out, _dying_generator(3), splitter, checker) as backends:
        with pytest.raises(RuntimeError, match="generator process died"):
            _run(out, SIX, *backends, concurrency=1)

    assert not (out / "records.jsonl").exists()
    generator, splitter, checker = _case_backends()
    with cached(out, generator, splitter, checker) as backends:
        _run(out, SIX, *backends, resume=True)
    assert (generator.calls, splitter.calls, checker.calls) == (4, 4, 8)
    assert _same_outputs(out, tmp_path / "straight")


def test_fresh_run_that_crashes_leaves_no_older_records_to_resume(tmp_path):
    _run(tmp_path, SIX, *_case_backends())
    hot = GenConfig(temperature=0.9)
    _, splitter, checker = _case_backends()
    with cached(tmp_path, _dying_generator(3), splitter, checker) as backends:
        with pytest.raises(RuntimeError):
            _run(tmp_path, SIX, *backends, hot, concurrency=1)
    assert not (tmp_path / "records.jsonl").exists()

    generator, splitter, checker = _case_backends()
    with cached(tmp_path, generator, splitter, checker) as backends:
        result = _run(tmp_path, SIX, *backends, hot, resume=True)

    assert generator.calls == 4
    assert {r.gen_config.temperature for r in result.records} == {0.9}


def test_a_record_failed_by_its_generator_is_retried_on_resume(tmp_path):
    def refuse_case_2(request):
        if "case 2" in request.user_prompt:
            raise PermanentBackendError("generator refused")
        return _case_answer(request)

    _, splitter, checker = _case_backends()
    with cached(tmp_path, MockBackend(default=refuse_case_2), splitter, checker) as backends:
        first = _run(tmp_path, SIX, *backends)
    assert [r.question_id for r in first.records if r.status is Status.FAILED] == ["q-2"]

    generator, splitter, checker = _case_backends()
    with cached(tmp_path, generator, splitter, checker) as backends:
        result = _run(tmp_path, SIX, *backends, resume=True)

    assert (generator.calls, splitter.calls, checker.calls) == (1, 1, 2)  # q-2 only
    assert [r.status for r in result.records] == [Status.SCORED] * 6
    assert result.report is not None and result.report.n_scored == 6


def test_run_with_nothing_scorable_still_writes_records(tmp_path):
    generator, splitter, _ = _backends()
    checker = MockBackend(default="Unknown")

    with pytest.raises(NoScorableResponsesError):
        _run(tmp_path, QUESTIONS, generator, splitter, checker)

    lines = (tmp_path / "records.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["status"] for line in lines] == ["excluded_unknown"] * 3
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("ending", ["stopped after split", "nothing scorable"])
def test_a_fresh_run_without_a_report_leaves_none_from_an_earlier_run(tmp_path, ending):
    _run(tmp_path, QUESTIONS, *_backends(), GenConfig(temperature=0.2))
    assert (tmp_path / "report.json").exists()
    generator, splitter, checker = _backends()
    hot = GenConfig(temperature=0.9)
    if ending == "nothing scorable":
        with pytest.raises(NoScorableResponsesError):
            _run(tmp_path, QUESTIONS, generator, splitter, MockBackend(default="Unknown"), hot)
    else:
        _run(tmp_path, QUESTIONS, generator, splitter, checker, hot, stop_after="split")
    assert not [name for name in OUTPUTS[1:] if (tmp_path / name).exists()]


def test_resume_refuses_a_changed_checker_model(tmp_path):
    _run(tmp_path, QUESTIONS, *_backends(checker_model="checker-a"), stop_after="split")
    before = (tmp_path / "records.jsonl").read_bytes()

    with pytest.raises(PipelineError, match="checker_model was 'checker-a', now 'checker-b'"):
        _run(tmp_path, QUESTIONS, *_backends(checker_model="checker-b"), resume=True)
    assert (tmp_path / "records.jsonl").read_bytes() == before


def test_resume_refuses_a_checker_moved_to_another_endpoint(tmp_path):
    generator, splitter, checker = _backends()
    checker.endpoint = "http://a.test/v1/chat"
    _run(tmp_path, QUESTIONS, generator, splitter, checker, stop_after="split")
    manifest = json.loads((tmp_path / "run_manifest.json").read_text(encoding="utf-8"))
    assert manifest["checker_endpoint"] == "http://a.test/v1/chat"
    assert manifest["generator_endpoint"] is None

    checker.endpoint = "http://b.test/v1/chat"
    with pytest.raises(PipelineError, match="checker_endpoint was 'http://a.test/v1/chat'"):
        _run(tmp_path, QUESTIONS, generator, splitter, checker, resume=True)
    assert checker.calls == 0


def test_manifest_hashes_the_packaged_prompt_files_unless_a_prompt_is_given(tmp_path):
    def packaged_sha256(name):
        data = resources.files("dahl.data").joinpath(f"prompts/{name}.txt").read_bytes()
        return hashlib.sha256(data).hexdigest()

    _run(tmp_path / "packaged", QUESTIONS, *_backends(), stop_after="generate")
    manifest = json.loads((tmp_path / "packaged" / "run_manifest.json").read_text("utf-8"))
    for name in ("response_generation", "splitter", "checker"):
        assert manifest[f"{name}_prompt_sha256"] == packaged_sha256(name)

    checker_prompt = "Is this true? {unit}"
    _run(
        tmp_path / "partial",
        QUESTIONS,
        *_backends(),
        prompts={"checker": checker_prompt},
        stop_after="generate",
    )
    manifest = json.loads((tmp_path / "partial" / "run_manifest.json").read_text("utf-8"))
    assert manifest["checker_prompt_sha256"] == hashlib.sha256(checker_prompt.encode()).hexdigest()
    for name in ("response_generation", "splitter"):
        assert manifest[f"{name}_prompt_sha256"] == packaged_sha256(name)


def test_resume_refuses_a_run_checked_by_the_previous_verdict_parser(tmp_path):
    _run(tmp_path, QUESTIONS, *_backends(), stop_after="check")
    path = tmp_path / "run_manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    del manifest["verdict_parser"]  # as written before the parser had an identity
    path.write_text(json.dumps(manifest), encoding="utf-8")

    with pytest.raises(PipelineError, match="verdict_parser was None, now 2"):
        _run(tmp_path, QUESTIONS, *_backends(), resume=True)


def test_resume_of_an_empty_dir_runs(tmp_path):
    _run(tmp_path / "straight", QUESTIONS, *_backends())
    _run(tmp_path / "empty", QUESTIONS, *_backends(), resume=True)
    assert _same_outputs(tmp_path / "empty", tmp_path / "straight")
    assert (tmp_path / "empty" / "run_manifest.json").read_bytes() == (
        tmp_path / "straight" / "run_manifest.json"
    ).read_bytes()


def test_duplicate_question_ids_are_named_in_order_and_found_in_linear_time(tmp_path):
    # Counting each id with list.count took 1.0 s for 8,573 ids.
    questions = [make_question(qid=f"q-{i}") for i in range(20000)]
    questions += [questions[7], questions[3], questions[7]]
    generator, splitter, checker = _backends()
    started = time.perf_counter()
    with pytest.raises(PipelineError, match=r"^duplicate question ids: \['q-3', 'q-7'\]$"):
        _run(tmp_path, questions, generator, splitter, checker)
    assert time.perf_counter() - started < 1.0
    assert generator.calls == 0


def test_ablation_refuses_cells_that_share_a_run_directory(tmp_path):
    _, splitter, checker = _backends()
    generators = [MockBackend(default=ANSWER, model=m) for m in ("org/m", "org_m")]
    collision = r"\('org/m', 0.1\) and \('org_m', 0.1\) would share run directory runs/org_m_t0.1"
    with pytest.raises(PipelineError, match=collision):
        run_temperature_ablation(
            SIX, str(tmp_path), generators, splitter, checker, GenConfig(), [0.1, 0.2], fraction=1.0
        )
    assert not (tmp_path / "runs").exists()
    assert generators[0].calls == 0


@pytest.mark.parametrize("bad", [2.5, -0.5])
def test_ablation_refuses_an_out_of_range_temperature_before_any_cell_runs(tmp_path, bad):
    generator, splitter, checker = _backends()
    with pytest.raises(ValueError, match=rf"temperature must be in \[0.0, 2.0\], got {bad}"):
        run_temperature_ablation(
            SIX,
            str(tmp_path),
            [generator],
            splitter,
            checker,
            GenConfig(),
            [0.1, bad],
            fraction=1.0,
            allow_high_temperatures=True,
        )
    assert (generator.calls, splitter.calls, checker.calls) == (0, 0, 0)
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "name, template, subject",
    [
        ("response_generation", "Answer the question.", "{question}"),
        ("splitter", "List the claims, one per line.", "{response}"),
        ("checker", "Is the claim true? Answer True or False.", "{unit}"),
    ],
)
def test_a_prompt_without_its_subject_is_refused_before_any_call(
    tmp_path, name, template, subject
):
    generator, splitter, checker = _backends()
    refusal = re.escape(f"prompts.{name} lacks the placeholder {subject}")
    with pytest.raises(PipelineError, match=refusal):
        _run(tmp_path / "out", SIX, generator, splitter, checker, prompts={name: template})
    assert (generator.calls, splitter.calls, checker.calls) == (0, 0, 0)
    assert not (tmp_path / "out").exists()


def _ablate(tmp_path, generators=None, **kwargs):
    _, splitter, checker = _backends()
    generators = [MockBackend(default=ANSWER)] if generators is None else generators
    kwargs = {"temperatures": [0.1], "fraction": 1.0, **kwargs}
    return run_temperature_ablation(
        SIX, str(tmp_path), generators, splitter, checker, GenConfig(), **kwargs
    )


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda p: _run(p, SIX, *_backends(), stop_after="report"), "stop_after must be one of"),
        (lambda p: _run(p, [], *_backends()), "no questions to evaluate"),
        (lambda p: _ablate(p, temperatures=[]), "at least one temperature is required"),
        (lambda p: _ablate(p, generators=[]), "at least one generator backend is required"),
        (lambda p: _ablate(p, fraction=0.05), "stratified sample is empty"),
    ],
    ids=["unknown-stop_after", "no-questions", "no-temperatures", "no-generators", "empty-sample"],
)
def test_a_run_refuses_unusable_arguments_before_writing_anything(tmp_path, call, message):
    with pytest.raises(PipelineError, match=message):
        call(tmp_path)
    assert list(tmp_path.iterdir()) == []


class _InFlight:
    """Counts model calls in flight over every role whose replies go through it."""

    def __init__(self):
        self.lock = threading.Lock()
        self.now = self.peak = 0

    def backend(self, text):
        def reply(request):
            with self.lock:
                self.now += 1
                self.peak = max(self.peak, self.now)
            time.sleep(0.001)
            with self.lock:
                self.now -= 1
            return text

        return MockBackend(default=reply)


@pytest.mark.parametrize("concurrency", [1, 4, 8])
def test_model_calls_in_flight_over_all_roles_never_exceed_concurrency(tmp_path, concurrency):
    meter = _InFlight()
    questions = [make_question(qid=f"q-{i}", text=f"What treats case {i}?") for i in range(12)]
    units = "\n".join(f"{k}. Claim {k} holds." for k in range(1, 7))
    backends = (meter.backend(ANSWER), meter.backend(units), meter.backend("True"))

    result = _run(tmp_path, questions, *backends, concurrency=concurrency)

    assert result.report is not None and result.report.n_scored == 12
    assert 1 <= meter.peak <= concurrency
    assert meter.now == 0


def test_idle_workers_check_the_units_of_a_record_at_the_same_time(tmp_path):
    # Each checker call waits until all four units are in flight at once.
    all_four = threading.Barrier(4, timeout=5)

    def reply(request):
        all_four.wait()
        return "True"

    generator, splitter, _ = _backends()
    splitter = MockBackend(default="\n".join(f"{k}. Claim {k} holds." for k in range(1, 5)))
    checker = MockBackend(default=reply)

    result = _run(tmp_path, QUESTIONS[:1], generator, splitter, checker, concurrency=4)

    assert checker.calls == 4
    assert [len(r.units) for r in result.records] == [4]
    assert result.records[0].status is Status.SCORED


# Claims of case i: k-th is held true, false, unknown, or its check fails.
_PLANS = ["TTTTT", "TXTXT", "TTUTT", "TFTFT", "XTXTX", "TXTTU", "FFFFF", "UUTTX"]
_KINDS = {"T": "ztrue", "F": "zfalse", "U": "zunknown", "X": "zfail"}


def _planned_backends():
    def answer(request):
        case = re.search(r"case (\d+)", request.user_prompt).group(1)
        return f"Case {case} is treated with rest. It resolves in days."

    def units(request):
        case = int(re.search(r"Case (\d+)", request.user_prompt).group(1))
        plan = _PLANS[case]
        return "\n".join(f"{k + 1}. Case {case} claim {k} is {_KINDS[c]}." for k, c in enumerate(plan))

    def verdict(request):
        case, claim, kind = re.search(r"Case (\d+) claim (\d+) is (z\w+)", request.user_prompt).groups()
        time.sleep(0.001 * (5 - int(claim)))  # later units finish first
        if kind == "zfail":
            raise PermanentBackendError(f"checker down for case {case} claim {claim}")
        return {"ztrue": "True", "zfalse": "False", "zunknown": "Unknown"}[kind]

    return MockBackend(default=answer), MockBackend(default=units), MockBackend(default=verdict)


def test_records_and_reports_are_the_same_bytes_at_any_concurrency_and_on_resume(tmp_path):
    questions = [
        make_question(qid=f"q-{i}", text=f"What treats case {i}?") for i in range(len(_PLANS))
    ]
    _run(tmp_path / "serial", questions, *_planned_backends(), concurrency=1)
    _run(tmp_path / "wide", questions, *_planned_backends(), concurrency=8)
    resumed = tmp_path / "resumed"
    _run(resumed, questions, *_planned_backends(), stop_after="split", concurrency=8)
    _run(resumed, questions, *_planned_backends(), resume=True, concurrency=8)

    assert _same_outputs(tmp_path / "wide", tmp_path / "serial")
    assert _same_outputs(resumed, tmp_path / "serial")
    records = [
        json.loads(line)
        for line in (tmp_path / "wide" / "records.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    assert [r["status"] for r in records] == [
        "scored",
        "excluded_mismatch",
        "excluded_unknown",
        "scored",
        "excluded_mismatch",
        "excluded_mismatch",
        "scored",
        "excluded_mismatch",
    ]
    assert records[4]["error"] == (
        "verdict count mismatch: 2 verdicts for 5 units (unit 0: checker down for case 4 "
        "claim 0; unit 2: checker down for case 4 claim 2; unit 4: checker down for case 4 "
        "claim 4)"
    )
    assert [u["checker_reply"] for u in records[7]["units"]] == [
        "Unknown", "Unknown", "True", "True", None
    ]
