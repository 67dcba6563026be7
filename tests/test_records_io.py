from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dahl.records import (
    atomic_write_text,
    dumps_compact,
    read_eval_records,
    read_questions,
    read_source_documents,
    write_records,
)
from dahl.types import Question, SourceDocument, Status, Verdict

from factories import make_record


def test_round_trip_preserves_records(tmp_path):
    records = [
        make_record(qid="a", status=Status.PENDING, verdicts=None),
        make_record(qid="b", status=Status.SCORED, verdicts=(Verdict.TRUE, Verdict.FALSE)),
        make_record(qid="c", status=Status.FAILED, verdicts=None, error="backend gone"),
    ]
    path = str(tmp_path / "records.jsonl")
    assert write_records(records, path) == 3
    loaded, diagnostics = read_eval_records(path)
    assert diagnostics == []
    assert loaded == records


def test_output_is_one_sorted_compact_object_per_line(tmp_path):
    path = str(tmp_path / "r.jsonl")
    write_records([make_record(qid="z")], path)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 1
    obj = json.loads(lines[0])
    assert list(obj) == sorted(obj)
    assert '": ' not in lines[0] and '", "' not in lines[0]


def test_write_empty_list(tmp_path):
    path = str(tmp_path / "empty.jsonl")
    assert write_records([], path) == 0
    assert os.path.getsize(path) == 0
    loaded, diagnostics = read_eval_records(path)
    assert loaded == [] and diagnostics == []


def test_malformed_json_line_becomes_diagnostic(tmp_path):
    path = str(tmp_path / "r.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_compact(make_record(qid="ok").to_dict()) + "\n")
        fh.write("{this is not json\n")
        fh.write(dumps_compact(make_record(qid="ok2").to_dict()) + "\n")
    loaded, diagnostics = read_eval_records(path)
    assert [r.question_id for r in loaded] == ["ok", "ok2"]
    assert len(diagnostics) == 1
    assert diagnostics[0].line_no == 2
    assert "invalid JSON" in diagnostics[0].message


def test_non_object_line_becomes_diagnostic(tmp_path):
    path = str(tmp_path / "r.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[1, 2, 3]\n")
    loaded, diagnostics = read_eval_records(path)
    assert loaded == []
    assert "not a JSON object" in diagnostics[0].message


def test_invariant_violating_record_is_excluded_not_raised(tmp_path):
    bad = make_record(status=Status.SCORED, verdicts=None)  # scored but no units
    bad_dict = bad.to_dict()
    path = str(tmp_path / "r.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_compact(bad_dict) + "\n")
        fh.write(dumps_compact(make_record(qid="fine").to_dict()) + "\n")
    loaded, diagnostics = read_eval_records(path)
    assert [r.question_id for r in loaded] == ["fine"]
    assert len(diagnostics) == 1
    assert "units must be non-empty" in diagnostics[0].message
    assert str(diagnostics[0]).startswith("line 1:")


def test_truncated_final_line_is_reported(tmp_path):
    path = str(tmp_path / "r.jsonl")
    full = dumps_compact(make_record(qid="whole").to_dict())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(full + "\n")
        fh.write(full[: len(full) // 2])  # crash mid-write
    loaded, diagnostics = read_eval_records(path)
    assert [r.question_id for r in loaded] == ["whole"]
    assert len(diagnostics) == 1 and diagnostics[0].line_no == 2


def test_blank_lines_are_ignored(tmp_path):
    path = str(tmp_path / "r.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n\n" + dumps_compact(make_record().to_dict()) + "\n\n")
    loaded, diagnostics = read_eval_records(path)
    assert len(loaded) == 1 and diagnostics == []


def test_question_category_enforced_when_set_given(tmp_path):
    from dahl.defaults import load_category_set

    qs = [
        Question(question_id="a", text="x?", category="Surgery", source_doc_id="d"),
        Question(question_id="b", text="y?", category="Astrology", source_doc_id="d"),
    ]
    path = str(tmp_path / "q.jsonl")
    write_records(qs, path)
    loaded, diagnostics = read_questions(path, load_category_set())
    assert [q.question_id for q in loaded] == ["a"]
    assert "Astrology" in diagnostics[0].message
    # without a category set both lines pass
    loaded, diagnostics = read_questions(path)
    assert len(loaded) == 2 and diagnostics == []


def test_kept_question_with_trace_needs_force_keep(tmp_path):
    q = Question(question_id="a", text="x?", category="Other", source_doc_id="d")
    obj = q.to_dict()
    obj["filter_trace"] = ["report_verb"]
    obj["review_override"] = "none"
    # hand-built line claims kept-by-default yet carries a trace; the
    # reader cannot see "kept" directly but recomputes it
    path = str(tmp_path / "q.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_compact(obj) + "\n")
    loaded, diagnostics = read_questions(path)
    # trace present and override none -> not kept, so no violation
    assert len(loaded) == 1 and diagnostics == []
    assert not loaded[0].kept


def test_source_documents_duplicate_and_empty_diagnostics(tmp_path):
    docs = [
        SourceDocument(doc_id="d1", title="t", body="some text"),
        SourceDocument(doc_id="d1", title="t", body="again"),
        SourceDocument(doc_id="", title="t", body="anon"),
        SourceDocument(doc_id="d2", title="", body="   "),
    ]
    path = str(tmp_path / "corpus.jsonl")
    write_records(docs, path)
    loaded, diagnostics = read_source_documents(path)
    assert [d.doc_id for d in loaded] == ["d1"]
    messages = "\n".join(d.message for d in diagnostics)
    assert "duplicate doc_id" in messages
    assert "doc_id must be non-empty" in messages
    assert "body must be non-empty" in messages


_QUESTION = {"question_id": "q1", "text": "What treats gout?", "category": "C", "source_doc_id": "d"}
_DOCUMENT = {"doc_id": "d1", "title": "Gout", "body": "Gout is treated with rest."}
_RECORD = make_record(qid="q1").to_dict()
_ABSENT = object()


def _write_lines(path, objs):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(json.dumps(obj) + "\n" for obj in objs))


@pytest.mark.parametrize("value", [None, "", "  ", _ABSENT], ids=["null", "empty", "blank", "missing"])
@pytest.mark.parametrize(
    "read, good, key",
    [
        (read_questions, _QUESTION, "question_id"),
        (read_questions, _QUESTION, "text"),
        (read_source_documents, _DOCUMENT, "doc_id"),
        (read_source_documents, _DOCUMENT, "body"),
        (read_questions, _QUESTION, "category"),
        (read_questions, _QUESTION, "source_doc_id"),
        (read_eval_records, _RECORD, "question_id"),
        (read_eval_records, _RECORD, "model_id"),
    ],
    ids=[
        "question_id",
        "text",
        "doc_id",
        "body",
        "category",
        "source_doc_id",
        "record-question_id",
        "record-model_id",
    ],
)
def test_a_null_or_blank_required_field_is_a_line_diagnostic_not_the_text_none(
    tmp_path, read, good, key, value
):
    bad = {k: v for k, v in good.items() if k != key}
    if value is not _ABSENT:
        bad[key] = value
    path = str(tmp_path / "lines.jsonl")
    _write_lines(path, [bad, good])
    loaded, diagnostics = read(path)
    assert [getattr(item, key) for item in loaded] == [good[key]]
    assert [str(d) for d in diagnostics] == [f"line 1: cannot parse record: {key} must be non-empty"]


def test_a_numeric_id_converts_and_a_null_title_reads_as_empty(tmp_path):
    questions = str(tmp_path / "q.jsonl")
    _write_lines(questions, [{**_QUESTION, "question_id": 5}])
    corpus = str(tmp_path / "corpus.jsonl")
    _write_lines(corpus, [{**_DOCUMENT, "doc_id": 7, "title": None}])
    (question,), _ = read_questions(questions)
    (document,), _ = read_source_documents(corpus)
    assert question.question_id == "5"
    assert (document.doc_id, document.title) == ("7", "")


def test_atomic_write_replaces_not_appends(tmp_path):
    path = str(tmp_path / "file.txt")
    atomic_write_text(path, "first version\n")
    atomic_write_text(path, "second\n")
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == "second\n"
    leftovers = [n for n in os.listdir(tmp_path) if n.startswith(".tmp.")]
    assert leftovers == []


def test_failed_replace_keeps_original_and_cleans_temp(tmp_path, monkeypatch):
    path = str(tmp_path / "file.txt")
    atomic_write_text(path, "keep me\n")

    def boom(src, dst):
        raise OSError("disk went away")

    monkeypatch.setattr(os, "replace", boom)
    with pytest.raises(OSError):
        atomic_write_text(path, "lost update\n")
    monkeypatch.undo()
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == "keep me\n"
    assert [n for n in os.listdir(tmp_path) if n.startswith(".tmp.")] == []


def test_atomic_write_creates_parent_directory(tmp_path):
    path = str(tmp_path / "deep" / "nested" / "out.txt")
    atomic_write_text(path, "made it\n")
    assert os.path.exists(path)


_status_units = st.sampled_from(
    [
        (Status.PENDING, None),
        (Status.PREPROCESSED, None),
        (Status.EXCLUDED_NONCOMMITTAL, None),
        (Status.SPLIT, (None, None)),
        (Status.CHECKED, (Verdict.TRUE, Verdict.FALSE)),
        (Status.SCORED, (Verdict.TRUE,)),
        (Status.EXCLUDED_UNKNOWN, (Verdict.UNKNOWN,)),
        (Status.FAILED, None),
    ]
)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.uuids().map(str), _status_units, st.text(max_size=80)),
        max_size=12,
    )
)
def test_round_trip_property(tmp_path_factory, entries):
    records = [
        make_record(qid=qid, status=su[0], verdicts=su[1], raw=raw, preprocessed=None)
        for qid, su, raw in entries
    ]
    path = str(tmp_path_factory.mktemp("prop") / "r.jsonl")
    write_records(records, path)
    loaded, diagnostics = read_eval_records(path)
    assert diagnostics == []
    assert loaded == records
