from __future__ import annotations

from dataclasses import MISSING, fields

import pytest

from dahl.defaults import load_category_set
from dahl.types import (
    AtomicUnit,
    CategorySet,
    EvalRecord,
    GenConfig,
    Question,
    ReviewOverride,
    SourceDocument,
    Status,
    Verdict,
    validate_record,
)

from factories import make_record, make_units


def test_gen_config_bounds():
    GenConfig(temperature=0.0)
    GenConfig(temperature=2.0)
    with pytest.raises(ValueError):
        GenConfig(temperature=-0.1)
    with pytest.raises(ValueError):
        GenConfig(temperature=2.1)
    with pytest.raises(ValueError):
        GenConfig(max_tokens=0)


def test_gen_config_dict_round_trip():
    cfg = GenConfig(temperature=0.3, max_tokens=77, seed=9)
    assert GenConfig.from_dict(cfg.to_dict()) == cfg
    assert GenConfig.from_dict(GenConfig().to_dict()) == GenConfig()


def test_category_set_resolve_is_case_insensitive():
    cats = CategorySet(labels=("Surgery", "Medicine"))
    assert cats.resolve("  surgery ") == "Surgery"
    assert cats.resolve("MEDICINE") == "Medicine"
    assert cats.resolve("dermatology") is None


def test_category_set_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        CategorySet(labels=("Surgery", "surgery"))
    with pytest.raises(ValueError):
        CategorySet(labels=())


@pytest.mark.parametrize(
    "labels",
    [("", "Surgery"), (" Cardiology ", "Surgery"), ("Surgery", "Cardiology\n"), ("Surgery", "\t")],
)
def test_category_set_rejects_empty_or_padded_labels(labels):
    # An empty label matches between any two punctuation marks, and a
    # padded one is never found inside a reply.
    with pytest.raises(ValueError, match="surrounding whitespace"):
        CategorySet(labels=labels)


def test_category_file_lines_are_stripped_into_valid_labels(tmp_path):
    path = tmp_path / "categories.txt"
    path.write_text("  Cardiology \n\n# comment\n\tSurgery\n", encoding="utf-8")
    assert load_category_set(str(path)).labels == ("Cardiology", "Surgery")


def test_question_kept_logic():
    q = Question(question_id="a", text="t?", category="Other", source_doc_id="d")
    assert q.kept
    q.filter_trace = ["some_rule"]
    assert not q.kept
    q.review_override = ReviewOverride.FORCE_KEEP
    assert q.kept
    q.review_override = ReviewOverride.FORCE_DROP
    assert not q.kept
    # force_drop wins even with an empty trace
    q.filter_trace = []
    assert not q.kept


def test_question_round_trip_preserves_trace_and_override():
    q = Question(
        question_id="abc",
        text="How is iron deficiency diagnosed?",
        category="Medicine",
        source_doc_id="doc-9",
        filter_trace=["report_verb"],
        review_override=ReviewOverride.FORCE_KEEP,
    )
    assert Question.from_dict(q.to_dict()) == q


def test_pending_record_is_valid_with_no_units():
    rec = make_record(status=Status.PENDING, verdicts=None)
    assert validate_record(rec) == []


@pytest.mark.parametrize(
    "status", [Status.PENDING, Status.PREPROCESSED, Status.EXCLUDED_NONCOMMITTAL]
)
def test_pre_split_statuses_must_have_no_units(status):
    rec = make_record(status=status, verdicts=(Verdict.TRUE,))
    assert any("units must be empty" in v for v in validate_record(rec))


@pytest.mark.parametrize(
    "status",
    [Status.SPLIT, Status.CHECKED, Status.SCORED, Status.EXCLUDED_UNKNOWN, Status.EXCLUDED_MISMATCH],
)
def test_post_split_statuses_need_units(status):
    rec = make_record(status=status, verdicts=None)
    assert any("units must be non-empty" in v for v in validate_record(rec))


def test_unit_indices_must_be_contiguous_from_zero():
    rec = make_record(status=Status.SPLIT, verdicts=None)
    rec.units = [AtomicUnit(index=0, text="a."), AtomicUnit(index=2, text="b.")]
    assert any("contiguous" in v for v in validate_record(rec))
    rec.units = [AtomicUnit(index=1, text="a."), AtomicUnit(index=2, text="b.")]
    assert any("contiguous" in v for v in validate_record(rec))


def test_checked_record_requires_a_verdict_on_every_unit():
    rec = make_record(status=Status.CHECKED, verdicts=(Verdict.TRUE, None))
    violations = validate_record(rec)
    assert any("requires a verdict" in v for v in violations)


def test_scored_record_must_not_carry_unknown():
    rec = make_record(status=Status.SCORED, verdicts=(Verdict.TRUE, Verdict.UNKNOWN))
    assert any("Unknown" in v for v in validate_record(rec))
    # checked may still carry Unknown; exclusion happens in check_response
    rec2 = make_record(status=Status.CHECKED, verdicts=(Verdict.UNKNOWN,))
    assert validate_record(rec2) == []


def test_empty_unit_text_is_a_violation():
    rec = make_record(status=Status.SPLIT, verdicts=None)
    rec.units = [AtomicUnit(index=0, text="   ")]
    assert any("empty text" in v for v in validate_record(rec))


def test_failed_status_is_unconstrained_on_units():
    assert validate_record(make_record(status=Status.FAILED, verdicts=None)) == []
    assert validate_record(make_record(status=Status.FAILED, verdicts=(None,))) == []


def test_record_dict_round_trip():
    rec = make_record(status=Status.CHECKED, verdicts=(Verdict.TRUE, Verdict.FALSE))
    rec.units[1].checker_reply = "False. Contradicts references."
    clone = EvalRecord.from_dict(rec.to_dict())
    assert clone == rec


_HOT = GenConfig(temperature=1.3, max_tokens=77, seed=9)
_UNIT = AtomicUnit(index=1, text="Colchicine helps.", verdict=Verdict.FALSE, checker_reply="No.")


@pytest.mark.parametrize(
    "value",
    [
        _HOT,
        SourceDocument(doc_id="doc-9", title="Gout", body="Gout is treated with rest."),
        Question(
            question_id="abc",
            text="How is gout treated?",
            category="Medicine",
            source_doc_id="doc-9",
            filter_trace=["report_verb"],
            review_override=ReviewOverride.FORCE_KEEP,
        ),
        _UNIT,
        EvalRecord(
            question_id="abc",
            model_id="m",
            gen_config=_HOT,
            raw_response="Rest. Colchicine helps.",
            preprocessed="Rest. Colchicine helps.",
            units=[AtomicUnit(index=0, text="Rest helps.", verdict=Verdict.TRUE), _UNIT],
            status=Status.CHECKED,
            category="Medicine",
            finish_reason="length",
            error="late reply",
        ),
    ],
    ids=lambda value: type(value).__name__,
)
def test_a_wire_pair_writes_every_field_and_reads_it_back(value):
    """A field added to a type read back from a file must reach its to_dict and from_dict."""
    for f in fields(value):
        default = f.default_factory() if f.default_factory is not MISSING else f.default
        assert getattr(value, f.name) != default, f"{f.name} is at its default"
    assert sorted(value.to_dict()) == sorted(f.name for f in fields(value))
    assert type(value).from_dict(value.to_dict()) == value


def test_record_requires_identifiers():
    rec = make_record(qid="", status=Status.PENDING, verdicts=None)
    assert any("question_id" in v for v in validate_record(rec))
    rec = make_record(model="", status=Status.PENDING, verdicts=None)
    assert any("model_id" in v for v in validate_record(rec))


def test_make_units_helper_indices():
    units = make_units((Verdict.TRUE, Verdict.FALSE, None))
    assert [u.index for u in units] == [0, 1, 2]
