from __future__ import annotations

import pytest

from dahl.defaults import load_category_set
from dahl.types import (
    AtomicUnit,
    CategorySet,
    EvalRecord,
    GenConfig,
    Question,
    ReviewOverride,
    Status,
    Verdict,
    validate_record,
)

from factories import make_record, make_units


def test_verdict_round_trip():
    for v in Verdict:
        assert Verdict.from_str(v.value) is v


def test_verdict_rejects_unknown_string():
    with pytest.raises(ValueError, match="not a verdict"):
        Verdict.from_str("maybe")


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


def test_record_requires_identifiers():
    rec = make_record(qid="", status=Status.PENDING, verdicts=None)
    assert any("question_id" in v for v in validate_record(rec))
    rec = make_record(model="", status=Status.PENDING, verdicts=None)
    assert any("model_id" in v for v in validate_record(rec))


def test_make_units_helper_indices():
    units = make_units((Verdict.TRUE, Verdict.FALSE, None))
    assert [u.index for u in units] == [0, 1, 2]
