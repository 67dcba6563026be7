from __future__ import annotations

import csv
import io
import json
import random

import pytest

from dahl.score import (
    NoScorableResponsesError,
    dahl_score,
    precision_by_question,
    render_report,
    response_precision,
)
from dahl.types import CategoryScore, ScoreReport, Status, Verdict

import oracles
from factories import make_record


def test_response_precision_basic():
    assert response_precision([Verdict.TRUE, Verdict.TRUE, Verdict.FALSE]) == pytest.approx(
        2 / 3
    )
    assert response_precision([Verdict.FALSE]) == 0.0
    assert response_precision([Verdict.TRUE]) == 1.0


def test_response_precision_rejects_empty_and_unknown():
    with pytest.raises(ValueError, match="empty"):
        response_precision([])
    with pytest.raises(ValueError, match="Unknown"):
        response_precision([Verdict.TRUE, Verdict.UNKNOWN])


def test_dahl_score_is_unweighted_mean_over_responses():
    # one response at 1.0 (1 unit), one at 0.5 (4 units): responses
    # weigh equally regardless of unit counts
    records = [
        make_record(qid="a", status=Status.CHECKED, verdicts=(Verdict.TRUE,)),
        make_record(
            qid="b",
            status=Status.CHECKED,
            verdicts=(Verdict.TRUE, Verdict.TRUE, Verdict.FALSE, Verdict.FALSE),
        ),
    ]
    report = dahl_score(records)
    assert report.dahl_score == pytest.approx(0.75)
    assert report.pooled_unit_score == pytest.approx(3 / 5)
    assert report.n_scored == 2


def test_dahl_score_promotes_checked_to_scored_and_is_idempotent():
    records = [
        make_record(qid="a", status=Status.CHECKED, verdicts=(Verdict.TRUE,)),
        make_record(qid="b", status=Status.SCORED, verdicts=(Verdict.FALSE,)),
    ]
    first = dahl_score(records)
    assert all(r.status is Status.SCORED for r in records)
    second = dahl_score(records)
    assert second == first


def test_excluded_and_failed_records_never_contribute():
    records = [
        make_record(qid="a", status=Status.CHECKED, verdicts=(Verdict.TRUE, Verdict.FALSE)),
        make_record(
            qid="u",
            status=Status.EXCLUDED_UNKNOWN,
            verdicts=(Verdict.TRUE, Verdict.TRUE, Verdict.UNKNOWN),
        ),
        make_record(qid="m", status=Status.EXCLUDED_MISMATCH, verdicts=(None, None)),
        make_record(qid="n", status=Status.EXCLUDED_NONCOMMITTAL, verdicts=None),
        make_record(qid="f", status=Status.FAILED, verdicts=None),
    ]
    report = dahl_score(records)
    assert report.dahl_score == pytest.approx(0.5)
    assert report.n_scored == 1
    assert report.n_excluded_unknown == 1
    assert report.n_excluded_mismatch == 1
    assert report.n_excluded_noncommittal == 1
    assert report.n_failed == 1
    assert report.n_total == 5
    # the excluded records were not promoted
    assert records[1].status is Status.EXCLUDED_UNKNOWN
    assert records[2].status is Status.EXCLUDED_MISMATCH


def test_dahl_score_requires_scorable_records():
    with pytest.raises(NoScorableResponsesError, match="no scorable responses"):
        dahl_score([make_record(status=Status.FAILED, verdicts=None)])
    with pytest.raises(NoScorableResponsesError):
        dahl_score([])


def test_dahl_score_rejects_mixed_models():
    records = [
        make_record(qid="a", model="one", status=Status.CHECKED, verdicts=(Verdict.TRUE,)),
        make_record(qid="b", model="two", status=Status.CHECKED, verdicts=(Verdict.TRUE,)),
    ]
    with pytest.raises(ValueError, match="several models"):
        dahl_score(records)


def test_average_lengths_cover_scorable_records_only():
    records = [
        make_record(
            qid="a",
            status=Status.CHECKED,
            verdicts=(Verdict.TRUE,),
            raw="x" * 100,
            preprocessed="y" * 60,
        ),
        make_record(
            qid="b",
            status=Status.CHECKED,
            verdicts=(Verdict.TRUE,),
            raw="x" * 50,
            preprocessed="y" * 30,
        ),
        make_record(qid="c", status=Status.FAILED, verdicts=None, raw="x" * 9000),
    ]
    report = dahl_score(records)
    assert report.avg_raw_length_chars == pytest.approx(75.0)
    assert report.avg_response_length_chars == pytest.approx(45.0)


def test_per_category_scores_sorted():
    records = [
        make_record(qid="a", category="Surgery", status=Status.CHECKED, verdicts=(Verdict.TRUE,)),
        make_record(qid="b", category="Medicine", status=Status.CHECKED, verdicts=(Verdict.FALSE,)),
        make_record(qid="c", category="Medicine", status=Status.SCORED, verdicts=(Verdict.TRUE,)),
        make_record(qid="d", category="Surgery", status=Status.FAILED, verdicts=None),
    ]
    scores = dahl_score(records).per_category
    assert list(scores) == ["Medicine", "Surgery"]
    assert scores["Medicine"] == CategoryScore(score=0.5, n=2)
    assert scores["Surgery"] == CategoryScore(score=1.0, n=1)


def test_per_category_requires_category_on_scorable_records():
    record = make_record(status=Status.CHECKED, verdicts=(Verdict.TRUE,), category=None)
    with pytest.raises(ValueError, match="no category"):
        dahl_score([record])


@pytest.mark.parametrize(
    "second, error",
    [
        ({"category": None}, "no category"),
        ({"model": "other-model"}, "several models"),
    ],
)
def test_a_refused_score_leaves_every_status_as_it_was(second, error):
    records = [
        make_record(qid="a", status=Status.CHECKED, verdicts=(Verdict.TRUE,)),
        make_record(qid="b", status=Status.CHECKED, verdicts=(Verdict.FALSE,), **second),
        make_record(qid="c", status=Status.SCORED, verdicts=(Verdict.TRUE,)),
        make_record(qid="d", status=Status.CHECKED, verdicts=(Verdict.TRUE,)),
        make_record(qid="f", status=Status.FAILED, verdicts=None),
    ]
    before = [r.status for r in records]
    with pytest.raises(ValueError, match=error):
        dahl_score(records)
    assert [r.status for r in records] == before


def test_scoring_refuses_records_that_repeat_a_question_id():
    records = [
        make_record(qid="a", status=Status.CHECKED, verdicts=(Verdict.TRUE,)),
        make_record(qid="b", status=Status.CHECKED, verdicts=(Verdict.FALSE,)),
        make_record(qid="a", status=Status.CHECKED, verdicts=(Verdict.TRUE,)),
    ]
    with pytest.raises(ValueError, match=r"records repeat question ids: \['a'\]"):
        dahl_score(records)
    with pytest.raises(ValueError, match=r"records repeat question ids: \['a'\]"):
        precision_by_question(records)
    assert records[0].status is Status.CHECKED


def test_precision_by_question():
    records = [
        make_record(qid="a", status=Status.CHECKED, verdicts=(Verdict.TRUE, Verdict.FALSE)),
        make_record(qid="b", status=Status.SCORED, verdicts=(Verdict.TRUE,)),
        make_record(qid="c", status=Status.FAILED, verdicts=None),
    ]
    assert precision_by_question(records) == {"a": 0.5, "b": 1.0}


def test_score_is_permutation_invariant():
    rng = random.Random(2)
    records = [
        make_record(
            qid=f"q{i}",
            status=Status.CHECKED,
            verdicts=tuple(
                rng.choice((Verdict.TRUE, Verdict.FALSE)) for _ in range(rng.randint(1, 6))
            ),
        )
        for i in range(40)
    ]
    forward = dahl_score(list(records)).dahl_score
    rng.shuffle(records)
    for r in records:
        r.status = Status.CHECKED
    backward = dahl_score(records).dahl_score
    assert forward == pytest.approx(backward, abs=1e-15)


def _random_fixture(n, seed):
    rng = random.Random(seed)
    categories = ["Surgery", "Medicine", "Pediatrics", "Radiology", "Other"]
    records = []
    for i in range(n):
        roll = rng.random()
        if roll < 0.55:
            status = rng.choice((Status.CHECKED, Status.SCORED))
            verdicts = tuple(
                rng.choice((Verdict.TRUE, Verdict.FALSE)) for _ in range(rng.randint(1, 8))
            )
        elif roll < 0.70:
            status = Status.EXCLUDED_UNKNOWN
            verdicts = tuple(
                rng.choice((Verdict.TRUE, Verdict.UNKNOWN)) for _ in range(rng.randint(1, 4))
            )
            if Verdict.UNKNOWN not in verdicts:
                verdicts = verdicts + (Verdict.UNKNOWN,)
        elif roll < 0.82:
            status = Status.EXCLUDED_MISMATCH
            verdicts = tuple(None for _ in range(rng.randint(1, 4)))
        elif roll < 0.92:
            status = Status.EXCLUDED_NONCOMMITTAL
            verdicts = None
        else:
            status = Status.FAILED
            verdicts = None
        records.append(
            make_record(
                qid=f"q{i:04d}",
                status=status,
                verdicts=verdicts,
                category=rng.choice(categories),
            )
        )
    # guarantee at least one scorable record
    records.append(make_record(qid="anchor", status=Status.CHECKED, verdicts=(Verdict.TRUE,)))
    return records


def test_scores_match_brute_force_recount():
    records = _random_fixture(220, seed=7)
    dicts = [r.to_dict() for r in records]
    want_dahl, want_cat, want_counts = oracles.recount_scores(dicts)

    report = dahl_score(records)
    assert abs(report.dahl_score - want_dahl) <= 1e-12
    got_cat = {label: (cs.score, cs.n) for label, cs in report.per_category.items()}
    assert set(got_cat) == set(want_cat)
    for label in want_cat:
        assert got_cat[label][1] == want_cat[label][1]
        assert abs(got_cat[label][0] - want_cat[label][0]) <= 1e-12

    # conservation: every record lands in exactly one bucket
    scorable = want_counts.get("checked", 0) + want_counts.get("scored", 0)
    assert report.n_scored == scorable
    assert report.n_excluded_unknown == want_counts.get("excluded_unknown", 0)
    assert report.n_excluded_mismatch == want_counts.get("excluded_mismatch", 0)
    assert report.n_excluded_noncommittal == want_counts.get("excluded_noncommittal", 0)
    assert report.n_failed == want_counts.get("failed", 0)
    assert report.n_total == len(records)
    assert sum(cs.n for cs in report.per_category.values()) == report.n_scored


def test_per_category_scores_in_shuffled_order_match_brute_force_recount():
    records = _random_fixture(220, seed=11)
    random.Random(5).shuffle(records)
    _, want_cat, _ = oracles.recount_scores([r.to_dict() for r in records])

    report = dahl_score(records)
    # Each category adds the same floats in the same record order as the recount.
    assert {label: (cs.score, cs.n) for label, cs in report.per_category.items()} == want_cat
    assert list(report.per_category) == sorted(want_cat)


# ---------------------------------------------------------------------------
# rendering


def _sample_report():
    return ScoreReport(
        model_id="gpt-4o",
        dahl_score=0.9365,
        per_category={
            "Medicine": CategoryScore(score=0.93215, n=611),
            "Surgery": CategoryScore(score=0.9401, n=410),
        },
        n_scored=2321,
        n_excluded_noncommittal=12,
        n_excluded_unknown=40,
        n_excluded_mismatch=9,
        n_failed=3,
        avg_response_length_chars=934.6,
        avg_raw_length_chars=1010.2,
        pooled_unit_score=0.9312,
        model_size="-",
    )


def test_json_rendering_round_trips_losslessly():
    report = _sample_report()
    blob = render_report(report, "json")
    assert json.loads(blob) == report.to_dict()
    assert blob.endswith(b"\n")


def test_csv_rendering_layout_and_precision():
    report = _sample_report()
    report.dahl_score = 2321 * 0.9365 / 2321  # something with long repr
    rows = list(csv.reader(io.StringIO(render_report(report, "csv").decode("utf-8"))))
    assert rows[0] == ["model", "category", "n", "score"]
    assert rows[1][:3] == ["gpt-4o", "ALL", "2321"]
    assert float(rows[1][3]) == report.dahl_score  # full precision survives
    assert [r[1] for r in rows[2:]] == ["Medicine", "Surgery"]


def test_markdown_rendering_shows_headline_numbers():
    text = render_report(_sample_report(), "markdown").decode("utf-8")
    lines = text.splitlines()
    assert lines[0] == "| Model | Size | Avg. Length | DAHL Score |"
    assert "| gpt-4o | - | 935 | 0.9365 |" in lines
    assert "| Medicine | 611 | 0.9322 |" in text
    assert "Scored 2321 of 2385 responses" in text


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError, match="unknown report format"):
        render_report(_sample_report(), "xml")
