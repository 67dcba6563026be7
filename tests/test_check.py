from __future__ import annotations

import pytest

from dahl.backends import MockBackend
from dahl.check import check_response, check_unit, parse_checker_output
from dahl.types import Status, Verdict

from factories import make_record


@pytest.mark.parametrize(
    "raw,want",
    [
        ("True", Verdict.TRUE),
        ("true.", Verdict.TRUE),
        ("The claim is TRUE.", Verdict.TRUE),
        ("Yes, this is correct.", Verdict.TRUE),
        ("False", Verdict.FALSE),
        ("The statement is false.", Verdict.FALSE),
        ("No. This contradicts guidelines.", Verdict.FALSE),
        ("Incorrect, the rate is far lower.", Verdict.FALSE),
        ("Unknown", Verdict.UNKNOWN),
        ("I cannot verify this claim.", Verdict.UNKNOWN),
        ("This is unverifiable from available sources.", Verdict.UNKNOWN),
        ("Uncertain.", Verdict.UNKNOWN),
    ],
)
def test_parse_checker_output(raw, want):
    assert parse_checker_output(raw) is want


def test_unknown_marker_beats_everything():
    assert parse_checker_output("True, but uncertain overall") is Verdict.UNKNOWN
    assert parse_checker_output("cannot verify; likely false") is Verdict.UNKNOWN


def test_earliest_binary_token_wins():
    assert parse_checker_output("False. The true rate is 2%.") is Verdict.FALSE
    assert parse_checker_output("True, not false at all.") is Verdict.TRUE


@pytest.mark.parametrize(
    "raw,want",
    [
        ("Not true.", Verdict.FALSE),
        ("This is not correct.", Verdict.FALSE),
        ("It isn't true", Verdict.FALSE),
        ("It isn\u2019t true", Verdict.FALSE),
        ("Never true in adults.", Verdict.FALSE),
        ("Not correct: the dose is 10 mg.", Verdict.FALSE),
        ("Not false.", Verdict.TRUE),
        ("This is not incorrect.", Verdict.TRUE),
        ("True, not false at all.", Verdict.TRUE),
    ],
)
def test_a_negator_right_before_a_verdict_token_switches_its_family(raw, want):
    assert parse_checker_output(raw) is want


def test_word_boundaries_respected():
    # "notrue" and "falsely" must not count as verdict tokens
    assert parse_checker_output("notrue gibberish") is Verdict.UNKNOWN
    assert parse_checker_output("falsely reassuring wording") is Verdict.UNKNOWN


def test_garbage_maps_to_unknown_not_a_guess():
    assert parse_checker_output("") is Verdict.UNKNOWN
    assert parse_checker_output("The weather is nice.") is Verdict.UNKNOWN


def test_check_unit_returns_verdict_and_raw_reply():
    backend = MockBackend(default="False. Contradicts standard references.")
    verdict, reply = check_unit("Water boils at 50C at sea level.", backend)
    assert verdict is Verdict.FALSE
    assert reply.startswith("False.")


def test_check_unit_embeds_unit_in_prompt():
    seen = []

    def reply(req):
        seen.append(req.user_prompt)
        return "True"

    check_unit("A very recognizable claim.", MockBackend(default=reply))
    assert "A very recognizable claim." in seen[0]


def test_check_unit_rejects_empty_text():
    with pytest.raises(ValueError, match="non-empty"):
        check_unit("   ", MockBackend(default="True"))


def _split_record(n=3):
    verdicts = tuple(None for _ in range(n))
    return make_record(status=Status.SPLIT, verdicts=verdicts)


def test_check_response_happy_path():
    record = _split_record(3)
    record = check_response(record, MockBackend(default="True"))
    assert record.status is Status.CHECKED
    assert all(u.verdict is Verdict.TRUE for u in record.units)
    assert all(u.checker_reply == "True" for u in record.units)


def test_check_response_any_unknown_excludes_record():
    record = _split_record(2)
    backend = MockBackend(
        rules=[("claim 0", "True"), ("claim 1", "Unknown")], default="True"
    )
    check_response(record, backend)
    assert record.status is Status.EXCLUDED_UNKNOWN
    # verdicts stay attached for audit
    assert record.units[1].verdict is Verdict.UNKNOWN


def test_check_response_failed_call_is_count_mismatch():
    record = _split_record(3)
    backend = MockBackend(rules=[("claim 0", "True"), ("claim 2", "True")])  # claim 1 misses
    check_response(record, backend)
    assert record.status is Status.EXCLUDED_MISMATCH
    assert record.units[1].verdict is None
    assert "verdict count mismatch: 2 verdicts for 3 units" in record.error
    assert "unit 1" in record.error


def test_check_response_requires_split_status():
    with pytest.raises(ValueError, match="split"):
        check_response(make_record(status=Status.CHECKED), MockBackend(default="True"))


def test_check_response_one_call_per_unit():
    record = _split_record(4)
    backend = MockBackend(default="True")
    check_response(record, backend)
    assert backend.calls == 4


def test_checked_records_never_lose_units():
    record = _split_record(2)
    texts = [u.text for u in record.units]
    check_response(record, MockBackend(default="False"))
    assert [u.text for u in record.units] == texts
    assert len(record.units) == 2
