from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dahl.backends import MockBackend
from dahl.listparse import parse_list_output
from dahl.split import SplitParseError, parse_splitter_output, split_into_units, validate_units
from dahl.types import AtomicUnit, Status

from factories import make_record


# ---------------------------------------------------------------------------
# list parsing


def test_numbered_list_with_dot_and_paren():
    raw = "1. First claim.\n2) Second claim.\n10. Tenth claim."
    assert parse_list_output(raw) == ["First claim.", "Second claim.", "Tenth claim."]


def test_bullet_lists():
    raw = "- dash item\n* star item\n• bullet item"
    assert parse_list_output(raw) == ["dash item", "star item", "bullet item"]


def test_numbered_list_past_three_digits():
    raw = "\n".join(f"{i}. Claim number {i}." for i in range(1, 1002))
    got = parse_list_output(raw)
    assert len(got) == 1001
    assert got[999] == "Claim number 1000."
    assert got[-1] == "Claim number 1001."


def test_unmarked_lines_continue_previous_item():
    raw = "1. A long claim that\nwraps onto the next line.\n2. Second."
    assert parse_list_output(raw) == [
        "A long claim that wraps onto the next line.",
        "Second.",
    ]


def test_many_continuation_lines_parse_in_linear_time():
    lines = [f"continuation {i}" for i in range(100_000)]
    raw = "1. Head of the item\n" + "\n".join(lines)
    started = time.perf_counter()
    got = parse_list_output(raw)
    elapsed = time.perf_counter() - started
    assert got == ["Head of the item " + " ".join(lines)]
    assert elapsed < 2.0, f"100k continuation lines took {elapsed:.2f} s"


def test_mixed_marked_bare_and_blank_lines():
    raw = (
        "Preamble line.\n\n1. First item\ncontinues here\n   \n-  Second item  \n"
        "\tindented continuation\n2) \nonly continuation\n* \n• Third\n"
        "3.5 is not a marker\n\n10. Last."
    )
    # An empty marked item is dropped, unless a continuation line gives
    # it text, which then keeps the joining space in front.
    assert parse_list_output(raw) == [
        "First item continues here",
        "Second item indented continuation",
        " only continuation",
        "Third 3.5 is not a marker",
        "Last.",
    ]


def test_preamble_before_first_marker_is_dropped():
    raw = "Here are the units:\n1. Only unit."
    assert parse_list_output(raw) == ["Only unit."]


def test_bare_lines_without_any_marker():
    raw = "First bare line.\n\nSecond bare line."
    assert parse_list_output(raw) == ["First bare line.", "Second bare line."]


def test_blank_and_empty_input():
    assert parse_list_output("") == []
    assert parse_list_output("\n  \n") == []


def test_marker_requires_trailing_space():
    # "3.5" etc. must not be taken for a numbered item
    assert parse_list_output("3.5 percent of cases worsen.") == [
        "3.5 percent of cases worsen."
    ]


def test_parse_splitter_output_never_silently_empty():
    assert parse_splitter_output("1. One unit.") == ["One unit."]
    with pytest.raises(SplitParseError, match="no units parsed"):
        parse_splitter_output("   \n ")


# ---------------------------------------------------------------------------
# split_into_units


def splitter_with(reply: str) -> MockBackend:
    return MockBackend(default=reply, backend_id="splitter", model="split-model")


def test_split_attaches_indexed_units():
    record = make_record(
        status=Status.PREPROCESSED,
        verdicts=None,
        preprocessed="Metformin is first-line. It lowers glucose.",
    )
    backend = splitter_with("1. Metformin is first-line.\n2. Metformin lowers glucose.")
    split_into_units(record, backend)
    assert record.status is Status.SPLIT
    assert [u.index for u in record.units] == [0, 1]
    assert record.units[0].text == "Metformin is first-line."
    assert all(u.verdict is None for u in record.units)


def test_split_prompt_contains_the_response_text():
    seen = []

    def reply(req):
        seen.append(req.user_prompt)
        return "1. Something."

    record = make_record(
        status=Status.PREPROCESSED, verdicts=None, preprocessed="A very specific sentence."
    )
    split_into_units(record, MockBackend(default=reply))
    assert "A very specific sentence." in seen[0]


def test_split_requires_preprocessed_status_and_text():
    with pytest.raises(ValueError, match="preprocessed"):
        split_into_units(make_record(status=Status.PENDING, verdicts=None), splitter_with("1. x"))
    bad = make_record(status=Status.PREPROCESSED, verdicts=None, preprocessed="")
    with pytest.raises(ValueError, match="non-empty"):
        split_into_units(bad, splitter_with("1. x"))


def test_split_backend_failure_marks_failed():
    record = make_record(status=Status.PREPROCESSED, verdicts=None)
    backend = MockBackend(rules=[("no match possible", "x")])
    split_into_units(record, backend)
    assert record.status is Status.FAILED
    assert record.units == []
    assert "no rule matches" in record.error


def test_split_unparseable_reply_marks_failed_with_raw_text():
    record = make_record(status=Status.PREPROCESSED, verdicts=None)
    split_into_units(record, splitter_with("    \n  "))
    assert record.status is Status.FAILED
    assert "no units parsed" in record.error


def test_split_uses_custom_template():
    seen = []

    def reply(req):
        seen.append(req.user_prompt)
        return "1. Unit."

    record = make_record(status=Status.PREPROCESSED, verdicts=None, preprocessed="Text here.")
    split_into_units(record, MockBackend(default=reply), prompt_template="SPLIT NOW: {response}")
    assert seen[0] == "SPLIT NOW: Text here."


# ---------------------------------------------------------------------------
# validate_units


def _split_record(units, preprocessed="One sentence here. Another one there."):
    record = make_record(status=Status.SPLIT, verdicts=None, preprocessed=preprocessed)
    record.units = [AtomicUnit(index=i, text=t) for i, t in enumerate(units)]
    return record


def test_validate_units_clean_record_has_no_flags():
    record = _split_record(["One sentence here.", "Another one there."])
    assert validate_units(record) == []


def test_validate_units_flags_unit_longer_than_response():
    record = _split_record(["x" * 100], preprocessed="short.")
    assert any("longer than the whole response" in f for f in validate_units(record))


def test_validate_units_flags_explosion():
    units = [f"Claim variant number {i}." for i in range(15)]
    record = _split_record(units, preprocessed="Single sentence only.")
    assert any("exceeds" in f for f in validate_units(record))


def test_validate_units_flags_duplicates():
    record = _split_record(["The same claim.", "the SAME claim!"])
    flags = validate_units(record)
    assert any("duplicates" in f for f in flags)


def test_validate_units_requires_split_status():
    with pytest.raises(ValueError, match="split"):
        validate_units(make_record(status=Status.CHECKED))


# ---------------------------------------------------------------------------
# property: parser output is always non-empty for non-blank input


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=200))
def test_parse_splitter_output_total(raw):
    if raw.strip():
        try:
            units = parse_splitter_output(raw)
        except SplitParseError:
            assert parse_list_output(raw) == []
        else:
            assert units
            assert all(u.strip() == u and u for u in units)
    else:
        with pytest.raises(SplitParseError):
            parse_splitter_output(raw)
