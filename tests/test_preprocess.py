from __future__ import annotations

import re
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dahl.responses import (
    dedup_sentences,
    drop_incomplete_tail,
    generate_response,
    normalize_sentence_key,
    preprocess,
    render_question_prompt,
    segment_sentences,
    strip_prompt_echo,
)
from dahl.backends import MockBackend
from dahl.types import GenConfig, Status

from factories import make_question, make_record
from oracles import (
    CURLY_QUOTES,
    WHITESPACE,
    _normalize_key_oracle,
    load_abbreviations_oracle,
    segment_sentences_oracle,
)


# Cleanup golden case: a response that echoes its prompt, repeats a
# sentence verbatim, and trails off mid-sentence.
GOLDEN_PROMPT = (
    "What is the incidence rate of cystic lymphangioma (CL) in live births, "
    "and where are the most common locations for CL to occur?"
)
GOLDEN_RAW = (
    GOLDEN_PROMPT
    + " The authors retrospectively reviewed the records of all live births at a "
    "single hospital between 1985 and 2014.  They identified 215,077 live births, "
    "and of these, 136,106 had complete records of antenatal ultrasound findings. "
    "Of these 136,106 births, 134,594 (98.9%) had complete records of the neonatal "
    "period. Of these 136,106 births, 134,594 (98.9%) had complete records of the "
    "neonatal period. The authors defined CL as a non-cystic mass of at"
)
GOLDEN_CLEAN = (
    "The authors retrospectively reviewed the records of all live births at a "
    "single hospital between 1985 and 2014. They identified 215,077 live births, "
    "and of these, 136,106 had complete records of antenatal ultrasound findings. "
    "Of these 136,106 births, 134,594 (98.9%) had complete records of the neonatal "
    "period."
)


def test_golden_cleanup_is_byte_exact():
    record = make_record(status=Status.PENDING, verdicts=None, raw=GOLDEN_RAW)
    preprocess(record, GOLDEN_PROMPT)
    assert record.status is Status.PREPROCESSED
    assert record.preprocessed == GOLDEN_CLEAN


def test_preprocess_requires_pending():
    record = make_record(status=Status.PREPROCESSED, verdicts=None)
    with pytest.raises(ValueError, match="pending"):
        preprocess(record, "prompt")


# ---------------------------------------------------------------------------
# segmentation


def test_segment_basic():
    got = segment_sentences("One is here. Two follows! Three asks? Done.")
    assert [s.text for s in got] == ["One is here.", "Two follows!", "Three asks?", "Done."]


def test_segment_decimal_numbers_do_not_split():
    got = segment_sentences("The rate was 3.5 per 1000. Prevalence rose to 4.2 later.")
    assert [s.text for s in got] == [
        "The rate was 3.5 per 1000.",
        "Prevalence rose to 4.2 later.",
    ]


def test_segment_protects_abbreviations():
    got = segment_sentences("Dr. Smith described the case. Fig. 2 shows the lesion.")
    assert [s.text for s in got] == [
        "Dr. Smith described the case.",
        "Fig. 2 shows the lesion.",
    ]


def test_segment_abbreviation_protection_is_case_sensitive():
    # "dr." in lowercase is not on the list, but the next word must
    # still be capitalized for a split to happen at all.
    got = segment_sentences("He saw the dr. Then he left.")
    assert [s.text for s in got] == ["He saw the dr.", "Then he left."]


def test_segment_requires_upper_or_digit_after_punct():
    got = segment_sentences("This sentence continues. and never splits here.")
    assert len(got) == 1


def test_segment_split_before_digit():
    got = segment_sentences("Cases were counted. 215,077 births were reviewed.")
    assert len(got) == 2


def test_segment_handles_quote_after_punctuation():
    got = segment_sentences('He said stop. "Another sentence starts."')
    assert [s.text for s in got] == ["He said stop.", '"Another sentence starts."']


def test_segment_multi_punct_run_is_one_boundary():
    got = segment_sentences("Really?! Yes.")
    assert [s.text for s in got] == ["Really?!", "Yes."]


def test_segment_empty_and_whitespace():
    assert segment_sentences("") == []
    assert segment_sentences("   \n\t ") == []


def test_segment_64kb_in_linear_time():
    text = "Word word word. " * 4096
    started = time.perf_counter()
    got = segment_sentences(text)
    elapsed = time.perf_counter() - started
    assert len(got) == 4096
    assert elapsed < 1.0, f"64 KB took {elapsed:.2f} s"


@pytest.mark.parametrize(
    "text", ["." * 65536 + "x", "?!" * 32768 + "x", "a." * 32768], ids=["dots", "?!", "a."]
)
def test_segment_64kb_without_whitespace_after_punctuation_in_linear_time(text):
    started = time.perf_counter()
    got = segment_sentences(text)
    elapsed = time.perf_counter() - started
    assert [s.text for s in got] == [text]
    assert elapsed < 1.0, f"64 KB took {elapsed:.2f} s"


def test_segment_unterminated_tail_is_kept_as_sentence():
    got = segment_sentences("First part done. trailing fragment without end")
    assert got[-1].text == "First part done. trailing fragment without end"
    got = segment_sentences("First part done. Trailing fragment without end")
    assert got[-1].text == "Trailing fragment without end"


# ---------------------------------------------------------------------------
# normalization and dedup


def test_normalize_key_folds_case_space_quotes_and_terminal_punct():
    assert normalize_sentence_key("The  Rate was HIGH.") == "the rate was high"
    assert normalize_sentence_key("“Curly quotes” here!") == '"curly quotes" here'
    assert normalize_sentence_key("Ends with closer.)") == "ends with closer"
    assert normalize_sentence_key("no punct") == "no punct"


def test_whitespace_is_the_same_code_points_for_regex_isspace_and_split():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert "".join(re.findall(r"\s", every)) == WHITESPACE
    assert "".join(c for c in every if c.isspace()) == WHITESPACE
    assert "".join(every.split()) == "".join(c for c in every if c not in WHITESPACE)


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=WHITESPACE + CURLY_QUOTES + "\"')].!?a\u00df\u0130\ufb01", max_size=40))
def test_normalize_key_equals_regex_oracle(text):
    assert normalize_sentence_key(text) == _normalize_key_oracle(text)


def test_dedup_keeps_first_occurrence_only():
    sents = segment_sentences("A fact is stated. Another one. A FACT is  stated! Final.")
    deduped = dedup_sentences(sents)
    assert [s.text for s in deduped] == ["A fact is stated.", "Another one.", "Final."]


def test_dedup_is_idempotent():
    sents = segment_sentences("Alpha holds. Beta holds. Alpha holds.")
    once = dedup_sentences(sents)
    assert dedup_sentences(once) == once


# ---------------------------------------------------------------------------
# incomplete tail


def test_drop_incomplete_tail_drops_unterminated():
    sents = segment_sentences("Complete sentence here. And then it just")
    kept = drop_incomplete_tail(sents)
    assert [s.text for s in kept] == ["Complete sentence here."]


def test_drop_incomplete_tail_keeps_terminated():
    sents = segment_sentences("One. Two.")
    assert drop_incomplete_tail(sents) == list(sents)
    assert drop_incomplete_tail([]) == []


def test_drop_incomplete_tail_respects_closing_quote():
    sents = segment_sentences('He wrote one sentence. "It ended well."')
    assert len(drop_incomplete_tail(sents)) == 2


# ---------------------------------------------------------------------------
# prompt echo


def test_echo_stripped_despite_rewrapping_and_case():
    prompt = "What causes iron deficiency\nin adults?"
    raw = "what CAUSES iron\n  deficiency in adults?  Low intake is the main cause."
    assert strip_prompt_echo(raw, prompt) == "Low intake is the main cause."


def test_non_echo_left_alone():
    raw = "Iron deficiency is common."
    assert strip_prompt_echo(raw, "A different question?") == raw


def test_partial_echo_left_alone():
    prompt = "What causes iron deficiency in adults?"
    raw = "What causes iron"
    assert strip_prompt_echo(raw, prompt) == raw


def test_echo_strip_with_empty_prompt_is_identity():
    assert strip_prompt_echo("Answer text.", "") == "Answer text."
    assert strip_prompt_echo("Answer text.", "  \n ") == "Answer text."


def test_echo_only_leading_occurrence_removed():
    prompt = "Name the drug."
    raw = "Name the drug. It is metformin. Name the drug."
    assert strip_prompt_echo(raw, prompt) == "It is metformin. Name the drug."


# ---------------------------------------------------------------------------
# noncommittal detection


@pytest.mark.parametrize(
    "text",
    [
        "It cannot be answered.",
        "I don't know.",
        "I do not know. It cannot be answered.",
        "it CANNOT be answered!",
    ],
)
def test_refusals_detected(text):
    record = make_record(status=Status.PENDING, verdicts=None, raw=text)
    preprocess(record, "")
    assert record.status is Status.EXCLUDED_NONCOMMITTAL


@pytest.mark.parametrize(
    "text",
    [
        "I don't know, but metformin is first-line.",
        "It cannot be answered. However, prevalence is about 3%.",
        "Metformin is first-line.",
    ],
)
def test_substantive_text_is_not_noncommittal(text):
    record = make_record(status=Status.PENDING, verdicts=None, raw=text)
    preprocess(record, "")
    assert record.status is Status.PREPROCESSED


def test_preprocess_excludes_refusal_and_empty():
    record = make_record(status=Status.PENDING, verdicts=None, raw="I don't know.")
    preprocess(record, "whatever prompt")
    assert record.status is Status.EXCLUDED_NONCOMMITTAL
    assert record.preprocessed == "i don't know." or record.preprocessed == "I don't know."

    # echo plus unterminated tail leaves nothing behind
    record = make_record(status=Status.PENDING, verdicts=None, raw="The prompt. and then th")
    preprocess(record, "The prompt.")
    assert record.status is Status.EXCLUDED_NONCOMMITTAL
    assert record.preprocessed == ""


# ---------------------------------------------------------------------------
# generation


def test_generate_response_copies_question_fields():
    q = make_question(qid="q9", category="Cardiology")
    backend = MockBackend(default="Atrial fibrillation is common.", model="gen-model")
    record = generate_response(q, backend, GenConfig(temperature=0.2))
    assert record.question_id == "q9"
    assert record.model_id == "gen-model"
    assert record.category == "Cardiology"
    assert record.status is Status.PENDING
    assert record.raw_response == "Atrial fibrillation is common."
    assert record.finish_reason == "stop"


def test_generate_response_folds_backend_failure_into_record():
    q = make_question()
    backend = MockBackend(rules=[("never matches", "x")])
    record = generate_response(q, backend, GenConfig())
    assert record.status is Status.FAILED
    assert "no rule matches" in (record.error or "")


def test_render_question_prompt_default_template_is_bare_question():
    assert render_question_prompt("What is a migraine?") == "What is a migraine?"
    assert render_question_prompt("Q?", "Answer fully: {question}") == "Answer fully: Q?"


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=80, deadline=None)
@given(st.text(max_size=300))
def test_cleanup_never_grows_text(raw):
    record = make_record(status=Status.PENDING, verdicts=None, raw=raw)
    preprocess(record, "")
    assert len(record.preprocessed) <= len(raw) + 0  # removal only
    assert record.status in (Status.PREPROCESSED, Status.EXCLUDED_NONCOMMITTAL)


@settings(max_examples=60, deadline=None)
@given(st.text(max_size=300))
def test_cleanup_is_idempotent_on_its_own_output(raw):
    first = make_record(status=Status.PENDING, verdicts=None, raw=raw)
    preprocess(first, "")
    second = make_record(status=Status.PENDING, verdicts=None, raw=first.preprocessed)
    preprocess(second, "")
    assert second.preprocessed == first.preprocessed


@settings(max_examples=60, deadline=None)
@given(st.text(min_size=1, max_size=120), st.text(max_size=120))
def test_echo_strip_removes_prefix_or_nothing(prompt, rest):
    raw = prompt + rest
    out = strip_prompt_echo(raw, prompt)
    # either the prompt (plus following space) was removed or the raw
    # text came back untouched
    assert out == raw or len(out) <= len(rest)


# Texts rich in what the boundary test looks at. Each candidate is a
# separator, a word built from packaged abbreviations, word characters
# and dots, what sits between the word and the punctuation (a newline
# included), a punctuation run, the whitespace after it, an optional
# quote or closer, and the next character. Free pieces fill the gaps.
_ABBREVIATIONS = sorted(load_abbreviations_oracle())
_WORD_PARTS = [".", "..", "_", "x", "3", "\u00e9", "e\u0301", "\u4e2d", "\u0663", "\u00b2"]
_LEAD = [" ", "", "\n", "(", '"', "."]
_GLUE = ["", "", "", "\n", "\n\n", " ", "_"]
_PUNCT = [".", ".", ".", "..", "...", "!", "?", "?!", ".!", "?."]
_SPACE = [" ", "", "  ", "\n", "\t", "\r\n", "\u00a0", "\u2003", *WHITESPACE]
_OPENER = ["", "", '"', "'", "\u201d", ")", *CURLY_QUOTES]
_START = [
    "A", "A", "7", "a", "\u0663", "\u00b2", "\u00c9", "\u00e9", "\u00df", "\u01c5",
    "\u216b", "_", "\u4e2d", "\u0301", "",
]
_WORD = st.tuples(
    st.lists(st.sampled_from(_WORD_PARTS + _ABBREVIATIONS), max_size=2).map("".join),
    st.sampled_from(_ABBREVIATIONS + _WORD_PARTS),
).map("".join)
_CANDIDATE = st.tuples(
    st.sampled_from(_LEAD),
    _WORD,
    *(st.sampled_from(part) for part in (_GLUE, _PUNCT, _SPACE, _OPENER, _START)),
)
_FREE = st.sampled_from(
    _ABBREVIATIONS + _WORD_PARTS + _LEAD + _GLUE + _PUNCT + _SPACE + _OPENER + _START
)


@settings(max_examples=1000, deadline=None)
@example("Dr\n. Smith")
@example("a _Dr. Smith")
@example("..Fig. 2")
@given(st.lists(st.one_of(_CANDIDATE.map("".join), _FREE), max_size=16).map("".join))
def test_segment_equals_regex_oracle(text):
    got = [(s.text, s.normalized_key) for s in segment_sentences(text)]
    assert got == segment_sentences_oracle(text)
