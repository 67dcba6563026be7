from __future__ import annotations

import itertools
import json
import re
import threading
import time
from dataclasses import asdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dahl.dataset
from dahl import mocks
from dahl.backends import MockBackend, PermanentBackendError
from dahl.config import load_overrides
from dahl.dataset import (
    AMBIGUOUS_CATEGORY_RULE,
    CategorizeResult,
    FilterRule,
    OverrideList,
    QuestionParseError,
    build_dataset,
    categorize,
    filter_context_dependent,
    generate_questions,
    load_filter_rules,
    make_question_id,
    normalize_question_text,
    resolve_category_reply,
)
from dahl.defaults import PROMPTS, fill_template, load_category_set
from dahl.records import write_records
from dahl.types import CategorySet, Question, ReviewOverride, SourceDocument

from factories import cached, make_question
from oracles import WHITESPACE, resolve_category_reply_oracle

RULES = load_filter_rules()
CATEGORIES = load_category_set()


# ---------------------------------------------------------------------------
# rules


def test_packaged_rules_load():
    assert [r.rule_id for r in RULES] == [
        "deictic_source_noun",
        "report_verb",
        "passive_context_verb",
    ]


def test_filter_rule_compiles_eagerly():
    with pytest.raises(Exception):
        FilterRule(rule_id="broken", pattern="(unclosed")
    with pytest.raises(ValueError):
        FilterRule(rule_id="", pattern="x")


def test_duplicate_rule_ids_rejected(tmp_path):
    path = tmp_path / "rules.jsonl"
    line = json.dumps({"rule_id": "dup", "pattern": "x"})
    path.write_text(line + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="duplicate rule_id"):
        load_filter_rules(str(path))


def test_bad_rule_line_reports_line_number(tmp_path):
    path = tmp_path / "rules.jsonl"
    path.write_text('{"rule_id": "ok", "pattern": "x"}\n{"pattern": "y"}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        load_filter_rules(str(path))


@pytest.mark.parametrize("rule_id", ["ambiguous_category", "categorizer_failure"])
def test_pseudo_rule_ids_are_reserved(tmp_path, rule_id):
    path = tmp_path / "rules.jsonl"
    line = json.dumps({"rule_id": rule_id, "pattern": "y"})
    path.write_text('{"rule_id": "ok", "pattern": "x"}\n' + line + "\n", encoding="utf-8")
    expected = f"line 2: cannot parse record: rule_id '{rule_id}' is reserved for the build"
    with pytest.raises(ValueError, match=expected):
        load_filter_rules(str(path))


# ---------------------------------------------------------------------------
# the filter itself, exercised on a fixed fixture corpus


def _matched(text):
    return filter_context_dependent(text, RULES).rule_ids


@pytest.mark.parametrize(
    "text",
    [
        "What ethical considerations are addressed by the authors in relation "
        "to their research findings?",
        "What are the implications for practice suggested by the study?",
    ],
)
def test_source_pointer_questions_drop_via_deictic_rule(text):
    ids = _matched(text)
    assert ids, "question should have been dropped"
    assert "deictic_source_noun" in ids


@pytest.mark.parametrize(
    "text",
    [
        "What tissue-specific patterns were observed in the usage of intronic "
        "PASs compared to PASs in exons?",
        "What challenges are associated with the protocol described in the "
        "study, and what solutions are suggested for troubleshooting?",
    ],
)
def test_report_verb_questions_drop(text):
    ids = _matched(text)
    assert ids
    assert "report_verb" in ids


def test_passive_context_question_drops():
    text = (
        "What method was used to assess the functional accuracy of the "
        "context-specific models?"
    )
    assert _matched(text) == ("passive_context_verb",)


def test_self_contained_question_is_kept():
    text = (
        "What is the incidence rate of cystic lymphangioma (CL) in live births, "
        "and where are the most common locations for CL to occur?"
    )
    decision = filter_context_dependent(text, RULES)
    assert decision.keep
    assert decision.rule_ids == ()


def test_drop_candidates_collect_every_matching_rule():
    text = (
        "Which MEM was found to be the most computationally efficient, and how "
        "might this impact its use in research?"
    )
    # "was found" plus "its ... research" both fire
    assert set(_matched(text)) == {"deictic_source_noun", "passive_context_verb"}


def test_filter_is_monotone_in_the_rule_set():
    text = "What outcomes were reported for the elderly cohort?"
    subset = filter_context_dependent(text, RULES[:1])
    full = filter_context_dependent(text, RULES)
    assert set(subset.rule_ids) <= set(full.rule_ids)
    if not subset.keep:
        assert not full.keep


# ---------------------------------------------------------------------------
# overrides


def test_override_list_rejects_overlap():
    with pytest.raises(ValueError, match="both force_keep and force_drop"):
        OverrideList(force_keep=frozenset({"x"}), force_drop=frozenset({"x"}))


def test_override_for_matches_id_or_normalized_text():
    ov = OverrideList(
        force_keep=frozenset({"abc123"}),
        force_drop=frozenset({normalize_question_text("Drop   this one?")}),
    )
    assert ov.override_for("abc123", "anything") is ReviewOverride.FORCE_KEEP
    assert ov.override_for("zzz", "Drop this  one?") is ReviewOverride.FORCE_DROP
    assert ov.override_for("zzz", "Keep me?") is ReviewOverride.NONE


def test_force_drop_wins_over_force_keep_when_both_keys_match():
    ov = OverrideList(
        force_keep=frozenset({"qid-1"}), force_drop=frozenset({"some question?"})
    )
    assert ov.override_for("qid-1", "some question?") is ReviewOverride.FORCE_DROP


def test_load_overrides_from_json(tmp_path):
    path = tmp_path / "overrides.json"
    path.write_text(
        json.dumps(
            {
                "force_keep": ["Keep  this question?"],
                "force_drop": [
                    "Explain the significance of functional validation in the "
                    "context of this research and how it is achieved."
                ],
            }
        ),
        encoding="utf-8",
    )
    ov = load_overrides(str(path))
    assert ov.override_for("x", "Keep this question?") is ReviewOverride.FORCE_KEEP
    assert load_overrides(None) == OverrideList()


def test_overrides_file_with_a_byte_order_mark_reads(tmp_path):
    path = tmp_path / "overrides.json"
    path.write_text(json.dumps({"force_keep": ["qid-1"]}), encoding="utf-8-sig")
    assert load_overrides(str(path)) == OverrideList(force_keep=frozenset({"qid-1"}))


def test_reviewer_can_drop_a_question_the_filter_missed():
    text = (
        "Explain the significance of functional validation in the context of "
        "this research and how it is achieved."
    )
    q = Question(
        question_id=make_question_id("doc", text),
        text=text,
        category="Other",
        source_doc_id="doc",
        filter_trace=list(_matched(text)),
    )
    ov = OverrideList(force_drop=frozenset({normalize_question_text(text)}))
    q.review_override = ov.override_for(q.question_id, q.text)
    assert q.review_override is ReviewOverride.FORCE_DROP
    assert not q.kept


def test_force_keep_restores_a_filtered_question():
    q = make_question(text="What was reported about survival?")
    q.filter_trace = ["report_verb"]
    assert not q.kept
    ov = OverrideList(force_keep=frozenset({q.question_id}))
    q.review_override = ov.override_for(q.question_id, q.text)
    assert q.kept
    assert q.filter_trace == ["report_verb"]  # provenance preserved


# ---------------------------------------------------------------------------
# question ids


def test_question_id_stable_under_whitespace():
    a = make_question_id("d1", "What  is   migraine?")
    b = make_question_id("d1", "What is migraine?")
    assert a == b
    assert len(a) == 12
    assert make_question_id("d2", "What is migraine?") != a


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=WHITESPACE + "a\u00df.", max_size=40))
def test_question_text_normalization_equals_the_regex_form(text):
    assert normalize_question_text(text) == re.sub(r"\s+", " ", text).strip()


# ---------------------------------------------------------------------------
# question generation


def _doc(doc_id="doc1", body="Some abstract text about migraine prevalence."):
    return SourceDocument(doc_id=doc_id, title="A title", body=body)


def test_generate_questions_parses_and_dedupes():
    reply = (
        "Sure, here are the questions:\n"
        "1. What is the first-line treatment for migraine?\n"
        "2. what is the FIRST-LINE treatment for migraine?\n"
        "3. Which test confirms the diagnosis of migraine?\n"
        "4. I could not think of more\n"
    )
    backend = MockBackend(default=reply)
    got = generate_questions(_doc(), backend)
    assert got == [
        "What is the first-line treatment for migraine?",
        "Which test confirms the diagnosis of migraine?",
    ]


def test_generate_questions_requests_the_configured_count():
    seen = []

    def reply(req):
        seen.append(req.user_prompt)
        return "1. Is this a question?"

    generate_questions(_doc(), MockBackend(default=reply), questions_per_doc=7)
    assert "7" in seen[0]
    assert _doc().body in seen[0]


def test_generate_questions_rejects_empty_body_and_empty_output():
    with pytest.raises(ValueError, match="empty body"):
        generate_questions(_doc(body="   "), MockBackend(default="1. Q?"))
    with pytest.raises(QuestionParseError, match="no questions parsed"):
        generate_questions(_doc(), MockBackend(default="No list here at all"))


# ---------------------------------------------------------------------------
# categorization


def test_resolve_exact_reply():
    got = resolve_category_reply("  surgery \n", CATEGORIES)
    assert got.label == "Surgery" and not got.ambiguous


def test_resolve_mention_inside_sentence():
    got = resolve_category_reply("This clearly belongs to Radiology.", CATEGORIES)
    assert got.label == "Radiology"
    assert got.matched == ("Radiology",)
    assert not got.ambiguous


def test_resolve_longer_label_suppresses_embedded_one():
    got = resolve_category_reply("I would file it under community medicine.", CATEGORIES)
    assert got.label == "Community Medicine"
    assert not got.ambiguous


def test_resolve_two_distinct_labels_is_ambiguous():
    got = resolve_category_reply("Either Medicine or Surgery fits.", CATEGORIES)
    assert got.ambiguous
    assert got.label == "Medicine"  # first mention in the reply
    assert set(got.matched) == {"Medicine", "Surgery"}


def test_resolve_repeated_label_is_not_ambiguous():
    got = resolve_category_reply("Surgery. Yes, surgery.", CATEGORIES)
    assert got.label == "Surgery" and not got.ambiguous


def test_resolve_unknown_reply_maps_to_other():
    got = resolve_category_reply("Astrophysics", CATEGORIES)
    assert got.label == "Other"
    assert got.matched == ()


def test_resolve_word_boundary_guard():
    # "medicines" must not count as the label "Medicine"
    got = resolve_category_reply("They store medicines here", CATEGORIES)
    assert got.label == "Other"


def test_categorize_sends_labels_and_question():
    seen = []

    def reply(req):
        seen.append(req.user_prompt)
        return "Dental"

    got = categorize("Which teeth erupt first?", MockBackend(default=reply), CATEGORIES)
    assert got.label == "Dental"
    assert "- Dental" in seen[0]
    assert "Which teeth erupt first?" in seen[0]


# Labels with regex metacharacters, labels nested in longer ones, and
# labels whose case folding changes their length.
_LABEL_POOL = (
    "Medicine",
    "Community Medicine",
    "Forensic Medicine",
    "Surgery",
    "C",
    "C++",
    "ENT",
    "Ear, Nose & Throat (ENT)",
    "O&G (Obstetrics and Gynaecology)",
    "Straße",
    "Public Health",
    "Health",
    "a.b",
    "Bio-Statistics",
    "İnternal",
)
_GLUE = (" ", ".", ",", "-", "(", ")", "+", "&", "\n", "ß", "SS", "ss", "Other", "or")


@st.composite
def _labels_and_reply(draw):
    labels = draw(
        st.lists(st.sampled_from(_LABEL_POOL), min_size=1, max_size=6, unique_by=str.casefold)
    )
    label = st.sampled_from(labels)
    piece = st.tuples(label, st.integers(0, 40), st.integers(0, 40)).map(
        lambda t: t[0][t[1] : t[2]]
    )
    fragment = st.one_of(
        label,
        label.map(str.upper),
        label.map(str.lower),
        label.map(str.swapcase),
        piece,
        st.sampled_from(_GLUE),
        st.text(max_size=4),
    )
    reply = draw(st.lists(fragment, max_size=8).map("".join))
    return tuple(labels), reply


@settings(max_examples=400, deadline=None)
@given(_labels_and_reply())
@example((("Medicine", "Community Medicine"), "community medicine, not Medicine"))
@example((("C", "C++"), "C++ or c"))
@example((("Straße", "Surgery"), "STRASSE? surgery"))
@example((("Ear, Nose & Throat (ENT)", "ENT"), "ear, nose & throat (ent) - ENT"))
def test_resolve_matches_the_oracle(case):
    labels, reply = case
    got = resolve_category_reply(reply, CategorySet(labels=labels))
    assert got == CategorizeResult(*resolve_category_reply_oracle(reply, labels))


def test_categorize_compiles_nothing_and_renders_the_label_list_once(monkeypatch):
    prompts = []

    def reply(req):
        prompts.append(req.user_prompt)
        return ("Medicine or Surgery", "It is Radiology.", "Astrophysics", "ent")[len(prompts) % 4]

    backend = MockBackend(default=reply)
    cats = load_category_set()
    categorize("Which nerve is cut?", backend, cats)  # warm-up

    calls = {"compile": 0, "escape": 0}

    def counting(name):
        real = getattr(re, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(dahl.dataset.re, "compile", counting("compile"))
    monkeypatch.setattr(dahl.dataset.re, "escape", counting("escape"))
    for i in range(200):
        categorize(f"Question number {i}?", backend, cats)
    monkeypatch.undo()
    assert calls == {"compile": 0, "escape": 0}

    old_block = "\n".join(f"- {label}" for label in cats)
    questions = ["Which nerve is cut?"] + [f"Question number {i}?" for i in range(200)]
    assert prompts == [
        fill_template(PROMPTS["categorizer"], question=q, labels=old_block) for q in questions
    ]


# ---------------------------------------------------------------------------
# the whole build


def _question_backend():
    doc1 = (
        "1. What is the incidence of cystic hygroma in live births?\n"
        "2. What outcomes were reported for the elderly cohort?\n"
        "3. Which imaging modality confirms the diagnosis?\n"
    )
    doc2 = (
        "1. What is the first-line antibiotic for otitis media?\n"
        "2. Both Medicine and Surgery manage appendicitis, which leads?\n"
    )
    return MockBackend(rules=[("alpha study", doc1), ("beta study", doc2)])


def _categorizer_backend():
    return MockBackend(
        rules=[
            ("cystic hygroma", "O&G (Obstetrics and Gynaecology)"),
            ("imaging modality", "Radiology"),
            ("otitis media", "ENT (Ear, Nose, Throat)"),
            ("appendicitis", "Medicine or Surgery"),
        ],
        default="Other",
    )


def _corpus():
    return [
        SourceDocument(doc_id="d1", title="alpha study", body="text one"),
        SourceDocument(doc_id="d2", title="beta study", body="text two"),
    ]


def test_build_dataset_end_to_end():
    kept, dropped, report = build_dataset(
        _corpus(),
        _question_backend(),
        _categorizer_backend(),
        RULES,
        OverrideList(),
        CATEGORIES,
        questions_per_doc=3,
    )
    assert report.n_documents == 2
    assert report.n_generated == 5
    assert report.n_dropped_filter == 1  # "were reported ..."
    assert report.n_dropped_ambiguous == 1  # the appendicitis question
    assert report.drops_per_rule == {"report_verb": 1}
    assert report.n_kept == len(kept) == 3
    assert len(dropped) == 2

    by_text = {q.text: q for q in kept}
    assert (
        by_text["What is the incidence of cystic hygroma in live births?"].category
        == "O&G (Obstetrics and Gynaecology)"
    )
    assert by_text["Which imaging modality confirms the diagnosis?"].category == "Radiology"

    ambiguous = [q for q in dropped if AMBIGUOUS_CATEGORY_RULE in q.filter_trace]
    assert len(ambiguous) == 1
    assert ambiguous[0].category == "Other"  # never categorized for real
    filtered = [q for q in dropped if "report_verb" in q.filter_trace]
    assert len(filtered) == 1 and not filtered[0].kept


def test_build_dataset_force_keep_overrides_ambiguity_guard():
    text = "Both Medicine and Surgery manage appendicitis, which leads?"
    overrides = OverrideList(force_keep=frozenset({normalize_question_text(text)}))
    kept, dropped, report = build_dataset(
        _corpus(),
        _question_backend(),
        _categorizer_backend(),
        RULES,
        overrides,
        CATEGORIES,
    )
    texts = [q.text for q in kept]
    assert text in texts
    assert report.n_dropped_ambiguous == 0
    q = next(q for q in kept if q.text == text)
    assert q.category == "Medicine"  # first label named by the reply


def test_build_dataset_force_drop_short_circuits_categorizer():
    text = "What is the first-line antibiotic for otitis media?"
    overrides = OverrideList(force_drop=frozenset({normalize_question_text(text)}))
    categorizer = _categorizer_backend()
    kept, dropped, report = build_dataset(
        _corpus(), _question_backend(), categorizer, RULES, overrides, CATEGORIES
    )
    assert text in [q.text for q in dropped]
    assert report.n_forced_drop == 1
    # only the three surviving questions reached the categorizer
    assert categorizer.calls == 3


def test_build_dataset_isolates_generator_failures():
    corpus = _corpus() + [SourceDocument(doc_id="d3", title="gamma", body="text")]
    backend = MockBackend(
        rules=[
            ("alpha study", "1. What is the incidence of cystic hygroma in live births?"),
            ("beta study", "1. What is the first-line antibiotic for otitis media?"),
            ("gamma", "I refuse to make a list"),
        ]
    )
    kept, dropped, report = build_dataset(
        corpus, backend, _categorizer_backend(), RULES, OverrideList(), CATEGORIES
    )
    assert report.n_documents == 3
    assert len(report.failures) == 1
    assert report.failures[0].startswith("d3:")
    assert report.n_generated == 2


@pytest.mark.parametrize(
    "prompt, subject",
    [
        ({"question_prompt": "Write {n} questions about {title}."}, "{body}"),
        ({"categorizer_prompt": "Pick one of:\n{labels}"}, "{question}"),
    ],
    ids=["question_generation", "categorizer"],
)
def test_build_dataset_refuses_a_prompt_without_its_subject_before_any_call(prompt, subject):
    generator, categorizer = _question_backend(), _categorizer_backend()
    with pytest.raises(ValueError, match=re.escape(f"lacks the placeholder {subject}")):
        build_dataset(
            _corpus(), generator, categorizer, RULES, OverrideList(), CATEGORIES, **prompt
        )
    assert (generator.calls, categorizer.calls) == (0, 0)


def test_build_dataset_categorizer_failure_drops_question():
    corpus = [_corpus()[0]]
    strict_categorizer = MockBackend(rules=[("cystic hygroma", "Surgery")])  # others miss
    kept, dropped, report = build_dataset(
        corpus,
        _question_backend(),
        strict_categorizer,
        RULES,
        OverrideList(),
        CATEGORIES,
    )
    assert [q.text for q in kept] == ["What is the incidence of cystic hygroma in live births?"]
    assert any("categorizer failed" in f for f in report.failures)
    assert any("categorizer_failure" in q.filter_trace for q in dropped)


def test_build_dataset_is_deterministic():
    def run():
        kept, dropped, report = build_dataset(
            _corpus(),
            _question_backend(),
            _categorizer_backend(),
            RULES,
            OverrideList(),
            CATEGORIES,
        )
        return [q.to_dict() for q in kept], [q.to_dict() for q in dropped], asdict(report)

    assert run() == run()


def test_build_dataset_refuses_duplicate_doc_ids():
    corpus = _corpus() + [SourceDocument(doc_id="d1", title="gamma", body="text")]
    generator = _question_backend()
    with pytest.raises(ValueError, match=r"duplicate doc ids: \['d1'\]"):
        build_dataset(corpus, generator, _categorizer_backend(), RULES, OverrideList(), CATEGORIES)
    assert generator.calls == 0


def test_duplicate_doc_ids_are_named_in_order_and_found_in_linear_time():
    # Counting each id with list.count took 1.0 s for 8,573 ids.
    corpus = [SourceDocument(doc_id=f"d{i}", title="t", body="text") for i in range(20000)]
    corpus += [corpus[7], corpus[3], corpus[7]]
    generator = _question_backend()
    started = time.perf_counter()
    with pytest.raises(ValueError, match=r"^duplicate doc ids: \['d3', 'd7'\]$"):
        build_dataset(corpus, generator, _categorizer_backend(), RULES, OverrideList(), CATEGORIES)
    assert time.perf_counter() - started < 1.0
    assert generator.calls == 0


def test_build_dataset_overlaps_categorizer_calls_of_different_documents():
    # Each call waits until four are in flight, so calls made one at a
    # time break the barrier instead of passing it.
    barrier = threading.Barrier(4, timeout=5)

    def reply(request):
        barrier.wait()
        return "Radiology"

    corpus = [SourceDocument(doc_id=f"d{i}", title=f"doc {i}", body="text") for i in range(4)]
    generator = MockBackend(default="1. Which imaging modality confirms the diagnosis?")
    kept, dropped, report = build_dataset(
        corpus,
        generator,
        MockBackend(default=reply),
        RULES,
        OverrideList(),
        CATEGORIES,
        concurrency=4,
    )
    assert [q.source_doc_id for q in kept] == ["d0", "d1", "d2", "d3"]
    assert {q.category for q in kept} == {"Radiology"}
    assert dropped == [] and report.n_kept == 4


def test_build_dataset_raises_a_categorizer_crash_and_starts_no_later_document():
    generator_calls = []

    def generate(request):
        generator_calls.append(request.user_prompt)
        if len(generator_calls) > 1:
            time.sleep(0.02)  # model latency, during which queued documents are cancelled
        return "1. Which imaging modality confirms the diagnosis?"

    categorizer_calls = []

    def categorize_reply(request):
        categorizer_calls.append(request)
        if len(categorizer_calls) == 1:
            raise RuntimeError("categorizer process died")
        return "Radiology"

    corpus = [SourceDocument(doc_id=f"d{i}", title=f"doc {i}", body="text") for i in range(6)]
    with pytest.raises(RuntimeError, match="categorizer process died"):
        build_dataset(
            corpus,
            MockBackend(default=generate),
            MockBackend(default=categorize_reply),
            RULES,
            OverrideList(),
            CATEGORIES,
            concurrency=1,
        )
    assert len(generator_calls) < len(corpus)


def _mock_corpus():
    topics = ["asthma", "gout", "anemia", "sepsis", "glaucoma", "psoriasis", "migraine"]
    docs = [
        SourceDocument(doc_id=f"m{i:02d}", title=f"Review {i} of {t}", body=f"Notes on {t}.")
        for i, t in enumerate(topics * 3)
    ]
    docs.insert(5, SourceDocument(doc_id="blank", title="Empty", body="  "))
    return docs


def test_build_dataset_over_mock_models_is_the_same_at_any_concurrency():
    forced_keep = "How do the findings of the study apply to bacterial meningitis?"
    forced_drop = "What is the first-line treatment for migraine?"
    overrides = OverrideList(
        force_keep=frozenset({forced_keep}), force_drop=frozenset({forced_drop})
    )

    def categorizer(request):
        if "cystic fibrosis" in request.user_prompt:
            return "Medicine or Surgery"
        if "hypothyroidism" in request.user_prompt:
            raise PermanentBackendError("categorizer refused")
        return mocks.categorizer_reply(request)

    def run(concurrency):
        kept, dropped, report = build_dataset(
            _mock_corpus(),
            MockBackend(default=mocks.question_generator_reply),
            MockBackend(default=categorizer),
            RULES,
            overrides,
            CATEGORIES,
            questions_per_doc=4,
            concurrency=concurrency,
        )
        return [q.to_dict() for q in kept], [q.to_dict() for q in dropped], asdict(report)

    serial = run(1)
    assert run(4) == serial
    assert run(16) == serial
    kept, dropped, report = serial
    assert forced_keep in [q["text"] for q in kept]
    assert forced_drop in [q["text"] for q in dropped]
    failures = report.pop("failures")
    assert report == {
        "drops_per_rule": {"deictic_source_noun": 6, "passive_context_verb": 13},
        "n_documents": 22,
        "n_dropped_ambiguous": 6,
        "n_dropped_filter": 19,
        "n_forced_drop": 1,
        "n_forced_keep": 2,
        "n_generated": 83,
        "n_kept": 53,
    }
    assert len(kept) == 53 and len(dropped) == 30
    assert failures[0] == "blank: document 'blank' has an empty body"
    assert len(failures) == 7
    assert all(f.endswith(": categorizer failed: categorizer refused") for f in failures[1:])


def test_a_build_killed_after_k_calls_rebuilds_the_same_bytes_repeating_only_the_rest(tmp_path):
    calls = itertools.count(1)

    def dying(request):
        if next(calls) >= 6:
            raise RuntimeError("generator process died")
        return mocks.question_generator_reply(request)

    def build(cache_dir, generator, categorizer):
        with cached(cache_dir, generator, categorizer) as (generator, categorizer):
            kept, dropped, report = build_dataset(
                _mock_corpus(),
                generator,
                categorizer,
                RULES,
                OverrideList(),
                CATEGORIES,
                concurrency=1,  # so no two equal requests are in flight at once and both miss
            )
        out = tmp_path / f"{cache_dir.name}.jsonl"
        write_records(kept + dropped, str(out))
        return out.read_bytes() + json.dumps(asdict(report), sort_keys=True).encode()

    def healthy():
        return (
            MockBackend(default=mocks.question_generator_reply),
            MockBackend(default=mocks.categorizer_reply),
        )

    straight = healthy()
    expected = build(tmp_path / "straight", *straight)
    first_categorizer = MockBackend(default=mocks.categorizer_reply)
    with pytest.raises(RuntimeError, match="generator process died"):
        build(tmp_path / "crashed", MockBackend(default=dying), first_categorizer)

    rebuild = healthy()
    assert build(tmp_path / "crashed", *rebuild) == expected
    assert rebuild[0].calls == straight[0].calls - 5
    assert rebuild[1].calls == straight[1].calls - first_categorizer.calls
    assert first_categorizer.calls > 0
