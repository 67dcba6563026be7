"""Release gate: nine end-to-end checks, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
Every check runs fully offline; the autouse disable_network fixture in
conftest.py turns any socket use into a test failure.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import time

import oracles
from factories import make_record
from test_preprocess import GOLDEN_CLEAN, GOLDEN_PROMPT, GOLDEN_RAW
from test_scoring import _random_fixture

from dahl.backends import MockBackend
from dahl.check import check_response
from dahl.dataset import (
    OverrideList,
    filter_context_dependent,
    load_filter_rules,
    make_question_id,
    normalize_question_text,
)
from dahl.defaults import PROMPT_NAMES, load_category_set, load_prompt
from dahl.mocks import get_behavior
from dahl.pipeline import STAGES, run_evaluation, run_temperature_ablation
from dahl.records import read_eval_records
from dahl.responses import preprocess
from dahl.score import dahl_score, precision_by_question
from dahl.stats import pearson, reg_inc_beta, stratified_sample, t_sf_two_tailed, t_test
from dahl.types import GenConfig, Question, ReviewOverride, Status


def _verdict(number: int, name: str, checks, detail: str = "") -> None:
    failed = [label for label, ok in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    line = f"criterion {number} ({name}): {status}"
    if detail:
        line += f" [{detail}]"
    if failed:
        line += " failed: " + ", ".join(failed)
    print(line, flush=True)
    assert not failed, line


def _prompts() -> dict:
    return {name: load_prompt(name) for name in PROMPT_NAMES}


def _mock_backends():
    return (
        MockBackend(default=get_behavior("generator"), backend_id="generator", model="mock-small"),
        MockBackend(default=get_behavior("splitter"), backend_id="splitter", model="mock-split"),
        MockBackend(default=get_behavior("checker"), backend_id="checker", model="mock-check"),
    )


def _question_grid(per_category: dict) -> list:
    questions = []
    for ci, (category, n) in enumerate(per_category.items()):
        for i in range(n):
            questions.append(
                Question(
                    question_id=f"{ci:02d}-{i:03d}",
                    text=(
                        f"What is the first-line management of presentation {i} "
                        f"seen in {category.lower()} clinics?"
                    ),
                    category=category,
                    source_doc_id=f"doc{ci:02d}",
                )
            )
    return questions


# ---------------------------------------------------------------------------
# 1. Correlation p-value on a 99-pair dataset with sample r = 0.5508


def _pairs_with_exact_r(n: int, r: float, seed: int):
    """Any 99-pair dataset works; build one with the sample r dialed in.

    y is a combination of the centered x direction and an orthogonal
    residual direction, so the sample correlation equals r up to float
    rounding no matter what the raw draws were.
    """
    rng = random.Random(seed)
    x = [rng.gauss(0.0, 1.0) for _ in range(n)]
    e = [rng.gauss(0.0, 1.0) for _ in range(n)]
    mean_x = sum(x) / n
    u = [v - mean_x for v in x]
    mean_e = sum(e) / n
    w = [v - mean_e for v in e]
    uu = sum(a * a for a in u)
    uw = sum(a * b for a, b in zip(u, w))
    w = [b - (uw / uu) * a for a, b in zip(u, w)]
    norm_u = math.sqrt(sum(a * a for a in u))
    norm_w = math.sqrt(sum(b * b for b in w))
    scale = math.sqrt(1.0 - r * r)
    y = [r * (a / norm_u) + scale * (b / norm_w) for a, b in zip(u, w)]
    return x, y


def test_criterion_1_pearson_p_value():
    expected_p = 3.4927e-9
    start = time.perf_counter()
    x, y = _pairs_with_exact_r(99, 0.5508, seed=990)
    result = pearson(x, y)
    elapsed = time.perf_counter() - start

    rel_err = abs(result.p_two_tailed - expected_p) / expected_p
    _verdict(
        1,
        "pearson p-value, n=99, r=0.5508",
        [
            ("sample r is 0.5508", abs(result.statistic - 0.5508) <= 1e-12),
            ("df is 97", result.df == 97),
            ("p within 2% of 3.4927e-9", rel_err <= 0.02),
            ("runtime < 1s", elapsed < 1.0),
        ],
        detail=f"p={result.p_two_tailed:.6e}, rel_err={rel_err:.4f}, {elapsed:.3f}s",
    )


# ---------------------------------------------------------------------------
# 2. Special functions against an adaptive-quadrature oracle


def test_criterion_2_special_function_accuracy():
    shapes = (0.5, 1.0, 2.0, 5.0, 50.0)
    xs = (0.02, 0.15, 0.30, 0.45, 0.55, 0.70, 0.85, 0.98)
    start = time.perf_counter()
    worst = 0.0
    n_points = 0
    for a in shapes:
        for b in shapes:
            for x in xs:
                err = abs(reg_inc_beta(a, b, x) - oracles.beta_cdf_quad(a, b, x))
                worst = max(worst, err)
                n_points += 1
    cauchy_err = abs(t_sf_two_tailed(1.0, 1.0) - 0.5)
    elapsed = time.perf_counter() - start

    _verdict(
        2,
        "regularized incomplete beta vs quadrature",
        [
            ("grid has 200 points", n_points == 200),
            ("max abs error <= 1e-10", worst <= 1e-10),
            ("two-tailed t sf at (1, 1) is 0.5 +/- 1e-12", cauchy_err <= 1e-12),
            ("runtime < 10s", elapsed < 10.0),
        ],
        detail=f"max_err={worst:.2e}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 3. Byte-exact response cleanup golden


def test_criterion_3_preprocessing_golden():
    record = make_record(status=Status.PENDING, verdicts=None, raw=GOLDEN_RAW)
    preprocess(record, GOLDEN_PROMPT)
    _verdict(
        3,
        "response cleanup golden text",
        [
            ("record preprocessed", record.status is Status.PREPROCESSED),
            ("output is byte-exact", record.preprocessed == GOLDEN_CLEAN),
        ],
        detail=f"{len(GOLDEN_RAW)} -> {len(record.preprocessed or '')} chars",
    )


# ---------------------------------------------------------------------------
# 4. Question filter corpus


FILTERED_EXAMPLES = [
    (
        "What ethical considerations are addressed by the authors in relation"
        " to their research findings?",
        "deictic_source_noun",
    ),
    (
        "What are the implications for practice suggested by the study?",
        "deictic_source_noun",
    ),
    (
        "What tissue-specific patterns were observed in the usage of intronic"
        " PASs compared to PASs in exons?",
        "report_verb",
    ),
    (
        "What challenges are associated with the protocol described in the study,"
        " and what solutions are suggested for troubleshooting?",
        "report_verb",
    ),
    (
        "What method was used to assess the functional accuracy of the"
        " context-specific models?",
        "passive_context_verb",
    ),
]

REVIEWER_DROP_TEXT = (
    "Explain the significance of functional validation in the context of this"
    " research and how it is achieved."
)


def test_criterion_4_filter_corpus():
    rules = load_filter_rules()
    checks = []
    for text, family in FILTERED_EXAMPLES:
        decision = filter_context_dependent(text, rules)
        label = f"drops via {family}: {text[:40]}..."
        checks.append((label, not decision.keep and family in decision.rule_ids))

    kept = filter_context_dependent(GOLDEN_PROMPT, rules)
    checks.append(("keeps the incidence-rate question", kept.keep and kept.rule_ids == ()))

    question = Question(
        question_id=make_question_id("doc-b1", REVIEWER_DROP_TEXT),
        text=REVIEWER_DROP_TEXT,
        category="Other",
        source_doc_id="doc-b1",
        filter_trace=list(filter_context_dependent(REVIEWER_DROP_TEXT, rules).rule_ids),
    )
    overrides = OverrideList(force_drop=frozenset({normalize_question_text(REVIEWER_DROP_TEXT)}))
    question.review_override = overrides.override_for(question.question_id, question.text)
    checks.append(
        (
            "reviewer force_drop removes the manual example",
            question.review_override is ReviewOverride.FORCE_DROP and not question.kept,
        )
    )

    _verdict(4, "question filter corpus", checks, detail=f"{len(FILTERED_EXAMPLES)} drops + 1 keep")


# ---------------------------------------------------------------------------
# 5. Scoring vs brute-force recount on 1,000 randomized records


def test_criterion_5_scoring_recount():
    records = _random_fixture(999, seed=20260814)
    assert len(records) == 1000
    dicts = [r.to_dict() for r in records]
    want_dahl, want_cat, want_counts = oracles.recount_scores(dicts)

    report = dahl_score(records)
    cat_ok = set(report.per_category) == set(want_cat) and all(
        report.per_category[label].n == want_cat[label][1]
        and abs(report.per_category[label].score - want_cat[label][0]) <= 1e-12
        for label in want_cat
    )
    conservation = (
        sum(want_counts.values()) == 1000
        and report.n_scored == want_counts.get("checked", 0) + want_counts.get("scored", 0)
        and report.n_excluded_noncommittal == want_counts.get("excluded_noncommittal", 0)
        and report.n_excluded_unknown == want_counts.get("excluded_unknown", 0)
        and report.n_excluded_mismatch == want_counts.get("excluded_mismatch", 0)
        and report.n_failed == want_counts.get("failed", 0)
    )
    _verdict(
        5,
        "scoring matches independent recount",
        [
            ("headline score within 1e-12", abs(report.dahl_score - want_dahl) <= 1e-12),
            ("per-category scores within 1e-12", cat_ok),
            ("every record in exactly one bucket", conservation),
        ],
        detail=f"n_scored={report.n_scored}, categories={len(want_cat)}",
    )


# ---------------------------------------------------------------------------
# 6. Unknown verdicts and verdict-count mismatches never reach the score


def test_criterion_6_unknown_and_mismatch_exclusion():
    clean = make_record(qid="a", status=Status.SPLIT, verdicts=(None, None, None))
    check_response(
        clean, MockBackend(rules=[("claim 1", "False")], default="True")
    )
    with_unknown = make_record(qid="b", status=Status.SPLIT, verdicts=(None, None))
    check_response(
        with_unknown, MockBackend(rules=[("claim 1", "Unknown")], default="True")
    )
    # no default and no matching rule: the second unit's check call fails
    with_gap = make_record(qid="c", status=Status.SPLIT, verdicts=(None, None))
    check_response(with_gap, MockBackend(rules=[("claim 0", "True")]))

    report = dahl_score([clean, with_unknown, with_gap])
    _verdict(
        6,
        "unknown / mismatch exclusion",
        [
            ("unknown verdict excludes the record", with_unknown.status is Status.EXCLUDED_UNKNOWN),
            ("failed unit check excludes as mismatch", with_gap.status is Status.EXCLUDED_MISMATCH),
            (
                "mismatch error names the counts",
                "verdict count mismatch: 1 verdicts for 2 units" in (with_gap.error or ""),
            ),
            ("only the clean record is scored", report.n_scored == 1),
            ("score equals the clean record's precision", abs(report.dahl_score - 2 / 3) <= 1e-12),
            ("excluded buckets tallied", report.n_excluded_unknown == 1 and report.n_excluded_mismatch == 1),
        ],
        detail=f"dahl={report.dahl_score:.4f} over n={report.n_scored}",
    )


# ---------------------------------------------------------------------------
# 7. Stratified sampling: apportionment plus cross-seed score stability


_GRID_SIZES = [
    7, 11, 13, 17, 19, 23, 29, 9, 14, 21, 26, 33, 12, 18, 24,
    31, 8, 15, 22, 27, 34, 10, 16, 25, 32, 13, 20, 28, 35,
]


def test_criterion_7_stratified_sampling():
    categories = list(load_category_set())
    assert len(categories) == 29
    per_category = {cat: _GRID_SIZES[i] for i, cat in enumerate(categories)}
    questions = _question_grid(per_category)
    target = math.floor(0.1 * len(questions) + 0.5)
    want = {
        label: n
        for label, n in oracles.apportion_oracle(per_category, target).items()
        if n
    }

    seeds = (5, 9, 11, 14, 29)
    tallies = []
    samples = {}
    for seed in seeds:
        sample = stratified_sample(questions, 0.1, seed)
        samples[seed] = sample
        tally = {}
        for q in sample:
            tally[q.category] = tally.get(q.category, 0) + 1
        tallies.append(tally)

    checks = [
        ("counts follow largest-remainder apportionment", tallies[0] == want),
        ("all seeds share the same per-category counts", all(t == want for t in tallies)),
        (
            "seeds pick different questions",
            len({tuple(q.question_id for q in s) for s in samples.values()}) == len(seeds),
        ),
    ]

    generator, splitter, checker = _mock_backends()
    prompts = _prompts()
    scores = {}
    import tempfile

    with tempfile.TemporaryDirectory() as td:
        for seed in seeds:
            result = run_evaluation(
                samples[seed],
                os.path.join(td, f"seed{seed}"),
                generator,
                splitter,
                checker,
                GenConfig(temperature=0.7, max_tokens=512),
                prompts=prompts,
            )
            scores[seed] = sorted(precision_by_question(result.records).values())

    worst_p = 1.0
    for a, b in itertools.combinations(seeds, 2):
        worst_p = min(worst_p, t_test(scores[a], scores[b]).p_two_tailed)
    checks.append(("all pairwise t-tests pass at alpha=0.05", worst_p > 0.05))

    _verdict(
        7,
        "stratified sampling",
        checks,
        detail=f"sample n={target}, min pairwise p={worst_p:.3f}",
    )


# ---------------------------------------------------------------------------
# 8. Determinism and resumability of a mocked 50-question run


def test_criterion_8_determinism_and_resume(tmp_path):
    categories = list(load_category_set())[:10]
    questions = _question_grid({cat: 5 for cat in categories})
    assert len(questions) == 50
    generator, splitter, checker = _mock_backends()
    prompts = _prompts()
    gen_config = GenConfig(temperature=0.5, max_tokens=512)

    def run(out_dir, **kwargs):
        return run_evaluation(
            questions,
            str(out_dir),
            generator,
            splitter,
            checker,
            gen_config,
            prompts=prompts,
            **kwargs,
        )

    start = time.perf_counter()
    straight = run(tmp_path / "straight")
    elapsed = time.perf_counter() - start
    reference = {
        name: (tmp_path / "straight" / name).read_bytes()
        for name in ("records.jsonl", "report.json")
    }

    checks = [
        ("50-question mocked run completes", straight.report is not None),
        ("runtime < 30s offline", elapsed < 30.0),
    ]
    for stage in STAGES:
        out = tmp_path / f"interrupt_{stage}"
        partial = run(out, stop_after=stage)
        resumed = run(out, resume=True)
        identical = all(
            (out / name).read_bytes() == reference[name] for name in reference
        )
        checks.append(
            (
                f"interrupt after {stage} + resume is byte-identical",
                partial.report is None or stage == STAGES[-1],
            )
        )
        checks.append((f"resume after {stage} matches straight run", identical and resumed.report is not None))

    _verdict(8, "determinism and resume", checks, detail=f"straight run {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 9. Temperature ablation harness


def test_criterion_9_temperature_ablation(tmp_path):
    categories = list(load_category_set())[:10]
    questions = _question_grid({cat: 5 for cat in categories})
    temperatures = [round(0.1 * k, 1) for k in range(1, 11)]
    generators = [
        MockBackend(default=get_behavior("generator"), backend_id="generator", model="model-a"),
        MockBackend(default=get_behavior("generator"), backend_id="generator", model="model-b"),
    ]
    _, splitter, checker = _mock_backends()

    rows = run_temperature_ablation(
        questions,
        str(tmp_path),
        generators,
        splitter,
        checker,
        GenConfig(temperature=0.5, max_tokens=512),
        temperatures,
        prompts=_prompts(),
        fraction=0.1,
        seed=3,
    )

    csv_lines = (tmp_path / "ablation.csv").read_text(encoding="utf-8").splitlines()
    per_model = {}
    for row in rows:
        per_model[row["model"]] = per_model.get(row["model"], 0) + 1

    sample_ids = {q.question_id for q in stratified_sample(questions, 0.1, 3)}
    id_sets = []
    runs_dir = tmp_path / "runs"
    for run_dir in sorted(runs_dir.iterdir()):
        records, _ = read_eval_records(str(run_dir / "records.jsonl"))
        id_sets.append({r.question_id for r in records})

    _verdict(
        9,
        "temperature ablation",
        [
            ("header plus one row per (model, temperature)", len(csv_lines) == 1 + 20),
            ("exactly 10 rows per model", per_model == {"model-a": 10, "model-b": 10}),
            (
                "temperatures 0.1 through 1.0 covered",
                sorted({row["temperature"] for row in rows}) == temperatures,
            ),
            ("twenty run directories", len(id_sets) == 20),
            ("every run uses the one fixed sample", all(ids == sample_ids for ids in id_sets)),
        ],
        detail=f"{len(rows)} rows, sample n={len(sample_ids)}",
    )
