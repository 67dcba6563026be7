"""Aggregation of verdicts into the DAHL Score and report rendering."""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from typing import Sequence

from .types import CategoryScore, EvalRecord, ScoreReport, Status, Verdict


class NoScorableResponsesError(ValueError):
    """Every record was excluded or failed; there is nothing to average."""


def response_precision(verdicts: Sequence[Verdict]) -> float:
    """Fraction of true verdicts. Unknown must have been excluded upstream."""
    if not verdicts:
        raise ValueError("cannot score an empty verdict list")
    if any(v is Verdict.UNKNOWN for v in verdicts):
        raise ValueError("Unknown verdict present; record should have been excluded")
    return sum(1 for v in verdicts if v is Verdict.TRUE) / len(verdicts)


def _record_precision(record: EvalRecord) -> float:
    return response_precision([u.verdict for u in record.units])


def _refuse_repeats(records: Sequence[EvalRecord]) -> None:
    counts = Counter(r.question_id for r in records)
    repeated = sorted(qid for qid, n in counts.items() if n > 1)
    if repeated:
        raise ValueError(f"records repeat question ids: {repeated}")


def precision_by_question(records: Sequence[EvalRecord]) -> dict:
    """question_id -> response precision for every scorable record."""
    _refuse_repeats(records)
    return {
        r.question_id: _record_precision(r)
        for r in records
        if r.status in (Status.CHECKED, Status.SCORED)
    }


def dahl_score(records: Sequence[EvalRecord]) -> ScoreReport:
    """Aggregate one model run into a ScoreReport, in one pass.

    Checked records are promoted to scored in place once the report is
    built, so a call that raises promotes nothing (rescoring already
    scored records is a no-op, which is what makes the score stage
    idempotent under resume). Every record must belong to one model and
    answer a distinct question, and every scorable record needs a
    category. Categories with no scorable records are absent.
    """
    records = list(records)
    _refuse_repeats(records)
    scorable = [r for r in records if r.status in (Status.CHECKED, Status.SCORED)]
    if not scorable:
        raise NoScorableResponsesError("no scorable responses")
    models = {r.model_id for r in records}
    if len(models) > 1:
        raise ValueError(f"records span several models: {sorted(models)}")

    precisions = []
    by_category: dict = {}
    true_units = total_units = raw_chars = clean_chars = 0
    for record in scorable:
        if not record.category:
            raise ValueError(f"record {record.question_id} has no category")
        precision = _record_precision(record)
        precisions.append(precision)
        by_category.setdefault(record.category, []).append(precision)
        true_units += sum(1 for u in record.units if u.verdict is Verdict.TRUE)
        total_units += len(record.units)
        raw_chars += len(record.raw_response)
        clean_chars += len(record.preprocessed or "")
    for record in scorable:
        record.status = Status.SCORED

    n = len(scorable)
    counts = Counter(r.status for r in records)
    return ScoreReport(
        model_id=models.pop(),
        dahl_score=sum(precisions) / n,
        per_category={
            label: CategoryScore(score=sum(values) / len(values), n=len(values))
            for label, values in sorted(by_category.items())
        },
        n_scored=n,
        n_excluded_noncommittal=counts[Status.EXCLUDED_NONCOMMITTAL],
        n_excluded_unknown=counts[Status.EXCLUDED_UNKNOWN],
        n_excluded_mismatch=counts[Status.EXCLUDED_MISMATCH],
        n_failed=counts[Status.FAILED],
        avg_response_length_chars=clean_chars / n,
        avg_raw_length_chars=raw_chars / n,
        pooled_unit_score=true_units / total_units,
    )


def render_report(report: ScoreReport, fmt: str) -> bytes:
    """Serialize a report as json (lossless), csv, or markdown."""
    if fmt == "json":
        return (json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n").encode("utf-8")
    if fmt == "csv":
        return _render_csv(report)
    if fmt == "markdown":
        return _render_markdown(report)
    raise ValueError(f"unknown report format {fmt!r}")


def _render_csv(report: ScoreReport) -> bytes:
    """One row per category plus an ALL row, full-precision scores."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["model", "category", "n", "score"])
    writer.writerow([report.model_id, "ALL", report.n_scored, repr(report.dahl_score)])
    for label, cs in sorted(report.per_category.items()):
        writer.writerow([report.model_id, label, cs.n, repr(cs.score)])
    return buf.getvalue().encode("utf-8")


def _render_markdown(report: ScoreReport) -> bytes:
    """Headline table plus a per-category table, scores to 4 decimals."""
    size = report.model_size if report.model_size else "-"
    lines = [
        "| Model | Size | Avg. Length | DAHL Score |",
        "| --- | --- | --- | --- |",
        f"| {report.model_id} | {size} | {report.avg_response_length_chars:.0f} "
        f"| {report.dahl_score:.4f} |",
    ]
    if report.per_category:
        lines += [
            "",
            "| Category | n | Score |",
            "| --- | --- | --- |",
        ]
        for label, cs in sorted(report.per_category.items()):
            lines.append(f"| {label} | {cs.n} | {cs.score:.4f} |")
    lines += [
        "",
        f"Scored {report.n_scored} of {report.n_total} responses "
        f"(noncommittal {report.n_excluded_noncommittal}, "
        f"unknown {report.n_excluded_unknown}, "
        f"mismatch {report.n_excluded_mismatch}, "
        f"failed {report.n_failed}).",
    ]
    return ("\n".join(lines) + "\n").encode("utf-8")
