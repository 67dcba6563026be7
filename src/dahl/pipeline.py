"""Evaluation pipeline: stage barriers, resume, temperature ablation.

Each stage maps over exactly the records whose status names its input,
then the whole records file is rewritten atomically. Interrupting
after any stage and rerunning with resume therefore reproduces the
uninterrupted run byte for byte: record order follows the questions
file, serialization is key-sorted, and nothing time-dependent is ever
persisted.
"""

from __future__ import annotations

import csv
import io
import os
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .backends import Backend
from .check import check_response
from .records import atomic_write_text, read_eval_records, write_records
from .responses import generate_response, preprocess, render_question_prompt
from .score import dahl_score, render_report
from .split import split_into_units
from .stats import stratified_sample
from .types import EvalRecord, GenConfig, Question, ScoreReport, Status

STAGES = ("generate", "preprocess", "split", "check", "score")


class PipelineError(RuntimeError):
    """The pipeline cannot proceed (bad inputs, unusable resume state)."""


@dataclass
class EvaluationResult:
    records: List[EvalRecord]
    report: Optional[ScoreReport]
    records_path: str


def write_report_files(report: ScoreReport, out_dir: str) -> None:
    for fmt, name in (("json", "report.json"), ("csv", "report.csv"), ("markdown", "report.md")):
        atomic_write_text(
            os.path.join(out_dir, name), render_report(report, fmt).decode("utf-8")
        )


def run_evaluation(
    questions: Sequence[Question],
    out_dir: str,
    generator: Backend,
    splitter: Backend,
    checker: Backend,
    gen_config: GenConfig,
    prompts: Optional[Dict[str, str]] = None,
    resume: bool = False,
    stop_after: Optional[str] = None,
    concurrency: int = 4,
    records_name: str = "records.jsonl",
) -> EvaluationResult:
    """Run generate -> preprocess -> split -> check -> score.

    With resume, records already past a stage are left alone and
    records whose question is no longer asked are written back
    unchanged; without it, any existing records file is ignored and
    overwritten. stop_after ends the run after the named stage's
    barrier write, which is how interrupts are simulated in tests.
    """
    if stop_after is not None and stop_after not in STAGES:
        raise PipelineError(f"stop_after must be one of {STAGES}, got {stop_after!r}")
    if not questions:
        raise PipelineError("no questions to evaluate")
    ids = [q.question_id for q in questions]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise PipelineError(f"duplicate question ids: {dupes}")
    prompts = prompts or {}
    response_template = prompts.get("response_generation")
    split_template = prompts.get("splitter")
    check_template = prompts.get("checker")

    os.makedirs(out_dir, exist_ok=True)
    records_path = os.path.join(out_dir, records_name)

    existing: Dict[str, EvalRecord] = {}
    orphans: List[EvalRecord] = []
    if resume and os.path.exists(records_path):
        loaded, diagnostics = read_eval_records(records_path)
        if diagnostics:
            raise PipelineError(
                f"cannot resume from {records_path}: {diagnostics[0]}"
                + (f" (+{len(diagnostics) - 1} more)" if len(diagnostics) > 1 else "")
            )
        known = set(ids)
        for record in loaded:
            if record.question_id in known:
                existing[record.question_id] = record
            else:
                # Never silently drop data on resume; carry strays along.
                orphans.append(record)

    pool = ThreadPoolExecutor(max_workers=max(1, concurrency))
    try:
        # Stage: generate. Only questions with no record at all.
        def generate(question: Question) -> EvalRecord:
            return generate_response(question, generator, gen_config, response_template)

        missing = [q for q in questions if q.question_id not in existing]
        for question, record in zip(missing, pool.map(generate, missing)):
            existing[question.question_id] = record
        current = [existing[q.question_id] for q in questions]
        records = current + orphans
        write_records(records, records_path)
        if stop_after == "generate":
            return EvaluationResult(records, None, records_path)

        # The step functions are looked up at call time, so rebinding
        # them on this module (as a tracer does) takes effect.
        prompt_by_id = {
            q.question_id: render_question_prompt(q.text, response_template) for q in questions
        }
        steps = (
            ("preprocess", Status.PENDING, lambda r: preprocess(r, prompt_by_id[r.question_id])),
            ("split", Status.PREPROCESSED, lambda r: split_into_units(r, splitter, split_template)),
            ("check", Status.SPLIT, lambda r: check_response(r, checker, check_template)),
        )
        for stage, status, step in steps:
            # Orphans carried along on resume are never advanced.
            list(pool.map(step, [r for r in current if r.status is status]))
            write_records(records, records_path)
            if stop_after == stage:
                return EvaluationResult(records, None, records_path)
    finally:
        pool.shutdown(wait=True)

    # Stage: score. Orphans stay out of the report.
    report = dahl_score(current)
    write_records(records, records_path)
    write_report_files(report, out_dir)
    return EvaluationResult(records, report, records_path)


def _sanitize(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name).strip("_") or "model"


def run_temperature_ablation(
    questions: Sequence[Question],
    out_dir: str,
    generators: Sequence[Backend],
    splitter: Backend,
    checker: Backend,
    base_gen_config: GenConfig,
    temperatures: Sequence[float],
    prompts: Optional[Dict[str, str]] = None,
    fraction: float = 0.1,
    seed: int = 0,
    concurrency: int = 4,
    allow_high_temperatures: bool = False,
    resume: bool = False,
) -> List[dict]:
    """Evaluate one fixed stratified sample at every temperature.

    The sample is drawn once and reused, so temperature is the only
    factor that varies between rows. Temperatures above 1.0 are
    refused unless explicitly allowed. Writes ablation.csv under
    out_dir and returns the rows.
    """
    if not temperatures:
        raise PipelineError("at least one temperature is required")
    if not generators:
        raise PipelineError("at least one generator backend is required")
    high = [t for t in temperatures if t > 1.0]
    if high and not allow_high_temperatures:
        raise PipelineError(
            f"temperatures above 1.0 refused by default: {high} "
            "(pass allow_high_temperatures to override)"
        )

    sample = stratified_sample(questions, fraction, seed)
    if not sample:
        raise PipelineError("stratified sample is empty")

    rows: List[dict] = []
    for generator in generators:
        for temperature in temperatures:
            gen_config = GenConfig(
                temperature=temperature,
                max_tokens=base_gen_config.max_tokens,
                seed=base_gen_config.seed,
            )
            run_dir = os.path.join(
                out_dir, "runs", f"{_sanitize(generator.model)}_t{temperature:g}"
            )
            result = run_evaluation(
                sample,
                run_dir,
                generator,
                splitter,
                checker,
                gen_config,
                prompts=prompts,
                resume=resume,
                concurrency=concurrency,
            )
            assert result.report is not None
            rows.append(
                {
                    "model": generator.model,
                    "temperature": temperature,
                    "dahl_score": result.report.dahl_score,
                    "n_scored": result.report.n_scored,
                }
            )

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["model", "temperature", "dahl_score", "n_scored"])
    for row in rows:
        writer.writerow(
            [row["model"], f"{row['temperature']:g}", repr(row["dahl_score"]), row["n_scored"]]
        )
    atomic_write_text(os.path.join(out_dir, "ablation.csv"), buf.getvalue())
    return rows
