"""Evaluation pipeline: one task per question, resume by replay, temperature ablation.

Questions run as tasks of one bounded pool (tasks.run_tasks), whose
workers include the calling thread; the check step shares a record's
units with workers that have no question left to start. Every run takes
every question from generate on, and records.jsonl is written once at
the end, atomically. A run keeps no state of its own between attempts:
its model replies are its durable state, kept by the backends' response
cache (backends.CachedBackend). Given its replies the pipeline is
deterministic, so a rerun after an interrupt replays the finished calls
from the cache and reproduces the uninterrupted run byte for byte:
record order follows the questions file, verdicts follow unit order,
serialization is key-sorted, and nothing time-dependent is ever
persisted.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import re
from collections import Counter
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from . import defaults
from .backends import Backend, endpoint_of
from .check import VERDICT_PARSER, check_response
# read_eval_records is not called here; bench/tracing.py hooks it under this module's name.
from .records import atomic_write_text, read_eval_records, read_lines, write_records
from .responses import generate_response, preprocess, render_question_prompt
from .score import REPORT_FILES, dahl_score, write_report_files
from .split import split_into_units
from .stats import stratified_sample
from .tasks import run_tasks
from .types import EvalRecord, GenConfig, Question, ScoreReport, Status

STAGES = ("generate", "preprocess", "split", "check", "score")


class PipelineError(RuntimeError):
    """The pipeline cannot proceed (bad inputs, unusable resume state)."""


@dataclass
class EvaluationResult:
    records: List[EvalRecord]
    report: Optional[ScoreReport]
    records_path: str


def _check_manifest(path: str, manifest: dict, resume: bool) -> None:
    """Refuse a resume whose settings differ from the run it continues; else write them."""
    if resume and os.path.exists(path):
        try:
            previous = json.loads("".join(read_lines(path)))
        except ValueError:
            previous = None
        if not isinstance(previous, dict):
            raise PipelineError(f"cannot resume: {path} does not hold a JSON object")
        for field in sorted(set(previous) | set(manifest)):
            if previous.get(field) != manifest.get(field):
                raise PipelineError(
                    f"cannot resume: {field} was {previous.get(field)!r}, now "
                    f"{manifest.get(field)!r} (see {path})"
                )
        return
    atomic_write_text(path, json.dumps(manifest, sort_keys=True, indent=2) + "\n")


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
) -> EvaluationResult:
    """Run generate -> preprocess -> split -> check -> score.

    Each question is one pool task that takes its record from generate
    through every step up to stop_after (how tests simulate an
    interrupt). At most `concurrency` model calls are in flight, over
    all three roles. No earlier record is read: resuming is rerunning,
    and the backends' response cache turns the calls an earlier attempt
    finished into hits. A caller
    whose backends are neither cached nor deterministic (say, uncached
    HTTP) therefore repeats every call on resume, with new replies. What
    resume adds is a check: changed settings raise PipelineError instead
    of mixing two runs in one report.
    """
    if stop_after is not None and stop_after not in STAGES:
        raise PipelineError(f"stop_after must be one of {STAGES}, got {stop_after!r}")
    if not questions:
        raise PipelineError("no questions to evaluate")
    ids = [q.question_id for q in questions]
    if len(set(ids)) != len(ids):
        dupes = sorted(i for i, n in Counter(ids).items() if n > 1)
        raise PipelineError(f"duplicate question ids: {dupes}")
    prompts = {**defaults.PROMPTS, **(prompts or {})}
    manifest = {"gen_config": gen_config.to_dict(), "verdict_parser": VERDICT_PARSER}
    for role, backend in (("generator", generator), ("splitter", splitter), ("checker", checker)):
        manifest[f"{role}_model"] = backend.model
        manifest[f"{role}_endpoint"] = endpoint_of(backend)
    for name in ("response_generation", "splitter", "checker"):
        subject = defaults.missing_subject(name, prompts[name])
        if subject:
            raise PipelineError(f"prompts.{name} lacks the placeholder {subject}")
        digest = hashlib.sha256(prompts[name].encode("utf-8")).hexdigest()
        manifest[f"{name}_prompt_sha256"] = digest
    response_template = prompts["response_generation"]
    split_template = prompts["splitter"]
    check_template = prompts["checker"]

    os.makedirs(out_dir, exist_ok=True)
    records_path = os.path.join(out_dir, "records.jsonl")
    _check_manifest(os.path.join(out_dir, "run_manifest.json"), manifest, resume)
    # A run that stops early (stop_after, a crash, nothing scorable) leaves no outputs of
    # an earlier run beside its manifest.
    for path in [records_path] + [os.path.join(out_dir, name) for name in REPORT_FILES]:
        if os.path.exists(path):
            os.remove(path)

    # Steps on (record, question text) in STAGES order, cut at stop_after. Each step calls
    # its function once per record through this module's global name, looked up at call
    # time, so rebinding it here (as a tracer does) sees every call.
    steps = (
        (Status.PENDING, lambda r, q: preprocess(r, render_question_prompt(q, response_template))),
        (Status.PREPROCESSED, lambda r, _: split_into_units(r, splitter, split_template)),
        (Status.SPLIT, lambda r, _: check_response(r, checker, check_template)),
    )[: STAGES.index(stop_after or "score")]

    def advance(question: Question) -> EvalRecord:
        record = generate_response(question, generator, gen_config, response_template)
        for status, step in steps:
            if record.status is status:
                step(record, question.text)
        return record

    records = run_tasks(questions, advance, concurrency)
    try:
        report = dahl_score(records) if stop_after in (None, "score") else None
    finally:
        write_records(records, records_path)
    if report is not None:
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
    refused unless explicitly allowed, and so are cells whose run
    directories would collide (generators "org/m" and "org_m" both map
    to runs/org_m_t<temp>). Writes ablation.csv under out_dir and
    returns the rows.
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

    # Each cell's GenConfig is built here, so an out-of-range temperature is refused before
    # any cell runs.
    cells: Dict[str, Tuple[Backend, GenConfig]] = {}
    for generator in generators:
        for temperature in temperatures:
            run_name = f"{_sanitize(generator.model)}_t{temperature:g}"
            if run_name in cells:
                other, other_config = cells[run_name]
                raise PipelineError(
                    f"ablation cells ({other.model!r}, {other_config.temperature:g}) and "
                    f"({generator.model!r}, {temperature:g}) would share run directory "
                    f"runs/{run_name}"
                )
            cells[run_name] = (generator, replace(base_gen_config, temperature=temperature))

    sample = stratified_sample(questions, fraction, seed)
    if not sample:
        raise PipelineError("stratified sample is empty")

    rows: List[dict] = []
    for run_name, (generator, gen_config) in cells.items():
        result = run_evaluation(
            sample,
            os.path.join(out_dir, "runs", run_name),
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
                "temperature": gen_config.temperature,
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
