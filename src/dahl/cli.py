"""Command line entry points.

Commands: build-dataset, evaluate, score, ablate-temperature,
compare-human, stats (pearson/ttest/ftest/sample), and sample as a
shortcut for stats sample. Results that are numbers print as JSON on
stdout; progress and warnings go to stderr; exit code 0 means success,
1 means a reported failure, 2 means bad usage.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import re
import sys
from dataclasses import asdict, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .backends import BackendError
from .config import RunConfig, load_config
from .dataset import build_dataset
from .pipeline import STAGES, PipelineError, run_evaluation, run_temperature_ablation
from .records import (
    atomic_write_text,
    parse_jsonl_or_raise,
    read_eval_records,
    read_lines,
    read_questions,
    read_source_documents,
    unique,
    write_records,
)
from .score import dahl_score, precision_by_question, write_report_files
from .stats import f_test_equal_variance, pearson, stratified_sample, t_test
from .types import GenConfig, _float, _required_text


def _warn_diagnostics(diagnostics, path: str, limit: int = 5) -> None:
    for diag in diagnostics[:limit]:
        print(f"warning: {path}: {diag}", file=sys.stderr)
    if len(diagnostics) > limit:
        print(f"warning: {path}: +{len(diagnostics) - limit} more bad lines", file=sys.stderr)


def _read_usable(read, path: str, what: str, *args) -> list:
    """read(path, *args)'s items, after warning about its bad lines; none usable is an error."""
    items, diagnostics = read(path, *args)
    _warn_diagnostics(diagnostics, path)
    if not items:
        raise ValueError(f"{path}: no usable {what}")
    return items


def _print_json(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


def _load_run_config(args) -> RunConfig:
    """The config file's settings, with the command line's overrides applied."""
    cfg = load_config(args.config, cache_dir_override=getattr(args, "cache_dir", None))
    if cfg.cache_dir is None:  # HTTP replies are a run's durable state, so keep them by default
        cfg.cache_dir = args.out
    for name in ("concurrency", "questions_per_doc"):
        value = getattr(args, name, None)
        if value is not None:
            if value < 1:
                raise ValueError(f"--{name.replace('_', '-')} must be >= 1, got {value}")
            setattr(cfg, name, value)
    return cfg


def _gen_config(cfg: RunConfig, args) -> GenConfig:
    flags = {"temperature": args.temperature, "max_tokens": args.max_tokens}
    return replace(cfg.gen_config, **{k: v for k, v in flags.items() if v is not None})


# ---------------------------------------------------------------------------
# Input file readers


def _read_numbers(path: str) -> List[float]:
    """One sample: comma/whitespace separated floats, optional header line."""
    values: List[float] = []
    for line_no, line in enumerate(read_lines(path), start=1):
        tokens = [t for t in re.split(r"[,\s]+", line) if t]
        try:
            parsed = [float(t) for t in tokens]
        except ValueError:
            if line_no == 1:
                continue  # header
            raise ValueError(f"{path}: line {line_no} is not numeric") from None
        values.extend(parsed)
    if not values:
        raise ValueError(f"{path}: no numeric data found")
    return values


def _csv_rows(path: str) -> Iterator[Tuple[int, List[str]]]:
    """(row number, trimmed cells) of each CSV row with a non-blank cell, trailing blanks dropped."""
    for row_no, row in enumerate(csv.reader(read_lines(path)), start=1):
        cells = [c.strip() for c in row]
        while cells and not cells[-1]:
            cells.pop()
        if cells:
            yield row_no, cells


def _number(obj: dict, key: str) -> float:
    """obj[key] as a float; a missing, null, bool or non-numeric value is refused, naming key."""
    try:
        return _float(obj[key])
    except (KeyError, TypeError, ValueError):
        raise ValueError(f"{key} must be a number, not {obj.get(key)!r}") from None


def _read_pairs(path: str) -> Tuple[List[float], List[float]]:
    """Paired scores: CSV columns (x,y) or (id,x,y), or JSONL with x/y.

    In a CSV, trailing blank cells are dropped and the first row's cells
    fix the columns: x and y are its last two, in every row.
    """
    if path.endswith(".jsonl"):
        pairs = parse_jsonl_or_raise(
            path, read_lines(path), lambda obj: (_number(obj, "x"), _number(obj, "y"))
        )
    else:
        pairs = []
        width = 0
        for row_no, cells in _csv_rows(path):
            width = width or len(cells)
            if len(cells) > width:
                raise ValueError(
                    f"{path}: row {row_no} has {len(cells)} cells, the first row {width}"
                )
            cells += [""] * (width - len(cells))
            if "" in cells[-2:]:
                raise ValueError(f"{path}: row {row_no} has a blank x or y")
            try:
                pairs.append((float(cells[-2]), float(cells[-1])))
            except (IndexError, ValueError):
                if row_no == 1:
                    continue  # header
                raise ValueError(
                    f"{path}: row {row_no} does not end in two numeric columns"
                ) from None
    if not pairs:
        raise ValueError(f"{path}: no pairs found")
    return [x for x, _ in pairs], [y for _, y in pairs]


def _read_human_scores(path: str, use_mean: bool) -> Dict[str, float]:
    """question_id -> score. Two score columns require --mean."""
    if path.endswith(".jsonl"):
        rows = parse_jsonl_or_raise(
            path,
            read_lines(path),
            lambda obj: (_required_text(obj, "question_id"), _number(obj, "score")),
            unique(lambda row: row[0], "question_id"),
        )
        scores = dict(rows)
    else:
        scores = {}
        for row_no, (qid, *rest) in _csv_rows(path):
            try:
                values = [float(v) for v in rest if v]
            except ValueError:
                if row_no == 1:
                    continue  # header
                raise ValueError(f"{path}: row {row_no} has non-numeric scores") from None
            if not qid:
                raise ValueError(f"{path}: row {row_no} has no question_id")
            if not values:
                raise ValueError(f"{path}: row {row_no} has no score")
            if len(values) > 1 and not use_mean:
                raise ValueError(
                    f"{path}: row {row_no} has {len(values)} score columns; "
                    "pass --mean to average annotators"
                )
            if qid in scores:
                raise ValueError(f"{path}: row {row_no} repeats question_id {qid!r}")
            scores[qid] = sum(values) / len(values)
    if not scores:
        raise ValueError(f"{path}: no scores found")
    return scores


# ---------------------------------------------------------------------------
# Commands


def cmd_build_dataset(args) -> int:
    cfg = _load_run_config(args)
    corpus = _read_usable(read_source_documents, args.corpus, "documents")

    role = "question_generator" if "question_generator" in cfg.backends else "generator"
    with contextlib.ExitStack() as resources:
        generator = cfg.build_backend(role, resources)
        categorizer = cfg.build_backend("categorizer", resources)
        kept, dropped, report = build_dataset(
            corpus,
            generator,
            categorizer,
            cfg.rules,
            cfg.overrides,
            cfg.category_set,
            questions_per_doc=cfg.questions_per_doc,
            question_prompt=cfg.prompts["question_generation"],
            categorizer_prompt=cfg.prompts["categorizer"],
            concurrency=cfg.concurrency,
        )

    os.makedirs(args.out, exist_ok=True)
    questions_path = os.path.join(args.out, "questions.jsonl")
    write_records(kept, questions_path)
    write_records(dropped, os.path.join(args.out, "questions_dropped.jsonl"))
    atomic_write_text(
        os.path.join(args.out, "build_report.json"),
        json.dumps(asdict(report), sort_keys=True, indent=2) + "\n",
    )
    print(
        f"kept {report.n_kept} of {report.n_generated} questions from "
        f"{report.n_documents} documents -> {questions_path}",
        file=sys.stderr,
    )
    if report.failures:
        _warn_diagnostics(report.failures, "build")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _load_run_config(args)
    questions = _read_usable(read_questions, args.questions, "questions", cfg.category_set)

    with contextlib.ExitStack() as resources:
        generator = cfg.build_backend("generator", resources)
        splitter = cfg.build_backend("splitter", resources)
        checker = cfg.build_backend("checker", resources)
        result = run_evaluation(
            questions,
            args.out,
            generator,
            splitter,
            checker,
            _gen_config(cfg, args),
            prompts=cfg.prompts,
            resume=args.resume,
            stop_after=args.stop_after,
            concurrency=cfg.concurrency,
        )
    if result.report is None:
        print(f"stopped after {args.stop_after}: {result.records_path}", file=sys.stderr)
        return 0
    _print_json(
        {
            "dahl_score": result.report.dahl_score,
            "model_id": result.report.model_id,
            "n_scored": result.report.n_scored,
            "records": result.records_path,
        }
    )
    return 0


def cmd_score(args) -> int:
    records = _read_usable(read_eval_records, args.records, "records")
    report = dahl_score(records)
    if args.model_size:
        report.model_size = args.model_size
    os.makedirs(args.out_dir, exist_ok=True)
    write_report_files(report, args.out_dir)
    _print_json(
        {
            "dahl_score": report.dahl_score,
            "model_id": report.model_id,
            "n_scored": report.n_scored,
            "out_dir": args.out_dir,
        }
    )
    return 0


def cmd_ablate_temperature(args) -> int:
    cfg = _load_run_config(args)
    questions = _read_usable(read_questions, args.questions, "questions", cfg.category_set)
    try:
        temperatures = [float(t) for t in args.temps.split(",") if t.strip()]
    except ValueError:
        raise ValueError(f"cannot parse temperatures from {args.temps!r}") from None

    with contextlib.ExitStack() as resources:
        generators = [cfg.build(g, resources) for g in cfg.generators]
        splitter = cfg.build_backend("splitter", resources)
        checker = cfg.build_backend("checker", resources)
        rows = run_temperature_ablation(
            questions,
            args.out,
            generators,
            splitter,
            checker,
            cfg.gen_config,
            temperatures,
            prompts=cfg.prompts,
            fraction=args.fraction,
            seed=args.seed if args.seed is not None else cfg.seed,
            concurrency=cfg.concurrency,
            allow_high_temperatures=args.allow_high_temps,
            resume=args.resume,
        )
    print(
        f"wrote {len(rows)} rows to {os.path.join(args.out, 'ablation.csv')}", file=sys.stderr
    )
    return 0


def cmd_compare_human(args) -> int:
    records, diagnostics = read_eval_records(args.records)
    _warn_diagnostics(diagnostics, args.records)
    automated = precision_by_question(records)
    human = _read_human_scores(args.human, args.mean)

    only_auto = sorted(set(automated) - set(human))
    only_human = sorted(set(human) - set(automated))
    if only_auto or only_human:
        def clip(ids: List[str]) -> str:
            head = ", ".join(ids[:10])
            return head + (f", +{len(ids) - 10} more" if len(ids) > 10 else "")

        parts = []
        if only_auto:
            parts.append(f"scored but not annotated: {clip(only_auto)}")
        if only_human:
            parts.append(f"annotated but not scored: {clip(only_human)}")
        raise ValueError("question ids do not align; " + "; ".join(parts))

    ids = sorted(automated)
    result = pearson([automated[i] for i in ids], [human[i] for i in ids])
    _print_json(
        {
            "df": result.df,
            "n": len(ids),
            "p_two_tailed": result.p_two_tailed,
            "r": result.statistic,
        }
    )
    return 0


def cmd_stats_pearson(args) -> int:
    xs, ys = _read_pairs(args.pairs)
    result = pearson(xs, ys)
    _print_json({**asdict(result), "n": len(xs)})
    return 0


def cmd_stats_ttest(args) -> int:
    a = _read_numbers(args.a)
    b = _read_numbers(args.b)
    variant = "welch" if args.welch else "student_pooled"
    result = t_test(a, b, variant=variant)
    _print_json({**asdict(result), "variant": variant})
    return 0


def cmd_stats_ftest(args) -> int:
    result = f_test_equal_variance(_read_numbers(args.a), _read_numbers(args.b))
    _print_json(asdict(result))
    return 0


def cmd_sample(args) -> int:
    questions = _read_usable(read_questions, args.questions, "questions")
    subset = stratified_sample(questions, args.fraction, args.seed)
    write_records(subset, args.out)
    print(f"sampled {len(subset)} of {len(questions)} questions -> {args.out}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dahl",
        description="Factual-precision evaluation of long-form model answers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="YAML run configuration")
    common.add_argument("--cache-dir", help="override the config's response cache directory")
    common.add_argument("--concurrency", type=int, help="worker pool size override")
    resume_help = "rerun through the response cache; refuse changed settings"

    p = sub.add_parser(
        "build-dataset", parents=[common], help="generate, filter, and categorize questions"
    )
    p.add_argument("--corpus", required=True, help="JSONL of source documents")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--questions-per-doc", type=int, help="candidate questions per document")
    p.set_defaults(func=cmd_build_dataset)

    p = sub.add_parser(
        "evaluate", parents=[common], help="run the evaluation pipeline over questions"
    )
    p.add_argument("--questions", required=True, help="questions.jsonl")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--resume", action="store_true", help=resume_help)
    p.add_argument("--stop-after", choices=STAGES, help="halt after this stage (for testing)")
    p.add_argument("--temperature", type=float, help="override generation temperature")
    p.add_argument("--max-tokens", type=int, help="override generation token budget")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("score", help="aggregate an existing records file into reports")
    p.add_argument("--records", required=True, help="records.jsonl")
    p.add_argument("--out-dir", required=True, help="directory for report.{json,csv,md}")
    p.add_argument("--model-size", help="size label for the markdown table")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser(
        "ablate-temperature",
        parents=[common],
        help="evaluate one stratified sample across temperatures",
    )
    p.add_argument("--questions", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--temps", required=True, help="comma-separated, e.g. 0.1,0.2,0.3")
    p.add_argument("--fraction", type=float, default=0.1, help="stratified sample fraction")
    p.add_argument("--seed", type=int, help="sampling seed (default: config seed)")
    p.add_argument("--allow-high-temps", action="store_true", help="permit temperatures > 1.0")
    p.add_argument("--resume", action="store_true", help=resume_help)
    p.set_defaults(func=cmd_ablate_temperature)

    p = sub.add_parser("compare-human", help="correlate automated precision with human scores")
    p.add_argument("--records", required=True, help="records.jsonl from evaluate")
    p.add_argument("--human", required=True, help="CSV/JSONL of question_id,score[,score]")
    p.add_argument("--mean", action="store_true", help="average multiple annotator columns")
    p.set_defaults(func=cmd_compare_human)

    stats = sub.add_parser("stats", help="statistical utilities")
    stats_sub = stats.add_subparsers(dest="stats_command", required=True)

    p = stats_sub.add_parser("pearson", help="correlation over paired scores")
    p.add_argument("--pairs", required=True, help="CSV (x,y or id,x,y) or JSONL with x/y")
    p.set_defaults(func=cmd_stats_pearson)

    p = stats_sub.add_parser("ttest", help="two-sample t-test")
    p.add_argument("--a", required=True, help="first sample file")
    p.add_argument("--b", required=True, help="second sample file")
    p.add_argument("--welch", action="store_true", help="Welch instead of pooled variance")
    p.set_defaults(func=cmd_stats_ttest)

    p = stats_sub.add_parser("ftest", help="two-tailed variance-equality F-test")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=cmd_stats_ftest)

    def add_sample_args(sp) -> None:
        sp.add_argument("--questions", required=True, help="questions.jsonl")
        sp.add_argument("--fraction", type=float, default=0.1)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", required=True, help="output questions.jsonl")
        sp.set_defaults(func=cmd_sample)

    add_sample_args(stats_sub.add_parser("sample", help="stratified subsample of questions"))
    add_sample_args(sub.add_parser("sample", help="stratified subsample of questions"))

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # ConfigError and NoScorableResponsesError are ValueErrors; a BackendError that
    # escapes a command is a backend that cannot be built (an unset auth variable).
    try:
        return args.func(args)
    except (BackendError, PipelineError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
