"""Benchmark construction: generate, filter, override, categorize.

The filter rules are data (a JSONL file of regex rules), not code, so
ports to another domain can swap them without touching the pipeline.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from . import defaults
from .backends import Backend, BackendError, ChatRequest
from .listparse import parse_list_output
from .records import _read_objects
from .tasks import run_tasks
from .types import CategorySet, GenConfig, Question, ReviewOverride, SourceDocument

# Pseudo-rules the build appends to a filter trace: the categorizer named
# several fields, or its call failed. No filter rule may take these ids,
# since BuildReport counts are read back from the traces.
AMBIGUOUS_CATEGORY_RULE = "ambiguous_category"
CATEGORIZER_FAILURE_RULE = "categorizer_failure"
PSEUDO_RULES = (AMBIGUOUS_CATEGORY_RULE, CATEGORIZER_FAILURE_RULE)

GENERATOR_GEN = GenConfig(temperature=0.6, max_tokens=1024)
CATEGORIZER_GEN = GenConfig(temperature=0.0, max_tokens=32)


class QuestionParseError(ValueError):
    """Generator output yielded no usable questions."""


@dataclass(frozen=True)
class FilterRule:
    rule_id: str
    pattern: str
    description: str = ""

    def __post_init__(self) -> None:
        if not self.rule_id:
            raise ValueError("rule_id must be non-empty")
        if self.rule_id in PSEUDO_RULES:
            raise ValueError(f"rule_id {self.rule_id!r} is reserved for the build")
        re.compile(self.pattern)  # fail fast on a broken pattern

    @cached_property
    def regex(self) -> "re.Pattern":
        return re.compile(self.pattern, re.IGNORECASE)


@dataclass(frozen=True)
class FilterDecision:
    keep: bool
    rule_ids: tuple


def load_filter_rules(path: Optional[str] = None) -> List[FilterRule]:
    """Load filter rules from JSONL; packaged defaults when path is None."""
    text = defaults.read_file_or_data(path, "filter_rules.jsonl")
    where = path or "packaged filter_rules.jsonl"
    rules = []
    seen = set()
    for line_no, obj, diag in _read_objects(text.splitlines()):
        try:
            if diag is not None:
                raise ValueError(diag.message)
            rule = FilterRule(
                rule_id=str(obj["rule_id"]),
                pattern=str(obj["pattern"]),
                description=str(obj.get("description", "")),
            )
            if rule.rule_id in seen:
                raise ValueError(f"duplicate rule_id {rule.rule_id!r}")
        except KeyError as exc:
            raise ValueError(f"{where}: line {line_no}: missing key {exc}") from None
        except (TypeError, ValueError, re.error) as exc:
            raise ValueError(f"{where}: line {line_no}: {exc}") from None
        seen.add(rule.rule_id)
        rules.append(rule)
    return rules


_WHITESPACE_RUN = re.compile(r"\s+")


def normalize_question_text(text: str) -> str:
    return _WHITESPACE_RUN.sub(" ", text).strip()


def make_question_id(source_doc_id: str, text: str) -> str:
    material = f"{source_doc_id}\x1f{normalize_question_text(text)}"
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class OverrideList:
    """Manual keep/drop decisions, keyed by question id or exact text."""

    force_keep: frozenset = frozenset()
    force_drop: frozenset = frozenset()

    def __post_init__(self) -> None:
        both = self.force_keep & self.force_drop
        if both:
            raise ValueError(
                f"entries present in both force_keep and force_drop: {sorted(both)}"
            )

    def override_for(self, question_id: str, text: str) -> ReviewOverride:
        keys = {question_id, normalize_question_text(text)}
        if keys & self.force_drop:
            return ReviewOverride.FORCE_DROP
        if keys & self.force_keep:
            return ReviewOverride.FORCE_KEEP
        return ReviewOverride.NONE


def _override_keys(value: object) -> frozenset:
    if not isinstance(value, list) or not all(isinstance(e, str) for e in value):
        raise ValueError("must be a list of strings")
    return frozenset(normalize_question_text(e) for e in value)


def load_overrides(path: Optional[str] = None) -> OverrideList:
    """Read {"force_keep": [...], "force_drop": [...]} (question ids or texts) from JSON."""
    if path is None:
        return OverrideList()
    from .config import ConfigError, _read  # config imports this module

    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ConfigError(f"overrides file {path}: {exc}") from None
    keys = {"force_keep": _override_keys, "force_drop": _override_keys}
    return OverrideList(**_read(f"overrides file {path}", obj, keys))


def generate_questions(
    doc: SourceDocument,
    backend: Backend,
    prompt_template: Optional[str] = None,
    questions_per_doc: int = 5,
) -> List[str]:
    """Ask the generator for candidate questions about one document.

    Items are trimmed and deduplicated; lines that do not end in a
    question mark or a period (list preambles, chatter) are discarded.
    """
    if not doc.body.strip():
        raise ValueError(f"document {doc.doc_id!r} has an empty body")
    prompt = defaults.fill_template(
        "question_generation",
        prompt_template,
        title=doc.title,
        body=doc.body,
        n=str(questions_per_doc),
    )
    resp = backend.complete(ChatRequest(prompt, GENERATOR_GEN))

    questions = []
    seen = set()
    for item in parse_list_output(resp.text):
        if item[-1] not in "?.":
            continue
        key = normalize_question_text(item).casefold()
        if key in seen:
            continue
        seen.add(key)
        questions.append(item)
    if not questions:
        raise QuestionParseError(
            f"no questions parsed from generator output for {doc.doc_id!r}: {resp.text!r}"
        )
    return questions


def filter_context_dependent(text: str, rules: Sequence[FilterRule]) -> FilterDecision:
    """Match every rule against the question; any match means drop."""
    matched = tuple(rule.rule_id for rule in rules if rule.regex.search(text))
    return FilterDecision(keep=not matched, rule_ids=matched)


@dataclass(frozen=True)
class CategorizeResult:
    label: str
    matched: tuple
    ambiguous: bool


def resolve_category_reply(reply: str, category_set: CategorySet) -> CategorizeResult:
    """Map a categorizer reply onto the closed label set.

    An exact (trimmed, case-insensitive) reply wins outright. Otherwise
    the reply is scanned for label mentions, longest label first, so
    that a label embedded in a longer one it also names (say one field
    name containing another) is not double-counted. No mention maps to
    "Other"; several distinct mentions flag the reply ambiguous.
    """
    exact = category_set.resolve(reply)
    if exact is not None:
        return CategorizeResult(label=exact, matched=(exact,), ambiguous=False)

    folded = reply.casefold()
    claimed: list = []  # (start, end) spans already taken by a longer label
    hits = []
    for label, folded_label, pattern in category_set.mention_patterns:
        if folded_label not in folded:
            continue  # the pattern matches only text containing the label
        for match in pattern.finditer(folded):
            span = (match.start(), match.end())
            if any(s <= span[0] and span[1] <= e for s, e in claimed):
                continue
            claimed.append(span)
            hits.append((match.start(), label))
            break  # one mention per label is enough
    hits.sort()
    labels = tuple(label for _, label in hits)
    if not labels:
        return CategorizeResult(label="Other", matched=(), ambiguous=False)
    if len(set(labels)) > 1:
        return CategorizeResult(label=labels[0], matched=labels, ambiguous=True)
    return CategorizeResult(label=labels[0], matched=labels, ambiguous=False)


def categorize(
    text: str,
    backend: Backend,
    category_set: CategorySet,
    prompt_template: Optional[str] = None,
) -> CategorizeResult:
    """One categorizer call for one question text."""
    prompt = defaults.fill_template(
        "categorizer",
        prompt_template,
        question=text,
        labels=category_set.prompt_block,
    )
    resp = backend.complete(ChatRequest(prompt, CATEGORIZER_GEN))
    return resolve_category_reply(resp.text, category_set)


@dataclass
class BuildReport:
    """Stage counts for one dataset build."""

    n_documents: int = 0
    n_generated: int = 0
    n_dropped_filter: int = 0
    n_dropped_ambiguous: int = 0
    n_forced_keep: int = 0
    n_forced_drop: int = 0
    n_kept: int = 0
    drops_per_rule: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "drops_per_rule": dict(sorted(self.drops_per_rule.items())),
            "failures": list(self.failures),
            "n_documents": self.n_documents,
            "n_dropped_ambiguous": self.n_dropped_ambiguous,
            "n_dropped_filter": self.n_dropped_filter,
            "n_forced_drop": self.n_forced_drop,
            "n_forced_keep": self.n_forced_keep,
            "n_generated": self.n_generated,
            "n_kept": self.n_kept,
        }


def build_dataset(
    corpus: Sequence[SourceDocument],
    generator_backend: Backend,
    categorizer_backend: Backend,
    rules: Sequence[FilterRule],
    overrides: OverrideList,
    category_set: CategorySet,
    questions_per_doc: int = 5,
    question_prompt: Optional[str] = None,
    categorizer_prompt: Optional[str] = None,
    concurrency: int = 4,
) -> Tuple[List[Question], List[Question], BuildReport]:
    """Run the full construction pipeline over a corpus.

    Each document is one task (generate, filter, override, categorize)
    on `concurrency` threads, merged in corpus order, so the output does
    not depend on `concurrency`. Duplicate doc ids raise ValueError.
    Returns (kept, dropped, report). Per-document generator failures
    are isolated: they land in report.failures and the build carries
    on. Dropped questions keep their provenance but are not
    categorized (no point spending calls on them); their category is
    the catch-all label.
    """
    doc_ids = [doc.doc_id for doc in corpus]
    if len(set(doc_ids)) != len(doc_ids):
        dupes = sorted(i for i, n in Counter(doc_ids).items() if n > 1)
        raise ValueError(f"duplicate doc ids: {dupes}")

    def build_one(doc: SourceDocument) -> Tuple[List[Question], List[Question], List[str]]:
        try:
            texts = generate_questions(doc, generator_backend, question_prompt, questions_per_doc)
        except (BackendError, ValueError) as exc:
            return [], [], [f"{doc.doc_id}: {exc}"]
        kept, dropped, failures = [], [], []
        for text in texts:
            question_id = make_question_id(doc.doc_id, text)
            question = Question(
                question_id=question_id,
                text=text,
                category="Other",
                source_doc_id=doc.doc_id,
                filter_trace=list(filter_context_dependent(text, rules).rule_ids),
                review_override=overrides.override_for(question_id, text),
            )
            if not question.kept:
                dropped.append(question)
                continue
            try:
                result = categorize(text, categorizer_backend, category_set, categorizer_prompt)
            except BackendError as exc:
                failures.append(f"{question_id}: categorizer failed: {exc}")
                question.filter_trace.append(CATEGORIZER_FAILURE_RULE)
                dropped.append(question)
                continue
            if result.ambiguous and question.review_override is not ReviewOverride.FORCE_KEEP:
                # Manual review outranks the ambiguity guard, the same
                # way it outranks the regex rules.
                question.filter_trace.append(AMBIGUOUS_CATEGORY_RULE)
                dropped.append(question)
                continue
            question.category = result.label
            kept.append(question)
        return kept, dropped, failures

    kept, dropped = [], []
    report = BuildReport(n_documents=len(corpus))
    for doc_kept, doc_dropped, doc_failures in run_tasks(corpus, build_one, concurrency):
        kept += doc_kept
        dropped += doc_dropped
        report.failures += doc_failures

    report.n_generated = len(kept) + len(dropped)
    report.n_kept = len(kept)
    for question in kept + dropped:
        rule_ids = [r for r in question.filter_trace if r not in PSEUDO_RULES]
        report.n_dropped_filter += bool(rule_ids)
        for rule_id in rule_ids:
            report.drops_per_rule[rule_id] = report.drops_per_rule.get(rule_id, 0) + 1
        report.n_dropped_ambiguous += AMBIGUOUS_CATEGORY_RULE in question.filter_trace
        if question.review_override is ReviewOverride.FORCE_DROP:
            report.n_forced_drop += 1
        elif question.review_override is ReviewOverride.FORCE_KEEP and rule_ids:
            report.n_forced_keep += 1
    return kept, dropped, report
