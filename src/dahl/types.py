"""Domain types shared by every pipeline stage.

Plain dataclasses plus a few enums. Each type read back from a file
carries a hand-written ``to_dict``/``from_dict`` pair: ``to_dict``
states the shape ``from_dict`` reads and turns enums into their values.
A result that is only written (the score report, the build report, a
test result) has no pair; it is serialized with ``dataclasses.asdict``.
JSON is always written with alphabetically sorted keys so files diff
cleanly.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional


class Verdict(enum.Enum):
    """Three-valued factuality label for one atomic unit.

    Unknown is never folded into True or False; records containing an
    Unknown verdict are excluded from scoring entirely.
    """

    TRUE = "True"
    FALSE = "False"
    UNKNOWN = "Unknown"


class Status(enum.Enum):
    """Lifecycle of an EvalRecord.

    The happy path is pending -> preprocessed -> split -> checked ->
    scored. The excluded_* and failed statuses are terminal branches.
    """

    PENDING = "pending"
    PREPROCESSED = "preprocessed"
    SPLIT = "split"
    CHECKED = "checked"
    SCORED = "scored"
    EXCLUDED_NONCOMMITTAL = "excluded_noncommittal"
    EXCLUDED_UNKNOWN = "excluded_unknown"
    EXCLUDED_MISMATCH = "excluded_mismatch"
    FAILED = "failed"


class ReviewOverride(enum.Enum):
    NONE = "none"
    FORCE_KEEP = "force_keep"
    FORCE_DROP = "force_drop"


def _int(value: object) -> int:
    """int(), refusing what it would silently change: a bool or a fractional float."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def _float(value: object) -> float:
    """float(), refusing a bool, which it would turn into 0.0 or 1.0."""
    if isinstance(value, bool):
        raise ValueError(f"not a number: {value!r}")
    return float(value)


@dataclass(frozen=True)
class GenConfig:
    """Decoding parameters attached to every generated response."""

    temperature: float = 0.6
    max_tokens: int = 256
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError(f"temperature must be in [0.0, 2.0], got {self.temperature}")
        if self.max_tokens < 1:
            raise ValueError(f"max_tokens must be >= 1, got {self.max_tokens}")

    def to_dict(self) -> dict:
        return {"max_tokens": self.max_tokens, "seed": self.seed, "temperature": self.temperature}

    @classmethod
    def from_dict(cls, d: dict) -> "GenConfig":
        return cls(
            temperature=_float(d["temperature"]),
            max_tokens=_int(d["max_tokens"]),
            seed=None if d.get("seed") is None else _int(d["seed"]),
        )


def _utf8_text(key: str, value: str) -> str:
    """value, refused when UTF-8 cannot encode it.

    JSON lets a string carry an unpaired surrogate escape such as
    \\ud800; json.loads accepts it, but no file or cache can store it.
    """
    if not value.isascii():
        try:
            value.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ValueError(
                f"{key} holds U+{ord(value[exc.start]):04X} at position {exc.start}, "
                "an unpaired surrogate that UTF-8 cannot encode"
            ) from None
    return value


def _required_text(d: dict, key: str) -> str:
    """d[key] as text; a missing, null or blank value is refused, a number converts."""
    value = d.get(key)
    if value is None or not str(value).strip():
        raise ValueError(f"{key} must be non-empty")
    return _utf8_text(key, str(value))


def _optional_text(d: dict, key: str) -> Optional[str]:
    """d[key] as text or None; a number, bool, list or object is refused."""
    value = d.get(key)
    if value is not None and not isinstance(value, str):
        raise ValueError(f"{key} must be text or null")
    return value if value is None else _utf8_text(key, value)


def _list_of(d: dict, key: str, item_type: type, items: str) -> list:
    """d[key] as a list of item_type, empty when missing; anything else is refused."""
    value = d.get(key, [])
    if not isinstance(value, list) or not all(isinstance(e, item_type) for e in value):
        raise ValueError(f"{key} must be a list of {items}")
    return value


@dataclass(frozen=True)
class SourceDocument:
    """One input document: title plus full text.

    from_dict refuses an empty id or body; id uniqueness is checked at
    corpus load time (see records.read_source_documents). Both surface
    as line diagnostics there.
    """

    doc_id: str
    title: str
    body: str

    def to_dict(self) -> dict:
        return {"body": self.body, "doc_id": self.doc_id, "title": self.title}

    @classmethod
    def from_dict(cls, d: dict) -> "SourceDocument":
        title = d.get("title")
        return cls(
            doc_id=_required_text(d, "doc_id"),
            title="" if title is None else _utf8_text("title", str(title)),
            body=_required_text(d, "body"),
        )


@dataclass(frozen=True)
class CategorySet:
    """Closed set of category labels.

    Labels are non-empty and carry no surrounding whitespace. Uniqueness
    and resolve() fold case; membership (``in``) is exact.
    """

    labels: tuple

    def __post_init__(self) -> None:
        if not self.labels:
            raise ValueError("category set must not be empty")
        for label in self.labels:
            if not label or label != label.strip():
                raise ValueError(
                    f"category label {label!r} must be non-empty, without surrounding whitespace"
                )
        keys = [label.casefold() for label in self.labels]
        if len(set(keys)) != len(keys):
            raise ValueError("category labels must be unique (case-insensitive)")

    @cached_property
    def _by_key(self) -> dict:
        return {label.casefold(): label for label in self.labels}

    @cached_property
    def mention_patterns(self) -> tuple:
        """(label, folded label, whole-word regex over folded text), longest label first."""
        patterns = []
        for label in sorted(self.labels, key=len, reverse=True):
            folded = label.casefold()
            regex = re.compile(r"(?<!\w)" + re.escape(folded) + r"(?!\w)")
            patterns.append((label, folded, regex))
        return tuple(patterns)

    @cached_property
    def prompt_block(self) -> str:
        """The labels as the categorizer prompt lists them, one "- label" per line."""
        return "\n".join(f"- {label}" for label in self.labels)

    def __contains__(self, label: object) -> bool:
        return isinstance(label, str) and label in self.labels

    def __iter__(self):
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def resolve(self, text: str) -> Optional[str]:
        """Exact match after trimming and case folding, else None."""
        return self._by_key.get(text.strip().casefold())


@dataclass
class Question:
    """One benchmark item with its filter provenance.

    A question is kept when nothing filtered it, or when a reviewer
    forced it back in; force_drop always wins.
    """

    question_id: str
    text: str
    category: str
    source_doc_id: str
    filter_trace: list = field(default_factory=list)
    review_override: ReviewOverride = ReviewOverride.NONE

    @property
    def kept(self) -> bool:
        if self.review_override is ReviewOverride.FORCE_DROP:
            return False
        if self.review_override is ReviewOverride.FORCE_KEEP:
            return True
        return not self.filter_trace

    def to_dict(self) -> dict:
        return {
            "category": self.category,
            "filter_trace": list(self.filter_trace),
            "question_id": self.question_id,
            "review_override": self.review_override.value,
            "source_doc_id": self.source_doc_id,
            "text": self.text,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Question":
        return cls(
            question_id=_required_text(d, "question_id"),
            text=_required_text(d, "text"),
            category=_required_text(d, "category"),
            source_doc_id=_required_text(d, "source_doc_id"),
            filter_trace=[
                _utf8_text("filter_trace", rule) for rule in _list_of(d, "filter_trace", str, "text")
            ],
            review_override=ReviewOverride(d.get("review_override", "none")),
        )


@dataclass
class AtomicUnit:
    """One self-contained factual claim extracted from a response.

    checker_reply keeps the raw checker text for audit; it plays no
    part in scoring.
    """

    index: int
    text: str
    verdict: Optional[Verdict] = None
    checker_reply: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "checker_reply": self.checker_reply,
            "index": self.index,
            "text": self.text,
            "verdict": None if self.verdict is None else self.verdict.value,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AtomicUnit":
        verdict = d.get("verdict")
        return cls(
            index=_int(d["index"]),
            text=_required_text(d, "text"),
            verdict=None if verdict is None else Verdict(verdict),
            checker_reply=_optional_text(d, "checker_reply"),
        )


@dataclass
class EvalRecord:
    """Full trajectory of one question through the pipeline."""

    question_id: str
    model_id: str
    gen_config: GenConfig
    raw_response: str = ""
    preprocessed: Optional[str] = None
    units: list = field(default_factory=list)
    status: Status = Status.PENDING
    category: Optional[str] = None
    finish_reason: Optional[str] = None
    error: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "category": self.category,
            "error": self.error,
            "finish_reason": self.finish_reason,
            "gen_config": self.gen_config.to_dict(),
            "model_id": self.model_id,
            "preprocessed": self.preprocessed,
            "question_id": self.question_id,
            "raw_response": self.raw_response,
            "status": self.status.value,
            "units": [u.to_dict() for u in self.units],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EvalRecord":
        raw_response = d.get("raw_response", "")
        if not isinstance(raw_response, str):
            raise ValueError("raw_response must be text")
        return cls(
            question_id=_required_text(d, "question_id"),
            model_id=_required_text(d, "model_id"),
            gen_config=GenConfig.from_dict(d["gen_config"]),
            raw_response=_utf8_text("raw_response", raw_response),
            preprocessed=_optional_text(d, "preprocessed"),
            units=[AtomicUnit.from_dict(u) for u in _list_of(d, "units", dict, "objects")],
            status=Status(d["status"]),
            category=_optional_text(d, "category"),
            finish_reason=_optional_text(d, "finish_reason"),
            error=_optional_text(d, "error"),
        )


# Statuses reached before any splitting happened, so units must be empty.
_PRE_SPLIT_STATUSES = frozenset(
    {Status.PENDING, Status.PREPROCESSED, Status.EXCLUDED_NONCOMMITTAL}
)
# Statuses only reachable after a successful split, so units must exist.
_POST_SPLIT_STATUSES = frozenset(
    {
        Status.SPLIT,
        Status.CHECKED,
        Status.SCORED,
        Status.EXCLUDED_UNKNOWN,
        Status.EXCLUDED_MISMATCH,
    }
)


def validate_record(record: EvalRecord) -> list:
    """Return every violated invariant of an EvalRecord, as strings.

    An empty list means the record is well formed. Violations are data,
    not errors: readers report them as per-line diagnostics.
    """
    violations = []
    if not record.question_id:
        violations.append("question_id must be non-empty")
    if not record.model_id:
        violations.append("model_id must be non-empty")

    if record.status in _PRE_SPLIT_STATUSES and record.units:
        violations.append(f"units must be empty while status={record.status.value}")
    if record.status in _POST_SPLIT_STATUSES and not record.units:
        violations.append(f"units must be non-empty for status={record.status.value}")

    if record.units:
        indices = [u.index for u in record.units]
        if indices != list(range(len(record.units))):
            violations.append(f"unit indices must be contiguous from 0, got {indices}")
        for unit in record.units:
            if not unit.text.strip():
                violations.append(f"unit {unit.index} has empty text")

    if record.status in (Status.CHECKED, Status.SCORED):
        missing = [u.index for u in record.units if u.verdict is None]
        if missing:
            violations.append(
                f"status={record.status.value} requires a verdict on every unit, "
                f"missing at {missing}"
            )
    if record.status is Status.SCORED:
        unknown = [u.index for u in record.units if u.verdict is Verdict.UNKNOWN]
        if unknown:
            violations.append(f"scored record must not carry Unknown verdicts, found at {unknown}")
    return violations


@dataclass(frozen=True)
class CategoryScore:
    """Mean precision and record count for one category."""

    score: float
    n: int


@dataclass
class ScoreReport:
    """Aggregate result of one model run.

    dahl_score is the unweighted mean of per-response precisions over
    exactly the n_scored records. pooled_unit_score (true units over
    all units, pooled) is auxiliary and is not the headline number.
    Lengths are mean character counts over scored records, reported for
    both the raw and the preprocessed response text.
    """

    model_id: str
    dahl_score: float
    per_category: dict
    n_scored: int
    n_excluded_noncommittal: int
    n_excluded_unknown: int
    n_excluded_mismatch: int
    n_failed: int
    avg_response_length_chars: float
    avg_raw_length_chars: float
    pooled_unit_score: float
    model_size: Optional[str] = None

    @property
    def n_total(self) -> int:
        return (
            self.n_scored
            + self.n_excluded_noncommittal
            + self.n_excluded_unknown
            + self.n_excluded_mismatch
            + self.n_failed
        )
