"""Verification of atomic units against the checker backend."""

from __future__ import annotations

import re

from . import defaults
from .backends import Backend, BackendError, ChatRequest
from .tasks import share
from .types import AtomicUnit, EvalRecord, GenConfig, Status, Verdict

# Checker replies are expected to be one word; a small budget keeps
# retrieval-backed endpoints from rambling.
CHECKER_GEN = GenConfig(temperature=0.0, max_tokens=64)

VERDICT_PARSER = 2  # the rules below, named in run_manifest.json; bump when they change

_UNKNOWN = re.compile(r"\b(unknown|uncertain|unverifiable|cannot\s+verify|can't\s+verify)\b", re.I)
_VERDICT = re.compile(
    r"(?P<negated>\b(?:not|never)\s+|n['\u2019]t\s+)?"
    r"\b(?:(?P<false>false|incorrect|no)|true|correct|yes)\b",
    re.I,
)


def parse_checker_output(raw: str) -> Verdict:
    """Map a checker reply to a Verdict. Total and deterministic.

    An explicit unknown/uncertain marker wins; otherwise the earliest
    true-family or false-family token decides, switched to the other
    family when "not", "never" or "n't" stands directly before it ("not
    true", "isn't correct"); anything else is Unknown rather than a
    guessed binary label.
    """
    if _UNKNOWN.search(raw):
        return Verdict.UNKNOWN
    hit = _VERDICT.search(raw)
    if hit is None:
        return Verdict.UNKNOWN
    return Verdict.TRUE if (hit["false"] is None) == (hit["negated"] is None) else Verdict.FALSE


def check_unit(
    unit_text: str,
    backend: Backend,
    prompt_template: str = defaults.PROMPTS["checker"],
) -> tuple:
    """One checker call for one unit. Returns (verdict, raw reply).

    Raises BackendError when the call fails permanently; the caller
    decides what that means for the whole record.
    """
    if not unit_text.strip():
        raise ValueError("unit text must be non-empty")
    prompt = defaults.fill_template(prompt_template, unit=unit_text)
    resp = backend.complete(ChatRequest(prompt, CHECKER_GEN))
    return parse_checker_output(resp.text), resp.text


def check_response(
    record: EvalRecord,
    backend: Backend,
    prompt_template: str = defaults.PROMPTS["checker"],
) -> EvalRecord:
    """Attach a verdict to every unit of a split record, in place.

    Each unit is one checker call, made through tasks.share: inside a
    run_tasks task, idle workers of its pool help make them. The
    verdicts are put together in unit order. Units whose checker call
    failed keep verdict=None; any such gap is a count mismatch and the
    record is excluded_mismatch. Any Unknown verdict excludes the
    record as excluded_unknown. Otherwise the record is checked.
    """
    if record.status is not Status.SPLIT:
        raise ValueError(f"check requires status=split, got {record.status.value}")

    def check(unit: AtomicUnit):
        try:
            return check_unit(unit.text, backend, prompt_template)
        except BackendError as exc:
            return exc

    failures = []
    for unit, outcome in zip(record.units, share(check, record.units)):
        if isinstance(outcome, BackendError):
            failures.append(f"unit {unit.index}: {outcome}")
        else:
            unit.verdict, unit.checker_reply = outcome

    missing = [u.index for u in record.units if u.verdict is None]
    if missing:
        record.status = Status.EXCLUDED_MISMATCH
        record.error = (
            f"verdict count mismatch: {len(record.units) - len(missing)} verdicts for "
            f"{len(record.units)} units ({'; '.join(failures)})"
        )
    elif any(u.verdict is Verdict.UNKNOWN for u in record.units):
        record.status = Status.EXCLUDED_UNKNOWN
    else:
        record.status = Status.CHECKED
    return record
