"""Verification of atomic units against the checker backend."""

from __future__ import annotations

import re
from typing import Optional

from . import defaults
from .backends import Backend, BackendError, ChatRequest
from .types import EvalRecord, GenConfig, Status, Verdict

# Checker replies are expected to be one word; a small budget keeps
# retrieval-backed endpoints from rambling.
CHECKER_GEN = GenConfig(temperature=0.0, max_tokens=64)

_UNKNOWN = re.compile(r"\b(unknown|uncertain|unverifiable|cannot\s+verify|can't\s+verify)\b", re.I)
_FALSE = re.compile(r"\b(false|incorrect|no)\b", re.I)
_TRUE = re.compile(r"\b(true|correct|yes)\b", re.I)


def parse_checker_output(raw: str) -> Verdict:
    """Map a checker reply to a Verdict. Total and deterministic.

    An explicit unknown/uncertain marker wins; otherwise the earliest
    of the false/true token families decides; anything else is Unknown
    rather than a guessed binary label.
    """
    if _UNKNOWN.search(raw):
        return Verdict.UNKNOWN
    false_hit = _FALSE.search(raw)
    true_hit = _TRUE.search(raw)
    if false_hit and (true_hit is None or false_hit.start() < true_hit.start()):
        return Verdict.FALSE
    if true_hit:
        return Verdict.TRUE
    return Verdict.UNKNOWN


def check_unit(
    unit_text: str,
    backend: Backend,
    prompt_template: Optional[str] = None,
) -> tuple:
    """One checker call for one unit. Returns (verdict, raw reply).

    Raises BackendError when the call fails permanently; the caller
    decides what that means for the whole record.
    """
    if not unit_text.strip():
        raise ValueError("unit text must be non-empty")
    prompt = defaults.fill_template("checker", prompt_template, unit=unit_text)
    request = ChatRequest(
        backend_id=backend.backend_id, user_prompt=prompt, gen_config=CHECKER_GEN
    )
    resp = backend.complete(request)
    return parse_checker_output(resp.text), resp.text


def check_response(
    record: EvalRecord,
    backend: Backend,
    prompt_template: Optional[str] = None,
) -> EvalRecord:
    """Attach a verdict to every unit of a split record, in place.

    Units whose checker call failed keep verdict=None; any such gap is
    a count mismatch and the record is excluded_mismatch. Any Unknown
    verdict excludes the record as excluded_unknown. Otherwise the
    record is checked.
    """
    if record.status is not Status.SPLIT:
        raise ValueError(f"check requires status=split, got {record.status.value}")
    failures = []
    for unit in record.units:
        try:
            verdict, reply = check_unit(unit.text, backend, prompt_template)
        except BackendError as exc:
            failures.append(f"unit {unit.index}: {exc}")
            continue
        unit.verdict = verdict
        unit.checker_reply = reply

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
