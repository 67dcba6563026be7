"""Decomposition of preprocessed responses into atomic units."""

from __future__ import annotations

from typing import List

from . import defaults
from .backends import Backend, BackendError, ChatRequest
from .listparse import parse_list_output
from .types import AtomicUnit, EvalRecord, GenConfig, Status

# Decoding parameters for splitter calls. The record's own gen_config
# belongs to the generator; splitting wants determinism and room for
# long lists.
SPLITTER_GEN = GenConfig(temperature=0.0, max_tokens=1024)


class SplitParseError(ValueError):
    """Splitter output could not be parsed into any unit."""


def parse_splitter_output(raw: str) -> List[str]:
    """Parse unit texts out of the splitter reply; never silently empty."""
    units = parse_list_output(raw)
    if not units:
        raise SplitParseError(f"no units parsed from splitter output {raw!r}")
    return units


def split_into_units(
    record: EvalRecord,
    backend: Backend,
    prompt_template: str = defaults.PROMPTS["splitter"],
) -> EvalRecord:
    """Attach atomic units to a preprocessed record, in place.

    Backend failures and unparseable output mark the record failed
    (with the raw reply kept in the error note) instead of raising.
    """
    if record.status is not Status.PREPROCESSED:
        raise ValueError(f"split requires status=preprocessed, got {record.status.value}")
    if not record.preprocessed:
        raise ValueError("split requires non-empty preprocessed text")
    prompt = defaults.fill_template(prompt_template, response=record.preprocessed)
    try:
        resp = backend.complete(ChatRequest(prompt, SPLITTER_GEN))
        texts = parse_splitter_output(resp.text)
    except (BackendError, SplitParseError) as exc:
        record.status = Status.FAILED
        record.error = str(exc)
        return record
    record.units = [AtomicUnit(index=i, text=t) for i, t in enumerate(texts)]
    record.status = Status.SPLIT
    return record

