"""Factories for valid test records, units and questions."""

from __future__ import annotations

from dahl.types import AtomicUnit, EvalRecord, GenConfig, Question, Status, Verdict


def make_units(verdicts):
    """Units with synthetic texts and the given verdicts (None allowed)."""
    return [
        AtomicUnit(index=i, text=f"Synthetic claim {i} about a condition.", verdict=v)
        for i, v in enumerate(verdicts)
    ]


def make_record(
    qid="q-1",
    status=Status.SCORED,
    verdicts=(Verdict.TRUE,),
    model="test-model",
    category="Surgery",
    raw="A raw answer. Another sentence.",
    preprocessed="A raw answer. Another sentence.",
    error=None,
):
    """EvalRecord factory that satisfies validate_record for the status."""
    units = make_units(verdicts) if verdicts is not None else []
    return EvalRecord(
        question_id=qid,
        model_id=model,
        gen_config=GenConfig(),
        raw_response=raw,
        preprocessed=preprocessed,
        units=units,
        status=status,
        category=category,
        error=error,
    )


def make_question(qid="q-1", text="What is the first-line treatment for gout?",
                  category="Medicine", doc="d-1"):
    return Question(question_id=qid, text=text, category=category, source_doc_id=doc)
