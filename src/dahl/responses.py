"""Response generation and the cleanup pass that precedes splitting.

Cleanup composes five small text operations: strip a leading prompt
echo, segment into sentences, drop repeated sentences, drop an
unterminated final sentence, and rejoin with single spaces. A response
that ends up empty or consists only of refusal phrases is excluded as
noncommittal. Every operation is conservative: nothing is ever
rewritten, only removed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, List, Sequence

from . import defaults
from .backends import Backend, BackendError, ChatRequest
from .types import EvalRecord, GenConfig, Question, Status

_TERMINAL_PUNCT = ".!?"
_CLOSERS = "\"')]"
_CURLY_QUOTES = (("‘", "'"), ("’", "'"), ("“", '"'), ("”", '"'))
# A whole run of terminal punctuation and the whitespace after it: the
# only runs that can end a sentence. The lookbehind right after the
# first character lets a match start only where a run starts. Without
# it, a run of k characters with no whitespace after it is retried from
# each of them, k^2 steps in all. Placed first, it would cost a check at
# every character instead of only at punctuation.
_CANDIDATE_CUT = re.compile(r"([.!?](?<![.!?]{2})[.!?]*)\s+")


# Not frozen: a frozen dataclass sets each field through
# object.__setattr__, which made building one about four times slower,
# and nothing hashes or changes a Sentence.
@dataclass(slots=True)
class Sentence:
    text: str
    normalized_key: str


def normalize_sentence_key(text: str) -> str:
    """Key used for duplicate detection and phrase matching.

    Case-folded, whitespace collapsed, curly quotes folded to straight
    ones, trailing terminal punctuation (and closing quotes around it)
    stripped. Built from string methods only, each one pass in C:
    split() breaks at the same code points as the regex \\s, and a
    quote is replaced only when the text holds one.
    """
    for curly, straight in _CURLY_QUOTES:
        if curly in text:
            text = text.replace(curly, straight)
    t = " ".join(text.split()).casefold()
    return t.rstrip(_CLOSERS + _TERMINAL_PUNCT + " ")


def _token_before(text: str, end: int) -> str:
    """The word right before text[end]: the [\\w.] run ending there, minus leading dots.

    A single newline between the word and text[end] is stepped over,
    so "Fig\\n." reads as "Fig". \\w is tested as isalnum() or "_",
    which accepts the same code points.
    """
    if end > 0 and text[end - 1] == "\n":
        end -= 1
    start = end
    while start > 0 and (text[start - 1].isalnum() or text[start - 1] in "_."):
        start -= 1
    while start < end and text[start] == ".":
        start += 1
    return text[start:end]


def segment_sentences(text: str) -> List[Sentence]:
    """Split at {. ! ?} followed by whitespace and an uppercase/digit start.

    Decimal numbers never split (no whitespace after the dot) and
    abbreviations from the packaged list are protected. Punctuation
    followed by a lowercase letter is treated as sentence-internal,
    which errs on the side of keeping text together.

    Cost: one regex scan over text finds every punctuation run followed
    by whitespace; Python runs only for those candidate cuts, each
    reading the character after the whitespace and, after a single
    period, the word before it. So the cost is linear in the length of
    text, with a Python step per candidate rather than per character.
    """
    n = len(text)
    sentences = []
    start = 0
    for match in _CANDIDATE_CUT.finditer(text):
        i = match.end()
        if i == n:
            break
        nxt = text[i]
        if nxt in "\"'" and i + 1 < n:
            nxt = text[i + 1]
        if not (nxt.isupper() or nxt.isdigit()):
            continue
        # Protect known abbreviations ("Dr.", "Fig.", "e.g.") when the
        # run is a single period.
        run_start, cut = match.span(1)
        if text[run_start:cut] == "." and _token_before(text, run_start) in defaults.ABBREVIATIONS:
            continue
        # Never empty: the piece holds the punctuation run.
        piece = text[start:cut].strip()
        sentences.append(Sentence(piece, normalize_sentence_key(piece)))
        start = cut
    tail = text[start:].strip()
    if tail:
        sentences.append(Sentence(tail, normalize_sentence_key(tail)))
    return sentences


def strip_prompt_echo(raw: str, prompt: str) -> str:
    """Remove the prompt when the response starts by repeating it.

    Matching ignores letter case and whitespace entirely, so an echo
    that re-wraps lines still matches. Only a leading occurrence is
    removed.
    """
    if not prompt:
        return raw
    wanted = [c.casefold() for c in prompt if not c.isspace()]
    if not wanted:
        return raw
    i = 0
    j = 0
    while i < len(raw) and j < len(wanted):
        c = raw[i]
        if c.isspace():
            i += 1
            continue
        if c.casefold() != wanted[j]:
            return raw
        i += 1
        j += 1
    if j < len(wanted):
        return raw
    while i < len(raw) and raw[i].isspace():
        i += 1
    return raw[i:]


def dedup_sentences(sentences: Iterable[Sentence]) -> List[Sentence]:
    """Keep the first occurrence per normalized key, order preserved."""
    seen = set()
    out = []
    for s in sentences:
        if s.normalized_key in seen:
            continue
        seen.add(s.normalized_key)
        out.append(s)
    return out


def drop_incomplete_tail(sentences: Sequence[Sentence]) -> List[Sentence]:
    """Drop the final sentence when it lacks terminal punctuation.

    Applied unconditionally, not only on a length cutoff: an
    unterminated tail is unverifiable regardless of why generation
    stopped. The record keeps finish_reason for audit.
    """
    if not sentences:
        return []
    last = sentences[-1].text.rstrip(_CLOSERS)
    if last and last[-1] in _TERMINAL_PUNCT:
        return list(sentences)
    return list(sentences[:-1])


_PHRASE_KEYS = frozenset(normalize_sentence_key(p) for p in defaults.NONCOMMITTAL_PHRASES)


def preprocess(record: EvalRecord, prompt: str) -> EvalRecord:
    """Run the full cleanup pass on a pending record, in place.

    Sets status to preprocessed, or to excluded_noncommittal when the
    cleaned text is empty or purely a refusal.
    """
    if record.status is not Status.PENDING:
        raise ValueError(f"preprocess requires status=pending, got {record.status.value}")
    text = strip_prompt_echo(record.raw_response, prompt)
    sentences = segment_sentences(text)
    sentences = dedup_sentences(sentences)
    sentences = drop_incomplete_tail(sentences)
    cleaned = " ".join(s.text for s in sentences)
    record.preprocessed = cleaned
    if not cleaned or all(s.normalized_key in _PHRASE_KEYS for s in sentences):
        record.status = Status.EXCLUDED_NONCOMMITTAL
    else:
        record.status = Status.PREPROCESSED
    return record


def render_question_prompt(
    question_text: str, prompt_template: str = defaults.PROMPTS["response_generation"]
) -> str:
    """The exact user prompt sent for a question; also used by echo removal."""
    return defaults.fill_template(prompt_template, question=question_text).strip()


def generate_response(
    question: Question,
    backend: Backend,
    gen_config: GenConfig,
    prompt_template: str = defaults.PROMPTS["response_generation"],
) -> EvalRecord:
    """Ask the generator backend to answer one question.

    Backend failures are folded into the record as status=failed so a
    batch run always completes.
    """
    prompt = render_question_prompt(question.text, prompt_template)
    record = EvalRecord(
        question_id=question.question_id,
        model_id=backend.model,
        gen_config=gen_config,
        category=question.category,
    )
    try:
        resp = backend.complete(ChatRequest(prompt, gen_config))
    except BackendError as exc:
        record.status = Status.FAILED
        record.error = str(exc)
        return record
    record.raw_response = resp.text
    record.finish_reason = resp.finish_reason
    return record
