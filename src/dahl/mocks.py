"""Built-in deterministic behaviors for offline mock backends.

Each behavior is a callable suitable as a MockBackend default: it
parses what it needs out of the incoming prompt and derives its reply
from a SHA-256 hash of that content, so runs are reproducible across
processes and platforms (no dependence on PYTHONHASHSEED) while still
exercising every pipeline branch: prompt echoes, duplicate sentences,
truncated tails, refusals, false and unknown verdicts.
"""

from __future__ import annotations

import hashlib
import random
import re
from typing import Callable, List

from .backends import ChatRequest
from .responses import normalize_sentence_key, segment_sentences


def _stable_int(salt: str, text: str) -> int:
    digest = hashlib.sha256(f"{salt}\x1f{text}".encode("utf-8")).hexdigest()
    return int(digest[:12], 16)


_TOPICS = [
    "cystic fibrosis",
    "iron deficiency",
    "atrial fibrillation",
    "bacterial meningitis",
    "chronic kidney disease",
    "rheumatoid arthritis",
    "migraine",
    "type 2 diabetes",
    "community-acquired pneumonia",
    "hypothyroidism",
]
_DRUGS = [
    "metformin",
    "amoxicillin",
    "lisinopril",
    "levothyroxine",
    "atorvastatin",
    "omeprazole",
    "sertraline",
    "warfarin",
]
_SIGNS = [
    "fatigue",
    "fever",
    "weight loss",
    "joint pain",
    "shortness of breath",
    "night sweats",
    "palpitations",
    "recurrent headache",
]
_COMPLICATIONS = [
    "renal failure",
    "stroke",
    "sepsis",
    "heart failure",
    "vision loss",
    "cirrhosis",
]
_TESTS = [
    "serum ferritin measurement",
    "a 12-lead electrocardiogram",
    "lumbar puncture",
    "fasting glucose testing",
    "thyroid function tests",
    "joint aspiration",
]


def _make_sentence(rng: random.Random) -> str:
    topic = rng.choice(_TOPICS)
    templates = [
        f"{topic.capitalize()} affects roughly {rng.randint(2, 40)} in "
        f"{rng.choice([1000, 10000, 100000])} adults worldwide.",
        f"First-line management of {topic} relies on {rng.choice(_DRUGS)}.",
        f"The classic presentation of {topic} includes {rng.choice(_SIGNS)} and "
        f"{rng.choice(_SIGNS)}.",
        f"Screening for {topic} is recommended from age {rng.randint(30, 65)} onward.",
        f"Untreated {topic} progresses to {rng.choice(_COMPLICATIONS)} in about "
        f"{rng.randint(5, 60)}% of cases.",
        f"Diagnosis of {topic} is confirmed by {rng.choice(_TESTS)}.",
        f"Management of {topic} starts with {rng.choice(_DRUGS)}; resistant cases "
        f"receive {rng.choice(_DRUGS)} instead.",
        f"Relapse of {topic} within five years occurs in {rng.randint(3, 45)}% of patients.",
    ]
    return rng.choice(templates)


def generator_reply(req: ChatRequest) -> str:
    """Invent a long-form answer to the prompt.

    Deterministic in (prompt, temperature). Some replies echo the
    prompt, repeat a sentence, trail off mid-sentence, or refuse
    outright, so downstream cleanup always has work to do.
    """
    seed = _stable_int(f"gen:{req.gen_config.temperature!r}", req.user_prompt)
    rng = random.Random(seed)
    if rng.random() < 0.04:
        return "It cannot be answered."

    sentences = [_make_sentence(rng) for _ in range(rng.randint(3, 7))]
    if rng.random() < 0.30:
        victim = rng.randrange(len(sentences))
        sentences.insert(victim + 1, sentences[victim])
    parts = []
    if rng.random() < 0.25:
        parts.append(req.user_prompt)
    parts.extend(sentences)
    if rng.random() < 0.25:
        parts.append("The longer-term prognosis depends on")
    return " ".join(parts)


def splitter_reply(req: ChatRequest) -> str:
    """Chop the response embedded in the prompt into numbered units.

    One unit per sentence, with semicolon-joined clauses separated.
    Depends only on the response text, so identical responses always
    split identically.
    """
    _, marker, response = req.user_prompt.rpartition("Response:")
    if not marker:
        response = req.user_prompt
    units: List[str] = []
    for sentence in segment_sentences(response.strip()):
        for clause in sentence.text.split("; "):
            clause = clause.strip()
            if clause:
                if clause[-1] not in ".!?":
                    clause += "."
                units.append(clause[0].upper() + clause[1:])
    if not units:
        return "1. " + response.strip()
    return "\n".join(f"{i}. {u}" for i, u in enumerate(units, start=1))


def checker_reply(req: ChatRequest) -> str:
    """Vote on the claim embedded in the prompt.

    The verdict is a pure function of the normalized claim text:
    roughly 74% true, 23% false, 3% unknown.
    """
    _, marker, claim = req.user_prompt.rpartition("Claim:")
    if not marker:
        claim = req.user_prompt
    bucket = _stable_int("check", normalize_sentence_key(claim)) % 100
    if bucket < 74:
        return "True"
    if bucket < 97:
        return "False. This contradicts standard references."
    return "Unknown"


def categorizer_reply(req: ChatRequest) -> str:
    """Pick one label from the list embedded in the prompt."""
    labels = [
        line[2:].strip()
        for line in req.user_prompt.splitlines()
        if line.startswith("- ")
    ]
    _, marker, question = req.user_prompt.rpartition("Question:")
    if not marker:
        question = req.user_prompt
    if not labels:
        return "Other"
    return labels[_stable_int("cat", question.strip()) % len(labels)]


def question_generator_reply(req: ChatRequest) -> str:
    """Write numbered exam questions for the document in the prompt.

    About one question in five deliberately refers to the source
    material so that the context-dependence filter has something to
    drop.
    """
    match = re.search(r"write (\d+) self-contained questions", req.user_prompt)
    count = int(match.group(1)) if match else 5
    seed = _stable_int("qgen", req.user_prompt)
    rng = random.Random(seed)
    questions = []
    for _ in range(count):
        topic = rng.choice(_TOPICS)
        clean = [
            f"What is the first-line treatment for {topic}?",
            f"Which diagnostic test confirms {topic}?",
            f"What complications are associated with untreated {topic}?",
            f"At what age should screening for {topic} begin?",
            f"How common is {topic} in the general population?",
        ]
        tainted = [
            f"What method was used to assess {topic} in the cohort?",
            f"How do the findings of the study apply to {topic}?",
        ]
        pool = tainted if rng.random() < 0.2 else clean
        questions.append(rng.choice(pool))
    return "\n".join(f"{i}. {q}" for i, q in enumerate(questions, start=1))


BEHAVIORS: dict = {
    "generator": generator_reply,
    "splitter": splitter_reply,
    "checker": checker_reply,
    "categorizer": categorizer_reply,
    "question_generator": question_generator_reply,
}


def get_behavior(name: str) -> Callable[[ChatRequest], str]:
    try:
        return BEHAVIORS[name]
    except KeyError:
        raise ValueError(
            f"unknown mock behavior {name!r}, expected one of {sorted(BEHAVIORS)}"
        ) from None
