"""Seeded benchmark inputs and the simulated models that answer them.

Nothing here runs dahl's text, parsing or backend logic. The simulated
splitter segments with its own regex, so a faster segmenter in dahl
cannot also make the "model" faster. Only dahl's data types cross the
boundary: ChatRequest/ChatResponse, PermanentBackendError, Question and
SourceDocument.

Every reply, latency and injected failure is a pure function of the
request content (and, for 429/503, of the attempt number), so the seed
fixes the whole run.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
import threading
import time
from statistics import NormalDist
from typing import Callable, Dict, List, Optional, Tuple

from dahl.backends import ChatRequest, ChatResponse, PermanentBackendError
from dahl.types import Question, SourceDocument

# A reply function maps a user prompt to the model's text, or to None
# when the request fails permanently.
Reply = Callable[[str], Optional[str]]

_TOPICS = [
    "cystic fibrosis", "iron deficiency anaemia", "atrial fibrillation",
    "bacterial meningitis", "chronic kidney disease", "rheumatoid arthritis",
    "migraine", "type 2 diabetes", "community-acquired pneumonia", "hypothyroidism",
    "psoriasis", "glaucoma", "asthma", "sickle cell disease", "tuberculosis",
    "multiple sclerosis", "gout", "pancreatitis", "heart failure", "osteoporosis",
]
_ASPECTS = [
    "What is the first-line treatment for {t} in {p}?",
    "Which diagnostic test confirms {t} in {p}?",
    "What complications follow untreated {t} in {p}?",
    "How common is {t} among {p}?",
    "Which symptoms usually reveal {t} in {p}?",
    "How is {t} monitored over time in {p}?",
    "Which risk factors predispose {p} to {t}?",
    "What is the long-term prognosis of {t} in {p}?",
]
_POPULATIONS = [
    "children", "adolescents", "pregnant women", "adults over 65", "smokers",
    "athletes", "night-shift workers", "transplant recipients", "neonates",
    "patients with obesity",
]
_CATEGORIES = [
    "Cardiology", "Medicine", "Neurology", "Pediatrics", "Pharmacology",
    "Immunology", "Pathology", "Surgery", "Dermatology", "Ophthalmology",
]
_DRUGS = [
    "metformin", "amoxicillin", "lisinopril", "levothyroxine", "atorvastatin",
    "omeprazole", "sertraline", "warfarin", "allopurinol", "methotrexate",
]
_SIGNS = [
    "fatigue", "fever", "weight loss", "joint pain", "shortness of breath",
    "night sweats", "palpitations", "recurrent headache", "pruritus", "pallor",
]
_COMPLICATIONS = [
    "renal failure", "stroke", "sepsis", "heart failure", "vision loss", "cirrhosis",
]
_TESTS = [
    "serum ferritin measurement", "a 12-lead electrocardiogram", "lumbar puncture",
    "fasting glucose testing", "thyroid function tests", "joint aspiration",
]
# Refusals use phrases from dahl's packaged noncommittal list, so the
# preprocess stage excludes them.
_REFUSALS = ["I do not know.", "It cannot be answered.", "I am not sure. I do not know."]
_TAILS = [
    "The longer-term prognosis depends on",
    "Further studies in this population are still",
    "In resistant cases, specialists may consider",
]


def _sentence(rng: random.Random, topic: str) -> str:
    pick = rng.randrange(9)
    drug, drug2 = rng.sample(_DRUGS, 2)
    sign, sign2, sign3 = rng.sample(_SIGNS, 3)
    if pick == 0:
        return (f"{topic[0].upper()}{topic[1:]} affects roughly {rng.randint(2, 40)} in "
                f"{rng.choice([1000, 10000, 100000])} adults worldwide.")
    if pick == 1:
        return (f"First-line management of {topic} relies on {drug} at "
                f"{rng.randint(1, 9)}.{rng.randint(0, 9)} mg/kg per day.")
    if pick == 2:
        return f"The classic presentation of {topic} includes {sign}, e.g. {sign2}, and {sign3}."
    if pick == 3:
        return (f"Untreated {topic} progresses to {rng.choice(_COMPLICATIONS)} in approx. "
                f"{rng.randint(5, 60)}% of cases.")
    if pick == 4:
        return (f"Diagnosis of {topic} is confirmed by {rng.choice(_TESTS)}; a repeat test "
                f"is advised after {rng.randint(2, 12)} weeks.")
    if pick == 5:
        return (f"Relapse of {topic} within {rng.randint(2, 9)} years occurs in "
                f"{rng.randint(3, 45)}% of patients (see Fig. {rng.randint(1, 6)}).")
    if pick == 6:
        return (f"Is {topic} more common in women? Yes, by a ratio of "
                f"{rng.randint(1, 3)}.{rng.randint(1, 9)} to 1.")
    if pick == 7:
        return f"Management of {topic} starts with {drug}; resistant cases receive {drug2} instead."
    return f"Trials comparing {drug} vs. {drug2} in {topic} report similar rates of {sign}."


# Share of answers with each feature. The simulated checker judges every
# "Anecdotal reports" claim Unknown and rejects every "Unpublished data"
# claim, and the simulated splitter returns nothing for a response that
# says its sources are "listed below". With the number of such sentences
# per answer set in make_answer, about 3% of units are Unknown and about
# 1% of checker calls fail.
FEATURE_SHARES = {
    "refuse": 0.04,
    "echo": 0.25,
    "duplicate": 0.30,
    "tail": 0.25,
    "unknown": 0.25,
    "rejected": 0.12,
    "unsplittable": 0.05,
}
_UNKNOWN_MARK = "Anecdotal reports"
_REJECTED_MARK = "Unpublished data"
_UNSPLITTABLE = "Sources for this answer are listed below."


def make_answer(rng: random.Random, question: str, target_bytes: int, features=()) -> str:
    """A long-form answer of about target_bytes with the given features."""
    if "refuse" in features:
        return rng.choice(_REFUSALS)
    topic = rng.choice(_TOPICS)
    sentences: List[str] = []
    size = 0
    while size < target_bytes:
        sentences.append(_sentence(rng, topic))
        size += len(sentences[-1]) + 1
    n = len(sentences)
    extra = []
    if "unknown" in features:
        for sign in rng.sample(_SIGNS, max(1, round(0.03 * n / FEATURE_SHARES["unknown"]))):
            extra.append(f"{_UNKNOWN_MARK} link {topic} to {sign}.")
    if "rejected" in features:
        for drug in rng.sample(_DRUGS, max(1, round(0.01 * n / FEATURE_SHARES["rejected"]))):
            extra.append(f"{_REJECTED_MARK} suggest {drug} cures {topic} outright.")
    if "unsplittable" in features:
        extra.append(_UNSPLITTABLE)
    for sentence in extra:
        sentences.insert(rng.randint(0, len(sentences)), sentence)
    if "duplicate" in features:
        victim = rng.randrange(len(sentences))
        sentences.insert(rng.randint(victim + 1, len(sentences)), sentences[victim])
    parts = [question] if "echo" in features else []
    parts.extend(sentences)
    if "tail" in features:
        parts.append(rng.choice(_TAILS))
    return " ".join(parts)


def make_questions(
    seed: int, n: int, min_bytes: int, max_bytes: int
) -> Tuple[List[Question], Dict[str, str]]:
    """n distinct questions and the generator's answer to each, keyed by prompt.

    A fixed share of the questions is refused (FEATURE_SHARES). The
    other answers' sizes are spread evenly over [min_bytes, max_bytes]
    and each other feature goes to a fixed share of them; the seed picks
    which answer gets what. Every seed therefore asks for
    about the same amount of work, and only the text differs.
    """
    combos = len(_TOPICS) * len(_ASPECTS) * len(_POPULATIONS)
    if n > combos:
        raise ValueError(f"at most {combos} distinct questions, asked for {n}")
    rng = random.Random(f"questions:{seed}")
    refused = rng.sample(range(n), round(FEATURE_SHARES["refuse"] * n))
    answering = [i for i in range(n) if i not in refused]
    m = len(answering)
    sizes = [round(min_bytes + (max_bytes - min_bytes) * (k + 0.5) / m) for k in range(m)]
    rng.shuffle(sizes)
    size_of = dict(zip(answering, sizes))
    features: List[set] = [set() for _ in range(n)]
    for i in refused:
        features[i].add("refuse")
    for feature, share in FEATURE_SHARES.items():
        if feature != "refuse":
            for i in rng.sample(answering, round(share * m)):
                features[i].add(feature)
    questions = []
    answers = {}
    for i, combo in enumerate(rng.sample(range(combos), n)):
        combo, t = divmod(combo, len(_TOPICS))
        p, a = divmod(combo, len(_ASPECTS))
        text = _ASPECTS[a].format(t=_TOPICS[t], p=_POPULATIONS[p])
        questions.append(
            Question(
                question_id=f"q{seed}-{i:04d}",
                text=text,
                category=rng.choice(_CATEGORIES),
                source_doc_id=f"d{seed}-{i // 8:04d}",
            )
        )
        answers[text] = make_answer(
            random.Random(f"answer:{seed}:{text}"), text, size_of.get(i, 0), features[i]
        )
    return questions, answers


def make_corpus(seed: int, n_docs: int) -> List[SourceDocument]:
    """Abstract-like documents of 8 to 14 sentences each."""
    rng = random.Random(f"corpus:{seed}")
    docs = []
    for i in range(n_docs):
        topic = rng.choice(_TOPICS)
        body = " ".join(_sentence(rng, topic) for _ in range(rng.randint(8, 14)))
        docs.append(
            SourceDocument(doc_id=f"d{seed}-{i:04d}", title=f"Current practice in {topic}", body=body)
        )
    return docs


def stable_int(*parts: object) -> int:
    material = "\x1f".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(material, digest_size=8).digest(), "big")


# --- simulated models -------------------------------------------------------

_SENTENCE_BREAK = re.compile(r"(?<=[.!?])\s+(?=[A-Z\"'])")


def splitter_reply(prompt: str) -> str:
    """Numbered atomic units: one per sentence, semicolon clauses apart.

    The reply is empty, which dahl must treat as a parse failure, when
    the response says its sources are listed below; about one reply in
    seven starts with a chatty preamble line.
    """
    _, _, response = prompt.rpartition("Response:")
    response = response.strip()
    if _UNSPLITTABLE in response:
        return ""
    h = stable_int("split", response)
    units = []
    for sentence in _SENTENCE_BREAK.split(response):
        for clause in sentence.split("; "):
            clause = clause.strip()
            if clause:
                if clause[-1] not in ".!?":
                    clause += "."
                units.append(clause[0].upper() + clause[1:])
    lines = [f"{i}. {u}" for i, u in enumerate(units, start=1)]
    if h % 7 == 1:
        lines.insert(0, "Here are the atomic units:")
    return "\n".join(lines)


_TRUE_REPLIES = ["True", "True.", "Correct, this matches current guidelines."]
_FALSE_REPLIES = ["False", "False. This contradicts standard references.", "Incorrect."]
_UNKNOWN_REPLIES = ["Unknown", "I cannot verify this claim."]


def checker_reply(prompt: str) -> Optional[str]:
    """Unknown for anecdotes, a rejection for unpublished data, else about 76% true."""
    _, _, claim = prompt.rpartition("Claim:")
    if _REJECTED_MARK in claim:
        return None
    h = stable_int("check", claim.strip())
    style = h % 3
    if _UNKNOWN_MARK in claim:
        return _UNKNOWN_REPLIES[style % 2]
    if (h // 3) % 100 < 24:
        return _FALSE_REPLIES[style]
    return _TRUE_REPLIES[style]


_QUESTIONS_WANTED = re.compile(r"write (\d+) self-contained questions")
_CLEAN_QUESTIONS = [
    "What is the first-line treatment for {t}?",
    "Which diagnostic test confirms {t}?",
    "What complications are associated with untreated {t}?",
    "At what age should screening for {t} begin?",
    "How common is {t} in the general population?",
    "Which drug classes are contraindicated in {t}?",
    "What is the mechanism of disease in {t}?",
    "How is {t} distinguished from its mimics?",
]
# Each one matches a packaged filter rule, so about one question in five
# is context-dependent and should be dropped.
_TAINTED_QUESTIONS = [
    "What method was used to assess {t} in the cohort?",
    "How do the findings of this study apply to {t}?",
    "Which outcomes of {t} were reported by the authors?",
]


def question_generator_reply(prompt: str) -> Tuple[str, int]:
    """A numbered question list and the number of distinct questions in it.

    Some replies start with a preamble, repeat a question, or add a
    non-question item; the count excludes those.
    """
    match = _QUESTIONS_WANTED.search(prompt)
    count = int(match.group(1)) if match else 5
    rng = random.Random(f"qgen:{stable_int('qgen', prompt)}")
    chosen: List[str] = []
    while len(chosen) < count:
        templates = _TAINTED_QUESTIONS if rng.random() < 0.2 else _CLEAN_QUESTIONS
        question = rng.choice(templates).format(t=rng.choice(_TOPICS))
        if question not in chosen:
            chosen.append(question)
    items = list(chosen)
    if rng.random() < 0.1:
        items.insert(rng.randint(1, len(items)), rng.choice(chosen))
    if rng.random() < 0.1:
        items.append("Further reading: national guidelines")
    lines = [f"{i}. {q}" for i, q in enumerate(items, start=1)]
    if rng.random() < 0.3:
        lines.insert(0, "Here are the questions:")
    return "\n".join(lines), len(chosen)


def categorizer_reply(prompt: str) -> str:
    """An exact label, a label inside a sentence, no label, or two labels."""
    labels = [line[2:].strip() for line in prompt.splitlines() if line.startswith("- ")]
    _, _, question = prompt.rpartition("Question:")
    h = stable_int("cat", question.strip())
    first = labels[h % len(labels)]
    second = labels[(h // 97) % len(labels)]
    kind = (h // 10007) % 100
    if kind < 55:
        return first
    if kind < 80:
        return f"This question belongs to {first}."
    if kind < 92:
        return "None of the listed fields fits well."
    return f"Either {first} or {second}."


def eval_models(answers: Dict[str, str]) -> Dict[str, Reply]:
    def generator(prompt: str) -> Optional[str]:
        return answers.get(prompt)

    return {"generator": generator, "splitter": splitter_reply, "checker": checker_reply}


class SimBackend:
    """Zero-latency in-process backend for one role.

    calls and rejected are plain counters: the workloads that use this
    backend drive it from one thread.
    """

    def __init__(self, role: str, reply: Reply) -> None:
        self.backend_id = role
        self.model = f"sim-{role}"
        self._reply = reply
        self.calls = 0
        self.rejected = 0

    def complete(self, req: ChatRequest) -> ChatResponse:
        self.calls += 1
        text = self._reply(req.user_prompt)
        if text is None:
            self.rejected += 1
            raise PermanentBackendError(f"backend {self.backend_id}: request rejected")
        return ChatResponse(text=text)


# --- simulated HTTP server ----------------------------------------------------

# Median simulated model latency per role, in ms. Latency is lognormal
# with this median, capped at 8x the median.
MEDIAN_LATENCY_MS = {"generator": 60.0, "splitter": 24.0, "checker": 8.0}
_LATENCY_SIGMA = 0.6
_UNIT_NORMAL = NormalDist()


def latency_s(role: str, prompt: str) -> float:
    u = (stable_int("latency", role, prompt) % 1_000_000 + 0.5) / 1_000_000
    factor = min(8.0, math.exp(_LATENCY_SIGMA * _UNIT_NORMAL.inv_cdf(u)))
    return MEDIAN_LATENCY_MS[role] * factor / 1000.0


def busy_status(prompt: str, attempt: int) -> Optional[int]:
    """429 or 503 for about 2% of first and second attempts, never later."""
    if attempt > 2:
        return None
    h = stable_int("busy", prompt, attempt)
    if h % 1000 >= 20:
        return None
    return 429 if h % 2 else 503


class FakeResponse:
    def __init__(self, status_code: int, text: str) -> None:
        self.status_code = status_code
        self.text = text

    def json(self) -> dict:
        return json.loads(self.text)


class FakeSession:
    """Stands in for requests.Session; no socket is opened.

    Each post sleeps for the request's simulated latency (scaled by
    latency_scale; 0 gives a zero-latency server) and answers with the
    role's reply function. injected_s sums the latency it injected.
    """

    def __init__(self, role: str, reply: Reply, latency_scale: float) -> None:
        self._role = role
        self._reply = reply
        self._scale = latency_scale
        self._attempts: Dict[str, int] = {}
        self._lock = threading.Lock()
        self.injected_s = 0.0

    def reset(self) -> None:
        with self._lock:
            self._attempts.clear()
            self.injected_s = 0.0

    def post(self, endpoint: str, json: dict, **_: object) -> FakeResponse:
        prompt = json["messages"][-1]["content"]
        delay = latency_s(self._role, prompt) * self._scale
        with self._lock:
            attempt = self._attempts.get(prompt, 0) + 1
            self._attempts[prompt] = attempt
            status = busy_status(prompt, attempt)
            if status is not None:
                delay *= 0.2
            self.injected_s += delay
        if delay:
            time.sleep(delay)
        if status is not None:
            return FakeResponse(status, '{"error": "server busy"}')
        text = self._reply(prompt)
        if text is None:
            return FakeResponse(400, '{"error": "request rejected"}')
        return FakeResponse(200, _completion_body(text))


def _completion_body(text: str) -> str:
    return json.dumps({"choices": [{"finish_reason": "stop", "message": {"content": text}}]})
