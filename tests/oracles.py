"""Independent reference implementations used only by the tests.

Nothing here imports the package under test. Distribution tails come
from adaptive Simpson quadrature over the raw densities; score
recounts work on plain JSON dicts; apportionment is rewritten from its
definition; sentence segmentation is written directly with regexes.
Agreement between these and the package is what the derived-value
tests assert.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from pathlib import Path


def adaptive_simpson(f, a, b, tol=1e-13, max_depth=60):
    def simpson(fa, fm, fb, lo, hi):
        return (hi - lo) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(lo, hi, fa, fm, fb, whole, tol, depth):
        mid = 0.5 * (lo + hi)
        lm = 0.5 * (lo + mid)
        rm = 0.5 * (mid + hi)
        flm = f(lm)
        frm = f(rm)
        left = simpson(fa, flm, fm, lo, mid)
        right = simpson(fm, frm, fb, mid, hi)
        delta = left + right - whole
        if depth <= 0 or abs(delta) <= 15.0 * tol:
            return left + right + delta / 15.0
        return recurse(lo, mid, fa, flm, fm, left, tol / 2.0, depth - 1) + recurse(
            mid, hi, fm, frm, fb, right, tol / 2.0, depth - 1
        )

    fa, fb, fm = f(a), f(b), f(0.5 * (a + b))
    whole = simpson(fa, fm, fb, a, b)
    return recurse(a, b, fa, fm, fb, whole, tol, max_depth)


def _lbeta(a, b):
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def beta_cdf_quad(a, b, x, tol=1e-13):
    """P(X <= x) for Beta(a, b) by quadrature.

    Substituting t = sin^2(theta) removes the endpoint singularities
    for a, b >= 0.5, leaving a smooth integrand on [0, asin(sqrt(x))].
    """
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    norm = math.exp(-_lbeta(a, b))
    pa = 2.0 * a - 1.0
    pb = 2.0 * b - 1.0

    def integrand(theta):
        return 2.0 * norm * math.sin(theta) ** pa * math.cos(theta) ** pb

    return adaptive_simpson(integrand, 0.0, math.asin(math.sqrt(x)), tol=tol)


def t_two_tailed_quad(t, df, tol=1e-14):
    """P(|T| >= |t|) by integrating the t density from 0 to |t|."""
    if t == 0.0:
        return 1.0
    norm = math.exp(-_lbeta(df / 2.0, 0.5)) / math.sqrt(df)
    power = -(df + 1.0) / 2.0

    def density(u):
        return norm * (1.0 + u * u / df) ** power

    return 1.0 - 2.0 * adaptive_simpson(density, 0.0, abs(t), tol=tol)


def f_upper_tail_quad(f_stat, d1, d2, tol=1e-14):
    """P(F >= f_stat) by integrating the F density over [0, f_stat].

    Substituting w = v^2 tames the w^(d1/2 - 1) endpoint factor for
    any d1 >= 1.
    """
    if f_stat <= 0.0:
        return 1.0
    norm = math.exp((d1 / 2.0) * math.log(d1 / d2) - _lbeta(d1 / 2.0, d2 / 2.0))
    power = -(d1 + d2) / 2.0

    def integrand(v):
        return 2.0 * norm * v ** (d1 - 1.0) * (1.0 + d1 * v * v / d2) ** power

    return 1.0 - adaptive_simpson(integrand, 0.0, math.sqrt(f_stat), tol=tol)


def normal_two_tailed(t):
    return math.erfc(abs(t) / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# Scoring recount over plain record dicts (as read back from JSONL)


def recount_scores(record_dicts):
    """Brute-force recount of the aggregate score from raw dicts.

    Returns (dahl, per_category, status_counts) where per_category maps
    label -> (mean precision, n) over records whose status is checked
    or scored.
    """
    precisions = []
    by_category = {}
    status_counts = {}
    for rec in record_dicts:
        status = rec["status"]
        status_counts[status] = status_counts.get(status, 0) + 1
        if status not in ("checked", "scored"):
            continue
        verdicts = [u["verdict"] for u in rec["units"]]
        precision = sum(1 for v in verdicts if v == "True") / len(verdicts)
        precisions.append(precision)
        by_category.setdefault(rec["category"], []).append(precision)
    dahl = sum(precisions) / len(precisions) if precisions else None
    per_category = {
        label: (sum(vals) / len(vals), len(vals)) for label, vals in by_category.items()
    }
    return dahl, per_category, status_counts


def apportion_oracle(sizes, target):
    """Largest-remainder apportionment, written out from the definition."""
    total = sum(sizes.values())
    quotas = {k: Fraction(target) * Fraction(v, total) for k, v in sizes.items()}
    floors = {k: q.numerator // q.denominator for k, q in quotas.items()}
    remainders = {k: quotas[k] - floors[k] for k in sizes}
    short = target - sum(floors.values())
    ranked = sorted(sizes, key=lambda k: (-remainders[k], -sizes[k], k))
    result = dict(floors)
    for k in ranked[:short]:
        result[k] += 1
    return result


# ---------------------------------------------------------------------------
# Sentence segmentation written directly with regexes. It searches the
# whole prefix at every period, so it is quadratic in the text length;
# use it on short texts only.

ABBREVIATIONS_FILE = (
    Path(__file__).resolve().parents[1] / "src" / "dahl" / "data" / "abbreviations.txt"
)


def load_abbreviations_oracle():
    lines = (line.strip() for line in ABBREVIATIONS_FILE.read_text(encoding="utf-8").splitlines())
    return frozenset(line for line in lines if line and not line.startswith("#"))


# Every code point that the regex \s, str.isspace() and str.split() treat
# as whitespace; the three agree across all of Unicode.
WHITESPACE = (
    "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680"
    + "".join(map(chr, range(0x2000, 0x200B)))
    + "\u2028\u2029\u202f\u205f\u3000"
)
CURLY_QUOTES = "\u2018\u2019\u201c\u201d"

_QUOTE_FOLD = str.maketrans({"\u2018": "'", "\u2019": "'", "\u201c": '"', "\u201d": '"'})


def _normalize_key_oracle(text):
    t = re.sub(r"\s+", " ", text.translate(_QUOTE_FOLD)).strip().casefold()
    return t.rstrip("\"')]" + ".!?" + " ")


def _is_boundary_oracle(text, punct_end, abbreviations):
    rest = text[punct_end:]
    stripped = rest.lstrip()
    if stripped == rest:
        return False
    if not stripped:
        return False
    nxt = stripped[0]
    if nxt in "\"'" and len(stripped) > 1:
        nxt = stripped[1]
    if not (nxt.isupper() or nxt.isdigit()):
        return False
    if text[punct_end - 1] == "." and (punct_end < 2 or text[punct_end - 2] != "."):
        before = re.search(r"([\w][\w.]*)$", text[: punct_end - 1])
        if before and before.group(1) in abbreviations:
            return False
    return True


def segment_sentences_oracle(text):
    """[(sentence text, normalized key)] as the regex-based segmenter gives them."""
    if not text.strip():
        return []
    abbreviations = load_abbreviations_oracle()
    cuts = [
        m.end()
        for m in re.finditer(r"[.!?]+", text)
        if _is_boundary_oracle(text, m.end(), abbreviations)
    ]
    pieces = []
    start = 0
    for cut in cuts + [len(text)]:
        piece = text[start:cut].strip()
        if piece:
            pieces.append((piece, _normalize_key_oracle(piece)))
        start = cut
    return pieces


# ---------------------------------------------------------------------------
# Categorizer reply resolution as first written: every label's regex is
# built on every call. Works on a plain tuple of labels and returns
# (label, matched, ambiguous).


def resolve_category_reply_oracle(reply, labels):
    by_key = {label.strip().casefold(): label for label in labels}
    exact = by_key.get(reply.strip().casefold())
    if exact is not None:
        return exact, (exact,), False

    folded = reply.casefold()
    claimed = []
    hits = []
    for label in sorted(labels, key=len, reverse=True):
        pattern = re.compile(r"(?<!\w)" + re.escape(label.casefold()) + r"(?!\w)")
        for match in pattern.finditer(folded):
            span = (match.start(), match.end())
            if any(s <= span[0] and span[1] <= e for s, e in claimed):
                continue
            claimed.append(span)
            hits.append((match.start(), label))
            break
    hits.sort()
    matched = tuple(label for _, label in hits)
    if not matched:
        return "Other", (), False
    return matched[0], matched, len(set(matched)) > 1
