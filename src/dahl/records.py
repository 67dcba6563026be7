"""JSONL persistence: atomic writes, per-line read diagnostics.

One JSON object per line, UTF-8, keys sorted alphabetically. Writers
stream through a temp file in the target directory followed by rename,
so a crash never leaves a partially written file visible and a write
holds one line in memory, not the file. Every input file, JSONL or
not, is read through read_lines.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, TextIO

from .types import CategorySet, EvalRecord, Question, SourceDocument, validate_record


@dataclass(frozen=True)
class LineDiagnostic:
    """A problem with one line of a JSONL file."""

    line_no: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line_no}: {self.message}"


# One encoder for every line: json.dumps with these options would build a new one per call.
dumps_compact = json.JSONEncoder(sort_keys=True, ensure_ascii=False, separators=(",", ":")).encode


@contextmanager
def atomic_writer(path: str) -> Iterator[TextIO]:
    """Open path for writing text; it appears only when the block exits cleanly.

    Writes go to a temp file in the same directory, which is fsynced and
    renamed over path on a clean exit and unlinked on any exception,
    leaving an earlier file at path untouched.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp.", suffix=os.path.basename(path))
    try:
        # A 64 KB buffer makes one write call per many lines, not one per line.
        with os.fdopen(fd, "w", encoding="utf-8", buffering=1 << 16) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via temp-file-then-rename in the same directory."""
    with atomic_writer(path) as fh:
        fh.write(text)


def write_records(records: Iterable, path: str) -> int:
    """Write records (anything with to_dict) as JSONL, one line at a time. Returns the count."""
    count = 0
    with atomic_writer(path) as fh:
        for record in records:
            fh.write(dumps_compact(record.to_dict()) + "\n")
            count += 1
    return count


def read_lines(path: str) -> Iterator[str]:
    """The lines of the input file at path, decoded as UTF-8; every input file is read here.

    A leading byte-order mark is skipped; bytes that are not UTF-8 raise ValueError naming path.
    """
    with open(path, encoding="utf-8-sig") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            bad = exc.object[exc.start : exc.end]
            raise ValueError(f"{path}: not UTF-8: {exc.reason} at {bad!r}") from None


def parse_jsonl(lines: Iterable[str], parse: Callable, check: Optional[Callable] = None):
    """The one JSONL loop: parse every non-blank line, collect diagnostics for the rest.

    parse turns a line's JSON object into a value and raises on malformed
    data; check returns a list of invariant violations for an otherwise
    well-formed value. Returns (values, diagnostics).
    """
    items, diagnostics = [], []
    for line_no, raw in enumerate(lines, start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            diagnostics.append(LineDiagnostic(line_no, f"invalid JSON: {exc}"))
            continue
        if not isinstance(obj, dict):
            diagnostics.append(LineDiagnostic(line_no, "line is not a JSON object"))
            continue
        try:
            item = parse(obj)
        except (KeyError, TypeError, ValueError) as exc:
            diagnostics.append(LineDiagnostic(line_no, f"cannot parse record: {exc}"))
            continue
        violations = check(item) if check is not None else []
        if violations:
            diagnostics.append(LineDiagnostic(line_no, "; ".join(violations)))
            continue
        items.append(item)
    return items, diagnostics


def parse_jsonl_or_raise(where: str, lines: Iterable[str], parse: Callable, check=None) -> list:
    """parse_jsonl's values; its first diagnostic raises ValueError naming where."""
    items, diagnostics = parse_jsonl(lines, parse, check)
    if diagnostics:
        raise ValueError(f"{where}: {diagnostics[0]}")
    return items


def unique(key: Callable, what: str) -> Callable:
    """A parse_jsonl check that refuses a value whose key an earlier value had."""
    seen = set()

    def check(item) -> list:
        if key(item) in seen:
            return [f"duplicate {what} {key(item)!r}"]
        seen.add(key(item))
        return []

    return check


def repeated(keys: Iterable) -> list:
    """The keys that occur more than once, sorted; empty when all are distinct."""
    return sorted(key for key, n in Counter(keys).items() if n > 1)


def read_eval_records(path: str):
    """Read EvalRecords; invariant-violating lines become diagnostics."""
    return parse_jsonl(read_lines(path), EvalRecord.from_dict, validate_record)


def read_questions(path: str, category_set: Optional[CategorySet] = None):
    """Read Questions, optionally enforcing the closed category set."""

    def check(q: Question) -> list:
        if category_set is None or q.category in category_set:
            return []
        return [f"category {q.category!r} is not one of the {len(category_set)} configured labels"]

    return parse_jsonl(read_lines(path), Question.from_dict, check)


def read_source_documents(path: str):
    """Read a corpus; duplicate ids and empty fields become diagnostics."""
    check = unique(lambda doc: doc.doc_id, "doc_id")
    return parse_jsonl(read_lines(path), SourceDocument.from_dict, check)
