"""Every kind of input file, read the same way through the command line.

Each file a person curates is UTF-8: a leading byte-order mark (as
Windows editors and Excel's "CSV UTF-8" write it) is skipped, and a byte
that is not UTF-8 stops the command with `error: <path>: …`, naming the
file. The table below runs one command per input kind twice, once with a
plain file and once with the same file behind a byte-order mark, and
compares everything the command prints and writes.
"""

from __future__ import annotations

import json
import os

import pytest

from dahl.cli import main
from dahl.dataset import FilterRule
from dahl.defaults import PROMPTS
from dahl.records import write_records
from dahl.types import Question, Status, Verdict

from factories import make_record

BOM = b"\xef\xbb\xbf"  # U+FEFF in UTF-8

CONFIG = """\
backends:
  generator: {kind: mock, model: mock-small}
  splitter: {kind: mock, model: mock-splitter}
  checker: {kind: mock, model: mock-checker}
  categorizer: {kind: mock, model: mock-categorizer}
  question_generator: {kind: mock, model: mock-qgen}
category_file: categories.txt
rules_file: rules.jsonl
overrides_file: overrides.json
prompts: {checker: checker.txt}
concurrency: 1
"""
RULE = {"rule_id": "report_verb", "pattern": r"\b(reported|described)\b", "description": "verb"}
CORPUS = [
    {"doc_id": "d1", "title": "Gout", "body": "Colchicine treats acute gout flares."},
    {"doc_id": "d2", "title": "Angina", "body": "Nitrates relieve stable angina quickly."},
]
QUESTIONS = [
    Question("q1", "Which bone forms the heel?", "Anatomy", "d1"),
    Question("q2", "What relieves stable angina?", "Cardiology", "d2"),
    Question("q3", "Which nerve supplies the diaphragm?", "Anatomy", "d1"),
]
PRECISIONS = {"h1": (Verdict.TRUE, Verdict.FALSE), "h2": (Verdict.TRUE,), "h3": (Verdict.FALSE,)}
HUMAN = {"h1": 0.4, "h2": 0.9, "h3": 0.1}


def _write_inputs(directory) -> None:
    """One file of every input kind, all valid, in directory."""
    texts = {
        "run.yaml": CONFIG,
        "categories.txt": "Anatomy\nCardiology\nOther\n",
        "rules.jsonl": json.dumps(RULE) + "\n",
        "overrides.json": json.dumps({"force_drop": ["Which bone forms the heel?"]}) + "\n",
        "checker.txt": PROMPTS["checker"],
        "corpus.jsonl": "".join(json.dumps(doc) + "\n" for doc in CORPUS),
        "a.txt": "score\n0.1 0.2 0.3\n0.5, 0.4\n",
        "b.txt": "0.3 0.6\n0.9 0.2\n",
        "pairs.csv": "id,x,y\n1,0.1,0.2\n2,0.4,0.3\n3,0.9,0.8\n",
        "pairs.jsonl": '{"x": 0.1, "y": 0.2}\n{"x": 0.4, "y": 0.3}\n{"x": 0.9, "y": 0.8}\n',
        "human.csv": "question_id,score\n" + "".join(f"{q},{s}\n" for q, s in HUMAN.items()),
        "human.jsonl": "".join(
            json.dumps({"question_id": q, "score": s}) + "\n" for q, s in HUMAN.items()
        ),
    }
    for name, text in texts.items():
        (directory / name).write_text(text, encoding="utf-8")
    write_records(QUESTIONS, str(directory / "questions.jsonl"))
    records = [make_record(qid=q, verdicts=v, status=Status.SCORED) for q, v in PRECISIONS.items()]
    write_records(records, str(directory / "records.jsonl"))


BUILD = ["build-dataset", "--config", "{dir}/run.yaml", "--corpus", "{dir}/corpus.jsonl"]
BUILD += ["--out", "{dir}/out"]
EVALUATE = ["evaluate", "--config", "{dir}/run.yaml", "--questions", "{dir}/questions.jsonl"]
EVALUATE += ["--out", "{dir}/out"]
SCORE = ["score", "--records", "{dir}/records.jsonl", "--out-dir", "{dir}/out"]
TTEST = ["stats", "ttest", "--a", "{dir}/a.txt", "--b", "{dir}/b.txt"]
COMPARE = ["compare-human", "--records", "{dir}/records.jsonl", "--human"]

# (input kind, the file of that kind, a command that reads it)
KINDS = [
    ("corpus", "corpus.jsonl", BUILD),
    ("questions", "questions.jsonl", EVALUATE),
    ("records", "records.jsonl", SCORE),
    ("config", "run.yaml", EVALUATE),
    ("prompt", "checker.txt", EVALUATE),
    ("categories", "categories.txt", EVALUATE),
    ("rules", "rules.jsonl", BUILD),
    ("overrides", "overrides.json", BUILD),
    ("numbers", "a.txt", TTEST),
    ("pairs-csv", "pairs.csv", ["stats", "pearson", "--pairs", "{dir}/pairs.csv"]),
    ("pairs-jsonl", "pairs.jsonl", ["stats", "pearson", "--pairs", "{dir}/pairs.jsonl"]),
    ("human-csv", "human.csv", COMPARE + ["{dir}/human.csv"]),
    ("human-jsonl", "human.jsonl", COMPARE + ["{dir}/human.jsonl"]),
]
KIND_IDS = [kind for kind, _, _ in KINDS]


def _run(capsys, directory, argv):
    """Exit code, stdout, stderr and the bytes of each output file, with directory masked."""
    code = main([arg.format(dir=directory) for arg in argv])
    captured = capsys.readouterr()
    out_dir = directory / "out"
    outputs = {}
    if out_dir.is_dir():
        for name in sorted(os.listdir(out_dir)):
            if not name.startswith("cache."):  # the response cache is SQLite, not a report
                outputs[name] = (out_dir / name).read_bytes()
    mask = str(directory)
    return code, captured.out.replace(mask, "{dir}"), captured.err.replace(mask, "{dir}"), outputs


@pytest.mark.parametrize("kind, name, argv", KINDS, ids=KIND_IDS)
def test_a_byte_order_mark_is_skipped(tmp_path, capsys, kind, name, argv):
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    for directory in (plain, marked):
        directory.mkdir()
        _write_inputs(directory)
    path = marked / name
    path.write_bytes(BOM + path.read_bytes())

    expected = _run(capsys, plain, argv)
    assert expected[0] == 0, expected[2]
    assert _run(capsys, marked, argv) == expected


@pytest.mark.parametrize("kind, name, argv", KINDS, ids=KIND_IDS)
def test_a_byte_that_is_not_utf8_stops_the_command_naming_the_file(
    tmp_path, capsys, kind, name, argv
):
    _write_inputs(tmp_path)
    path = tmp_path / name
    data = path.read_bytes()
    assert b"\n" in data
    path.write_bytes(data.replace(b"\n", b" \xe9\n", 1))  # Latin-1 "e acute" ending line 1

    code, stdout, stderr, outputs = _run(capsys, tmp_path, argv)
    assert code == 1
    assert stdout == ""
    assert stderr.startswith(f"error: {{dir}}/{name}: not UTF-8: ")
    assert "Traceback" not in stderr
    assert outputs == {}


@pytest.mark.parametrize(
    "rule_id, message",
    [
        (None, "rule_id must be non-empty"),
        (" ", "rule_id must be non-empty"),
        (
            "r\ud800",
            "rule_id holds U+D800 at position 1, an unpaired surrogate that UTF-8 cannot encode",
        ),
        ("ambiguous_category", "rule_id 'ambiguous_category' is reserved for the build"),
    ],
    ids=["null", "blank", "surrogate", "reserved"],
)
def test_a_bad_rule_id_is_refused_naming_the_line(tmp_path, capsys, rule_id, message):
    _write_inputs(tmp_path)
    line = json.dumps({"rule_id": rule_id, "pattern": "x"})  # escapes the surrogate as \ud800
    (tmp_path / "rules.jsonl").write_text(json.dumps(RULE) + "\n" + line + "\n", encoding="utf-8")

    code, stdout, stderr, outputs = _run(capsys, tmp_path, BUILD)
    assert code == 1
    assert stderr == f"error: {{dir}}/rules.jsonl: line 2: cannot parse record: {message}\n"
    assert outputs == {}


def test_a_broken_pattern_is_a_value_error():
    with pytest.raises(ValueError, match=r"^pattern '\(unclosed': missing \), unterminated"):
        FilterRule(rule_id="broken", pattern="(unclosed")
