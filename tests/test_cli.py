"""End-to-end command line tests, all running against mock backends."""

from __future__ import annotations

import json
import os
import textwrap
import threading
import time
from types import SimpleNamespace

import pytest
import requests

from factories import make_record
from dahl import mocks
from dahl.cli import main
from dahl.records import read_eval_records, read_questions, write_records
from dahl.stats import f_test_equal_variance, pearson, t_test
from dahl.types import Question, Status, Verdict


CONFIG_TEXT = textwrap.dedent(
    """
    backends:
      generator: {kind: mock, model: mock-small}
      splitter: {kind: mock, model: mock-splitter}
      checker: {kind: mock, model: mock-checker}
      categorizer: {kind: mock, model: mock-categorizer}
      question_generator: {kind: mock, model: mock-qgen}
    generation:
      temperature: 0.3
      max_tokens: 400
    concurrency: 2
    """
)


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(CONFIG_TEXT, encoding="utf-8")
    return str(path)


@pytest.fixture
def questions_path(tmp_path):
    questions = []
    categories = ["Medicine", "Surgery", "Cardiology"]
    for i in range(12):
        questions.append(
            Question(
                question_id=f"q{i:02d}",
                text=f"What is the recommended management for presentation {i}?",
                category=categories[i % len(categories)],
                source_doc_id=f"d{i % 4}",
            )
        )
    path = tmp_path / "questions.jsonl"
    write_records(questions, str(path))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_end_to_end(tmp_path, capsys, config_path, questions_path):
    out = tmp_path / "out"
    code, stdout, stderr = run_cli(
        capsys,
        ["evaluate", "--config", config_path, "--questions", questions_path, "--out", str(out)],
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["model_id"] == "mock-small"
    assert 0.0 <= payload["dahl_score"] <= 1.0
    assert payload["records"] == str(out / "records.jsonl")
    assert payload["n_scored"] >= 1

    for name in ("records.jsonl", "report.json", "report.csv", "report.md"):
        assert (out / name).exists(), name
    records, diagnostics = read_eval_records(str(out / "records.jsonl"))
    assert not diagnostics
    assert len(records) == 12
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["dahl_score"] == payload["dahl_score"]
    assert report["n_scored"] == payload["n_scored"]


def test_evaluate_warns_about_five_bad_question_lines_and_counts_the_rest(
    tmp_path, capsys, config_path, questions_path
):
    with open(questions_path, encoding="utf-8") as fh:
        good = fh.read().splitlines()
    lines = []
    for i, line in enumerate(good):
        lines.append(line)
        if i < 7:
            lines.append("{torn" if i % 2 else "[1, 2]")
    path = tmp_path / "mixed.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"

    code, _, stderr = run_cli(
        capsys, ["evaluate", "--config", config_path, "--questions", str(path), "--out", str(out)]
    )
    assert code == 0
    warnings = stderr.splitlines()
    assert [w.split(": ")[2] for w in warnings[:5]] == [f"line {n}" for n in (2, 4, 6, 8, 10)]
    assert warnings[5:] == [f"warning: {path}: +2 more bad lines"]
    records, _ = read_eval_records(str(out / "records.jsonl"))
    assert [r.question_id for r in records] == [f"q{i:02d}" for i in range(12)]


def test_evaluate_stop_after_then_resume_matches_straight_run(
    tmp_path, capsys, config_path, questions_path
):
    straight = tmp_path / "straight"
    code, _, _ = run_cli(
        capsys,
        ["evaluate", "--config", config_path, "--questions", questions_path, "--out", str(straight)],
    )
    assert code == 0

    stepped = tmp_path / "stepped"
    code, stdout, stderr = run_cli(
        capsys,
        [
            "evaluate",
            "--config",
            config_path,
            "--questions",
            questions_path,
            "--out",
            str(stepped),
            "--stop-after",
            "generate",
        ],
    )
    assert code == 0
    assert stdout == ""
    assert "stopped after generate" in stderr
    assert not (stepped / "report.json").exists()
    partial, _ = read_eval_records(str(stepped / "records.jsonl"))
    assert all(r.status is Status.PENDING or r.status is Status.FAILED for r in partial)

    code, _, _ = run_cli(
        capsys,
        [
            "evaluate",
            "--config",
            config_path,
            "--questions",
            questions_path,
            "--out",
            str(stepped),
            "--resume",
        ],
    )
    assert code == 0
    for name in ("records.jsonl", "report.json"):
        assert (stepped / name).read_bytes() == (straight / name).read_bytes(), name


def test_evaluate_resume_at_another_temperature_is_refused(
    tmp_path, capsys, config_path, questions_path
):
    out = str(tmp_path / "out")
    argv = ["evaluate", "--config", config_path, "--questions", questions_path, "--out", out]
    code, _, _ = run_cli(capsys, argv + ["--temperature", "0.2", "--stop-after", "generate"])
    assert code == 0
    before = (tmp_path / "out" / "records.jsonl").read_bytes()

    code, stdout, stderr = run_cli(capsys, argv + ["--temperature", "0.9", "--resume"])

    assert code == 1
    assert stdout == ""
    assert "cannot resume: gen_config was" in stderr and "'temperature': 0.9" in stderr
    assert (tmp_path / "out" / "records.jsonl").read_bytes() == before
    assert not (tmp_path / "out" / "report.json").exists()


def test_evaluate_temperature_override_changes_generations(
    tmp_path, capsys, config_path, questions_path
):
    cold = tmp_path / "cold"
    hot = tmp_path / "hot"
    for out, temp in ((cold, "0.2"), (hot, "0.9")):
        code, _, _ = run_cli(
            capsys,
            [
                "evaluate",
                "--config",
                config_path,
                "--questions",
                questions_path,
                "--out",
                str(out),
                "--temperature",
                temp,
            ],
        )
        assert code == 0
    assert (cold / "records.jsonl").read_bytes() != (hot / "records.jsonl").read_bytes()


def test_evaluate_missing_config_reports_error(tmp_path, capsys, questions_path):
    code, stdout, stderr = run_cli(
        capsys,
        [
            "evaluate",
            "--config",
            str(tmp_path / "nope.yaml"),
            "--questions",
            questions_path,
            "--out",
            str(tmp_path / "o"),
        ],
    )
    assert code == 1
    assert stderr.startswith("error: ")
    assert stdout == ""


def test_evaluate_with_a_cache_file_that_is_not_a_database_exits_1(
    tmp_path, capsys, questions_path
):
    config = tmp_path / "http.yaml"
    config.write_text(
        CONFIG_TEXT.replace(
            "generator: {kind: mock, model: mock-small}",
            "generator: {kind: http, model: m, endpoint: 'http://gen.test/v1/chat'}",
            1,
        ),
        encoding="utf-8",
    )
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "cache.sqlite").write_text("not a database " * 20, encoding="utf-8")
    code, stdout, stderr = run_cli(
        capsys,
        [
            "evaluate",
            "--config",
            str(config),
            "--cache-dir",
            str(cache),
            "--questions",
            questions_path,
            "--out",
            str(tmp_path / "o"),
        ],
    )
    assert code == 1
    assert stdout == ""
    assert stderr.startswith(f"error: response cache {cache / 'cache.sqlite'}: ")


def test_failed_command_closes_the_cache_it_opened(tmp_path, capsys, questions_path):
    # The generator's cached backend is built before the missing checker
    # role stops the command.
    config = tmp_path / "http.yaml"
    config.write_text(
        CONFIG_TEXT.replace(
            "generator: {kind: mock, model: mock-small}",
            "generator: {kind: http, model: m, endpoint: 'http://gen.test/v1/chat'}",
            1,
        ).replace("  checker: {kind: mock, model: mock-checker}\n", ""),
        encoding="utf-8",
    )
    cache = tmp_path / "cache"
    code, stdout, stderr = run_cli(
        capsys,
        [
            "evaluate",
            "--config",
            str(config),
            "--cache-dir",
            str(cache),
            "--questions",
            questions_path,
            "--out",
            str(tmp_path / "o"),
        ],
    )
    assert code == 1
    assert "checker" in stderr
    assert os.listdir(cache) == ["cache.sqlite"]


class _CheckerEndpoint:
    """Stands in for requests.Session.post: replies as the mock checker and counts calls in flight.

    The first `together` calls each wait until that many are in flight at
    once, so a run that never gets them all out together breaks the barrier.
    """

    def __init__(self, together=0):
        self.lock = threading.Lock()
        self.calls = self.now = self.peak = 0
        self.together = together
        self.barrier = threading.Barrier(together, timeout=5) if together else None

    def post(self, url, json=None, headers=None, timeout=None):
        with self.lock:
            self.calls += 1
            waits = self.calls <= self.together
            self.now += 1
            self.peak = max(self.peak, self.now)
        try:
            if waits:
                self.barrier.wait()
            else:
                time.sleep(0.001)
            prompt = SimpleNamespace(user_prompt=json["messages"][-1]["content"])
            payload = {"choices": [{"message": {"content": mocks.checker_reply(prompt)}}]}
            return SimpleNamespace(status_code=200, json=lambda: payload)
        finally:
            with self.lock:
                self.now -= 1


def _evaluate_with_http_checker(tmp_path, capsys, setting, concurrency, out):
    """Run evaluate over 40 questions with an HTTP checker entry that carries setting."""
    questions = tmp_path / "forty.jsonl"
    write_records(
        [
            Question(f"q{i:02d}", f"What is the management of presentation {i}?", "Medicine", "d")
            for i in range(40)
        ],
        str(questions),
    )
    checker = f"{{kind: http, model: c, endpoint: 'http://check.test/v1/chat'{setting}}}"
    config = tmp_path / "http-checker.yaml"
    config.write_text(BACKENDS.replace("{kind: mock, model: c}", checker), encoding="utf-8")
    argv = ["evaluate", "--config", str(config), "--questions", str(questions)]
    code, _, stderr = run_cli(capsys, argv + ["--out", str(out), "--concurrency", concurrency])
    assert code == 0, stderr


def test_an_http_checker_without_a_cap_gets_as_many_calls_in_flight_as_the_run(
    tmp_path, capsys, monkeypatch
):
    endpoint = _CheckerEndpoint(together=16)
    monkeypatch.setattr(requests.Session, "post", endpoint.post)
    _evaluate_with_http_checker(tmp_path, capsys, "", "16", tmp_path / "out")
    assert endpoint.peak == 16
    assert endpoint.now == 0


def test_an_http_checker_keeps_to_its_cap_and_writes_the_same_bytes_with_or_without_one(
    tmp_path, capsys, monkeypatch
):
    outputs = set()
    for setting, cap in (("", None), (", max_concurrency: 2", 2)):
        for concurrency in ("1", "16"):
            endpoint = _CheckerEndpoint()
            monkeypatch.setattr(requests.Session, "post", endpoint.post)
            out = tmp_path / f"out-{cap}-{concurrency}"
            _evaluate_with_http_checker(tmp_path, capsys, setting, concurrency, out)
            assert 1 <= endpoint.peak <= min(cap or 16, int(concurrency))
            names = ("records.jsonl", "report.json", "report.csv", "report.md")
            outputs.add(tuple((out / name).read_bytes() for name in names))
    assert len(outputs) == 1


class _GeneratorEndpoint:
    """Stands in for requests.Session.post as the mock generator; raises from post dies_at on."""

    def __init__(self, dies_at=None):
        self.lock = threading.Lock()
        self.calls = 0
        self.dies_at = dies_at

    def post(self, url, json=None, headers=None, timeout=None):
        with self.lock:
            self.calls += 1
            if self.dies_at is not None and self.calls >= self.dies_at:
                raise RuntimeError("generator process died")
        request = SimpleNamespace(
            user_prompt=json["messages"][-1]["content"],
            gen_config=SimpleNamespace(temperature=json["temperature"]),
        )
        payload = {"choices": [{"message": {"content": mocks.generator_reply(request)}}]}
        return SimpleNamespace(status_code=200, json=lambda: payload)


def test_an_http_run_caches_under_out_by_default_and_resume_posts_only_the_rest(
    tmp_path, capsys, monkeypatch, questions_path
):
    config = tmp_path / "http-generator.yaml"
    generator = "{kind: http, model: g, endpoint: 'http://gen.test/v1/chat'}"
    config.write_text(BACKENDS.replace("{kind: mock, model: g}", generator), encoding="utf-8")
    argv = ["evaluate", "--config", str(config), "--questions", questions_path]
    argv += ["--concurrency", "2"]
    straight, out = tmp_path / "straight", tmp_path / "out"

    endpoint = _GeneratorEndpoint()
    monkeypatch.setattr(requests.Session, "post", endpoint.post)
    code, _, stderr = run_cli(capsys, argv + ["--out", str(straight)])
    assert code == 0, stderr
    assert endpoint.calls == 12

    monkeypatch.setattr(requests.Session, "post", _GeneratorEndpoint(dies_at=5).post)
    with pytest.raises(RuntimeError, match="generator process died"):
        main(argv + ["--out", str(out)])
    assert sorted(os.listdir(out)) == ["cache.sqlite", "run_manifest.json"]

    endpoint = _GeneratorEndpoint()
    monkeypatch.setattr(requests.Session, "post", endpoint.post)
    code, _, stderr = run_cli(capsys, argv + ["--out", str(out), "--resume"])
    assert code == 0, stderr
    assert endpoint.calls == 12 - 4
    for name in ("records.jsonl", "report.json", "report.csv", "report.md"):
        assert (out / name).read_bytes() == (straight / name).read_bytes(), name


def test_cli_requires_a_command(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main([])
    assert exc_info.value.code == 2


# ---------------------------------------------------------------------------
# score


def test_score_reaggregates_a_records_file(tmp_path, capsys):
    records = [
        make_record(qid="a", verdicts=(Verdict.TRUE, Verdict.TRUE), status=Status.CHECKED),
        make_record(qid="b", verdicts=(Verdict.TRUE, Verdict.FALSE), status=Status.CHECKED),
    ]
    records_path = tmp_path / "records.jsonl"
    write_records(records, str(records_path))
    out_dir = tmp_path / "reports"

    code, stdout, _ = run_cli(
        capsys,
        ["score", "--records", str(records_path), "--out-dir", str(out_dir), "--model-size", "7B"],
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["dahl_score"] == 0.75
    assert payload["n_scored"] == 2
    assert payload["model_id"] == "test-model"
    markdown = (out_dir / "report.md").read_text(encoding="utf-8")
    assert "| 7B |" in markdown


def test_score_warns_about_a_record_whose_category_is_a_number_and_scores_the_rest(
    tmp_path, capsys
):
    lines = [
        make_record(qid="a", verdicts=(Verdict.TRUE, Verdict.FALSE)).to_dict(),
        {**make_record(qid="b").to_dict(), "category": 5},
        make_record(qid="c", verdicts=(Verdict.TRUE,)).to_dict(),
    ]
    records_path = tmp_path / "records.jsonl"
    records_path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")

    code, stdout, stderr = run_cli(
        capsys, ["score", "--records", str(records_path), "--out-dir", str(tmp_path / "o")]
    )
    assert code == 0
    assert stderr == (
        f"warning: {records_path}: line 2: cannot parse record: category must be text or null\n"
    )
    payload = json.loads(stdout)
    assert (payload["dahl_score"], payload["n_scored"]) == (0.75, 2)


def test_score_empty_records_file_fails(tmp_path, capsys):
    records_path = tmp_path / "records.jsonl"
    records_path.write_text("", encoding="utf-8")
    code, _, stderr = run_cli(
        capsys, ["score", "--records", str(records_path), "--out-dir", str(tmp_path / "o")]
    )
    assert code == 1
    assert "no usable records" in stderr


# ---------------------------------------------------------------------------
# sample


def test_sample_command_and_stats_alias_agree(tmp_path, capsys, questions_path):
    out_a = tmp_path / "a.jsonl"
    out_b = tmp_path / "b.jsonl"
    code, _, stderr = run_cli(
        capsys,
        ["sample", "--questions", questions_path, "--fraction", "0.5", "--seed", "3", "--out", str(out_a)],
    )
    assert code == 0
    assert "sampled 6 of 12 questions" in stderr
    code, _, _ = run_cli(
        capsys,
        [
            "stats",
            "sample",
            "--questions",
            questions_path,
            "--fraction",
            "0.5",
            "--seed",
            "3",
            "--out",
            str(out_b),
        ],
    )
    assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    subset, _ = read_questions(str(out_a))
    assert len(subset) == 6


# ---------------------------------------------------------------------------
# stats subcommands


def test_stats_pearson_from_csv_and_jsonl(tmp_path, capsys):
    xs = [0.1, 0.4, 0.35, 0.8, 0.95, 0.6]
    ys = [0.2, 0.42, 0.3, 0.7, 0.99, 0.52]
    csv_path = tmp_path / "pairs.csv"
    rows = ["question_id,human,model"]
    rows += [f"q{i},{x},{y}" for i, (x, y) in enumerate(zip(xs, ys))]
    csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")

    code, stdout, _ = run_cli(capsys, ["stats", "pearson", "--pairs", str(csv_path)])
    assert code == 0
    payload = json.loads(stdout)
    expected = pearson(xs, ys)
    assert payload["statistic"] == pytest.approx(expected.statistic, rel=1e-12)
    assert payload["p_two_tailed"] == pytest.approx(expected.p_two_tailed, rel=1e-12)
    assert payload["df"] == len(xs) - 2
    assert payload["n"] == len(xs)

    jsonl_path = tmp_path / "pairs.jsonl"
    jsonl_path.write_text(
        "".join(json.dumps({"x": x, "y": y}) + "\n" for x, y in zip(xs, ys)),
        encoding="utf-8",
    )
    code, stdout, _ = run_cli(capsys, ["stats", "pearson", "--pairs", str(jsonl_path)])
    assert code == 0
    assert json.loads(stdout)["statistic"] == pytest.approx(expected.statistic, rel=1e-12)


def test_stats_pearson_csv_keeps_cell_positions_and_drops_trailing_blank_cells(
    tmp_path, capsys
):
    csv_path = tmp_path / "pairs.csv"
    csv_path.write_text("id,x,y,\nq1,0.1,0.2,\nq2,0.4,0.3\nq3,0.9,0.8,,\n\n", encoding="utf-8")
    code, stdout, _ = run_cli(capsys, ["stats", "pearson", "--pairs", str(csv_path)])
    assert code == 0
    payload = json.loads(stdout)
    assert payload["n"] == 3
    assert payload["statistic"] == pytest.approx(
        pearson([0.1, 0.4, 0.9], [0.2, 0.3, 0.8]).statistic, rel=1e-12
    )

    csv_path.write_text("x,y\n0.1,0.2\nq2,0.4,0.3\n", encoding="utf-8")
    code, _, stderr = run_cli(capsys, ["stats", "pearson", "--pairs", str(csv_path)])
    assert code == 1
    assert f"{csv_path}: row 3 has 3 cells, the first row 2" in stderr


def test_a_byte_order_mark_does_not_hide_the_first_row(tmp_path, capsys):
    bom = "\ufeff"
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    a_path.write_text(bom + "5.1\n4.9\n5.3\n", encoding="utf-8")
    b_path.write_text("5.1\n4.9\n5.3\n", encoding="utf-8")
    code, stdout, _ = run_cli(capsys, ["stats", "ftest", "--a", str(a_path), "--b", str(b_path)])
    assert code == 0
    assert json.loads(stdout)["df"] == [2, 2]

    pairs_path = tmp_path / "pairs.csv"
    pairs_path.write_text(bom + "0.1,0.2\n0.4,0.3\n0.9,0.8\n", encoding="utf-8")
    code, stdout, _ = run_cli(capsys, ["stats", "pearson", "--pairs", str(pairs_path)])
    assert code == 0
    assert json.loads(stdout)["n"] == 3

    records_path = tmp_path / "records.jsonl"
    _write_precision_records(records_path, {"h1": 0.0, "h2": 0.5, "h3": 1.0})
    human_path = tmp_path / "human.csv"
    human_path.write_text(bom + "h1,0.0\nh2,0.5\nh3,1.0\n", encoding="utf-8")
    code, stdout, _ = run_cli(
        capsys, ["compare-human", "--records", str(records_path), "--human", str(human_path)]
    )
    assert code == 0
    assert json.loads(stdout)["n"] == 3


def test_stats_pearson_bad_file_reports_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("header,line\nalpha,beta\n", encoding="utf-8")
    code, _, stderr = run_cli(capsys, ["stats", "pearson", "--pairs", str(bad)])
    assert code == 1
    assert "error:" in stderr and "row 2" in stderr


def test_stats_ttest_pooled_and_welch(tmp_path, capsys):
    a = [5.1, 4.9, 5.3, 5.6, 4.8, 5.2, 5.0]
    b = [4.2, 4.4, 4.1, 4.6, 4.3, 4.5]
    a_path = tmp_path / "a.txt"
    b_path = tmp_path / "b.txt"
    a_path.write_text("value\n" + "\n".join(str(v) for v in a) + "\n", encoding="utf-8")
    b_path.write_text("\n".join(str(v) for v in b) + "\n", encoding="utf-8")

    code, stdout, _ = run_cli(capsys, ["stats", "ttest", "--a", str(a_path), "--b", str(b_path)])
    assert code == 0
    payload = json.loads(stdout)
    expected = t_test(a, b)
    assert payload["statistic"] == pytest.approx(expected.statistic, rel=1e-12)
    assert payload["variant"] == "student_pooled"

    code, stdout, _ = run_cli(
        capsys, ["stats", "ttest", "--a", str(a_path), "--b", str(b_path), "--welch"]
    )
    assert code == 0
    payload = json.loads(stdout)
    expected = t_test(a, b, variant="welch")
    assert payload["df"] == pytest.approx(expected.df, rel=1e-12)
    assert payload["variant"] == "welch"


def test_stats_ftest(tmp_path, capsys):
    a = [1.0, 2.0, 3.0, 4.0, 5.0]
    b = [2.0, 2.1, 2.2, 1.9, 1.8, 2.0]
    a_path = tmp_path / "a.csv"
    b_path = tmp_path / "b.csv"
    a_path.write_text(", ".join(str(v) for v in a), encoding="utf-8")
    b_path.write_text("\n".join(str(v) for v in b), encoding="utf-8")
    code, stdout, _ = run_cli(capsys, ["stats", "ftest", "--a", str(a_path), "--b", str(b_path)])
    assert code == 0
    payload = json.loads(stdout)
    expected = f_test_equal_variance(a, b)
    assert payload["statistic"] == pytest.approx(expected.statistic, rel=1e-12)
    assert payload["statistic"] >= 1.0
    assert payload["df"] == [len(a) - 1, len(b) - 1]


# ---------------------------------------------------------------------------
# compare-human


def _write_precision_records(path, precisions):
    verdict_sets = {
        1.0: (Verdict.TRUE, Verdict.TRUE),
        0.75: (Verdict.TRUE, Verdict.TRUE, Verdict.TRUE, Verdict.FALSE),
        0.5: (Verdict.TRUE, Verdict.FALSE),
        0.25: (Verdict.TRUE, Verdict.FALSE, Verdict.FALSE, Verdict.FALSE),
        0.0: (Verdict.FALSE, Verdict.FALSE),
    }
    records = [
        make_record(qid=qid, verdicts=verdict_sets[p], status=Status.SCORED)
        for qid, p in precisions.items()
    ]
    write_records(records, str(path))


def test_compare_human_perfect_agreement(tmp_path, capsys):
    precisions = {"h1": 0.0, "h2": 0.25, "h3": 0.5, "h4": 0.75, "h5": 1.0}
    records_path = tmp_path / "records.jsonl"
    _write_precision_records(records_path, precisions)
    human_path = tmp_path / "human.csv"
    human_path.write_text(
        "question_id,score\n" + "\n".join(f"{q},{s}" for q, s in precisions.items()) + "\n",
        encoding="utf-8",
    )
    code, stdout, _ = run_cli(
        capsys, ["compare-human", "--records", str(records_path), "--human", str(human_path)]
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["r"] == pytest.approx(1.0)
    assert payload["p_two_tailed"] == 0.0
    assert payload["n"] == 5
    assert payload["df"] == 3


def test_compare_human_mean_of_two_annotators(tmp_path, capsys):
    precisions = {"h1": 0.0, "h2": 0.5, "h3": 1.0, "h4": 0.25}
    records_path = tmp_path / "records.jsonl"
    _write_precision_records(records_path, precisions)
    human_path = tmp_path / "human.csv"
    rows = ["question_id,annotator_a,annotator_b"]
    for qid, p in precisions.items():
        rows.append(f"{qid},{p - 0.05},{p + 0.05}")
    human_path.write_text("\n".join(rows) + "\n", encoding="utf-8")

    code, _, stderr = run_cli(
        capsys, ["compare-human", "--records", str(records_path), "--human", str(human_path)]
    )
    assert code == 1
    assert "pass --mean" in stderr

    code, stdout, _ = run_cli(
        capsys,
        ["compare-human", "--records", str(records_path), "--human", str(human_path), "--mean"],
    )
    assert code == 0
    assert json.loads(stdout)["r"] == pytest.approx(1.0)


def test_compare_human_alignment_error_lists_both_sides(tmp_path, capsys):
    precisions = {f"q{i:02d}": (0.0, 0.5, 1.0, 0.25)[i % 4] for i in range(14)}
    records_path = tmp_path / "records.jsonl"
    _write_precision_records(records_path, precisions)
    human_path = tmp_path / "human.csv"
    human_path.write_text("question_id,score\nzz9,0.5\n", encoding="utf-8")

    code, _, stderr = run_cli(
        capsys, ["compare-human", "--records", str(records_path), "--human", str(human_path)]
    )
    assert code == 1
    assert "question ids do not align" in stderr
    assert "scored but not annotated: q00" in stderr
    assert "+4 more" in stderr  # 14 unmatched ids, clipped at 10
    assert "annotated but not scored: zz9" in stderr


@pytest.mark.parametrize(
    "name, text, message",
    [
        (
            "human.csv",
            "question_id,score\nh1,0.2\nh2,0.5\nh1,0.9\n",
            "row 4 repeats question_id 'h1'",
        ),
        (
            "human.jsonl",
            '{"question_id": "h1", "score": 0.2}\n{"question_id": "h1", "score": 0.9}\n',
            "line 2: duplicate question_id 'h1'",
        ),
    ],
    ids=["csv", "jsonl"],
)
def test_compare_human_refuses_a_repeated_question_id(tmp_path, capsys, name, text, message):
    records_path = tmp_path / "records.jsonl"
    _write_precision_records(records_path, {"h1": 0.5, "h2": 1.0})
    human_path = tmp_path / name
    human_path.write_text(text, encoding="utf-8")
    code, stdout, stderr = run_cli(
        capsys, ["compare-human", "--records", str(records_path), "--human", str(human_path)]
    )
    assert code == 1
    assert stdout == ""
    assert f"{human_path}: {message}" in stderr


# ---------------------------------------------------------------------------
# build-dataset


def test_build_dataset_end_to_end(tmp_path, capsys, config_path):
    corpus_path = tmp_path / "corpus.jsonl"
    docs = [
        {
            "doc_id": f"doc-{i}",
            "title": f"Observational study {i} of postoperative outcomes",
            "body": (
                "We followed a cohort of adults after elective surgery and "
                f"recorded complication rates in registry {i}."
            ),
        }
        for i in range(3)
    ]
    corpus_path.write_text(
        "".join(json.dumps(d) + "\n" for d in docs), encoding="utf-8"
    )
    out = tmp_path / "dataset"
    code, _, stderr = run_cli(
        capsys,
        ["build-dataset", "--config", config_path, "--corpus", str(corpus_path), "--out", str(out)],
    )
    assert code == 0
    assert "kept" in stderr and "3 documents" in stderr

    report = json.loads((out / "build_report.json").read_text(encoding="utf-8"))
    assert report["n_documents"] == 3
    kept, _ = read_questions(str(out / "questions.jsonl"))
    dropped_raw = (out / "questions_dropped.jsonl").read_text(encoding="utf-8")
    n_dropped = sum(1 for line in dropped_raw.splitlines() if line.strip())
    assert len(kept) == report["n_kept"]
    assert len(kept) + n_dropped == report["n_generated"]
    assert all(q.kept for q in kept)
    assert all(q.category for q in kept)

    # Same corpus, same mocks: the build is reproducible.
    out2 = tmp_path / "dataset2"
    code, _, _ = run_cli(
        capsys,
        ["build-dataset", "--config", config_path, "--corpus", str(corpus_path), "--out", str(out2)],
    )
    assert code == 0
    assert (out / "questions.jsonl").read_bytes() == (out2 / "questions.jsonl").read_bytes()


def test_build_dataset_empty_corpus_fails(tmp_path, capsys, config_path):
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text("", encoding="utf-8")
    code, _, stderr = run_cli(
        capsys,
        [
            "build-dataset",
            "--config",
            config_path,
            "--corpus",
            str(corpus_path),
            "--out",
            str(tmp_path / "d"),
        ],
    )
    assert code == 1
    assert "no usable documents" in stderr


# ---------------------------------------------------------------------------
# ablate-temperature


def test_ablate_temperature_writes_csv(tmp_path, capsys, config_path, questions_path):
    out = tmp_path / "ablation"
    code, _, stderr = run_cli(
        capsys,
        [
            "ablate-temperature",
            "--config",
            config_path,
            "--questions",
            questions_path,
            "--out",
            str(out),
            "--temps",
            "0.2,0.4",
            "--fraction",
            "0.5",
        ],
    )
    assert code == 0
    assert "wrote 2 rows" in stderr
    lines = (out / "ablation.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "model,temperature,dahl_score,n_scored"
    assert len(lines) == 3
    assert lines[1].startswith("mock-small,0.2,")
    assert lines[2].startswith("mock-small,0.4,")


def test_ablate_temperature_refuses_high_temps_by_default(
    tmp_path, capsys, config_path, questions_path
):
    code, _, stderr = run_cli(
        capsys,
        [
            "ablate-temperature",
            "--config",
            config_path,
            "--questions",
            questions_path,
            "--out",
            str(tmp_path / "o"),
            "--temps",
            "0.5,1.5",
        ],
    )
    assert code == 1
    assert "1.5" in stderr and "allow" in stderr.lower()


# ---------------------------------------------------------------------------
# bad run inputs: one clean error naming the key or the line


BACKENDS = """\
backends:
  generator: {kind: mock, model: g}
  splitter: {kind: mock, model: s}
  checker: {kind: mock, model: c}
"""
EVALUATE = ["evaluate", "--config", "{dir}/run.yaml", "--questions", "{questions}"]
EVALUATE += ["--out", "{dir}/out"]
GOOD_PAIRS = '{"x": 0.1, "y": 0.2}\n{"x": 0.4, "y": 0.3}\n'
HUMAN_H1 = '{"question_id": "h1", "score": 0.5}\n'
REPEATED_RECORD = json.dumps(make_record(qid="h1", status=Status.SCORED).to_dict()) + "\n"


def http_checker(setting):
    """BACKENDS with an HTTP checker entry that carries one more setting."""
    entry = f"{{kind: http, model: c, endpoint: 'http://unit.test/v1', {setting}}}"
    return BACKENDS.replace("{kind: mock, model: c}", entry)


@pytest.mark.parametrize(
    "files, argv, expected",
    [
        (
            {"run.yaml": BACKENDS + "seed: x\n"},
            EVALUATE,
            "config root: seed: invalid literal for int() with base 10: 'x'",
        ),
        (
            {"run.yaml": BACKENDS + "generation: 5\n"},
            EVALUATE,
            "generation must be a mapping, not int",
        ),
        (
            {"run.yaml": BACKENDS + "generation: {temprature: 0.2}\n"},
            EVALUATE,
            "generation: unknown keys ['temprature']",
        ),
        (
            {"run.yaml": BACKENDS + "cache_dr: c\n"},
            EVALUATE,
            "config root: unknown keys ['cache_dr']",
        ),
        (
            {"run.yaml": BACKENDS + "prompts: {checkr: x.txt}\n"},
            EVALUATE,
            "prompts: unknown keys ['checkr']",
        ),
        (
            {"run.yaml": BACKENDS.replace("model: c}", "model: c, max_concurrency: many}")},
            EVALUATE,
            "backends.checker: max_concurrency: invalid literal for int() with base 10: 'many'",
        ),
        (
            {"run.yaml": BACKENDS + "concurrency: 2.7\n"},
            EVALUATE,
            "config root: concurrency: not an integer: 2.7",
        ),
        (
            {"run.yaml": BACKENDS + "seed: 1.5\n"},
            EVALUATE,
            "config root: seed: not an integer: 1.5",
        ),
        (
            {"run.yaml": BACKENDS + "generation: {max_tokens: true}\n"},
            EVALUATE,
            "generation: max_tokens: not an integer: True",
        ),
        (
            {"run.yaml": BACKENDS + "concurrency: -3\n"},
            EVALUATE,
            "config root: concurrency: must be >= 1, got -3",
        ),
        (
            {"run.yaml": BACKENDS + "questions_per_doc: 0\n"},
            EVALUATE,
            "config root: questions_per_doc: must be >= 1, got 0",
        ),
        (
            {
                "run.yaml": BACKENDS.replace(
                    "{kind: mock, model: c}",
                    "{kind: http, model: c, endpoint: 'http://unit.test/v1', max_concurrency: 0}",
                )
            },
            EVALUATE,
            "backends.checker: max_concurrency: must be >= 1, got 0",
        ),
        (
            {
                "run.yaml": BACKENDS.replace(
                    "{kind: mock, model: c}",
                    "{model: c, endpoint: 'http://unit.test/v1', auth_env: CHECK_KEY}",
                )
            },
            EVALUATE,
            "backends.checker: ['auth_env', 'endpoint'] apply only to kind http; set kind: http",
        ),
        (
            {"run.yaml": http_checker("behavior: checker")},
            EVALUATE,
            "backends.checker: ['behavior'] apply only to kind mock; set kind: mock",
        ),
        (
            {"run.yaml": BACKENDS.replace("{kind: mock, model: c}", "{kind: grpc, model: c}")},
            EVALUATE,
            "backends.checker: kind: must be http or mock, not 'grpc'",
        ),
        (
            {"run.yaml": BACKENDS.replace("model: c}", "model: c, behavior: oracle}")},
            EVALUATE,
            "backends.checker: behavior: unknown mock behavior 'oracle', expected one of [",
        ),
        (
            {"run.yaml": BACKENDS.replace("{kind: mock, model: c}", "{kind: http, model: c}")},
            EVALUATE,
            "backends.checker: endpoint is required for kind http",
        ),
        (
            {"run.yaml": BACKENDS + "generation: {temperature: true}\n"},
            EVALUATE,
            "generation: temperature: not a number: True",
        ),
        (
            {"run.yaml": http_checker("timeout_s: 0")},
            EVALUATE,
            "backends.checker: timeout_s: must be > 0, got 0.0",
        ),
        (
            {"run.yaml": http_checker("base_backoff_s: -1")},
            EVALUATE,
            "backends.checker: base_backoff_s: must be >= 0, got -1.0",
        ),
        (
            {"run.yaml": http_checker("requests_per_second: 0")},
            EVALUATE,
            "backends.checker: requests_per_second: must be > 0 or unset, got 0.0",
        ),
        (
            {"run.yaml": http_checker("auth_env: DAHL_TEST_KEY_NEVER_SET")},
            EVALUATE,
            "backend checker: auth env var DAHL_TEST_KEY_NEVER_SET is not set",
        ),
        (
            {"run.yaml": BACKENDS},
            EVALUATE + ["--concurrency", "0"],
            "--concurrency must be >= 1, got 0",
        ),
        (
            {"run.yaml": BACKENDS},
            ["build-dataset", "--config", "{dir}/run.yaml", "--corpus", "{dir}/corpus.jsonl"]
            + ["--out", "{dir}/built", "--questions-per-doc", "0"],
            "--questions-per-doc must be >= 1, got 0",
        ),
        (
            {"run.yaml": BACKENDS + "overrides_file: o.json\n", "o.json": '{"force_keep": ['},
            EVALUATE,
            "overrides file {dir}/o.json: Expecting value: line 1 column 17 (char 16)",
        ),
        (
            {"run.yaml": BACKENDS + "seed: [1\n"},
            EVALUATE,
            "config file {dir}/run.yaml: while parsing a flow sequence",
        ),
        (
            {"run.yaml": BACKENDS + "overrides_file: o.json\n", "o.json": '["a"]'},
            EVALUATE,
            "overrides file {dir}/o.json must be a mapping, not list",
        ),
        (
            {"run.yaml": BACKENDS + "overrides_file: o.json\n", "o.json": '{"force_keep": "abc"}'},
            EVALUATE,
            "overrides file {dir}/o.json: force_keep: must be a list of strings",
        ),
        (
            {"run.yaml": BACKENDS + "overrides_file: o.json\n", "o.json": '{"force_kep": ["a"]}'},
            EVALUATE,
            "overrides file {dir}/o.json: unknown keys ['force_kep']",
        ),
        (
            {
                "run.yaml": BACKENDS + "rules_file: rules.jsonl\n",
                "rules.jsonl": '{"rule_id": "ok", "pattern": "x"}\n{"pattern": "y"}\n',
            },
            EVALUATE,
            "{dir}/rules.jsonl: line 2: cannot parse record: rule_id must be non-empty",
        ),
        (
            {"pairs.jsonl": GOOD_PAIRS + '{"x": 0.3, "y":\n'},
            ["stats", "pearson", "--pairs", "{dir}/pairs.jsonl"],
            "{dir}/pairs.jsonl: line 3: invalid JSON",
        ),
        (
            {"pairs.jsonl": GOOD_PAIRS + '{"x": 0.3}\n'},
            ["stats", "pearson", "--pairs", "{dir}/pairs.jsonl"],
            "{dir}/pairs.jsonl: line 3: cannot parse record: y must be a number, not None",
        ),
        (
            {"human.jsonl": '{"question_id": "h1", "score": 0.5}\n[0.5]\n'},
            ["compare-human", "--records", "{dir}/records.jsonl", "--human", "{dir}/human.jsonl"],
            "{dir}/human.jsonl: line 2: line is not a JSON object",
        ),
        (
            {"run.yaml": BACKENDS + "prompts: {checker: c.txt}\n", "c.txt": "Is it true?"},
            EVALUATE,
            "prompts.checker: {dir}/c.txt lacks the placeholder {{unit}}",
        ),
        (
            {"repeats.jsonl": REPEATED_RECORD * 2},
            ["score", "--records", "{dir}/repeats.jsonl", "--out-dir", "{dir}/out"],
            "records repeat question ids: ['h1']",
        ),
        (
            {"repeats.jsonl": REPEATED_RECORD * 2, "human.csv": "question_id,score\nh1,0.5\n"},
            ["compare-human", "--records", "{dir}/repeats.jsonl", "--human", "{dir}/human.csv"],
            "records repeat question ids: ['h1']",
        ),
        (
            {"run.yaml": BACKENDS, "empty.jsonl": ""},
            ["evaluate", "--config", "{dir}/run.yaml", "--questions", "{dir}/empty.jsonl"]
            + ["--out", "{dir}/out"],
            "{dir}/empty.jsonl: no usable questions",
        ),
        (
            {"run.yaml": BACKENDS, "empty.jsonl": ""},
            ["ablate-temperature", "--config", "{dir}/run.yaml", "--questions", "{dir}/empty.jsonl"]
            + ["--out", "{dir}/out", "--temps", "0.1"],
            "{dir}/empty.jsonl: no usable questions",
        ),
        (
            {"empty.jsonl": ""},
            ["sample", "--questions", "{dir}/empty.jsonl", "--out", "{dir}/out"],
            "{dir}/empty.jsonl: no usable questions",
        ),
        (
            {"run.yaml": BACKENDS},
            ["ablate-temperature", "--config", "{dir}/run.yaml", "--questions", "{questions}"]
            + ["--out", "{dir}/out", "--temps", "0.1,abc"],
            "cannot parse temperatures from '0.1,abc'",
        ),
        (
            {"a.txt": "score\n", "b.txt": "0.1 0.2\n"},
            ["stats", "ttest", "--a", "{dir}/a.txt", "--b", "{dir}/b.txt"],
            "{dir}/a.txt: no numeric data found",
        ),
        (
            {"pairs.csv": "x,y\n"},
            ["stats", "pearson", "--pairs", "{dir}/pairs.csv"],
            "{dir}/pairs.csv: no pairs found",
        ),
        (
            {"human.csv": "question_id,score\nh1,\nh2,1.0\n"},
            ["compare-human", "--records", "{dir}/records.jsonl", "--human", "{dir}/human.csv"],
            "{dir}/human.csv: row 2 has no score",
        ),
        (
            {"pairs.csv": "id,x,y\n1,0.1,0.2\n2,,0.5\n3,0.4,0.3\n"},
            ["stats", "pearson", "--pairs", "{dir}/pairs.csv"],
            "{dir}/pairs.csv: row 3 has a blank x or y",
        ),
        (
            {"pairs.csv": "id,x,y\n1,0.1,0.2\n2,0.5,\n3,0.4,0.3\n"},
            ["stats", "pearson", "--pairs", "{dir}/pairs.csv"],
            "{dir}/pairs.csv: row 3 has a blank x or y",
        ),
        (
            {"pairs.jsonl": GOOD_PAIRS + '{"x": true, "y": 0.3}\n'},
            ["stats", "pearson", "--pairs", "{dir}/pairs.jsonl"],
            "{dir}/pairs.jsonl: line 3: cannot parse record: x must be a number, not True",
        ),
        (
            {"human.jsonl": HUMAN_H1 + '{"question_id": "h2", "score": true}\n'},
            ["compare-human", "--records", "{dir}/records.jsonl", "--human", "{dir}/human.jsonl"],
            "{dir}/human.jsonl: line 2: cannot parse record: score must be a number, not True",
        ),
        (
            {"human.jsonl": HUMAN_H1 + '{"question_id": null, "score": 1}\n'},
            ["compare-human", "--records", "{dir}/records.jsonl", "--human", "{dir}/human.jsonl"],
            "{dir}/human.jsonl: line 2: cannot parse record: question_id must be non-empty",
        ),
        (
            {"human.csv": "question_id,score\nh1,0.5\n,1.0\n"},
            ["compare-human", "--records", "{dir}/records.jsonl", "--human", "{dir}/human.csv"],
            "{dir}/human.csv: row 3 has no question_id",
        ),
    ],
    ids=[
        "seed-not-int",
        "generation-not-mapping",
        "generation-typo",
        "root-typo",
        "prompts-typo",
        "backend-value",
        "concurrency-fraction",
        "seed-fraction",
        "max-tokens-bool",
        "concurrency-negative",
        "questions-per-doc-zero",
        "max-concurrency-zero",
        "endpoint-without-kind",
        "behavior-on-http",
        "unknown-kind",
        "unknown-behavior",
        "http-without-endpoint",
        "temperature-bool",
        "timeout-zero",
        "backoff-negative",
        "rate-zero",
        "auth-env-unset",
        "concurrency-flag-zero",
        "questions-per-doc-flag-zero",
        "overrides-not-json",
        "config-not-yaml",
        "overrides-not-mapping",
        "overrides-string-not-list",
        "overrides-typo",
        "rules-line",
        "pearson-invalid-json",
        "pearson-missing-y",
        "human-not-object",
        "prompt-without-subject",
        "score-repeated-id",
        "compare-human-repeated-id",
        "evaluate-no-questions",
        "ablate-no-questions",
        "sample-no-questions",
        "ablate-temps-not-numeric",
        "ttest-no-numbers",
        "pearson-header-only",
        "compare-human-row-without-score",
        "pearson-blank-x",
        "pearson-blank-y",
        "pearson-bool-x",
        "compare-human-bool-score",
        "compare-human-null-id",
        "compare-human-blank-id",
    ],
)
def test_a_bad_run_input_fails_with_one_error_naming_where(
    tmp_path, capsys, questions_path, files, argv, expected
):
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    _write_precision_records(tmp_path / "records.jsonl", {"h1": 0.5, "h2": 1.0})
    fill = {"dir": str(tmp_path), "questions": questions_path}
    code, stdout, stderr = run_cli(capsys, [arg.format(**fill) for arg in argv])
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error: ")
    assert expected.format(**fill) in stderr
    assert "Traceback" not in stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", ['{"checker_model": "mo', "[1, 2]"], ids=["torn", "list"])
def test_resume_with_a_manifest_that_is_not_an_object_exits_1(
    tmp_path, capsys, config_path, questions_path, text
):
    out = tmp_path / "out"
    out.mkdir()
    manifest = out / "run_manifest.json"
    manifest.write_text(text, encoding="utf-8")
    argv = ["evaluate", "--config", config_path, "--questions", questions_path]
    code, stdout, stderr = run_cli(capsys, argv + ["--out", str(out), "--resume"])
    assert code == 1
    assert stdout == ""
    assert f"error: cannot resume: {manifest} does not hold a JSON object" in stderr
    assert manifest.read_text(encoding="utf-8") == text
