"""Tests of the benchmark itself: python -m pytest bench/tests"""

import importlib
import json
import os
import shutil
import subprocess
import sys
import threading

import pytest

import compare
import sim
import workloads
from tracing import HOOKS, HookError, Span, Tracer, hooked, layer_metrics, self_times

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)

# Tiny sizes so that every workload runs in about a second.
SMALL = {
    "offline-eval": {"n_questions": 8},
    "http-latency": {"n_questions": 12},
    "cache-resume": {"n_questions": 8},
    "dataset-build": {"n_docs": 4},
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_small_run_passes_every_output_check_untraced_and_traced(name, tmp_path):
    workload = workloads.WORKLOADS[name]()
    for attr, value in SMALL[name].items():
        setattr(workload, attr, value)
    workload.setup(3)
    workload.prepare(str(tmp_path))
    plain = workload.run(str(tmp_path / "plain"))
    tracer = Tracer()
    with hooked(tracer):
        traced = workload.run(str(tmp_path / "traced"), tracer)

    for result in (plain, traced):
        assert result.errors == []
        assert result.failed == 0
        assert result.questions > 0
    assert traced.outputs == plain.outputs
    metrics = layer_metrics(tracer.spans, 1, traced.questions, workload.concurrency)
    for name in ("listparse.parse_us_p50", "backends.call_ms_p50", "records.write_s"):
        assert metrics[name][0] > 0


def test_eval_check_flags_missing_records_and_a_wrong_score():
    records = [
        {"question_id": "q1", "status": "scored", "units": [{"verdict": "True"}, {"verdict": "False"}]},
        {"question_id": "q2", "status": "split", "units": [{"verdict": None}]},
    ]
    report = {
        "dahl_score": 0.75,
        "n_scored": 1,
        "n_excluded_noncommittal": 0,
        "n_excluded_unknown": 0,
        "n_excluded_mismatch": 0,
        "n_failed": 0,
    }
    result = workloads.Iteration(
        questions=3,
        outputs={
            "records.jsonl": "".join(json.dumps(r) + "\n" for r in records).encode(),
            "report.json": json.dumps(report).encode(),
        },
    )
    workloads.check_eval_outputs(["q1", "q2", "q3"], result)
    assert result.failed == 3
    assert "q2" in result.errors[0] and "q3" in result.errors[0]
    assert "dahl_score" in result.errors[1]


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span(0, "root", 0.0, 10.0),
        Span(1, "a", 1.0, 4.0, parent=0),
        Span(2, "b", 3.0, 6.0, parent=0),  # overlaps a, as pool threads do
        Span(3, "c", 2.0, 3.0, parent=1),
        Span(4, "d", 9.0, 12.0, parent=0),  # clipped to the parent's end
    ]
    assert self_times(spans) == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0}


def test_spans_nest_per_thread_and_pool_threads_hang_under_the_root():
    tracer = Tracer()
    with tracer.root("run") as root:
        with tracer.span("outer", qid="q1") as outer:
            with tracer.span("inner") as inner:
                pass

        def work():
            with tracer.span("worker"):
                pass

        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=10)
    assert not thread.is_alive()
    worker = next(s for s in tracer.spans if s.name == "worker")
    assert (inner.parent, inner.qid) == (outer.sid, "q1")
    assert worker.parent == root.sid
    assert root.start <= worker.start <= worker.end <= root.end


def test_hooks_are_restored_after_the_traced_run():
    def current():
        return [getattr(importlib.import_module(m), a) for m, a, *_ in HOOKS]

    originals = current()
    with hooked(Tracer()):
        assert all(now is not before for now, before in zip(current(), originals))
    assert current() == originals


def test_a_missing_hook_fails_loudly():
    import dahl.pipeline

    original = dahl.pipeline.preprocess
    hooks = [
        ("dahl.pipeline", "preprocess", "responses.preprocess", None, None),
        ("dahl.pipeline", "no_such_function", "pipeline.gone", None, None),
    ]
    with pytest.raises(HookError, match="no_such_function"):
        with hooked(Tracer(), hooks):
            pass
    assert dahl.pipeline.preprocess is original


def test_inputs_are_fixed_by_the_seed():
    assert sim.make_questions(5, 20, 300, 1000) == sim.make_questions(5, 20, 300, 1000)
    assert sim.make_questions(5, 20, 300, 1000) != sim.make_questions(6, 20, 300, 1000)
    assert sim.make_corpus(5, 3) == sim.make_corpus(5, 3)
    assert sim.make_corpus(5, 3) != sim.make_corpus(6, 3)


def test_each_answer_feature_goes_to_a_fixed_share_of_questions():
    for seed in (1, 2):
        _, answers = sim.make_questions(seed, 40, 300, 1000)
        unknown = sum(1 for a in answers.values() if sim._UNKNOWN_MARK in a)
        rejected = sum(1 for a in answers.values() if sim._REJECTED_MARK in a)
        assert (unknown, rejected) == (10, 5)


def test_injected_busy_replies_stay_shorter_than_the_retry_budget():
    bodies = [f"body {i}" for i in range(3000)]
    assert any(sim.busy_status(b, 1) for b in bodies)
    assert not any(sim.busy_status(b, 3) for b in bodies)
    workload = workloads.HttpLatency()
    workload.setup(1)
    http = workload.stack["checker"]._inner
    assert http.spec.retry.max_attempts > 2


def test_comparison_verdicts():
    base = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    assert compare.verdict(base, [x * 0.8 for x in base], "lower", 0.1)[0] == "gain"
    assert compare.verdict(base, [x * 1.2 for x in base], "lower", 0.1)[0] == "regression"
    assert compare.verdict(base, [x * 1.05 for x in base], "lower", 0.1)[0] == "ok"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(noisy, list(noisy), "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(base, [x * 1.2 for x in base], "higher", 0.1)[0] == "gain"


def _command(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_metric_of_benchmark_json(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    proc = _command("--workload", "dataset-build", "--seed", "2", "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    listed = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }


def test_command_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _command("--workload", "offline-eval", "--seed", "1", "--seconds", "1", "--trace", "0",
                    cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
