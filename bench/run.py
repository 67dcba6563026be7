"""Run one benchmark workload against the dahl package in this checkout.

    python3 bench/run.py --workload offline-eval --seed 1 --seconds 20 --trace 0

One untimed warm-up run gives the reference outputs. Then the workload
runs repeatedly for --seconds, each run into a fresh directory, and
every run's outputs are checked and compared byte for byte with the
reference. Set-up (inputs from the seed, backend stack) is timed again
before each run; setup_s is the median.

--trace 0 reports the end_to_end metrics of BENCHMARK.json (medians
over the runs).
--trace 1 alternates untraced and traced runs and reports its
per_layer metrics, with trace.overhead_ratio = median traced wall time
over median untraced wall time. The spans are written under
.bench_work/traces/.

The last line of stdout is one JSON object: correct, attempted,
failed, metrics. Human-readable tables go to stdout before it.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
MIN_RUNS = 3


def load_spec() -> dict:
    """BENCHMARK.json: the metrics a run reports, with units and directions."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _import_workloads():
    """Import the benchmark modules against this checkout's dahl, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "dahl", "__init__.py")):
        sys.exit(f"bench: no dahl package at {SRC}; run from a full checkout")
    sys.path[:0] = [SRC, BENCH_DIR]
    import dahl

    if os.path.dirname(os.path.dirname(os.path.abspath(dahl.__file__))) != SRC:
        sys.exit(f"bench: imported dahl from {dahl.__file__}, not from {SRC}")
    import tracing
    import workloads

    return workloads, tracing


def high_percentile(values, better: str):
    """(label, value): the worst-side percentile with at least ten samples beyond it."""
    n = len(values)
    worst = max(values) if better == "lower" else min(values)
    if n < 20:
        return "worst", worst
    k = math.floor(100 * (1 - 10 / n))
    q = statistics.quantiles(values, n=100, method="inclusive")
    if better == "lower":
        return f"p{k}", q[k - 1]
    return f"p{100 - k}", q[99 - k]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads, tracing = _import_workloads()
    spec = load_spec()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()

    workload.setup(args.seed)
    work_dir = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        setup_s, runs, tracer, errors = _measure(workload, work_dir, args, tracing)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(r["questions"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for message in errors[:10]:
        print(f"check failed: {message}")
    print(f"workload {args.workload}, seed {args.seed}: {len(runs)} runs, "
          f"{attempted} questions, error_rate {failed / attempted:.4f}")

    if args.trace:
        metrics = _per_layer(workload, runs, tracer, tracing)
        os.makedirs(os.path.join(WORK_ROOT, "traces"), exist_ok=True)
        tracer.write(os.path.join(WORK_ROOT, "traces", f"{args.workload}-seed{args.seed}.jsonl"))
        listed = spec["per_layer"]
    else:
        listed = spec["end_to_end"]
        metrics = _end_to_end(workload, runs, setup_s, listed)
    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def _measure(workload, work_dir, args, tracing):
    """Warm up, then run until --seconds have passed; return per-run figures.

    Set-up is timed again before every run and reported as the median,
    like the runs: a process's speed on this kind of shared virtual
    machine changes over seconds, so a few set-ups timed together read
    up to twice as slow or fast, by chance.
    Run directories are removed only when the process ends: deleting
    thousands of files between runs would load the disk, and with it
    the fsyncs of the next run, with work the program does not do.
    """
    workload.prepare(work_dir)
    reference = _attempt(workload, os.path.join(work_dir, "warmup"), None, tracing)
    errors = list(reference.errors)
    tracer = tracing.Tracer() if args.trace else None
    setup_s = []
    runs = []
    deadline = time.perf_counter() + args.seconds
    while len(runs) < MIN_RUNS or time.perf_counter() < deadline:
        started = time.perf_counter()
        workload.setup(args.seed)
        setup_s.append(time.perf_counter() - started)
        traced = bool(args.trace) and len(runs) % 2 == 1
        out_dir = os.path.join(work_dir, f"run{len(runs)}")
        gc.collect()
        cpu0 = time.process_time()
        started = time.perf_counter()
        result = _attempt(workload, out_dir, tracer if traced else None, tracing)
        wall = time.perf_counter() - started
        cpu = time.process_time() - cpu0
        if result.outputs != reference.outputs:
            result.fail(result.questions, "outputs differ from an earlier run of the same seed")
        errors.extend(result.errors)
        runs.append({
            "traced": traced,
            "wall_s": wall,
            "cpu_s": cpu,
            "questions": result.questions,
            "failed": result.failed,
            "server_s": result.server_s,
        })
    return setup_s, runs, tracer, errors


def _attempt(workload, out_dir, tracer, tracing):
    """One run; an exception loses every question of the run, as in production."""
    try:
        if tracer is None:
            return workload.run(out_dir)
        with tracing.hooked(tracer):
            return workload.run(out_dir, tracer)
    except tracing.HookError:
        raise
    except Exception as exc:  # a crashed run is reported, not fatal
        result = workload.aborted()
        result.fail(result.questions, f"run aborted: {type(exc).__name__}: {exc}")
        return result


def _end_to_end(workload, runs, setup_s, listed):
    per_run = {
        "wall_s": [r["wall_s"] for r in runs],
        "questions_per_s": [r["questions"] / r["wall_s"] for r in runs],
        "cpu_ms_per_question": [r["cpu_s"] * 1e3 / r["questions"] for r in runs],
        # Ideal time is the larger of the simulated server time spread over
        # the workers and the process CPU time, both lower bounds on wall.
        "efficiency": [
            max(r["server_s"] / workload.concurrency, r["cpu_s"]) / r["wall_s"] for r in runs
        ],
        "setup_s": setup_s,
    }
    metrics = {name: statistics.median(v) for name, v in per_run.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    error_rate = sum(r["failed"] for r in runs) / sum(r["questions"] for r in runs)

    print(f"{'metric':<22}{'median':>14}{'high pct':>20}{'n':>6}  unit")
    for metric in listed:
        name = metric["name"]
        values = per_run.get(name, [metrics[name]])
        label, high = high_percentile(values, metric["better"])
        print(f"{name:<22}{metrics[name]:>14.6g}{label:>9} {high:>10.6g}{len(values):>6}  "
              f"{metric['unit']}")
    print(f"{'error_rate':<22}{error_rate:>14.6g}{'':>20}{len(runs):>6}  ratio")
    return metrics


def _per_layer(workload, runs, tracer, tracing):
    traced = [r for r in runs if r["traced"]]
    plain = [r for r in runs if not r["traced"]]
    metrics = tracing.layer_metrics(
        tracer.spans, len(traced), traced[0]["questions"], workload.concurrency
    )
    metrics["dataset.kept_ratio"] = (getattr(workload, "kept_ratio", 0.0), "ratio")
    metrics["dataset.ambiguous_ratio"] = (getattr(workload, "ambiguous_ratio", 0.0), "ratio")
    metrics["trace.overhead_ratio"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in plain),
        "ratio",
    )
    print(f"{'layer metric':<46}{'value':>14}  unit   ({len(traced)} traced runs)")
    for name in sorted(metrics):
        print(f"{name:<46}{metrics[name][0]:>14.6g}  {metrics[name][1]}")
    return {name: value for name, (value, _) in metrics.items()}


if __name__ == "__main__":
    sys.exit(main())
