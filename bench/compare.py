"""Compare two commits on the benchmark, in alternating pairs.

    python3 bench/compare.py BASE HEAD [--pairs 10] [--workloads offline-eval,...]

Both commits are exported with `git archive` under
.bench_work/compare/<sha>/ and given this checkout's bench/ directory
and BENCHMARK.json, so both sides run the same benchmark code and
settings. Pair i uses seed 1000 + i on both sides; even pairs run the
base first, odd pairs the head first.

Each workload and end-to-end metric gets its own row with each side's
median and quartiles, the pairs the head won (ties count for neither
side) and a verdict:

  gain        the head wins at least 9 of 10 pairs, and the medians
              differ by more than the base's interquartile range
  unresolved  the base's spread (IQR / median) is wider than the
              metric's bound, and not every head run beats every base run
  regression  the head's median is worse than the base's by more than
              the bound
  ok          none of the above
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def export_tree(commit: str, work_dir: str) -> str:
    """Check out commit's files plus this benchmark; return the tree's path."""
    sha = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "--verify", f"{commit}^{{commit}}"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    tree = os.path.join(work_dir, sha[:12])
    shutil.rmtree(tree, ignore_errors=True)
    archive = subprocess.run(["git", "-C", ROOT, "archive", sha], check=True, capture_output=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(tree, filter="data")
    shutil.rmtree(os.path.join(tree, "bench"), ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(tree, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tree)
    return tree


def run_once(tree: str, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {workload} seed {seed} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, head, better: str, bound: float):
    """(verdict, pairs the head won) for one metric, by the rules in the module doc."""
    sign = 1 if better == "lower" else -1
    wins = sum(1 for b, h in zip(base, head) if sign * (b - h) > 0)
    b1, b_med, b3 = quartiles(base)
    h_med = statistics.median(head)
    if wins >= 0.9 * len(base) and sign * (b_med - h_med) > b3 - b1:
        return "gain", wins
    all_better = all(sign * (b - h) > 0 for b in base for h in head)
    if (b3 - b1) / b_med > bound and not all_better:
        return "unresolved", wins
    if sign * (h_med - b_med) / b_med > bound:
        return "regression", wins
    return "ok", wins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", help="comma-separated; default: all in BENCHMARK.json")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    work_dir = os.path.join(ROOT, ".bench_work", "compare")
    trees = {"base": export_tree(args.base, work_dir), "head": export_tree(args.head, work_dir)}

    results = {(side, w): [] for side in trees for w in workloads}
    for i in range(args.pairs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for workload in workloads:
            for side in order:
                result = run_once(trees[side], workload, 1000 + i, spec["run_seconds"])
                results[side, workload].append(result)
                print(f"pair {i} {workload} {side}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)

    print(f"{'workload':<15}{'metric':<22}{'base median [q1, q3]':>34}"
          f"{'head median [q1, q3]':>34}{'wins':>7}  verdict")
    for workload in workloads:
        base_runs, head_runs = results["base", workload], results["head", workload]
        failed = {side: sum(r["failed"] for r in results[side, workload]) for side in trees}
        attempted = {side: sum(r["attempted"] for r in results[side, workload]) for side in trees}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = [r["metrics"][name]["value"] for r in base_runs]
            head = [r["metrics"][name]["value"] for r in head_runs]
            outcome, wins = verdict(base, head, metric["better"], metric["bound"])
            if outcome == "gain" and failed["head"] > failed["base"]:
                outcome = "ok (more failures)"
            bq, hq = quartiles(base), quartiles(head)
            cells = [f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]" for q in (bq, hq)]
            print(f"{workload:<15}{name:<22}{cells[0]:>34}{cells[1]:>34}"
                  f"{wins:>4}/{args.pairs:<2}  {outcome}")
        cells = [f"{failed[side]}/{attempted[side]}" for side in ("base", "head")]
        print(f"{workload:<15}{'failed/attempted':<22}{cells[0]:>34}{cells[1]:>34}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
