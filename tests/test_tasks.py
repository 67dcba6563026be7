"""The bounded task runner shared by evaluation and dataset build."""

from __future__ import annotations

import _thread
import random
import sys
import threading
import time
from collections import Counter

import pytest

from dahl.backends import MockBackend
from dahl.pipeline import run_evaluation
from dahl.tasks import run_tasks, share
from dahl.types import GenConfig

from factories import make_question


class Boom(Exception):
    pass


@pytest.mark.parametrize("concurrency", [1, 4])
def test_results_come_back_in_item_order(concurrency):
    rng = random.Random(concurrency)
    delays = [rng.uniform(0, 0.005) for _ in range(20)]

    def task(i):
        time.sleep(delays[i])
        return i * i

    assert run_tasks(range(20), task, concurrency) == [i * i for i in range(20)]


def test_at_concurrency_1_the_caller_runs_every_task_and_starts_no_thread():
    before = threading.active_count()
    seen = run_tasks(range(3), lambda i: (threading.active_count(), threading.get_ident()), 1)
    assert seen == [(before, threading.get_ident())] * 3


def test_the_first_exception_in_item_order_is_raised():
    # Item 7 fails first in time, item 3 first in item order.
    def task(i):
        if i == 3:
            time.sleep(0.05)
            raise Boom("item 3")
        if i == 7:
            raise Boom("item 7")
        return i

    with pytest.raises(Boom, match="item 3"):
        run_tasks(range(10), task, 4)


def test_running_tasks_finish_and_no_task_starts_after_a_failure():
    running = threading.Barrier(4, timeout=5)
    started = []
    done = []

    def task(i):
        started.append(i)
        if i < 4:
            running.wait()  # items 0-3 are all in flight before item 0 fails
        if i == 0:
            raise Boom("item 0")
        time.sleep(0.02)
        done.append(i)
        return i

    with pytest.raises(Boom, match="item 0"):
        run_tasks(range(12), task, 4)
    assert sorted(started) == [0, 1, 2, 3]
    assert sorted(done) == [1, 2, 3]


def test_a_keyboard_interrupt_in_the_callers_task_is_raised_after_the_helpers_finish():
    before = threading.active_count()
    caller_busy = threading.Event()
    finished = []

    def task(i):
        if threading.current_thread() is threading.main_thread():
            caller_busy.set()
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:  # interrupt_main() lands between bytecodes
                time.sleep(0.001)
        else:
            assert caller_busy.wait(5)
            _thread.interrupt_main()
            time.sleep(0.05)  # still running when the caller's task fails
            finished.append(i)
        return i

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_tasks(range(2), task, 2)
    assert time.monotonic() - start < 4
    assert len(finished) == 1
    assert threading.active_count() == before


@pytest.mark.parametrize("concurrency", [1, 3, 8])
def test_in_flight_tasks_never_exceed_concurrency(concurrency):
    lock = threading.Lock()
    in_flight = 0
    peak = 0

    def task(i):
        nonlocal in_flight, peak
        with lock:
            in_flight += 1
            peak = max(peak, in_flight)
        time.sleep(0.001)
        with lock:
            in_flight -= 1
        return i

    assert run_tasks(range(40), task, concurrency) == list(range(40))
    assert 1 <= peak <= concurrency


def test_no_task_starts_after_a_failure_even_with_the_caller_descheduled():
    # With a short switch interval the worker thread runs ahead of the
    # caller, so cancelling queued work from the caller's thread is too late.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(5):
            started = []

            def task(i):
                started.append(i)
                if i == 0:
                    raise Boom("item 0")
                return i

            with pytest.raises(Boom):
                run_tasks(range(30), task, 1)
            assert started == [0]
    finally:
        sys.setswitchinterval(interval)


def test_share_outside_a_task_and_on_one_worker_is_a_plain_loop_in_the_task_thread():
    assert share(lambda s: s * 2, range(4)) == [0, 2, 4, 6]

    def task(i):
        owner = threading.get_ident()
        return share(lambda s: (s, threading.get_ident() == owner), range(5))

    assert run_tasks(range(3), task, 1) == [[(s, True) for s in range(5)]] * 3
    # The caller was one of the run's workers; after the run it is not.
    assert share(lambda s: s * 2, range(4)) == [0, 2, 4, 6]


def test_a_failed_subitem_is_raised_and_no_subitem_or_item_starts_after_it():
    before = threading.active_count()
    together = threading.Barrier(3, timeout=5)
    started = []

    def check(s):
        started.append(s)
        if s < 3:
            together.wait()  # subitems 0-2 run at once on the task's worker and two idle ones
        if s == 1:
            raise Boom("subitem 1")
        time.sleep(0.05)
        return s

    with pytest.raises(Boom, match="subitem 1"):
        run_tasks(range(1), lambda i: share(check, range(9)), 3)
    assert sorted(started) == [0, 1, 2]
    assert threading.active_count() == before


def test_every_subitem_runs_once_under_a_short_switch_interval():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    runs = Counter()
    lock = threading.Lock()

    def count(pair):
        with lock:
            runs[pair] += 1
        return pair[1]

    try:
        results = run_tasks(range(60), lambda i: share(count, [(i, s) for s in range(i % 7)]), 8)
    finally:
        sys.setswitchinterval(interval)
    assert results == [list(range(i % 7)) for i in range(60)]
    assert runs == Counter({(i, s): 1 for i in range(60) for s in range(i % 7)})


def test_an_error_in_a_unit_check_stops_the_run_and_leaves_no_records(tmp_path):
    # Two workers: q-0 finishes first, q-1 fails in its third unit while
    # q-2 is still generating; no unit and no question starts after that.
    before = threading.active_count()
    questions = [make_question(qid=f"q-{i}", text=f"What treats case {i}?") for i in range(5)]
    generated = []
    checked = []

    def answer(request):
        case = int(request.user_prompt.split("case ")[1][0])
        generated.append(case)
        time.sleep({0: 0.0, 1: 0.1, 2: 0.3}.get(case, 0.0))
        return f"Case {case} is treated with rest."

    def verdict(request):
        claim = request.user_prompt.split("Claim: ")[1].strip()
        checked.append(claim)
        if claim == "Case 1 claim 2.":
            raise RuntimeError("checker process died")
        return "True"

    def units(request):
        case = request.user_prompt.split("Case ")[1][0]
        return "\n".join(f"{k + 1}. Case {case} claim {k}." for k in range(4))

    generator, splitter, checker = (MockBackend(default=f) for f in (answer, units, verdict))
    with pytest.raises(RuntimeError, match="checker process died"):
        run_evaluation(
            questions, str(tmp_path), generator, splitter, checker, GenConfig(), concurrency=2
        )

    assert sorted(generated) == [0, 1, 2]
    assert [c for c in checked if c.startswith("Case 1")] == [f"Case 1 claim {k}." for k in range(3)]
    assert not [c for c in checked if c.startswith("Case 2")]
    assert not (tmp_path / "records.jsonl").exists()
    assert threading.active_count() == before
