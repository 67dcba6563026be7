"""The bounded task runner shared by evaluation and dataset build."""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from dahl.tasks import run_tasks


class Boom(Exception):
    pass


@pytest.mark.parametrize("concurrency", [1, 4])
def test_results_come_back_in_item_order(concurrency):
    rng = random.Random(concurrency)
    delays = [rng.uniform(0, 0.005) for _ in range(20)]
    done = []

    def task(i):
        time.sleep(delays[i])
        return i * i

    results = run_tasks(range(20), task, done.append, concurrency)
    assert results == [i * i for i in range(20)]
    assert sorted(done) == results


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
        run_tasks(range(10), task, lambda _: None, 4)


def test_running_tasks_reach_on_done_and_no_task_starts_after_a_failure():
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
        return i

    with pytest.raises(Boom, match="item 0"):
        run_tasks(range(12), task, done.append, 4)
    assert sorted(started) == [0, 1, 2, 3]
    assert sorted(done) == [1, 2, 3]


def test_an_exception_from_on_done_is_raised():
    def on_done(result):
        if result == 2:
            raise Boom("on_done")

    with pytest.raises(Boom, match="on_done"):
        run_tasks(range(10), lambda i: i, on_done, 2)


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

    assert run_tasks(range(40), task, lambda _: None, concurrency) == list(range(40))
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
                run_tasks(range(30), task, lambda _: None, 1)
            assert started == [0]
    finally:
        sys.setswitchinterval(interval)
