"""One bounded pool of workers, shared by evaluation and dataset build."""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Sequence

_worker = threading.local()  # .pool: the pool of a worker thread


class _Stopped(BaseException):
    """A failure elsewhere cut share() short; a BaseException, so no task catches it."""


class _Batch:
    """Subitems that workers start one at a time from a shared cursor."""

    def __init__(self, fn: Callable, subitems: Sequence, finished: threading.Condition) -> None:
        self.fn, self.subitems, self.finished = fn, list(subitems), finished
        self.outcomes: list = [None] * len(self.subitems)
        self.errors: Dict[int, BaseException] = {}
        self.next = self.running = 0  # the cursor; subitems other workers are running


class _Pool:
    """Workers that start the subitems of open batches, oldest batch first.

    The items are the first batch, so a worker starts every item before it helps a share().
    """

    def __init__(self, task: Callable, items: Sequence) -> None:
        self.lock = threading.Lock()
        self.wake = threading.Condition(self.lock)  # idle workers wait here
        self.tasks = _Batch(task, items, self.wake)
        self.batches: List[_Batch] = [self.tasks] if self.tasks.subitems else []  # a subitem left
        self.failed = False

    def fail(self) -> None:  # with lock held
        self.failed = True
        self.wake.notify_all()

    def claim(self, batch: _Batch) -> int:  # with lock held, a subitem left
        batch.next += 1
        if batch.next == len(batch.subitems):
            self.batches.remove(batch)
        return batch.next - 1

    def attempt(self, batch: _Batch, j: int) -> None:
        try:
            batch.outcomes[j] = batch.fn(batch.subitems[j])
        except _Stopped:
            pass  # the failure that stopped it is raised instead
        except BaseException as exc:  # raised by whoever waits for the batch
            with self.lock:
                batch.errors[j] = exc
                self.fail()

    def work(self) -> None:
        _worker.pool = self
        try:
            while True:
                with self.lock:
                    while not (self.failed or self.batches) and self.tasks.running:
                        self.wake.wait()
                    if self.failed or not self.batches:
                        return
                    batch = self.batches[0]
                    j = self.claim(batch)
                    batch.running += 1
                self.attempt(batch, j)
                with self.lock:
                    batch.running -= 1
                    if not batch.running:
                        batch.finished.notify_all()  # for the tasks: no new batch can open
        finally:
            _worker.pool = None  # so share() after a run is a plain loop in the caller

    def share(self, fn: Callable, subitems: Sequence) -> list:
        batch = _Batch(fn, subitems, threading.Condition(self.lock))
        with self.lock:
            if batch.subitems:
                self.batches.append(batch)
                self.wake.notify(len(batch.subitems) - 1)  # the task starts one itself
        while True:
            with self.lock:
                if self.failed or batch.next == len(batch.subitems):
                    while batch.running:  # only what others started: nothing queued is waited for
                        batch.finished.wait()
                    break
                j = self.claim(batch)
            self.attempt(batch, j)
        if batch.errors:
            raise batch.errors[min(batch.errors)]
        if self.failed:
            raise _Stopped
        return batch.outcomes


def share(fn: Callable, subitems: Sequence) -> list:
    """[fn(s) for s in subitems]; in a run_tasks task, idle workers of its pool help.

    The task's worker starts the subitems one at a time from a shared
    cursor, and workers with no item left to start take from the same
    cursor. The task waits only for subitems another worker started, so
    the bounded pool cannot deadlock. Outside a task, a plain loop.
    """
    pool = getattr(_worker, "pool", None)
    return pool.share(fn, subitems) if pool else [fn(s) for s in subitems]


def run_tasks(items: Sequence, task: Callable, concurrency: int) -> list:
    """Run task(item) for every item on max(1, concurrency) workers, the caller one of them.

    Tasks and the subitems they share() run only on the workers (at concurrency 1, the
    caller alone), so at most `concurrency` are in flight. After the first exception of a
    task or a subitem, a KeyboardInterrupt in a task the caller runs included, no item or
    subitem starts; running tasks finish, except those in share() or entering it, which
    are dropped. Returns the results in item order, or raises the first task exception in
    item order.
    """
    pool = _Pool(task, items)
    helpers = [threading.Thread(target=pool.work) for _ in range(max(1, concurrency) - 1)]
    try:
        for helper in helpers:
            helper.start()
        pool.work()
    finally:
        with pool.lock:
            pool.fail()  # the caller left its loop, perhaps by an exception: start no more
        for helper in helpers:
            if helper.is_alive():  # one that could not start is not joinable
                helper.join()
    if pool.tasks.errors:
        raise pool.tasks.errors[min(pool.tasks.errors)]
    return pool.tasks.outcomes
