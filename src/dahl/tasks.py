"""One bounded pass over work items, shared by evaluation and dataset build."""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor, as_completed
from typing import Callable, Sequence

_NOT_STARTED = object()


def run_tasks(items: Sequence, task: Callable, on_done: Callable, concurrency: int) -> list:
    """Run task(item) for every item on max(1, concurrency) threads.

    on_done gets each result in the calling thread as its task finishes.
    After the first exception of a task or of on_done no task starts,
    since each checks a flag first; tasks already running finish and
    reach on_done. Returns the results in item order, or raises the
    first task exception in item order.
    """
    failed = threading.Event()

    def guarded(item):
        if failed.is_set():
            return _NOT_STARTED
        try:
            return task(item)
        except BaseException:
            failed.set()
            raise

    pool = ThreadPoolExecutor(max_workers=max(1, concurrency))
    futures = [pool.submit(guarded, item) for item in items]
    try:
        for future in as_completed(futures):
            if future.exception() is None and future.result() is not _NOT_STARTED:
                on_done(future.result())
    finally:
        failed.set()  # every task has finished, or on_done raised: start no more
        pool.shutdown(wait=True)
    # A task that did not start returns _NOT_STARTED, so this raises the first failure.
    return [future.result() for future in futures]
