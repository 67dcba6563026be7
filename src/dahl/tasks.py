"""One bounded pass over work items, shared by evaluation and dataset build."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor, as_completed
from typing import Callable, Sequence


def run_tasks(items: Sequence, task: Callable, on_done: Callable, concurrency: int) -> list:
    """Run task(item) for every item on max(1, concurrency) threads.

    on_done gets each result in the calling thread as its task finishes.
    After a task's first exception, tasks not yet started are cancelled;
    those already running finish and reach on_done. Returns the results
    in item order, or raises the first task exception in item order.
    """
    pool = ThreadPoolExecutor(max_workers=max(1, concurrency))
    futures = [pool.submit(task, item) for item in items]
    try:
        for future in as_completed(futures):
            if future.cancelled():
                continue
            if future.exception() is None:
                on_done(future.result())
            else:
                # Not pool.shutdown(cancel_futures=True): it hangs as_completed.
                for pending in futures:
                    pending.cancel()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    # Tasks start in item order, so no cancelled task precedes a failed one.
    return [future.result() for future in futures]
