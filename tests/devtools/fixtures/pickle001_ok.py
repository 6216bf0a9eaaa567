"""PICKLE001 negative fixture: module-level workers only."""
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor


def helper(item):
    return item * 2


def run(items):
    with ProcessPoolExecutor(max_workers=2) as pool:
        process_futures = [pool.submit(helper, item) for item in items]
    with ThreadPoolExecutor(max_workers=2) as threads:
        # Threads share the interpreter: closures are fine here.
        thread_futures = [threads.submit(lambda i=i: i) for i in items]
    return process_futures, thread_futures


class Runner:
    """An attribute-bound pool given a module-level worker."""

    def __init__(self):
        self._pool = ProcessPoolExecutor(max_workers=2)

    def run(self):
        return self._pool.submit(helper, 1)
