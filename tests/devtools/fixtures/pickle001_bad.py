"""PICKLE001 fixture: closures crossing the process-pool boundary."""
from concurrent.futures import ProcessPoolExecutor


def run(items):
    def helper(item):
        return item * 2

    with ProcessPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(helper, item) for item in items]  # finding
        extra = pool.submit(lambda: 1)                           # finding
    return futures, extra


class Runner:
    """A pool bound to an attribute is still a process pool."""

    def __init__(self):
        self._pool = ProcessPoolExecutor(max_workers=2)

    def run(self):
        return self._pool.submit(lambda: 1)                      # finding
