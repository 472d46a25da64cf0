import pytest

from subjmap import training


@pytest.fixture()
def inline_pools(monkeypatch):
    """Replace the sweep's process pool by one that runs its jobs in this process.

    Returns the list of pools the sweep starts.  Each records its ``max_workers``
    and ``initargs`` (the per-worker BLAS thread budget); its initializer is not
    run, so this process keeps its BLAS thread count.
    """
    pools = []

    class InlinePool:
        def __init__(self, max_workers, initializer=None, initargs=()):
            self.max_workers, self.initargs = max_workers, initargs
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr(training, "ProcessPoolExecutor", InlinePool)
    return pools
