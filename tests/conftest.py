"""Fixtures shared by the test modules."""

import tracemalloc

import pytest

from newtondyn import poly


@pytest.fixture
def pools(monkeypatch):
    """Records the size of every thread pool that poly starts."""
    sizes = []

    class RecordingPool(poly.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(poly, "ThreadPoolExecutor", RecordingPool)
    return sizes


def _traced_peak(run):
    """Peak traced bytes of one call of run, after a first call outside the
    trace warms any first-call caches."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def peak():
    """peak(run): the traced peak in bytes of one warm call of run."""
    return _traced_peak
