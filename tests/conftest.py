"""Fixtures shared by the test modules."""

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
