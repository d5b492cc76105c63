"""Fixtures shared by the test modules."""

import concurrent.futures

import pytest

from hgsp import search


@pytest.fixture
def pool_starts(monkeypatch):
    """Split every level from the first one past the prefixes over the
    search's worker pool, and record max_workers for each pool started."""
    started = []
    real = concurrent.futures.ProcessPoolExecutor

    def spy(*args, max_workers, **kwargs):
        started.append(max_workers)
        return real(*args, max_workers=max_workers, **kwargs)

    monkeypatch.setattr(search, "_POOL_DEPTH", search._PIVOT_DEPTH + 1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
    return started
