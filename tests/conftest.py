"""Fixtures shared by the test files."""

import pytest

from qloop import borelrep, rootvectors

# the lru_caches of rootvectors, read before any test patches a builder
_ROOT_CACHES = [f for f in vars(rootvectors).values() if hasattr(f, "cache_clear")]


@pytest.fixture
def cold_roots(monkeypatch):
    """monkeypatch, with cold rootvectors lru_caches and no evaluator.  Both
    are emptied again after the test's patches are undone, so no patched
    tree, and no node of a node table the test swapped in, outlives the test."""
    for f in _ROOT_CACHES:
        f.cache_clear()
    borelrep._EVALUATORS.clear()
    yield monkeypatch
    monkeypatch.undo()
    for f in _ROOT_CACHES:
        f.cache_clear()
    borelrep._EVALUATORS.clear()
