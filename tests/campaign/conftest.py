"""Shared isolation for the campaign tests."""

import pytest

from repro.experiments.runner import DEFAULT_STANDALONE_CACHE


@pytest.fixture(autouse=True)
def _isolate_env():
    """A cold stand-alone memo."""
    DEFAULT_STANDALONE_CACHE.clear()
    yield
    DEFAULT_STANDALONE_CACHE.clear()
