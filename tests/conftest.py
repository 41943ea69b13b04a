"""Shared test settings: every property test draws the same examples each run."""

import pytest
from hypothesis import settings

import mosva.wick

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def fresh_elem_terms():
    """An empty contraction memo for the test, emptied again at teardown, so
    no test reads terms another test contracted, with or without a patch."""
    mosva.wick._elem_terms.cache_clear()
    yield mosva.wick._elem_terms
    mosva.wick._elem_terms.cache_clear()
