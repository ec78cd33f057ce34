"""Shared fixtures: seeded RNG streams and cached truncated trees."""

from __future__ import annotations

import functools
import random

import pytest

from drinfeld.tree import truncated_tree


@pytest.fixture
def rng() -> random.Random:
    """Fresh deterministic stream per test."""
    return random.Random(20260818)


@functools.lru_cache(maxsize=None)
def _tree(p: int, radius: int):
    return truncated_tree(p, radius)


@pytest.fixture
def tree_factory():
    """Memoized (p, radius) -> TruncatedTree, shared across the whole run."""
    return _tree
