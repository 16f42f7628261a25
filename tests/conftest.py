import numpy as np
import pytest

from catbranch.forest import FamilyForest


@pytest.fixture
def single_edge():
    """One individual living from 0 to 2."""
    return FamilyForest.from_children([-1], [0.0], [2.0], [[]], [0])


@pytest.fixture
def cherry():
    """Split at 0.5, two leaves at 1.0."""
    return FamilyForest.from_children([-1, 0, 0], [0.0, 0.5, 0.5],
                                      [0.5, 1.0, 1.0], [[1, 2], [], []], [0])


@pytest.fixture
def three_leaf():
    """Splits at 0.5 and 0.8, three leaves at 1.0 (first two are siblings)."""
    return FamilyForest.from_children(
        [-1, 0, 1, 1, 0], [0.0, 0.5, 0.8, 0.8, 0.5],
        [0.5, 0.8, 1.0, 1.0, 1.0], [[1, 4], [2, 3], [], [], []], [0])


@pytest.fixture
def two_tree_forest():
    """Two independent single-edge trees of height 1."""
    return FamilyForest.from_children([-1, -1], [0.0, 0.0], [1.0, 1.0],
                                      [[], []], [0, 1])


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
