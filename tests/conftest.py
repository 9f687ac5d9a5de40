from __future__ import annotations

import pytest

from qccdts import DtsFamily, PolyMatrix, classify


@pytest.fixture
def example_family() -> DtsFamily:
    """The running (2,2) strong family: sets {0,1} and {0,2}."""
    return classify([(0, 1), (0, 2)])


@pytest.fixture
def example_x() -> PolyMatrix:
    return PolyMatrix.from_supports([(0, 1), (0, 2), (0,)])


@pytest.fixture
def example_z_swapped() -> PolyMatrix:
    return PolyMatrix.from_supports([(0, 2), (1, 2), (0,)])


@pytest.fixture
def example_z_identity() -> PolyMatrix:
    return PolyMatrix.from_supports([(1, 2), (0, 2), (0,)])
