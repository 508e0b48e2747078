import numpy as np
import pytest

from _helpers import assert_metric
from tspdual.instance import points_to_distance_matrix, validate_distance_matrix


@pytest.fixture
def unit_square():
    """Corners of the unit square: side 1, diagonal sqrt(2), optimum 4."""
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    d = validate_distance_matrix(points_to_distance_matrix(pts).entries)
    assert_metric(d)
    return d


@pytest.fixture
def distinct_d4():
    """n=4 matrix with six distinct off-diagonal distances (non-metric,
    used for structural checks where entries must be distinguishable)."""
    mat = np.zeros((4, 4))
    vals = iter([1.0, 2.0, 3.0, 5.0, 7.0, 11.0])
    for i in range(4):
        for j in range(i + 1, 4):
            v = next(vals)
            mat[i, j] = v
            mat[j, i] = v
    return validate_distance_matrix(mat)
