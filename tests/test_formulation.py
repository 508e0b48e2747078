import itertools
import math

import numpy as np
import pytest

from tspdual.formulation import (
    assignment_constraints,
    build_formulation,
    encode_tour,
    objective,
)
from tspdual.instance import (
    DistanceMatrix,
    Tour,
    random_euclidean_instance,
    tour_length,
    validate_distance_matrix,
)

SQRT2 = math.sqrt(2.0)


def stacked_vector_A(d: DistanceMatrix) -> np.ndarray:
    """Independent oracle: A as a sum over k of a diagonal matrix times a
    stack of unit row vectors (predecessor and successor position of each
    block), the construction used in the objective-rewriting proof.
    """
    n = d.n
    A = np.zeros((n * n, n * n))
    for k in range(1, n + 1):
        diag = np.tile(d.entries[:, k - 1], n)
        M = np.zeros((n * n, n * n))
        for j in range(1, n + 1):
            pred_col = ((j - 2) % n) * n + (k - 1)
            succ_col = (j % n) * n + (k - 1)
            for row in range((j - 1) * n, j * n):
                M[row, pred_col] += 1.0
                M[row, succ_col] += 1.0
        A += np.diag(diag) @ M
    return A


class TestBuildFormulation:
    def test_matches_stacked_vector_construction(self):
        # bytes, not values: array_equal cannot tell -0.0 from 0.0, and a
        # -0.0 distance must reach A as the oracle's 0.0 + -0.0 = 0.0
        for n in range(3, 11):
            d, _ = random_euclidean_instance(n, n + 100)
            signed = d.entries.copy()
            np.fill_diagonal(signed, -0.0)
            signed[0, n - 1] = signed[n - 1, 0] = -0.0
            for dm in (d, validate_distance_matrix(signed)):
                A = build_formulation(dm).A
                assert A.tobytes() == stacked_vector_A(dm).tobytes()

    def test_y_submatrix_block_structure(self, distinct_d4):
        # the 9x9 submatrix on cities/positions 2..4 is block-tridiagonal
        # in the trailing principal submatrix of d
        f = build_formulation(distinct_d4)
        idx = [(j - 1) * 4 + (i - 1) for j in (2, 3, 4) for i in (2, 3, 4)]
        sub = f.A[np.ix_(idx, idx)]
        d2 = distinct_d4.entries[1:, 1:]
        z = np.zeros((3, 3))
        expected = np.block([[z, d2, z], [d2, z, d2], [z, d2, z]])
        assert np.array_equal(sub, expected)

    def test_zero_distances(self):
        d = validate_distance_matrix(np.zeros((4, 4)))
        f = build_formulation(d)
        assert not f.A.any()
        C, D = assignment_constraints(4)
        assert C.sum() == 16 and D.sum() == 16

    def test_symmetry_and_diagonal(self):
        d, _ = random_euclidean_instance(5, 8)
        f = build_formulation(d)
        assert np.max(np.abs(f.A - f.A.T)) == 0.0
        assert not np.diag(f.A).any()
        assert np.all(f.A >= 0)

    def test_constraint_rows(self):
        for n in (3, 4, 5):
            C, D = assignment_constraints(n)
            assert np.all(C.sum(axis=1) == n)
            assert np.all(D.sum(axis=1) == n)
            assert np.array_equal(C @ D.T, np.ones((n, n)))


class TestEncodeTour:
    def test_identity_tour_components(self):
        x = encode_tour(Tour((1, 2, 3, 4)))
        # 1-based components 1, 6, 11, 16
        assert list(np.nonzero(x)[0]) == [0, 5, 10, 15]

    def test_n3_tour(self):
        x = encode_tour(Tour((3, 1, 2)))
        # 1-based components 3, 4, 8
        assert list(np.nonzero(x)[0]) == [2, 3, 7]

    def test_round_trip_all_tours_n4(self):
        for perm in itertools.permutations((1, 2, 3, 4)):
            blocks = encode_tour(Tour(perm)).reshape(4, 4)  # one row per position
            assert tuple(int(np.argmax(b)) + 1 for b in blocks) == perm

    def test_encoding_is_feasible(self):
        C, D = assignment_constraints(4)
        for perm in itertools.permutations((1, 2, 3, 4)):
            x = encode_tour(Tour(perm))
            assert np.array_equal(C @ x, np.ones(4))
            assert np.array_equal(D @ x, np.ones(4))
            assert np.array_equal(x * x, x)


class TestObjective:
    def test_unit_square_values(self, unit_square):
        f = build_formulation(unit_square)
        assert objective(f, encode_tour(Tour((1, 2, 3, 4)))) == 4.0
        got = objective(f, encode_tour(Tour((1, 2, 4, 3))))
        assert got == pytest.approx(2 + 2 * SQRT2, abs=1e-14)

    def test_zero_vector(self, unit_square):
        f = build_formulation(unit_square)
        assert objective(f, np.zeros(16)) == 0.0

    def test_equals_tour_length_exhaustively(self):
        for n in (3, 4, 5):
            for seed in range(5):
                d, _ = random_euclidean_instance(n, seed)
                f = build_formulation(d)
                for perm in itertools.permutations(range(1, n + 1)):
                    t = Tour(perm)
                    assert objective(f, encode_tour(t)) == pytest.approx(
                        tour_length(d, t), abs=1e-12
                    )

    def test_dimension_mismatch(self, unit_square):
        f = build_formulation(unit_square)
        with pytest.raises(ValueError) as exc:
            objective(f, np.zeros(9))
        assert str(exc.value) == "expected length 16, got shape (9,)"

