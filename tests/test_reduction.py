import itertools
import math

import numpy as np
import pytest

from tspdual.errors import TourDoesNotFixCityOne
from tspdual.formulation import build_formulation, encode_tour, objective
from tspdual.instance import (
    DistanceMatrix,
    Tour,
    random_euclidean_instance,
    validate_distance_matrix,
)
from tspdual.reduction import (
    build_reduced_constraints,
    embed_tour,
    linear_maps,
    reduce_formulation,
    reduced_objective,
    reduced_to_dict,
)


def tours_fixing_city_one(n):
    for rest in itertools.permutations(range(2, n + 1)):
        yield Tour((1,) + rest)


class TestReduce:
    def test_n4_matches_closed_forms(self, distinct_d4):
        r = reduce_formulation(build_formulation(distinct_d4))
        d1 = distinct_d4.entries[0, 1:]
        d2 = distinct_d4.entries[1:, 1:]
        z = np.zeros((3, 3))
        assert np.array_equal(r.A_r, np.block([[z, d2, z], [d2, z, d2], [z, d2, z]]))
        assert np.array_equal(r.b_r, np.concatenate([-d1, np.zeros(3), -d1]))
        expected_E = np.array(
            [
                [1, 1, 1, 0, 0, 0, 0, 0, 0],
                [0, 0, 0, 1, 1, 1, 0, 0, 0],
                [0, 0, 0, 0, 0, 0, 1, 1, 1],
                [1, 0, 0, 1, 0, 0, 1, 0, 0],
                [0, 1, 0, 0, 1, 0, 0, 1, 0],
            ],
            dtype=float,
        )
        assert np.array_equal(r.E_r, expected_E)

    def test_E_r_matches_its_definition(self):
        for n in range(3, 11):
            m = n - 1
            expected = np.zeros((2 * n - 3, m * m))
            for j in range(m):  # position j + 2: ones on its own block
                expected[j, j * m:(j + 1) * m] = 1.0
            for i in range(m - 1):  # city i + 2: ones at stride n - 1
                expected[m + i, i::m] = 1.0
            E_r = build_reduced_constraints(n)
            # dual_value's E_r @ y sums in an order that follows the layout
            assert E_r.dtype == np.float64 and E_r.flags.c_contiguous
            assert E_r.tobytes() == expected.tobytes()
            d, _ = random_euclidean_instance(n, n)
            assert reduce_formulation(build_formulation(d)).E_r.tobytes() == expected.tobytes()

    def test_c0_zero(self):
        for n in (3, 4, 5):
            d, _ = random_euclidean_instance(n, n + 20)
            r = reduce_formulation(build_formulation(d))
            assert r.c0 == 0.0

    def test_reduced_matrix_shape_and_symmetry(self):
        d, _ = random_euclidean_instance(5, 2)
        r = reduce_formulation(build_formulation(d))
        assert r.A_r.shape == (16, 16)
        assert r.E_r.shape == (7, 16)
        assert np.max(np.abs(r.A_r - r.A_r.T)) == 0.0
        assert not np.diag(r.A_r).any()

    def test_E_r_row_sums(self):
        for n in (3, 4, 5, 6):
            d, _ = random_euclidean_instance(n, n)
            r = reduce_formulation(build_formulation(d))
            sums = r.E_r.sum(axis=1)
            assert np.all(sums == n - 1)

    def test_E_r_full_row_rank(self):
        for n in (3, 4, 5, 6):
            d, _ = random_euclidean_instance(n, n)
            r = reduce_formulation(build_formulation(d))
            assert np.linalg.matrix_rank(r.E_r) == 2 * n - 3


def probed_maps(n):
    """Reference for linear_maps: A_r and b_r are linear in d, so reducing
    the full formulation of each basis matrix reads off one column of each
    map.  Returns (gather index of A_r with n^2 for a zero, b_r map)."""
    n2, dim = n * n, (n - 1) ** 2
    T = np.zeros((dim * dim, n2))
    B = np.zeros((dim, n2))
    for m in range(n2):
        basis = np.zeros((n, n))
        basis[m // n, m % n] = 1.0
        r = reduce_formulation(build_formulation(DistanceMatrix(n, basis)))
        T[:, m] = r.A_r.ravel()
        B[:, m] = r.b_r
    assert set(np.unique(T)) <= {0.0, 1.0} and T.sum(1).max() == 1.0
    return np.where(T.any(1), T.argmax(1), n2).reshape(dim, dim), B


class TestLinearMaps:
    @pytest.mark.parametrize("n", range(3, 11))
    def test_equal_the_probed_reduction(self, n):
        a_index, b_map = linear_maps(n)
        probed_index, probed_b = probed_maps(n)
        assert np.array_equal(a_index, probed_index)
        assert np.array_equal(b_map, probed_b)

    def test_applied_to_d_give_the_reduced_problem(self):
        for n in range(3, 11):
            a_index, b_map = linear_maps(n)
            rng = np.random.default_rng(n)
            mat = np.triu(10.0 ** rng.uniform(-3, 3, (n, n)), 1)
            nonmetric = validate_distance_matrix(mat + mat.T)  # six decades
            for d in (random_euclidean_instance(n, n + 30)[0], nonmetric):
                r = reduce_formulation(build_formulation(d))
                dvec = d.entries.ravel()
                assert np.array_equal(np.append(dvec, 0.0)[a_index], r.A_r)
                assert np.array_equal(b_map @ dvec, r.b_r)
                assert r.c0 == 0.0

    def test_cached_and_read_only(self):
        maps = linear_maps(5)
        assert linear_maps(5) is maps
        for arr in maps:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 1


class TestEmbedTour:
    def test_identity_tour(self):
        y = embed_tour(Tour((1, 2, 3, 4)))
        assert list(y) == [1, 0, 0, 0, 1, 0, 0, 0, 1]

    def test_spec_indices(self):
        y = embed_tour(Tour((1, 3, 4, 2)))
        # reduced components 2, 6, 7 (1-based)
        assert list(np.nonzero(y)[0]) == [1, 5, 6]

    def test_rejects_unfixed_tour(self):
        with pytest.raises(TourDoesNotFixCityOne):
            embed_tour(Tour((2, 1, 3, 4)))

    def test_constraints_satisfied(self):
        for n in (3, 4, 5):
            d, _ = random_euclidean_instance(n, n)
            r = reduce_formulation(build_formulation(d))
            for t in tours_fixing_city_one(n):
                y = embed_tour(t)
                assert np.array_equal(r.E_r @ y, np.ones(2 * n - 3))
                assert np.array_equal(y * y, y)

    def test_extract_inverts_embed(self):
        # Y is position-major: block j - 2 holds cities 2..n at position j
        for t in tours_fixing_city_one(5):
            blocks = embed_tour(t).reshape(4, 4)
            assert (1, *(blocks.argmax(axis=1) + 2)) == t.order


class TestReducedObjective:
    def test_zero_vector(self, unit_square):
        r = reduce_formulation(build_formulation(unit_square))
        assert reduced_objective(r, np.zeros(9)) == 0.0

    def test_unit_square_identity_tour(self, unit_square):
        r = reduce_formulation(build_formulation(unit_square))
        y = embed_tour(Tour((1, 2, 3, 4)))
        assert reduced_objective(r, y) == 4.0

    def test_objective_preserved_exhaustively(self):
        for n in (3, 4, 5):
            for seed in range(3):
                d, _ = random_euclidean_instance(n, seed)
                f = build_formulation(d)
                r = reduce_formulation(f)
                for t in tours_fixing_city_one(n):
                    full = objective(f, encode_tour(t))
                    red = reduced_objective(r, embed_tour(t)) + r.c0
                    assert red == pytest.approx(full, abs=1e-12)


def test_reduced_to_dict_round_trips(unit_square):
    r = reduce_formulation(build_formulation(unit_square))
    payload = reduced_to_dict(r)
    assert payload["n"] == 4
    assert payload["c0"] == 0.0
    assert np.array_equal(np.array(payload["A_r"]), r.A_r)
    assert np.array_equal(np.array(payload["E_r"]), r.E_r)
