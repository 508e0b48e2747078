import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import assert_metric
from tspdual.errors import InstanceError, TspdualError
from tspdual.instance import (
    ORACLE_MAX_CITIES,
    Tour,
    brute_force_optimum,
    canonical_tour,
    canonical_tours,
    instance_from_dict,
    random_euclidean_instance,
    read_json,
    save_instance,
    tour_length,
    tour_lengths,
    validate_distance_matrix,
)

SQRT2 = math.sqrt(2.0)


class TestValidation:
    def test_unit_square_valid(self, unit_square):
        assert unit_square.n == 4
        assert unit_square.entries[0, 1] == 1.0
        assert unit_square.entries[0, 2] == SQRT2

    def test_negative_distance(self):
        mat = np.zeros((3, 3))
        mat[0, 1] = mat[1, 0] = -1.0
        mat[0, 2] = mat[2, 0] = 1.0
        mat[1, 2] = mat[2, 1] = 1.0
        with pytest.raises(InstanceError) as exc:
            validate_distance_matrix(mat)
        assert str(exc.value) == "d[1,2] = -1.0 is negative"

    def test_nonzero_diagonal(self):
        mat = np.ones((3, 3))
        with pytest.raises(InstanceError) as exc:
            validate_distance_matrix(mat)
        assert str(exc.value) == "d[1,1] = 1.0 must be zero"

    def test_asymmetric(self):
        mat = np.zeros((3, 3))
        mat[0, 1] = 1.0
        mat[1, 0] = 2.0
        with pytest.raises(InstanceError) as exc:
            validate_distance_matrix(mat)
        assert str(exc.value) == "d[1,2] = 1.0 != d[2,1] = 2.0"

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite(self, value):
        # a NaN entry is not reported as an asymmetry, though NaN != NaN
        mat = np.ones((3, 3)) - np.eye(3)
        mat[1, 2] = mat[2, 1] = value
        with pytest.raises(InstanceError) as exc:
            validate_distance_matrix(mat)
        assert str(exc.value) == f"d[2,3] = {value!r} is not finite"

    def test_too_small(self):
        with pytest.raises(InstanceError):
            validate_distance_matrix(np.zeros((2, 2)))


def loop_validate(mat):
    """Reference: the entry-by-entry checks validate_distance_matrix made
    before it was vectorised, in their order (asymmetry before sign on a
    pair), on a finite square matrix, with their messages."""
    n = len(mat)

    def entry(i, j):
        return f"d[{i + 1},{j + 1}] = {float(mat[i, j])!r}"

    for i in range(n):
        if mat[i, i] != 0.0:
            raise InstanceError(f"{entry(i, i)} must be zero")
    for i in range(n):
        for j in range(i + 1, n):
            if mat[i, j] != mat[j, i]:
                raise InstanceError(f"{entry(i, j)} != {entry(j, i)}")
            if mat[i, j] < 0.0:
                raise InstanceError(f"{entry(i, j)} is negative")


@st.composite
def near_metric_matrices(draw):
    """Symmetric matrices with a zero diagonal, from a few distances that
    often break the triangle inequality, then a few corrupted entries."""
    n = draw(st.integers(3, 6))
    values = st.sampled_from([0.0, 0.1, 1.0, 1.5, 2.0, 3.0, 2.0 + 1e-15])
    mat = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            mat[i, j] = mat[j, i] = draw(values)
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    corruption = st.tuples(cell, st.sampled_from([-1.0, -0.0, 0.5]), st.booleans())
    for (i, j), value, both in draw(st.lists(corruption, max_size=3)):
        mat[i, j] = value
        if both:
            mat[j, i] = value
    return mat


@settings(max_examples=300, deadline=None)
@given(mat=near_metric_matrices())
def test_validation_matches_loop_reference(mat):
    try:
        loop_validate(mat)
    except InstanceError as exc:
        expected = exc
    else:
        expected = None
    if expected is None:
        assert np.array_equal(validate_distance_matrix(mat).entries, mat)
        return
    with pytest.raises(type(expected)) as got:
        validate_distance_matrix(mat)
    assert str(got.value) == str(expected)


class TestTourLength:
    def test_unit_square_identity(self, unit_square):
        assert tour_length(unit_square, Tour((1, 2, 3, 4))) == 4.0

    def test_unit_square_crossing(self, unit_square):
        got = tour_length(unit_square, Tour((1, 2, 4, 3)))
        assert got == pytest.approx(2 + 2 * SQRT2, abs=1e-15)

    def test_rotations_equal(self):
        d, _ = random_euclidean_instance(3, 11)
        base = tour_length(d, Tour((1, 2, 3)))
        for t in [(2, 3, 1), (3, 1, 2)]:
            assert tour_length(d, Tour(t)) == pytest.approx(base, abs=1e-14)

    def test_dimension_mismatch(self, unit_square):
        with pytest.raises(ValueError) as exc:
            tour_length(unit_square, Tour((1, 2, 3)))
        assert str(exc.value) == "tour has 3 cities, matrix has 4"

    @pytest.mark.parametrize("order", [(1, 1, 2), (1, 2, 4), (0, 1, 2)])
    def test_non_permutation_is_a_contract_error(self, order):
        # no tour is read from input, so a bad one is a defect, not bad input
        with pytest.raises(ValueError) as exc:
            Tour(order)
        assert not isinstance(exc.value, TspdualError)
        assert str(exc.value) == f"tour {order} is not a permutation of 1..3"

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000), st.integers(4, 7), st.integers(0, 6))
    def test_rotation_and_reversal_invariance(self, seed, n, shift):
        d, _ = random_euclidean_instance(n, seed)
        rng = np.random.default_rng(seed + 1)
        order = tuple(rng.permutation(n) + 1)
        rotated = order[shift % n:] + order[:shift % n]
        reversed_ = order[::-1]
        base = tour_length(d, Tour(order))
        assert tour_length(d, Tour(rotated)) == pytest.approx(base, abs=1e-12)
        assert tour_length(d, Tour(reversed_)) == pytest.approx(base, abs=1e-12)


class TestOracle:
    def test_unit_square(self, unit_square):
        res = brute_force_optimum(unit_square)
        assert res.best_tour.order == (1, 2, 3, 4)
        assert res.best_length == 4.0
        assert canonical_tours(4).shape == (3, 4)  # the oracle's table at n=4
        assert tour_lengths(unit_square).shape == (3,)

    def test_tie_break_all_equal(self):
        for n in (4, 5):
            mat = np.ones((n, n)) - np.eye(n)
            d = validate_distance_matrix(mat)
            res = brute_force_optimum(d)
            assert res.best_tour.order == tuple(range(1, n + 1))
            assert np.all(tour_lengths(d) == float(n))

    def test_fix_first_matches_full_enumeration(self):
        # the oracle enumerates only tours with city 1 first; the n!
        # permutations, each measured on its canonical form, give the same table
        d, _ = random_euclidean_instance(5, 3)
        res = brute_force_optimum(d)
        table = {
            tuple(int(c) + 1 for c in row): float(length)
            for row, length in zip(canonical_tours(5), tour_lengths(d))
        }
        full = {}
        for order in itertools.permutations(range(1, 6)):
            key = canonical_tour(Tour(order)).order
            if key not in full:
                full[key] = float(tour_length(d, Tour(key)))
        assert full == table
        best_length = min(full.values())
        assert res.best_length == best_length
        assert res.best_tour.order == min(k for k, v in full.items() if v == best_length)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_table_is_sorted_canonical_tours(self, n):
        every = {
            canonical_tour(Tour(order)).order
            for order in itertools.permutations(range(1, n + 1))
        }
        table = canonical_tours(n)
        assert [tuple(int(c) + 1 for c in row) for row in table] == sorted(every)
        assert not table.flags.writeable
        assert table.flags.f_contiguous  # each tour position is one column

    @pytest.mark.parametrize("n", [9, 10])
    @pytest.mark.parametrize("kind", ["euclidean", "ties", "negative-zero"])
    def test_tour_lengths_match_the_fancy_index_sum_bitwise(self, n, kind):
        d, _ = random_euclidean_instance(n, 200 + n)
        if kind == "ties":
            d = validate_distance_matrix(np.ones((n, n)) - np.eye(n))
        elif kind == "negative-zero":  # -0.0 on the diagonal and on some edges
            mat = d.entries.copy()
            edges = np.triu(np.random.default_rng(n).random((n, n)) < 0.3, 1)
            mat[edges | edges.T] = -0.0
            np.fill_diagonal(mat, -0.0)
            d = validate_distance_matrix(mat)
            assert np.signbit(d.entries[edges]).all()
        tours = canonical_tours(n)
        reference = np.zeros(len(tours))
        for j in range(n):
            reference += d.entries[tours[:, j], tours[:, (j + 1) % n]]
        assert tour_lengths(d).tobytes() == reference.tobytes()

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("kind", ["euclidean", "nonmetric"])
    def test_tour_lengths_match_tour_length_bitwise(self, n, kind):
        if kind == "euclidean":
            d, _ = random_euclidean_instance(n, 100 + n)
        else:  # spread over six decades, so the order of the sum shows
            rng = np.random.default_rng(n)
            mat = np.triu(10.0 ** rng.uniform(-3, 3, (n, n)), 1)
            d = validate_distance_matrix(mat + mat.T)
        for row, length in zip(canonical_tours(n), tour_lengths(d)):
            assert length == tour_length(d, Tour(tuple(int(c) + 1 for c in row)))

    def test_guard(self):
        d, _ = random_euclidean_instance(11, 0)
        with pytest.raises(InstanceError) as exc:
            brute_force_optimum(d)
        assert str(exc.value) == "n = 11 exceeds enumeration guard 10"

    def test_gather_index_fits_the_table_dtype(self):
        # tour_lengths gathers entry i * n + j with the table's int8 cities;
        # a guard raised past 11 cities would wrap that index silently
        assert canonical_tours(ORACLE_MAX_CITIES).dtype == np.int8
        assert ORACLE_MAX_CITIES**2 - 1 <= np.iinfo(np.int8).max

    def test_beats_random_tours(self):
        d, _ = random_euclidean_instance(6, 42)
        best = brute_force_optimum(d).best_length
        rng = np.random.default_rng(43)
        for _ in range(100):
            t = Tour(tuple(rng.permutation(6) + 1))
            assert best <= tour_length(d, t) + 1e-12

    def test_canonical_tour(self):
        assert canonical_tour(Tour((3, 1, 2))).order == (1, 2, 3)
        assert canonical_tour(Tour((1, 4, 3, 2))).order == (1, 2, 3, 4)


class TestRandomInstances:
    def test_determinism(self):
        d1, p1 = random_euclidean_instance(4, 17)
        d2, p2 = random_euclidean_instance(4, 17)
        assert np.array_equal(d1.entries, d2.entries)
        assert np.array_equal(p1, p2)

    def test_metric_for_many_seeds(self):
        for seed in range(100):
            d, _ = random_euclidean_instance(4, seed)
            assert_metric(validate_distance_matrix(d.entries))

    def test_range(self):
        d, _ = random_euclidean_instance(5, 9)
        off = d.entries[~np.eye(5, dtype=bool)]
        assert np.all(off > 0)
        assert np.all(off <= SQRT2)


class TestInstanceIO:
    def test_round_trip(self, tmp_path, unit_square):
        path = tmp_path / "inst.json"
        save_instance(path, unit_square)
        d, points = instance_from_dict(read_json(path))
        assert np.array_equal(d.entries, unit_square.entries)
        assert points is None

    def test_points_round_trip(self, tmp_path):
        d, pts = random_euclidean_instance(4, 5)
        path = tmp_path / "inst.json"
        save_instance(path, d, pts)
        d2, pts2 = instance_from_dict(read_json(path))
        assert np.array_equal(d.entries, d2.entries)
        assert np.array_equal(pts, pts2)

    def test_bad_length(self):
        with pytest.raises(InstanceError):
            instance_from_dict({"n": 3, "d": [0.0] * 8})

    def test_json_ints_read_as_reals(self):
        payload = {"n": 3, "d": [0, 1, 1, 1, 0, 1, 1, 1, 0], "points": [[0, 0], [1, 0], [0, 1]]}
        d, points = instance_from_dict(payload)
        assert d.entries.dtype == points.dtype == np.float64
        assert points.shape == (3, 2)
        assert d.entries[0, 1] == 1.0
