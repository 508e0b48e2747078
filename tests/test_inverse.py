import itertools
import json
import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _helpers import assert_metric
from tspdual import inverse
from tspdual.cli import cmd_inverse, main
from tspdual.dual import dual_feasible
from tspdual.errors import ConfigError
from tspdual.formulation import build_formulation
from tspdual.instance import (
    DistanceMatrix,
    Tour,
    canonical_tours,
    random_euclidean_instance,
    tour_length,
    validate_distance_matrix,
)
from tspdual.inverse import (
    SearchConfig,
    SearchVerdict,
    _FastEvaluator,
    _search_chunk,
    edm_violations,
    eliminate_mu,
    feasibility_score,
    inverse_search,
    optimality_margins,
)
from tspdual.reduction import default_target, embed_tour, reduce_formulation

SQRT2 = math.sqrt(2.0)


@lru_cache(maxsize=None)
def evaluator(n):
    return _FastEvaluator(n)


@pytest.mark.parametrize("n", range(4, 11))
def test_target_is_identity_tour_in_row_0(n):
    assert np.array_equal(canonical_tours(n)[0], np.arange(n))
    # Y is position-major: block j - 2 holds cities 2..n at position j
    assert np.array_equal(default_target(n).reshape(n - 1, n - 1), np.eye(n - 1))


class TestEliminateMu:
    def test_closed_form_rows(self, distinct_d4):
        # row 2 (target component 0): mu2 = 2(d13 + lam1 + lam5)
        # row 5 (target component 1): mu5 = -2(d32 + d34 + lam2 + lam5)
        r = reduce_formulation(build_formulation(distinct_d4))
        lam = np.array([0.3, -1.2, 0.7, 2.0, -0.4])
        mu = eliminate_mu(r, lam)
        d = distinct_d4.entries
        assert mu[1] == pytest.approx(2 * (d[0, 2] + lam[0] + lam[4]), abs=1e-12)
        assert mu[4] == pytest.approx(
            -2 * (d[2, 1] + d[2, 3] + lam[1] + lam[4]), abs=1e-12
        )

    def test_stationarity_by_construction(self, monkeypatch):
        # the replay's one cone test matches an independent assembly of
        # A_r + diag(mu) and b bit for bit, and pays one eigensolve
        eigvalsh, eigensolves = np.linalg.eigvalsh, []
        monkeypatch.setattr(
            np.linalg, "eigvalsh", lambda a: eigensolves.append(None) or eigvalsh(a)
        )
        rng = np.random.default_rng(0)
        for seed in range(100):
            d, _ = random_euclidean_instance(4, seed)
            r = reduce_formulation(build_formulation(d))
            lam = rng.normal(scale=5.0, size=5)
            mu = eliminate_mu(r, lam)
            A = r.A_r + np.diag(mu)
            b = r.b_r + 0.5 * mu - r.E_r.T @ lam
            residual = float(np.max(np.abs(A @ default_target(4) - b)))
            assert residual <= 1e-12
            before = len(eigensolves)
            breakdown = feasibility_score(d, lam)
            assert len(eigensolves) == before + 1
            assert breakdown.stationarity_residual == residual
            assert breakdown.min_eig == eigvalsh(A)[0]
            assert breakdown.in_cone == dual_feasible(r, lam, mu)[0]


def reversal(n):
    """z = Y' - Y-bar: the embedding of the identity tour reversed, (1, n,
    n - 1, ..., 2), minus the target's."""
    return embed_tour(Tour((1, *range(n, 1, -1)))) - default_target(n)


def reversal_form(entries, lam):
    """z^T M z, with M = A_r + diag(mu) and mu from eliminate_mu."""
    n = len(entries)
    r = reduce_formulation(build_formulation(DistanceMatrix(n, entries)))
    M = r.A_r + np.diag(eliminate_mu(r, lam))
    z = reversal(n)
    return z @ M @ z, M


class TestReversalIdentity:
    """Stationarity at Y-bar gives L(Y') - L(Y-bar) = z^T M z / 2, and for
    symmetric d both tours have the same length, so z^T M z = 0 for every
    d and lambda: lambda_min(M) <= 0 and M is never positive definite."""

    @pytest.mark.parametrize("n", range(3, 11))
    def test_exact_on_every_basis_point(self, n):
        assert np.count_nonzero(reversal(n)) == 4 * ((n - 1) // 2)
        # z^T M z is linear in (d, lambda), and on these points every entry
        # of A_r, b_r and mu is a small multiple of 1/2, so float64 is exact
        no_lam = np.zeros(2 * n - 3)
        for i, j in itertools.combinations(range(n), 2):
            basis = np.zeros((n, n))
            basis[i, j] = basis[j, i] = 1.0
            assert reversal_form(basis, no_lam)[0] == 0.0, (i, j)
        for k, unit in enumerate(np.eye(2 * n - 3)):
            assert reversal_form(np.zeros((n, n)), unit)[0] == 0.0, k

    @settings(max_examples=100, deadline=None)
    @given(st.integers(3, 10), st.integers(0, 2**32 - 1))
    def test_rounds_to_zero_on_random_points(self, n, seed):
        rng = np.random.default_rng(seed)
        mat = np.triu(10.0 ** rng.uniform(-3, 3, (n, n)), 1)  # six decades
        value, M = reversal_form(mat + mat.T, rng.normal(scale=100.0, size=2 * n - 3))
        assert abs(value) <= 1e-14 * np.abs(M).sum()


def two_opt(n):
    """t': the identity tour with cities 4..n-2 reversed, the 2-opt move
    that swaps edges (3, 4) and (n-2, n-1) for (3, n-2) and (4, n-1)."""
    return Tour((1, 2, 3, *range(n - 2, 3, -1), n - 1, n))


def two_opt_rows(n):
    """The rows (2, 4) and (n, n-2) of z and M z, indexed (position, city)
    over 2..n, position-major."""
    def row(position, city):
        return (position - 2) * (n - 1) + city - 2

    return row(2, 4), row(n, n - 2)


def two_opt_sum(r, mu):
    """S = (M z)_(2,4) + (M z)_(n,n-2), with M = A_r + diag(mu)."""
    Mz = (r.A_r + np.diag(mu)) @ reversal(r.n)
    return sum(Mz[row] for row in two_opt_rows(r.n))


class TestTwoOptIdentity:
    """For n >= 7, every symmetric d and every lambda (mu from
    eliminate_mu), (M z)_(2,4) + (M z)_(n,n-2) = L(t') - L(identity), with
    z the reversal above.  z is zero at both rows, so mu does not enter
    them.  A finite dual point that closes the gap has M z = 0 (z^T M z =
    0 and M >= 0), so t' would tie the optimum."""

    @pytest.mark.parametrize("n", range(7, 11))
    def test_exact_on_every_basis_point(self, n):
        # each d pair with lambda = 0 and with each unit lambda: 252, 392,
        # 576 and 810 points; both sides are small integers, so == holds
        z, rows = reversal(n), list(two_opt_rows(n))
        assert not z[rows].any()
        identity = Tour(tuple(range(1, n + 1)))
        lams = [np.zeros(2 * n - 3), *np.eye(2 * n - 3)]
        for i, j in itertools.combinations(range(n), 2):
            basis = np.zeros((n, n))
            basis[i, j] = basis[j, i] = 1.0
            d = DistanceMatrix(n, basis)
            r = reduce_formulation(build_formulation(d))
            gap = tour_length(d, two_opt(n)) - tour_length(d, identity)
            for k, lam in enumerate(lams):
                Mz = (r.A_r + np.diag(eliminate_mu(r, lam))) @ z
                assert Mz[rows[0]] + Mz[rows[1]] == gap, (i, j, k)

    def test_n4_witness(self):
        # below n = 7 a unique optimum does not rule out M z = 0: this
        # metric d and lambda give M z == 0 with both margins 1
        d = validate_distance_matrix([[0, 1, 1, 1], [1, 0, 1, 2], [1, 1, 0, 1], [1, 2, 1, 0]])
        assert_metric(d)
        r = reduce_formulation(build_formulation(d))
        M = r.A_r + np.diag(eliminate_mu(r, np.array([-2.0, 0.0, -2.0, 0.0, 0.0])))
        assert np.array_equal(M @ reversal(4), np.zeros(9))
        assert np.array_equal(optimality_margins(d), [1.0, 1.0])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(7, 10), st.integers(0, 2**32 - 1))
    def test_rounds_on_random_points(self, n, seed):
        # mu is eliminate_mu's plus an arbitrary finite part: z is zero at
        # both rows, so mu is multiplied by 0 there and never enters
        rng = np.random.default_rng(seed)
        mat = np.triu(10.0 ** rng.uniform(-3, 3, (n, n)), 1)  # six decades
        d = DistanceMatrix(n, mat + mat.T)
        r = reduce_formulation(build_formulation(d))
        lam = rng.normal(scale=100.0, size=2 * n - 3)
        free = rng.choice([-1.0, 1.0], r.dim) * 10.0 ** rng.uniform(-3, 12, r.dim)
        gap = tour_length(d, two_opt(n)) - tour_length(d, Tour(tuple(range(1, n + 1))))
        assert abs(two_opt_sum(r, eliminate_mu(r, lam) + free) - gap) <= (
            1e-14 * np.abs(d.entries).sum()
        )

    @pytest.mark.parametrize("n", [5, 6])
    def test_below_seven_on_every_basis_point(self, n):
        # t' is the identity tour.  At n = 6 the sum is 0; at n = 5 position
        # 3 is the neighbour of both position 2 and position n, and the sum
        # is -2 d_34
        assert two_opt(n).order == tuple(range(1, n + 1))
        lams = [np.zeros(2 * n - 3), *np.eye(2 * n - 3)]
        for i, j in itertools.combinations(range(n), 2):
            basis = np.zeros((n, n))
            basis[i, j] = basis[j, i] = 1.0
            r = reduce_formulation(build_formulation(DistanceMatrix(n, basis)))
            expected = -2.0 * basis[2, 3] if n == 5 else 0.0
            for k, lam in enumerate(lams):
                assert two_opt_sum(r, eliminate_mu(r, lam)) == expected, (i, j, k)

    @pytest.mark.parametrize(
        "pairs, lam, margins",
        [
            ([(2, 4), (2, 5), (3, 5)], [-0.5, -0.5, -0.5, -0.5, 0, 0, 0], 11),
            (
                [(1, 3), (1, 4), (1, 5), (2, 4), (3, 6), (4, 6)],
                [-0.5, 0, 0, 0, -0.5, 0.5, -0.5, 0, 0],
                59,
            ),
        ],
        ids=["n5", "n6"],
    )
    def test_n5_n6_witnesses(self, pairs, lam, margins):
        # 0/1 distances on the listed city pairs: M z == 0 exactly while
        # every other tour is longer by at least 1, so n >= 7 is sharp.
        # The n = 5 witness has d_34 = 0, as the n = 5 sum requires
        n = (len(lam) + 3) // 2
        entries = np.zeros((n, n))
        for i, j in pairs:
            entries[i - 1, j - 1] = entries[j - 1, i - 1] = 1.0
        d = validate_distance_matrix(entries)
        r = reduce_formulation(build_formulation(d))
        M = r.A_r + np.diag(eliminate_mu(r, np.array(lam, dtype=float)))
        assert np.array_equal(M @ reversal(n), np.zeros(r.dim))
        gaps = optimality_margins(d)
        assert gaps.shape == (margins,) and gaps.min() >= 1.0


class TestOptimalityMargins:
    def test_unit_square(self, unit_square):
        margins = optimality_margins(unit_square)
        assert margins.shape == (2,)
        assert margins == pytest.approx([2 * SQRT2 - 2, 2 * SQRT2 - 2], abs=1e-12)
        assert np.all(margins > 0)

    def test_all_equal_distances(self):
        d = validate_distance_matrix(np.ones((4, 4)) - np.eye(4))
        margins = optimality_margins(d)
        assert np.array_equal(margins, np.zeros(2))

    def test_margin_count_is_two_at_n4(self, distinct_d4):
        assert optimality_margins(distinct_d4).shape == (2,)


def edm_violations_loop(d):
    """Reference for edm_violations: the triple loop it replaced."""
    mat, n, total = d.entries, d.n, 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            total += max(0.0, inverse.STRICTNESS_MARGIN - mat[i, j])
            for k in range(n):
                if k == i or k == j:
                    continue
                total += max(0.0, mat[i, j] - mat[i, k] - mat[k, j])
    return total


class TestEdmViolations:
    @pytest.mark.parametrize("n", range(3, 11))
    def test_equals_the_loop_bit_for_bit(self, n):
        # Euclidean (no terms), collapsed cities (many positivity terms),
        # six-decade non-metric (many triangle terms), and non-metric with
        # cities k.. closer than the strictness margin, where one pair
        # carries both kinds, so moving its positivity term moves bits
        rng = np.random.default_rng(n)
        for trial in range(10):
            pts = rng.random((n, 2))
            k = rng.integers(0, n - 1)
            collapsed = pts.copy()
            collapsed[k:] = collapsed[-1]
            collapsed[0] += 1e-7 * trial  # positivity terms of varied size
            mat = np.triu(10.0 ** rng.uniform(-3, 3, (n, n)), 1)
            near = mat.copy()
            near[k:, k:] *= 1e-9
            for entries in (
                inverse._points_dvec(n, pts.ravel()[None])[0],
                inverse._points_dvec(n, collapsed.ravel()[None])[0],
                (mat + mat.T).ravel(),
                (near + near.T).ravel(),
            ):
                d = DistanceMatrix(n, entries.reshape(n, n))
                got, expected = edm_violations(d), edm_violations_loop(d)
                assert type(got) is float
                assert np.float64(got).tobytes() == np.float64(expected).tobytes()

    def test_euclidean_instance_clean(self):
        d, _ = random_euclidean_instance(4, 12)
        assert edm_violations(d) == 0.0

    def test_triangle_breach_counted(self):
        mat = np.zeros((4, 4))
        for i in range(4):
            for j in range(i + 1, 4):
                mat[i, j] = mat[j, i] = 1.0
        mat[0, 1] = mat[1, 0] = 5.0  # violates 5 <= 1 + 1 via cities 3 and 4
        d = validate_distance_matrix(mat)
        assert edm_violations(d) == pytest.approx(2 * 2 * 3.0, abs=1e-12)


class TestFeasibilityScore:
    def test_deterministic(self, unit_square):
        a = feasibility_score(unit_square, np.zeros(5))
        b = feasibility_score(unit_square, np.zeros(5))
        assert a.score == b.score
        assert a.min_eig == b.min_eig

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_replay_raises(self, value):
        # a non-finite lambda makes a non-finite shifted matrix, which has
        # no eigenvalue to score
        d, _ = random_euclidean_instance(5, 0)
        lam = np.zeros(7)
        lam[2] = value
        if value == np.inf:
            # inf * 0 in E_r^T lam is an invalid value, an error in this suite
            with pytest.raises(RuntimeWarning, match="invalid value"):
                feasibility_score(d, lam)
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite entry"):
                feasibility_score(d, lam)

    def test_assembled_matrix_structure(self, distinct_d4):
        # diagonal is exactly mu; off-diagonal pattern is the block display
        r = reduce_formulation(build_formulation(distinct_d4))
        lam = np.array([1.0, -2.0, 0.5, 3.0, -1.5])
        mu = eliminate_mu(r, lam)
        M = r.A_r + np.diag(mu)
        assert np.array_equal(np.diag(M), mu)
        d = distinct_d4.entries
        assert M[0, 4] == d[1, 2] and M[0, 5] == d[1, 3]
        assert M[4, 0] == d[2, 1] and M[4, 8] == d[2, 3]
        assert M[8, 3] == d[3, 1] and M[8, 4] == d[3, 2]
        assert M[0, 1] == 0.0 and M[0, 8] == 0.0

    def test_homogeneity(self):
        d, _ = random_euclidean_instance(4, 4)
        lam = np.array([0.2, -0.8, 1.1, 0.0, 0.5])
        base = feasibility_score(d, lam)
        c = 3.5
        scaled = feasibility_score(DistanceMatrix(4, c * d.entries), c * lam)
        base_mu = eliminate_mu(reduce_formulation(build_formulation(d)), lam)
        scaled_mu = eliminate_mu(
            reduce_formulation(build_formulation(DistanceMatrix(4, c * d.entries))),
            c * lam,
        )
        assert scaled_mu == pytest.approx(c * base_mu, rel=1e-12)
        assert scaled.min_eig == pytest.approx(c * base.min_eig, rel=1e-10)

    def test_fast_evaluator_matches_full_chain(self):
        # one batch of 20 rows; each row also equals itself evaluated alone,
        # bit for bit, so a restart's score cannot depend on its batch
        rng = np.random.default_rng(6)
        for n in (4, 7):
            ev = _FastEvaluator(n)
            ds = [random_euclidean_instance(n, seed)[0] for seed in range(20)]
            D = np.array([d.entries.ravel() for d in ds])
            L = rng.normal(scale=3.0, size=(20, 2 * n - 3))
            fast = ev.evaluate(ev.rows(D), L, np.full(20, -np.inf))
            assert fast.shape == (20,)
            for r, d in enumerate(ds):
                full = feasibility_score(d, L[r])
                assert fast[r] == pytest.approx(full.score, rel=1e-10, abs=1e-12)
                alone = ev.evaluate(ev.rows(D[r:r + 1]), L[r:r + 1], np.full(1, -np.inf))
                assert alone[0] == fast[r]

    @pytest.mark.parametrize("n", [4, 5, 7])
    def test_row_alone_equals_its_batch_row_with_many_violations(self, n):
        # collapsed cities give many positivity terms and non-metric rows many
        # triangle terms; their sums must not depend on the batch size, since
        # the search reuses a row's record across batches
        rng = np.random.default_rng(n)
        pts = rng.random((6, n, 2))
        pts[:3, 1:] = pts[:3, -1:]  # cities 2..n coincide
        D = inverse._points_dvec(n, pts.reshape(6, -1))
        mat = np.triu(10.0 ** rng.uniform(-3, 3, (3, n, n)), 1)
        D[3:] = (mat + mat.transpose(0, 2, 1)).reshape(3, -1)
        L = rng.normal(size=(6, 2 * n - 3))
        ev = evaluator(n)
        rows = ev.rows(D)
        # the record starts with D, whose zero d_11 A_r's gather reads
        assert np.array_equal(rows[:, :n * n], D)
        scores = ev.evaluate(rows, L, np.full(6, -np.inf))
        for r in range(6):
            alone = ev.rows(D[r:r + 1])
            assert alone.shape == (1, rows.shape[1])
            assert alone[0].tobytes() == rows[r].tobytes()
            assert ev.evaluate(alone, L[r:r + 1], np.full(1, -np.inf))[0] == scores[r]

    @pytest.mark.parametrize("n", [4, 7, 8])
    def test_fast_margins_equal_replay_margins(self, n):
        rng = np.random.default_rng(n)
        ev = _FastEvaluator(n)
        ds = [random_euclidean_instance(n, seed)[0] for seed in range(4)]
        mat = np.triu(10.0 ** rng.uniform(-3, 3, (n, n)), 1)
        ds.append(validate_distance_matrix(mat + mat.T))  # non-metric
        fast = ev.margins(np.array([d.entries.ravel() for d in ds]))
        assert fast.flags.c_contiguous
        for row, d in zip(fast, ds):
            assert np.array_equal(row, optimality_margins(d))

    def test_fast_evaluator_needs_no_formulation(self, monkeypatch):
        # the fast maps are closed forms, independent of the replay chain
        def must_not_run(*args):
            raise AssertionError("the fast path called the replay chain")

        n = 5
        d = random_euclidean_instance(n, 3)[0]
        lam = np.linspace(-1.0, 1.0, 2 * n - 3)
        expected = feasibility_score(d, lam).score
        monkeypatch.setattr(inverse, "build_formulation", must_not_run)
        monkeypatch.setattr(inverse, "reduce_formulation", must_not_run)
        ev = _FastEvaluator(n)
        score = ev.evaluate(ev.rows(d.entries.ravel()[None]), lam[None], np.full(1, -np.inf))[0]
        assert score == pytest.approx(expected, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("n", range(4, 11))
    def test_fast_maps_have_exact_products(self, n):
        # at most two nonzeros per row, each +-2: every product in mu's
        # matmuls is exact and each entry is one rounded two-term sum,
        # which is what makes a batch row bit-equal to the row alone
        ev = evaluator(n)
        for m in (ev.mu_d, ev.mu_lam):
            assert np.count_nonzero(m, axis=1).max() <= 2
            assert set(np.unique(m[m != 0])) <= {-2.0, 2.0}

    def test_fast_evaluator_holds_no_dense_tour_rows(self):
        n = 10
        ev = _FastEvaluator(n)
        cap = len(canonical_tours(n)) * n
        sizes = {k: v.size for k, v in vars(ev).items() if isinstance(v, np.ndarray)}
        assert ev.edges.size == cap
        assert max(sizes.values()) <= cap, sizes


@st.composite
def scored_batches(draw):
    """(n, D, L): Euclidean rows, rows with collapsed cities (where A_r
    loses entries and lambda_min can equal min(mu) exactly) and non-metric
    rows spanning six decades, with lambdas at three scales."""
    n = draw(st.sampled_from([4, 5, 7, 10]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    row_kind = st.sampled_from(["points", "collapsed", "nonmetric"])
    kinds = draw(st.lists(row_kind, min_size=1, max_size=6))
    rows = []
    for kind in kinds:
        if kind == "nonmetric":
            mat = np.triu(10.0 ** rng.uniform(-3, 3, (n, n)), 1)
            rows.append((mat + mat.T).ravel())
            continue
        pts = rng.random((n, 2))
        if kind == "collapsed":
            pts[draw(st.integers(0, n - 1)):] = pts[-1]  # the last cities coincide
        rows.append(inverse._points_dvec(n, pts.ravel()[None])[0])
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    return n, np.array(rows), rng.normal(scale=scale, size=(len(rows), 2 * n - 3))


def unscreened(ev, rows, L, floor):
    """evaluate with the Cholesky screen off: no row is below its cap."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inverse, "CHOLESKY_MAGNITUDE_CAP", 0.0)
        return ev.evaluate(rows, L, floor)


class TestBoundPruning:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(scored_batches())
    def test_pruned_rows_could_not_beat_the_floor(self, batch):
        n, D, L = batch
        ev = evaluator(n)
        record = ev.rows(D)
        exact = ev.evaluate(record, L, np.full(len(D), -np.inf))
        assert np.isfinite(exact).all()
        floors = {
            "at": exact,
            "ulp-below": np.nextafter(exact, -np.inf),
            "ulp-above": np.nextafter(exact, np.inf),
            "far-below": exact - 1.0 - np.abs(exact),
        }
        # around the screen's margin, and past it where the screen prunes
        for k in (-12, -6, -3):
            floors[f"1e{k}-below"] = exact - 10.0**k * (1.0 + np.abs(exact))
            floors[f"1e{k}-above"] = exact + 10.0**k * (1.0 + np.abs(exact))
        # every floor in one batch, rows never mix; the record is gathered,
        # as the search does for lambda steps
        of = np.tile(np.arange(len(D)), len(floors))
        args = record[of], L[of], np.concatenate(list(floors.values()))
        got, bound_only = ev.evaluate(*args), unscreened(ev, *args)
        # the rows the screen prunes, apart from the min-mu bound's
        screened_out = (got == -np.inf) & (bound_only > -np.inf)
        for name, rows in zip(floors, np.split(np.arange(len(of)), len(floors))):
            got_f, bound_f, out_f = got[rows], bound_only[rows], screened_out[rows]
            floor = floors[name]
            beats = exact > floor
            assert np.array_equal(got_f[beats], exact[beats]), name
            assert np.all((got_f[~beats] == exact[~beats]) | (got_f[~beats] == -np.inf)), name
            assert np.array_equal(bound_f[~out_f], got_f[~out_f]), name
            assert np.all(bound_f[out_f] <= floor[out_f]), name
        assert np.all(ev.evaluate(record, L, np.full(len(D), np.inf)) == -np.inf)

    @pytest.mark.parametrize("n", [4, 7, 10])
    def test_screen_prunes_rows_the_bound_keeps(self, monkeypatch, n):
        # Euclidean rows with lambda = 0: min(mu) sits far above lambda_min, so
        # a floor halfway between the score and the bound keeps every row
        # past the bound, and the screen prunes them all without an eigensolve
        D = np.array([random_euclidean_instance(n, seed)[0].entries.ravel() for seed in range(8)])
        L = np.zeros((8, 2 * n - 3))
        ev = evaluator(n)
        rows = ev.rows(D)
        exact = ev.evaluate(rows, L, np.full(8, -np.inf))
        mu, penalty = rows[:, ev.mu_cols], rows[:, -2]  # lambda = 0: mu is its distance part
        bound = mu.min(1) - penalty
        assert np.all(bound - exact > 0.1)
        floor = (exact + bound) / 2
        solved, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(
            inverse.np.linalg, "eigvalsh", lambda M: solved.append(len(M)) or eigvalsh(M)
        )
        # the bound alone solves every row, though none beats its floor
        assert np.array_equal(unscreened(ev, rows, L, floor), exact)
        assert np.all(exact < floor) and sum(solved) == 8
        solved.clear()
        assert np.all(ev.evaluate(rows, L, floor) == -np.inf)
        assert sum(solved) == 0
        below = np.nextafter(exact, -np.inf)
        assert np.array_equal(ev.evaluate(rows, L, below), exact)
        assert sum(solved) == 8

    def test_screen_constant_keeps_its_bits(self):
        # theta_dim + 6u with dim = (n - 1)^2, pinned bit for bit
        assert [evaluator(n).screen_rel.hex() for n in range(4, 11)] == [
            "0x1.8000000000046p-47", "0x1.160000000009ap-45", "0x1.48000000001adp-44",
            "0x1.4e8000000037ap-43", "0x1.33000000005d7p-42", "0x1.0460000000862p-41",
            "0x1.9f8000000154cp-41",
        ]

    def test_cholesky_gufunc_marks_exactly_the_failures(self):
        # the screen reads a failed factorization as an all-NaN matrix from
        # the gufunc behind np.linalg.cholesky; a numpy that changes this
        # must fail here rather than prune wrongly
        rng = np.random.default_rng(3)
        dim = 36
        X = rng.normal(size=(dim, dim))
        spd = X @ X.T + dim * np.eye(dim)
        eigs = np.linalg.eigvalsh(spd)
        mats = [
            spd,
            spd - (eigs[0] + 1e-3) * np.eye(dim),  # one eigenvalue just below 0
            np.eye(dim),
            -np.eye(dim),
            spd - eigs[0] * np.eye(dim) * (1 - 1e-6),  # barely positive definite
            np.zeros((dim, dim)),
            X + X.T,  # indefinite
        ]
        fails = np.array([False, True, False, True, False, True, True])
        with np.errstate(invalid="ignore"):
            out = inverse.cholesky_lo(np.array(mats))
        assert np.array_equal(np.isnan(out).all(axis=(1, 2)), fails)
        assert np.isfinite(out[~fails]).all()
        for A, factor in zip(np.array(mats)[~fails], out[~fails]):
            assert np.array_equal(factor, np.linalg.cholesky(A))
        with pytest.raises(FloatingPointError):  # the flag errstate silences
            with np.errstate(invalid="raise"):
                inverse.cholesky_lo(np.array(mats))

    def test_eigensolve_count_pinned(self, monkeypatch):
        # rows that reach eigvalsh in a whole n = 7 search: 4736 with the
        # min-mu bound alone; a change that turns the screen off fails here
        solved, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(
            inverse.np.linalg, "eigvalsh", lambda M: solved.append(len(M)) or eigvalsh(M)
        )
        cfg = SearchConfig(n=7, restarts=4, local_iters=2000, seed=77)
        _search_chunk(evaluator(7), cfg, range(4))
        assert sum(solved) == 2025

    def test_bound_prunes_losing_rows(self):
        # collapsed cities 2..n leave A_r = 0, so M = diag(mu) and the bound
        # min(mu) is the score itself: a floor just above it prunes the row
        n = 5
        pts = np.zeros((n, 2))
        pts[0] = (1.0, 0.5)
        D = inverse._points_dvec(n, pts.ravel()[None])
        L = np.random.default_rng(0).normal(size=(1, 2 * n - 3))
        ev = evaluator(n)
        rows = ev.rows(D)
        exact = ev.evaluate(rows, L, np.full(1, -np.inf))
        assert ev.evaluate(rows, L, exact + 1e-6 * abs(exact))[0] == -np.inf
        assert ev.evaluate(rows, L, exact - 1e-6 * abs(exact))[0] == exact[0]


def reference_search(cfg, k):
    """One restart alone, one evaluation at a time: +step, then -step, then
    the next coordinate; the step halves after a sweep with no acceptance.
    Returns (best score, theta, evaluations made)."""
    ev = evaluator(cfg.n)
    theta, scales = inverse._start(cfg, k)

    def score(th):
        rows = ev.rows(inverse._points_dvec(cfg.n, th[None, :2 * cfg.n]))
        return ev.evaluate(rows, th[None, 2 * cfg.n:], np.full(1, -np.inf))[0]

    best, evals, step = score(theta), 1, 1.0
    while True:
        improved = False
        for c in range(theta.size):
            for sign in (1.0, -1.0):
                if evals == cfg.local_iters or step <= inverse.STEP_FLOOR:
                    return best, theta, evals
                cand = theta.copy()
                cand[c] += sign * step * scales[c]
                s = score(cand)
                evals += 1
                if s > best:
                    theta, best, improved = cand, s, True
                    break
        if not improved:
            step *= 0.5


class TestPairedProbes:
    @pytest.mark.parametrize("step_floor", [inverse.STEP_FLOOR, 1e-3])
    @pytest.mark.parametrize("local_iters", [1, 2, 3, 500])
    @pytest.mark.parametrize("n, restarts", [(4, 6), (5, 4), (7, 3)])
    def test_matches_one_restart_at_a_time(
        self, monkeypatch, n, restarts, local_iters, step_floor
    ):
        monkeypatch.setattr(inverse, "STEP_FLOOR", step_floor)
        cfg = SearchConfig(n=n, restarts=restarts, local_iters=local_iters, seed=n)
        scores, thetas = _search_chunk(evaluator(n), cfg, range(restarts))
        for k in range(restarts):
            best, theta, evals = reference_search(cfg, k)
            assert scores[k] == best
            assert np.array_equal(thetas[k], theta)
            assert evals == local_iters or (evals < local_iters and step_floor == 1e-3)
            assert evals == self.evaluations_used(cfg, k)

    @staticmethod
    def evaluations_used(cfg, k):
        """Evaluations that _search_chunk makes for restart k alone: the
        start, every +step, and every -step scored with budget left (a
        finite floor) after its +step was rejected (score <= floor)."""
        ev = _FastEvaluator(cfg.n)
        used, evaluate = [], ev.evaluate

        def counting(rows, L, floor):
            s = evaluate(rows, L, floor)
            used.append(1 if len(L) == 1 else 1 + int(s[0] <= floor[0] and floor[1] < np.inf))
            return s

        ev.evaluate = counting
        _search_chunk(ev, cfg, range(k, k + 1))
        return sum(used)


class TestInverseSearch:
    def test_deterministic_under_seed(self):
        cfg = SearchConfig(restarts=4, local_iters=300, seed=123)
        a, b = cmd_inverse(cfg)[0]["report.json"], cmd_inverse(cfg)[0]["report.json"]
        assert a == b

    def test_monotone_local_refinement(self):
        # a one-restart chunk scores one start row, then per coordinate step
        # a +step and a -step row; the +step's floor is the restart's best
        # before the step
        ev = _FastEvaluator(4)
        cfg = SearchConfig(restarts=6, local_iters=500, seed=7)
        floors, evaluate = [], ev.evaluate

        def recording(rows, L, floor):
            if len(L) == 2:  # a +step row, then a -step row
                floors.append(floor[0])
            return evaluate(rows, L, floor)

        ev.evaluate = recording
        best, _ = _search_chunk(ev, cfg, range(6))
        for k in range(6):
            floors.clear()
            alone, _ = _search_chunk(ev, cfg, range(k, k + 1))
            steps = np.array(floors + [alone[0]])  # bests before each step, then after
            assert len(floors) <= 499 and steps[-1] == best[k]
            assert np.all(np.diff(steps) >= 0)
            assert np.any(np.diff(steps) > 0)

    @pytest.mark.parametrize("step_floor", [inverse.STEP_FLOOR, 1e-3])
    def test_restart_independent_of_its_chunk(self, monkeypatch, step_floor):
        monkeypatch.setattr(inverse, "STEP_FLOOR", step_floor)
        cfg = SearchConfig(restarts=12, local_iters=2000, seed=4)
        ev = _FastEvaluator(4)
        sizes, evaluate = [], ev.evaluate
        ev.evaluate = lambda rows, L, floor: sizes.append(len(L)) or evaluate(rows, L, floor)
        s12, th12 = _search_chunk(ev, cfg, range(12))
        if step_floor == 1e-3:  # restarts left the chunk at different steps
            assert len(set(sizes)) > 2
        for ks in (range(5), range(3, 8), range(9, 10)):
            s, th = _search_chunk(ev, cfg, ks)
            assert np.array_equal(s, s12[ks.start:ks.stop])
            assert np.array_equal(th, th12[ks.start:ks.stop])

    @pytest.mark.parametrize(
        "config",
        [
            {"n": 4, "restarts": 20, "local_iters": 600, "seed": 11},
            {"n": 5, "restarts": 9, "local_iters": 600, "seed": 2},
        ],
    )
    def test_report_independent_of_chunk_size(self, tmp_path, monkeypatch, config):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        reports = []
        ev = evaluator(config["n"])
        row = max(ev.edges.size, ev.dim**2)  # a row's largest array
        for chunk in (1, 7, config["restarts"]):
            # each restart of a chunk scores two rows
            monkeypatch.setattr(inverse, "LOCKSTEP_CELLS", 2 * row * chunk)
            out = tmp_path / f"chunk{chunk}"
            assert main(["inverse", "--config", str(path), "--out", str(out)]) == 0
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1] == reports[2]

    def test_chunk_holds_its_largest_arrays_under_the_cap(self, tmp_path, monkeypatch):
        # at n = 4 a row's 9 x 9 matrix (81 values) outweighs its 12 tour
        # edges, so the cap counts the matrix; the chunk changes no byte
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 4, "restarts": 60, "local_iters": 40, "seed": 2}))
        assert main(["inverse", "--config", str(path), "--out", str(tmp_path / "a")]) == 0
        ev, chunks, search_chunk = evaluator(4), [], inverse._search_chunk
        monkeypatch.setattr(inverse, "LOCKSTEP_CELLS", 1 << 12)
        monkeypatch.setattr(
            inverse, "_search_chunk", lambda *args: chunks.append(len(args[2])) or search_chunk(*args)
        )
        assert main(["inverse", "--config", str(path), "--out", str(tmp_path / "b")]) == 0
        assert sum(chunks) == 60 and len(chunks) > 1
        assert all(2 * k * max(ev.edges.size, ev.dim**2) <= 1 << 12 for k in chunks)
        report = (tmp_path / "a" / "report.json").read_bytes()
        assert (tmp_path / "b" / "report.json").read_bytes() == report

    @pytest.mark.parametrize("n, restarts", [(4, 3), (7, 2)])
    def test_lambda_step_gathers_the_record(self, n, restarts):
        # the start builds each restart's record, and so does every step on
        # a point coordinate (the first 2n of 4n - 3); a lambda step gathers it
        ev = _FastEvaluator(n)
        calls, rows, evaluate = [], ev.rows, ev.evaluate
        ev.rows = lambda D: calls.append("rows") or rows(D)
        ev.evaluate = lambda *args: calls.append("evaluate") or evaluate(*args)
        cfg = SearchConfig(n=n, restarts=restarts, local_iters=300, seed=3)
        _search_chunk(ev, cfg, range(restarts))
        steps = calls.count("evaluate") - 1
        assert steps > 4 * n - 3  # a whole sweep, lambda steps included
        assert calls.count("rows") == 1 + sum(i % (4 * n - 3) < 2 * n for i in range(steps))

    def test_acceptance_inverse_config_pinned(self):
        # acceptance criterion 9's inverse config; the values are those of
        # the one-restart-at-a-time search this lockstep loop replaced
        rep = inverse_search(
            cfg=SearchConfig(n=4, restarts=60, local_iters=2000, seed=0)
        )
        assert rep.best_restart == 13
        assert rep.best_score == pytest.approx(-4.336366912922909e-05, rel=1e-9)

    def test_small_search_stays_negative(self):
        rep = inverse_search(cfg=SearchConfig(restarts=10, local_iters=400, seed=5))
        assert rep.verdict is SearchVerdict.NoFeasiblePointFound
        assert rep.replay.min_eig <= 1e-8
        assert rep.replay.stationarity_residual <= 1e-10
        assert rep.replay.edm_violations == 0.0


class TestVerdictBranch:
    """The counterexample branch of inverse_search, entered by a score
    whose breakdown passes every clause: the verdict then rests on
    in_cone, the result of the replay's one cone test."""

    @pytest.mark.parametrize("replay", ["in_cone", "out_of_cone", "unchanged"])
    def test_verdict_follows_the_replay(self, monkeypatch, replay):
        calls = {"build": 0, "cone": 0}
        build, cone, score = (
            inverse.build_formulation, inverse.dual_feasible, inverse.feasibility_score
        )

        def counting_build(d):
            calls["build"] += 1
            return build(d)

        def counting_cone(*args):
            calls["cone"] += 1
            return cone(*args)

        def passing_score(d, lam):
            b = score(d, lam)
            if replay == "unchanged":
                return b
            return replace(
                b,
                min_eig=1.0,
                in_cone=replay == "in_cone",
                margins=np.ones_like(b.margins),
                edm_violations=0.0,
                stationarity_residual=0.0,
            )

        monkeypatch.setattr(inverse, "build_formulation", counting_build)
        monkeypatch.setattr(inverse, "dual_feasible", counting_cone)
        monkeypatch.setattr(inverse, "feasibility_score", passing_score)
        rep = inverse_search(cfg=SearchConfig(n=5, restarts=2, local_iters=30, seed=3))
        expected = {
            "in_cone": SearchVerdict.FeasibleCounterexample,
            "out_of_cone": SearchVerdict.NoFeasiblePointFound,
            "unchanged": SearchVerdict.NoFeasiblePointFound,
        }[replay]
        assert rep.verdict is expected
        # the replay's one cone test decides the verdict; none runs after it
        assert calls == {"build": 1, "cone": 1}

    def test_exact_triangle_breach_is_no_counterexample(self, monkeypatch, tmp_path):
        # the winner's cities 1, 2 and 3 lie on the line x = 0, and rounding
        # leaves d_13 = 0.9 > fl(d_12 + d_23): a replay that passes every
        # clause and is in the cone is still no counterexample, and the CLI
        # reports a finished search, not bad input
        theta = np.array([0.0, 0.0, 0.0, 0.2, 0.0, 0.9, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])

        def winner(ev, cfg, ks):
            return np.zeros(len(ks)), np.tile(theta, (len(ks), 1))

        def passing_score(d, lam):
            return replace(
                feasibility_score(d, lam),
                min_eig=1.0,
                in_cone=True,
                margins=np.ones(2),
                edm_violations=0.0,
                stationarity_residual=0.0,
            )

        monkeypatch.setattr(inverse, "_search_chunk", winner)
        monkeypatch.setattr(inverse, "feasibility_score", passing_score)
        rep = inverse_search(cfg=SearchConfig(n=4, restarts=1, local_iters=1))
        d = rep.d.entries
        assert d[0, 2] > d[0, 1] + d[1, 2]
        assert rep.replay.in_cone
        assert rep.verdict is SearchVerdict.NoFeasiblePointFound
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 4, "restarts": 1, "local_iters": 1}))
        assert main(["inverse", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


class TestSearchConfig:
    @pytest.mark.parametrize(
        "kwargs, key",
        [
            ({"n": 3}, "n"),
            ({"n": 11}, "n"),
            ({"restarts": -1}, "restarts"),
            ({"local_iters": 0}, "local_iters"),
            ({"seed": -1}, "seed"),
            ({"restarts": 0}, "restarts"),
        ],
    )
    def test_out_of_range_rejected(self, kwargs, key):
        with pytest.raises(ConfigError) as exc:
            SearchConfig(**kwargs)
        assert exc.value.key == key
