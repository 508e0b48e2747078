import numpy as np
import pytest

from _helpers import sample_splus
from tspdual.dual import (
    AscentConfig,
    Termination,
    Verdict,
    assemble,
    default_start,
    dual_ascent,
    dual_feasible,
    dual_value,
    point,
    verify_global,
)
from tspdual.errors import (
    DimensionMismatch,
    NotDualFeasible,
    StartNotDualFeasible,
)
from tspdual.formulation import build_formulation
from tspdual.instance import (
    OracleResult,
    Tour,
    brute_force_optimum,
    random_euclidean_instance,
)
from tspdual.reduction import (
    ReducedProblem,
    build_index_map,
    build_reduced_constraints,
    embed_tour,
    reduce_formulation,
    reduced_objective,
)


@pytest.fixture
def reduced(unit_square):
    return reduce_formulation(build_formulation(unit_square))


@pytest.fixture
def identity_fixture():
    """Hand-built reduced problem with A_r = I and b_r a binary feasible
    target: the dual at (0, 0) recovers the target exactly."""
    idx = build_index_map(4)
    ybar = embed_tour(idx, Tour((1, 2, 3, 4)))
    r = ReducedProblem(
        n=4,
        A_r=np.eye(9),
        b_r=ybar.copy(),
        E_r=build_reduced_constraints(4),
        c0=0.0,
        map=idx,
    )
    return r, ybar


class TestAssemble:
    def test_zero_multipliers(self, reduced):
        A_mat, b_vec = assemble(reduced, point(np.zeros(5), np.zeros(9)))
        assert np.array_equal(A_mat, reduced.A_r)
        assert np.array_equal(b_vec, reduced.b_r)

    def test_uniform_shift(self, reduced):
        A_mat, _ = assemble(reduced, point(np.zeros(5), 3.0 * np.ones(9)))
        assert np.array_equal(A_mat, reduced.A_r + 3.0 * np.eye(9))

    def test_stationarity_row_two(self, distinct_d4):
        # at Y-bar for the identity tour, the second stationarity row reads
        # 0 = -d13 + mu2/2 - (lambda1 + lambda5)
        r = reduce_formulation(build_formulation(distinct_d4))
        ybar = embed_tour(r.map, Tour((1, 2, 3, 4)))
        rng = np.random.default_rng(0)
        lam = rng.normal(size=5)
        mu = rng.normal(size=9)
        A_mat, b_vec = assemble(r, point(lam, mu))
        lhs = (A_mat @ ybar)[1]
        assert lhs == 0.0  # Y-bar_2 = 0 and the A_r row is orthogonal
        d13 = distinct_d4.d(1, 3)
        assert b_vec[1] == pytest.approx(
            -d13 + 0.5 * mu[1] - (lam[0] + lam[4]), abs=1e-14
        )

    def test_dimension_mismatch(self, reduced):
        with pytest.raises(DimensionMismatch):
            assemble(reduced, point(np.zeros(4), np.zeros(9)))


class TestDualFeasible:
    def test_diagonal_dominance(self, reduced):
        mu = 1.0 + np.abs(reduced.A_r).sum(axis=1)
        ok, lo = dual_feasible(reduced, point(np.ones(5), mu))
        assert ok and lo > 0

    def test_zero_mu_indefinite(self, reduced):
        ok, lo = dual_feasible(reduced, point(np.zeros(5), np.zeros(9)))
        assert not ok and lo < 0

    def test_negative_mu(self, reduced):
        ok, _ = dual_feasible(reduced, point(np.zeros(5), -np.ones(9)))
        assert not ok


class TestDualValue:
    def test_rejects_infeasible(self, reduced):
        with pytest.raises(NotDualFeasible):
            dual_value(reduced, point(np.zeros(5), np.zeros(9)))

    def test_large_uniform_mu_bound(self, reduced):
        # the value is nonpositive and bounded by the quadratic-form bound
        for M in (10.0, 100.0, 1000.0):
            p = point(np.zeros(5), M * np.ones(9))
            ev = dual_value(reduced, p)
            _, b_vec = assemble(reduced, p)
            assert ev.value <= 0.0
            assert abs(ev.value) <= float(b_vec @ b_vec) / (2 * ev.min_eig)

    def test_weak_duality_sampled(self, reduced, unit_square):
        optimum = brute_force_optimum(unit_square).best_length
        rng = np.random.default_rng(1)
        for _ in range(200):
            ev = dual_value(reduced, sample_splus(reduced, rng))
            assert ev.value <= optimum + 1e-8

    def test_gradient_residual_form(self, identity_fixture):
        r, ybar = identity_fixture
        ev = dual_value(r, point(np.zeros(5), np.zeros(9)))
        assert np.array_equal(ev.Y, ybar)
        assert np.array_equal(ev.grad_lambda, np.zeros(5))
        assert np.array_equal(ev.grad_mu, np.zeros(9))

    def test_gradient_matches_finite_differences(self, reduced):
        rng = np.random.default_rng(2)
        h = 1e-6
        for _ in range(20):
            p = sample_splus(reduced, rng)
            ev = dual_value(reduced, p)
            grad = np.concatenate([ev.grad_lambda, ev.grad_mu])
            fd = np.zeros_like(grad)
            for i in range(5 + 9):
                for sgn, w in ((1.0, 1.0), (-1.0, -1.0)):
                    lam = p.lam.copy()
                    mu = p.mu.copy()
                    if i < 5:
                        lam[i] += sgn * h
                    else:
                        mu[i - 5] += sgn * h
                    fd[i] += w * dual_value(reduced, point(lam, mu)).value
            fd /= 2 * h
            assert np.linalg.norm(fd - grad) <= 1e-5 * max(
                1.0, np.linalg.norm(grad)
            )

    def test_lagrangian_exact_on_feasible_binaries(self, reduced):
        # the penalty terms vanish on every tour embedding, for any multipliers
        rng = np.random.default_rng(3)
        idx = reduced.map
        import itertools

        for rest in itertools.permutations((2, 3, 4)):
            y = embed_tour(idx, Tour((1,) + rest))
            lam = rng.normal(size=5)
            mu = rng.normal(size=9)
            lagr = (
                0.5 * y @ reduced.A_r @ y
                - reduced.b_r @ y
                + lam @ (reduced.E_r @ y - 1.0)
                + 0.5 * mu @ (y * y - y)
            )
            assert lagr == reduced_objective(reduced, y)

    def test_concavity_on_midpoints(self, reduced):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = sample_splus(reduced, rng)
            q = sample_splus(reduced, rng)
            mid = point(0.5 * (p.lam + q.lam), 0.5 * (p.mu + q.mu))
            ok, _ = dual_feasible(reduced, mid)
            assert ok  # S+ is convex, so midpoints stay inside
            g_mid = dual_value(reduced, mid).value
            g_avg = 0.5 * (
                dual_value(reduced, p).value + dual_value(reduced, q).value
            )
            assert g_mid >= g_avg - 1e-9

    def test_splus_convex_combinations(self, reduced):
        rng = np.random.default_rng(5)
        p = sample_splus(reduced, rng)
        q = sample_splus(reduced, rng)
        for a in np.linspace(0.0, 1.0, 11):
            comb = point(
                a * p.lam + (1 - a) * q.lam, a * p.mu + (1 - a) * q.mu
            )
            ok, _ = dual_feasible(reduced, comb)
            assert ok


class TestDualAscent:
    def test_trajectory_nondecreasing(self, reduced):
        res = dual_ascent(reduced)
        values = [v for v, _, _ in res.trajectory]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_bound_below_optimum(self, reduced, unit_square):
        res = dual_ascent(reduced)
        assert res.best_value <= brute_force_optimum(unit_square).best_length

    def test_restart_is_near_fixed_point(self, reduced):
        res = dual_ascent(reduced)
        res2 = dual_ascent(reduced, start=res.best_point)
        assert abs(res2.best_value - res.best_value) < 1e-10

    def test_rejects_infeasible_start(self, reduced):
        with pytest.raises(StartNotDualFeasible):
            dual_ascent(reduced, start=point(np.zeros(5), np.zeros(9)))

    def test_iteration_cap(self, reduced):
        res = dual_ascent(reduced, cfg=AscentConfig(max_iter=3))
        assert res.iterations == 3
        assert res.termination is Termination.IterationCap

    def test_default_start_feasible(self):
        for seed in range(5):
            d, _ = random_euclidean_instance(4, seed)
            r = reduce_formulation(build_formulation(d))
            ok, _ = dual_feasible(r, default_start(r))
            assert ok


class TestVerifyGlobal:
    def test_mu_zero_fails_cone_membership(self, reduced, unit_square):
        oracle = brute_force_optimum(unit_square)
        verdict = verify_global(reduced, point(np.zeros(5), np.zeros(9)), oracle)
        assert verdict is Verdict.NotInSPlus

    def test_identity_fixture_confirms(self, identity_fixture):
        r, ybar = identity_fixture
        target_value = reduced_objective(r, ybar)
        oracle = OracleResult(
            best_tour=Tour((1, 2, 3, 4)),
            best_length=target_value,
            tours=np.array([[0, 1, 2, 3]]),
            lengths=np.array([target_value]),
        )
        verdict = verify_global(r, point(np.zeros(5), np.zeros(9)), oracle)
        assert verdict is Verdict.ConfirmsTheorem2

    def test_ascent_output_does_not_confirm(self, reduced, unit_square):
        # the expected negative outcome: the dual supremum sits on the cone
        # boundary with a non-binary recovered Y, so no certificate appears
        oracle = brute_force_optimum(unit_square)
        res = dual_ascent(reduced)
        verdict = verify_global(reduced, res.best_point, oracle)
        assert verdict in (
            Verdict.NotCriticalPoint,
            Verdict.RecoveredYNotBinary,
        )
        ev = dual_value(reduced, res.best_point)
        assert np.max(np.abs(ev.Y * ev.Y - ev.Y)) > 1e-6
