import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _helpers import sample_splus
from tspdual import dual
from tspdual.cli import _run_dual
from tspdual.dual import (
    DualEvaluation,
    Termination,
    Verdict,
    default_start,
    dual_ascent,
    dual_feasible,
    dual_value,
    shifted_system,
    verify_global,
)
from tspdual.errors import NotDualFeasible, TspdualError
from tspdual.formulation import build_formulation
from tspdual.instance import (
    DistanceMatrix,
    Tour,
    brute_force_optimum,
    random_euclidean_instance,
    validate_distance_matrix,
)
from tspdual.reduction import (
    ReducedProblem,
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
    ybar = embed_tour(Tour((1, 2, 3, 4)))
    r = ReducedProblem(
        n=4,
        A_r=np.eye(9),
        b_r=ybar.copy(),
        E_r=build_reduced_constraints(4),
        c0=0.0,
    )
    return r, ybar


def reference_cone_failure(A_mat):
    """The cone test with a Cholesky attempt on every point: finiteness,
    eigvalsh, Cholesky, then PD_TOLERANCE."""
    if not np.isfinite(A_mat).all():
        return "shifted matrix has a non-finite entry", math.nan
    lo = float(np.linalg.eigvalsh(A_mat)[0])
    try:
        np.linalg.cholesky(A_mat)
    except np.linalg.LinAlgError:
        return f"Cholesky factorization failed (min eigenvalue {lo!r})", lo
    if lo <= dual.PD_TOLERANCE:
        return f"min eigenvalue {lo!r} <= {dual.PD_TOLERANCE}", lo
    return None, lo


def reference_dual_value(r, lam, mu):
    """dual_value from scratch: the cone test first, then the solve."""
    A_mat = r.A_r + np.diag(mu)
    b_vec = r.b_r + 0.5 * mu - r.E_r.T @ lam
    failure, lo = reference_cone_failure(A_mat)
    if failure is not None:
        raise NotDualFeasible(failure)
    try:
        y = np.linalg.solve(A_mat, b_vec)
    except np.linalg.LinAlgError:
        y = None
    if y is None or not np.isfinite(y).all():
        raise NotDualFeasible(f"the solve for Y broke down (min eigenvalue {lo!r})")
    grad_lambda = r.E_r @ y - np.ones(r.n_multipliers)
    grad_mu = 0.5 * (y * y - y)
    return DualEvaluation(
        lam=lam,
        mu=mu,
        value=-0.5 * float(b_vec @ y) - float(np.sum(lam)),
        Y=y,
        grad_lambda=grad_lambda,
        grad_mu=grad_mu,
        grad_norm=float(np.sqrt(np.sum(grad_lambda**2) + np.sum(grad_mu**2))),
        min_eig=lo,
    )


def euclidean_reduced(n, seed):
    d, _ = random_euclidean_instance(n, seed)
    return reduce_formulation(build_formulation(d))


def assert_same_evaluation(ev, ref):
    assert type(ev) is DualEvaluation
    assert np.float64(ev.value).tobytes() == np.float64(ref.value).tobytes()
    assert np.float64(ev.min_eig).tobytes() == np.float64(ref.min_eig).tobytes()
    assert np.float64(ev.grad_norm).tobytes() == np.float64(ref.grad_norm).tobytes()
    for got, want in (
        (ev.lam, ref.lam),
        (ev.mu, ref.mu),
        (ev.Y, ref.Y),
        (ev.grad_lambda, ref.grad_lambda),
        (ev.grad_mu, ref.grad_mu),
    ):
        assert got.tobytes() == want.tobytes()


class TestAssemble:
    """shifted_system's assembly of A_r + diag(mu) and b at each point."""

    def test_zero_multipliers(self, reduced):
        W, b = shifted_system(reduced, np.zeros(5), np.zeros(9))
        assert np.array_equal(W, reduced.A_r)
        assert np.array_equal(b, reduced.b_r)

    def test_uniform_shift(self, reduced):
        W, _ = shifted_system(reduced, np.zeros(5), 3.0 * np.ones(9))
        assert np.array_equal(W, reduced.A_r + 3.0 * np.eye(9))

    def test_stationarity_row_two(self, distinct_d4):
        # at Y-bar for the identity tour, the second stationarity row reads
        # 0 = -d13 + mu2/2 - (lambda1 + lambda5)
        r = reduce_formulation(build_formulation(distinct_d4))
        ybar = embed_tour(Tour((1, 2, 3, 4)))
        rng = np.random.default_rng(0)
        lam = rng.normal(size=5)
        mu = rng.normal(size=9)
        W, b = shifted_system(r, lam, mu)
        assert W.tobytes() == (r.A_r + np.diag(mu)).tobytes()
        lhs = (W @ ybar)[1]
        assert lhs == 0.0  # Y-bar_2 = 0 and the A_r row is orthogonal
        d13 = distinct_d4.entries[0, 2]
        assert b[1] == pytest.approx(
            -d13 + 0.5 * mu[1] - (lam[0] + lam[4]), abs=1e-14
        )

    def test_dimension_mismatch(self, reduced):
        for fn in (shifted_system, dual_feasible, dual_value):
            with pytest.raises(ValueError) as exc:
                fn(reduced, np.zeros(4), np.zeros(9))
            assert str(exc.value) == (
                "expected lambda length 5 and mu length 9, got (4,) and (9,)"
            )


class TestDualFeasible:
    def test_diagonal_dominance(self, reduced):
        mu = 1.0 + np.abs(reduced.A_r).sum(axis=1)
        ok, lo = dual_feasible(reduced, np.ones(5), mu)
        assert ok and lo > 0

    def test_zero_mu_indefinite(self, reduced):
        ok, lo = dual_feasible(reduced, np.zeros(5), np.zeros(9))
        assert not ok and lo < 0

    def test_negative_mu(self, reduced):
        ok, _ = dual_feasible(reduced, np.zeros(5), -np.ones(9))
        assert not ok


class TestDualValue:
    def test_rejects_infeasible(self, reduced):
        with pytest.raises(NotDualFeasible):
            dual_value(reduced, np.zeros(5), np.zeros(9))

    @pytest.mark.parametrize(
        "shift, failure",
        [
            (np.inf, "non-finite entry"),
            (-2.0, "Cholesky factorization failed"),
            (-1.0 + 1e-12, "min eigenvalue 9.999778782798785e-13 <= 1e-10"),
        ],
        ids=["non-finite", "cholesky", "eigenvalue"],
    )
    def test_rejection_names_the_failed_test(self, identity_fixture, shift, failure):
        r, _ = identity_fixture  # A_r = I, so the shifted matrix is (1 + shift) I
        lam, mu = np.zeros(5), np.full(9, shift)
        assert not dual_feasible(r, lam, mu)[0]
        with pytest.raises(NotDualFeasible, match=failure):
            dual_value(r, lam, mu)

    def test_large_uniform_mu_bound(self, reduced):
        # the value is nonpositive and bounded by the quadratic-form bound
        for M in (10.0, 100.0, 1000.0):
            lam, mu = np.zeros(5), M * np.ones(9)
            ev = dual_value(reduced, lam, mu)
            _, b = shifted_system(reduced, lam, mu)
            assert ev.value <= 0.0
            assert abs(ev.value) <= float(b @ b) / (2 * ev.min_eig)

    def test_weak_duality_sampled(self, reduced, unit_square):
        optimum = brute_force_optimum(unit_square).best_length
        rng = np.random.default_rng(1)
        for _ in range(200):
            ev = dual_value(reduced, *sample_splus(reduced, rng))
            assert ev.value <= optimum + 1e-8

    def test_gradient_residual_form(self, identity_fixture):
        r, ybar = identity_fixture
        ev = dual_value(r, np.zeros(5), np.zeros(9))
        assert np.array_equal(ev.Y, ybar)
        assert np.array_equal(ev.grad_lambda, np.zeros(5))
        assert np.array_equal(ev.grad_mu, np.zeros(9))

    def test_gradient_matches_finite_differences(self, reduced):
        rng = np.random.default_rng(2)
        h = 1e-6
        for _ in range(20):
            p_lam, p_mu = sample_splus(reduced, rng)
            ev = dual_value(reduced, p_lam, p_mu)
            grad = np.concatenate([ev.grad_lambda, ev.grad_mu])
            fd = np.zeros_like(grad)
            for i in range(5 + 9):
                for sgn, w in ((1.0, 1.0), (-1.0, -1.0)):
                    lam = p_lam.copy()
                    mu = p_mu.copy()
                    if i < 5:
                        lam[i] += sgn * h
                    else:
                        mu[i - 5] += sgn * h
                    fd[i] += w * dual_value(reduced, lam, mu).value
            fd /= 2 * h
            assert np.linalg.norm(fd - grad) <= 1e-5 * max(
                1.0, np.linalg.norm(grad)
            )

    def test_lagrangian_exact_on_feasible_binaries(self, reduced):
        # the penalty terms vanish on every tour embedding, for any multipliers
        rng = np.random.default_rng(3)
        import itertools

        for rest in itertools.permutations((2, 3, 4)):
            y = embed_tour(Tour((1,) + rest))
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
            mid = 0.5 * (p[0] + q[0]), 0.5 * (p[1] + q[1])
            ok, _ = dual_feasible(reduced, *mid)
            assert ok  # S+ is convex, so midpoints stay inside
            g_mid = dual_value(reduced, *mid).value
            g_avg = 0.5 * (
                dual_value(reduced, *p).value
                + dual_value(reduced, *q).value
            )
            assert g_mid >= g_avg - 1e-9

    def test_splus_convex_combinations(self, reduced):
        rng = np.random.default_rng(5)
        p = sample_splus(reduced, rng)
        q = sample_splus(reduced, rng)
        for a in np.linspace(0.0, 1.0, 11):
            comb = a * p[0] + (1 - a) * q[0], a * p[1] + (1 - a) * q[1]
            ok, _ = dual_feasible(reduced, *comb)
            assert ok


class TestDualValueFloor:
    """dual_value takes no floor: every point gets the cone test and then
    the solve, as the reference does, and a value is returned as computed."""

    def test_no_floor_matches_reference(self, reduced):
        # in-cone points, and out-of-cone ones whose solve succeeds
        rng = np.random.default_rng(6)
        r6 = euclidean_reduced(6, 0)
        for r in (reduced, r6):
            base = 1.0 + np.abs(r.A_r).sum(axis=1)
            for scale in (0.0, 0.5, 1.0, 1.5):
                for _ in range(10):
                    p = (
                        rng.normal(size=r.n_multipliers),
                        scale * base + rng.normal(size=r.dim),
                    )
                    try:
                        ref = reference_dual_value(r, *p)
                    except NotDualFeasible as exc:
                        with pytest.raises(NotDualFeasible) as got:
                            dual_value(r, *p)
                        assert str(got.value) == str(exc)
                    else:
                        assert_same_evaluation(dual_value(r, *p), ref)

    @pytest.mark.parametrize(
        "lam, mu, failure",
        [
            (0.0, np.inf, "non-finite entry"),
            # entries of E_r^T lam in two constraints overflow to inf
            (1e308, 0.0, "the solve for Y broke down"),
            (np.nan, 0.0, "the solve for Y broke down"),
        ],
        ids=["matrix", "vector", "nan-vector"],
    )
    def test_non_finite_data_never_skipped(self, identity_fixture, lam, mu, failure):
        r, _ = identity_fixture
        lam, mu = np.full(5, lam), np.full(9, mu)
        with np.errstate(over="ignore"):
            with pytest.raises(NotDualFeasible, match=failure) as ref:
                reference_dual_value(r, lam, mu)
            with pytest.raises(NotDualFeasible) as got:
                dual_value(r, lam, mu)
        assert str(got.value) == str(ref.value)

    @pytest.mark.parametrize(
        "sign, expected", [(-1.0, math.nan), (1.0, -math.inf)], ids=["nan", "minus-inf"]
    )
    def test_overflowing_value_is_returned(self, identity_fixture, sign, expected):
        # position rows 1 and 2 of E_r share no entry, so b stays finite
        # while b @ Y and the sum of lambda overflow: -0.5 * inf - (-inf) is
        # nan and -0.5 * inf - inf is -inf
        r, _ = identity_fixture
        lam, mu = np.array([sign * 1e308, sign * 1e308, 0.0, 0.0, 0.0]), np.zeros(9)
        with np.errstate(over="ignore", invalid="ignore"):
            ev = dual_value(r, lam, mu)
            ref = reference_dual_value(r, lam, mu)
        assert_same_evaluation(ev, ref)
        assert np.isfinite(ev.Y).all()
        assert np.array_equal(ev.value, expected, equal_nan=True)


@pytest.fixture
def cone_tests(monkeypatch):
    """Every cone test run while the fixture is active, as (W, its result,
    whether it attempted Cholesky)."""
    records, attempts = [], []
    cholesky, cone = np.linalg.cholesky, dual._cone_failure

    def counted_cholesky(a):
        attempts.append(None)
        return cholesky(a)

    def recorded(W):
        before = len(attempts)
        result = cone(W)
        records.append((W, result, len(attempts) > before))
        return result

    monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
    monkeypatch.setattr(dual, "_cone_failure", recorded)
    return records


def assert_reference_cone_tests(records):
    """Each cone test attempted Cholesky wherever W is finite and gave the
    reference cone test's result."""
    assert records
    for W, (failure, lo), attempted in records:
        assert attempted is bool(np.isfinite(W).all())
        assert repr((failure, lo)) == repr(reference_cone_failure(W))


@st.composite
def small_integer_instances(draw):
    """n = 3..6 cities with symmetric integer distances in 0..5."""
    n = draw(st.integers(3, 6))
    mat = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            mat[i, j] = mat[j, i] = draw(st.integers(0, 5))
    return validate_distance_matrix(mat)


def scaled_reduced(n, seed, scale):
    d, _ = random_euclidean_instance(n, seed)
    return reduce_formulation(build_formulation(DistanceMatrix(n, scale * d.entries)))


# dual_bound of the backtracking gradient ascent that the barrier path
# replaced, per n: seeds 0-3 of `tspdual experiment` with
# {"k": 4, "ns": [4, ..., 10], "seed": 0}
REFERENCE_ASCENT_BOUNDS = {
    4: (0.12756341648697056, 0.1677885469018774, -0.009259537965764064, 0.1378433001834103),
    5: (-1.715352222379958, -1.69631201910902, -2.0080712848815807, -1.3964536085153354),
    6: (-5.928861068468761, -4.376406786162193, -4.574427883626211, -3.651939270012533),
    7: (-10.950983681086694, -8.187379406517993, -7.898710532222523, -6.393914774066573),
    8: (-16.21752105263765, -12.021090622848313, -11.48462427811937, -11.857336132896457),
    9: (-22.230409315522316, -17.16520755338503, -18.129976533588568, -16.643751772127423),
    10: (-29.87387271464528, -22.90419744550852, -24.19965051282216, -22.202118916849503),
}


class TestDualAscent:
    @pytest.mark.parametrize("n", range(4, 11))
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_ascent(self, n, seed, cone_tests):
        r = euclidean_reduced(n, seed)
        res = dual_ascent(r)
        assert_reference_cone_tests(cone_tests)
        assert len(cone_tests) == dual.STAGES + 1  # the start and each stage end
        # the bound is at least the reference ascent's, and every seeded
        # path ends centred with more Newton steps than stages
        assert res.best.value >= REFERENCE_ASCENT_BOUNDS[n][seed]
        assert res.termination is Termination.GradientSmall
        assert dual.STAGES < res.iterations < 50
        values = [ev.value for ev in res.trajectory]
        assert all(b > a for a, b in zip(values, values[1:]))
        # each recorded evaluation is the one a fresh solve at its point gives
        for ev in res.trajectory:
            assert_same_evaluation(ev, reference_dual_value(r, ev.lam, ev.mu))
        optimum = brute_force_optimum(random_euclidean_instance(n, seed)[0]).best_length
        assert res.best.value <= optimum
        assert verify_global(r, res.best, optimum) is Verdict.NotCriticalPoint

    @settings(max_examples=100, deadline=None)
    # the unit equilateral triangle: its start has b = 0, so g0 = 0
    @example(d=validate_distance_matrix(1.0 - np.eye(3)))
    @given(d=small_integer_instances())
    def test_ends_centred_below_the_optimum(self, d):
        res = dual_ascent(reduce_formulation(build_formulation(d)))
        assert res.termination is Termination.GradientSmall
        values = [ev.value for ev in res.trajectory]
        assert all(b > a for a, b in zip(values, values[1:]))
        optimum = brute_force_optimum(d).best_length
        assert res.best.value <= optimum * (1 + 1e-9)

    def test_trajectory_nondecreasing(self, reduced):
        res = dual_ascent(reduced)
        values = [ev.value for ev in res.trajectory]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_bound_below_optimum(self, reduced, unit_square):
        res = dual_ascent(reduced)
        assert res.best.value <= brute_force_optimum(unit_square).best_length

    def test_rejects_infeasible_start(self, reduced, monkeypatch):
        start = np.zeros(5), np.zeros(9)
        lo = dual_feasible(reduced, *start)[1]
        monkeypatch.setattr(dual, "default_start", lambda r: start)
        with pytest.raises(TspdualError) as exc:
            dual_ascent(reduced)
        assert type(exc.value) is TspdualError
        assert str(exc.value) == (
            f"start is not dual feasible: Cholesky factorization failed (min eigenvalue {lo!r})"
        )

    @pytest.mark.parametrize(
        "n, seed, scale, failure",
        [
            # the start's +1 shift rounds away: Cholesky fails although
            # eigvalsh reports a positive eigenvalue
            (6, 1, 1e17, "Cholesky factorization failed (min eigenvalue 162.2392578124681)"),
            # the start is singular to working precision: a zero pivot
            (5, 1, 1e300, "the solve for Y broke down (min eigenvalue {!r})"),
        ],
        ids=["cholesky", "solve"],
    )
    def test_start_rejection_names_the_failed_test(self, n, seed, scale, failure, cone_tests):
        r = scaled_reduced(n, seed, scale)
        lo = dual_feasible(r, *default_start(r))[1]
        with pytest.raises(TspdualError) as exc:
            dual_ascent(r)
        assert type(exc.value) is TspdualError
        assert str(exc.value) == "start is not dual feasible: " + failure.format(lo)
        assert_reference_cone_tests(cone_tests)

    # each exit forced, by a setting on the seeded (5, 1) instance or by a
    # scaled instance: (setting, its value, (n, seed, scale), termination,
    # Newton steps or None, recorded points, stage ends reached)
    @pytest.mark.parametrize(
        "name, value, instance, termination, iterations, recorded, stage_ends",
        [
            # every stage is centred at its first Newton system
            ("CENTRED", math.inf, (5, 1, 1.0), Termination.GradientSmall, 0, 1, 8),
            # every line search fails at once
            ("MIN_STEP", math.inf, (5, 1, 1.0), Termination.Stalled, 0, 1, 8),
            # a stage end fails the cone test: W - 1e-10 I rounds to W at
            # this scale, so the barrier does not keep lo above 1e-10
            (None, None, (4, 2, 2.0**600), Termination.LeftCone, None, 2, 2),
            # the Newton system overflows, which ends the path
            (None, None, (4, 0, 1e290), Termination.Stalled, None, 2, 2),
        ],
        ids=["GradientSmall", "Stalled", "LeftCone", "Stalled-overflow"],
    )
    def test_forced_exit(
        self, name, value, instance, termination, iterations, recorded, stage_ends,
        monkeypatch, cone_tests,
    ):
        if name is not None:
            monkeypatch.setattr(dual, name, value)
        res = dual_ascent(scaled_reduced(*instance))
        assert res.termination is termination
        assert iterations is None or res.iterations == iterations
        assert len(res.trajectory) == recorded
        assert len(cone_tests) == 1 + stage_ends
        assert_reference_cone_tests(cone_tests)

    # each failure of the barrier path forced through the real gufunc, fed
    # an all-zero matrix in place of its operand (W, S = L L^T, L or the
    # Newton matrix H): the gufunc returns NaN, which the path reads as the
    # failure that np.linalg raised for
    @pytest.mark.parametrize(
        "name, operand",
        [("solve1", "W"), ("cholesky_lo", "S"), ("inv", "L"), ("solve1", "H")],
        ids=["singular-W", "failed-factor", "nan-inverse", "singular-H"],
    )
    def test_failure_routes_end_stalled(self, name, operand, monkeypatch):
        # no warning may fire (pytest runs with filterwarnings = error);
        # stage ends go through the reference, so only the barrier path
        # meets the forced failure
        r = euclidean_reduced(5, 1)
        size = r.dim + r.n_multipliers if operand == "H" else r.dim
        real, forced = getattr(dual, name), []

        def failing(a, *rest):
            if len(a) != size:
                return real(a, *rest)
            out = real(np.zeros_like(a), *rest)
            forced.append(bool(np.isnan(out).all()))
            return out

        monkeypatch.setattr(dual, name, failing)
        monkeypatch.setattr(dual, "dual_value", reference_dual_value)
        res = dual_ascent(r)
        assert res.termination is Termination.Stalled
        assert res.iterations == 0 and len(res.trajectory) == 1
        # the same route outside the path's errstate, at the start point
        lam, mu = default_start(r)
        point = dual._barrier_point(r, lam, mu)
        if operand in ("L", "H"):
            W, y, _, L = point
            assert dual._newton_step(r, y, dual._newton_terms(r, W, y, L), 1.0) is None
        else:
            assert point is None
        assert forced and all(forced)

    def test_default_start_feasible(self):
        for seed in range(5):
            d, _ = random_euclidean_instance(4, seed)
            r = reduce_formulation(build_formulation(d))
            ok, _ = dual_feasible(r, *default_start(r))
            assert ok


class TestConeCertificate:
    """The cone test attempts Cholesky on every finite W and gives the
    reference cone test's result, at extreme scales and at the cone edge."""

    # 2^-540 and 2^500 put ||W||_inf far below and above 1
    @pytest.mark.parametrize("k", [-540, -40, 20, 56, 500])
    def test_sound_on_scaled_default_starts(self, k, cone_tests):
        scale = 2.0**k
        for n in range(4, 11):
            # the instance scaled, then its own start: the start's + 1 is
            # lost to rounding at large k
            r = scaled_reduced(n, 0, scale)
            dual_feasible(r, *default_start(r))
            # the start scaled with its instance: W scales exactly
            mu = scale * default_start(euclidean_reduced(n, 0))[1]
            dual_feasible(r, np.zeros(r.n_multipliers), mu)
        assert_reference_cone_tests(cone_tests)

    @pytest.mark.parametrize("n", range(4, 11))
    def test_sound_at_the_cone_edge(self, n, cone_tests):
        r = euclidean_reduced(n, 0)
        mu = default_start(r)[1]
        mu = mu - np.linalg.eigvalsh(r.A_r + np.diag(mu))[0]  # lambda_min about 0
        for delta in (0.0, 1e-12, 1e-11, 3e-11, 1e-10, 1e-9):
            for shift in (delta, -delta):
                dual_feasible(r, np.zeros(r.n_multipliers), mu + shift)
        assert_reference_cone_tests(cone_tests)
        # the edge points fall on both sides of the test
        assert {failure is None for _, (failure, _), _ in cone_tests} == {True, False}

    def test_linalg_calls_pinned(self, monkeypatch):
        counts = dict.fromkeys(("eigvalsh", "solve", "cholesky", "inv"), 0)
        # each count covers np.linalg and the gufuncs behind it that dual
        # calls directly
        targets = [(np.linalg, name, name) for name in counts] + [
            (dual, "cholesky_lo", "cholesky"),
            (dual, "solve", "solve"),
            (dual, "solve1", "solve"),
            (dual, "inv", "inv"),
        ]
        for module, attr, name in targets:
            fn = getattr(module, attr)

            def counted(*args, _fn=fn, _name=name):
                counts[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(module, attr, counted)
        # the whole dual command: the verifier reads the path's best
        # evaluation and adds no solve or eigensolve.  29 Newton steps:
        # 9 cone tests (the start and 8 stage ends) with a solve each; 30
        # points that pay one inverse and one Newton system (the start and
        # each accepted step), and 37 Newton solves (one per step and one
        # per stage that ends centred); 1 + 100 barrier factorizations of
        # which 31 pass and pay a solve
        _run_dual(random_euclidean_instance(10, 0)[0])
        assert counts == {"eigvalsh": 9, "solve": 107, "cholesky": 110, "inv": 30}


class TestVerifyGlobal:
    def test_identity_fixture_confirms(self, identity_fixture):
        r, ybar = identity_fixture
        target_value = reduced_objective(r, ybar)
        ev = dual_value(r, np.zeros(5), np.zeros(9))
        verdict = verify_global(r, ev, target_value)
        assert verdict is Verdict.ConfirmsTheorem2

    def test_ascent_output_does_not_confirm(self, reduced, unit_square):
        # the expected negative outcome: the path ends at a non-binary
        # recovered Y, so no certificate appears
        optimum = brute_force_optimum(unit_square).best_length
        res = dual_ascent(reduced)
        verdict = verify_global(reduced, res.best, optimum)
        assert verdict in (
            Verdict.NotCriticalPoint,
            Verdict.RecoveredYNotBinary,
        )
        ev = res.best
        assert np.max(np.abs(ev.Y * ev.Y - ev.Y)) > 1e-6
