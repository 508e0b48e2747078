import math

import numpy as np
import pytest

from _helpers import sample_splus
from tspdual import dual
from tspdual.cli import _run_dual
from tspdual.dual import (
    DualEvaluation,
    ShiftedSystem,
    Termination,
    Verdict,
    default_start,
    dual_ascent,
    dual_feasible,
    dual_value,
    verify_global,
)
from tspdual.errors import NotDualFeasible, TspdualError
from tspdual.formulation import build_formulation
from tspdual.instance import (
    DistanceMatrix,
    Tour,
    brute_force_optimum,
    random_euclidean_instance,
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


def higham_theta(m):
    """theta_m of Higham's Thm 10.7, stated independently of dual."""
    u = np.finfo(float).eps / 2
    g = (m + 1) * u / (1 - (m + 1) * u)
    return m * g / (1 - m * g)


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
    """dual_value before it took a floor: the cone test first on every
    point, then the solve."""
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


def reference_ascent(r):
    """dual_ascent's backtracking loop with every trial point cone-tested
    before its value is compared."""
    lam, mu = default_start(r)
    ev = reference_dual_value(r, lam, mu)
    trajectory = [(ev.value, ev.grad_norm, ev.min_eig)]
    step = dual.INITIAL_STEP
    stall = 0
    termination = Termination.IterationCap
    iterations = 0
    for iterations in range(1, dual.MAX_ITER + 1):
        if ev.grad_norm < dual.GTOL:
            termination = Termination.GradientSmall
            iterations -= 1
            break
        accepted = False
        left_cone = False
        t = step
        while t >= dual.MIN_STEP:
            cand_lam, cand_mu = lam + t * ev.grad_lambda, mu + t * ev.grad_mu
            try:
                cand_ev = reference_dual_value(r, cand_lam, cand_mu)
            except NotDualFeasible:
                left_cone = True
                t *= 0.5
                continue
            if cand_ev.value > ev.value:
                lam, mu, ev = cand_lam, cand_mu, cand_ev
                trajectory.append((ev.value, ev.grad_norm, ev.min_eig))
                accepted = True
                step = 2.0 * t
                break
            t *= 0.5
        if not accepted:
            termination = Termination.LeftCone if left_cone else Termination.Stalled
            break
        if trajectory[-1][0] - trajectory[-2][0] < dual.FTOL:
            stall += 1
            if stall >= dual.STALL_ITERS:
                termination = Termination.Stalled
                break
        else:
            stall = 0
    return (lam, mu), iterations, trajectory, termination


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
    """ShiftedSystem's assembly of A_r + diag(mu) and b at each point."""

    def test_zero_multipliers(self, reduced):
        system = ShiftedSystem(reduced)
        dual_feasible(system, np.zeros(5), np.zeros(9))
        assert np.array_equal(system.W, reduced.A_r)
        assert np.array_equal(system.b, reduced.b_r)

    def test_uniform_shift(self, reduced):
        system = ShiftedSystem(reduced)
        dual_feasible(system, np.zeros(5), 3.0 * np.ones(9))
        assert np.array_equal(system.W, reduced.A_r + 3.0 * np.eye(9))

    def test_stationarity_row_two(self, distinct_d4):
        # at Y-bar for the identity tour, the second stationarity row reads
        # 0 = -d13 + mu2/2 - (lambda1 + lambda5)
        r = reduce_formulation(build_formulation(distinct_d4))
        ybar = embed_tour(Tour((1, 2, 3, 4)))
        rng = np.random.default_rng(0)
        lam = rng.normal(size=5)
        mu = rng.normal(size=9)
        system = ShiftedSystem(r)
        dual_feasible(system, lam, mu)
        assert system.W.tobytes() == (r.A_r + np.diag(mu)).tobytes()
        lhs = (system.W @ ybar)[1]
        assert lhs == 0.0  # Y-bar_2 = 0 and the A_r row is orthogonal
        d13 = distinct_d4.entries[0, 2]
        assert system.b[1] == pytest.approx(
            -d13 + 0.5 * mu[1] - (lam[0] + lam[4]), abs=1e-14
        )

    def test_dimension_mismatch(self, reduced):
        system = ShiftedSystem(reduced)
        for fn in (dual_feasible, dual_value):
            with pytest.raises(ValueError) as exc:
                fn(system, np.zeros(4), np.zeros(9))
            assert str(exc.value) == (
                "expected lambda length 5 and mu length 9, got (4,) and (9,)"
            )


class TestDualFeasible:
    def test_diagonal_dominance(self, reduced):
        mu = 1.0 + np.abs(reduced.A_r).sum(axis=1)
        ok, lo = dual_feasible(ShiftedSystem(reduced), np.ones(5), mu)
        assert ok and lo > 0

    def test_zero_mu_indefinite(self, reduced):
        ok, lo = dual_feasible(ShiftedSystem(reduced), np.zeros(5), np.zeros(9))
        assert not ok and lo < 0

    def test_negative_mu(self, reduced):
        ok, _ = dual_feasible(ShiftedSystem(reduced), np.zeros(5), -np.ones(9))
        assert not ok


class TestDualValue:
    def test_rejects_infeasible(self, reduced):
        with pytest.raises(NotDualFeasible):
            dual_value(ShiftedSystem(reduced), np.zeros(5), np.zeros(9))

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
        assert not dual_feasible(ShiftedSystem(r), lam, mu)[0]
        with pytest.raises(NotDualFeasible, match=failure):
            dual_value(ShiftedSystem(r), lam, mu)

    def test_large_uniform_mu_bound(self, reduced):
        # the value is nonpositive and bounded by the quadratic-form bound
        for M in (10.0, 100.0, 1000.0):
            system = ShiftedSystem(reduced)
            ev = dual_value(system, np.zeros(5), M * np.ones(9))
            assert ev.value <= 0.0
            assert abs(ev.value) <= float(system.b @ system.b) / (2 * ev.min_eig)

    def test_weak_duality_sampled(self, reduced, unit_square):
        optimum = brute_force_optimum(unit_square).best_length
        rng = np.random.default_rng(1)
        for _ in range(200):
            ev = dual_value(ShiftedSystem(reduced), *sample_splus(reduced, rng))
            assert ev.value <= optimum + 1e-8

    def test_gradient_residual_form(self, identity_fixture):
        r, ybar = identity_fixture
        ev = dual_value(ShiftedSystem(r), np.zeros(5), np.zeros(9))
        assert np.array_equal(ev.Y, ybar)
        assert np.array_equal(ev.grad_lambda, np.zeros(5))
        assert np.array_equal(ev.grad_mu, np.zeros(9))

    def test_gradient_matches_finite_differences(self, reduced):
        rng = np.random.default_rng(2)
        h = 1e-6
        for _ in range(20):
            p_lam, p_mu = sample_splus(reduced, rng)
            ev = dual_value(ShiftedSystem(reduced), p_lam, p_mu)
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
                    fd[i] += w * dual_value(ShiftedSystem(reduced), lam, mu).value
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
            ok, _ = dual_feasible(ShiftedSystem(reduced), *mid)
            assert ok  # S+ is convex, so midpoints stay inside
            g_mid = dual_value(ShiftedSystem(reduced), *mid).value
            g_avg = 0.5 * (
                dual_value(ShiftedSystem(reduced), *p).value
                + dual_value(ShiftedSystem(reduced), *q).value
            )
            assert g_mid >= g_avg - 1e-9

    def test_splus_convex_combinations(self, reduced):
        rng = np.random.default_rng(5)
        p = sample_splus(reduced, rng)
        q = sample_splus(reduced, rng)
        for a in np.linspace(0.0, 1.0, 11):
            comb = a * p[0] + (1 - a) * q[0], a * p[1] + (1 - a) * q[1]
            ok, _ = dual_feasible(ShiftedSystem(reduced), *comb)
            assert ok


class TestDualValueFloor:
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
                            dual_value(ShiftedSystem(r), *p)
                        assert str(got.value) == str(exc)
                    else:
                        assert_same_evaluation(dual_value(ShiftedSystem(r), *p), ref)

    def test_skips_only_at_or_below_floor(self, reduced):
        rng = np.random.default_rng(7)
        for _ in range(20):
            lam, mu = sample_splus(reduced, rng)
            system = ShiftedSystem(reduced)
            ev = dual_value(ShiftedSystem(reduced), lam, mu)
            assert dual_value(system, lam, mu, floor=ev.value) is None
            assert dual_value(system, lam, mu, floor=math.inf) is None
            below = dual_value(system, lam, mu, floor=np.nextafter(ev.value, -math.inf))
            assert_same_evaluation(below, ev)

    @pytest.mark.parametrize(
        "shift, failure",
        [
            (-2.0, "Cholesky factorization failed"),
            (-1.0 + 1e-12, "min eigenvalue 9.999778782798785e-13 <= 1e-10"),
        ],
        ids=["cholesky", "eigenvalue"],
    )
    def test_out_of_cone_point_above_floor_raises(self, identity_fixture, shift, failure):
        r, _ = identity_fixture  # the shifted matrix is (1 + shift) I
        lam, mu = np.zeros(5), np.full(9, shift)
        system = ShiftedSystem(r)
        assert not dual_feasible(system, lam, mu)[0]
        value = -0.5 * float(system.b @ np.linalg.solve(system.W, system.b))
        with pytest.raises(NotDualFeasible, match=failure):
            dual_value(system, lam, mu, floor=np.nextafter(value, -math.inf))
        assert dual_value(system, lam, mu, floor=value) is None  # its cone test never ran

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
                dual_value(ShiftedSystem(r), lam, mu, floor=math.inf)
        assert str(got.value) == str(ref.value)

    @pytest.mark.parametrize(
        "sign, floor, expected",
        [(-1.0, math.inf, math.nan), (1.0, -math.inf, -math.inf)],
        ids=["nan", "minus-inf"],
    )
    def test_overflowing_value_is_returned(self, identity_fixture, sign, floor, expected):
        # position rows 1 and 2 of E_r share no entry, so b stays finite
        # while b @ Y and the sum of lambda overflow: -0.5 * inf - (-inf) is
        # nan, which no floor skips, and -0.5 * inf - inf is -inf, which
        # the absent floor must not skip either
        r, _ = identity_fixture
        lam, mu = np.array([sign * 1e308, sign * 1e308, 0.0, 0.0, 0.0]), np.zeros(9)
        with np.errstate(over="ignore", invalid="ignore"):
            ev = dual_value(ShiftedSystem(r), lam, mu, floor=floor)
            ref = reference_dual_value(r, lam, mu)
        assert_same_evaluation(ev, ref)
        assert np.isfinite(ev.Y).all()
        assert np.array_equal(ev.value, expected, equal_nan=True)


@pytest.fixture
def cone_tests(monkeypatch):
    """Every cone test run while the fixture is active, as (W, its result,
    whether it attempted Cholesky)."""
    records, attempts = [], []
    cholesky, cone = np.linalg.cholesky, ShiftedSystem._cone_failure

    def counted_cholesky(a):
        attempts.append(None)
        return cholesky(a)

    def recorded(self, finite):
        W, before = self.W.copy(), len(attempts)
        result = cone(self, finite)
        records.append((W, result, len(attempts) > before))
        return result

    monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
    monkeypatch.setattr(ShiftedSystem, "_cone_failure", recorded)
    return records


def assert_certificate_sound(records):
    """Cholesky is skipped exactly where lo - 1e-12 ||W||_inf > theta *
    max diag(W) with 1e-150 < ||W||_inf < 1e150, it succeeds wherever it
    is skipped, and every result is the reference cone test's."""
    assert records
    for W, (failure, lo), attempted in records:
        norm = np.linalg.norm(W, np.inf)
        proven = bool(
            1e-150 < norm < 1e150
            and lo - 1e-12 * norm > higham_theta(len(W)) * W.diagonal().max()
        )
        assert attempted is not proven or not np.isfinite(W).all()
        if proven:
            np.linalg.cholesky(W)
        assert repr((failure, lo)) == repr(reference_cone_failure(W))


def scaled_reduced(n, seed, scale):
    d, _ = random_euclidean_instance(n, seed)
    return reduce_formulation(build_formulation(DistanceMatrix(n, scale * d.entries)))


# (n, seed) of the ascents below that end Stalled; every other one ends
# LeftCone. (7, 2), (8, 1) and (10, 3) raise nothing in their last
# iteration: a trial point that dual_value skipped fails its deferred
# cone test
STALLED = {(5, 0), (6, 2), (6, 3), (10, 2)}


class TestDualAscent:
    @pytest.mark.parametrize("n", range(4, 11))
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_ascent(self, n, seed, cone_tests):
        r = euclidean_reduced(n, seed)
        res = dual_ascent(r)
        assert_certificate_sound(cone_tests)
        best, iterations, trajectory, termination = reference_ascent(r)
        assert np.array(res.trajectory).tobytes() == np.array(trajectory).tobytes()
        # the ascent's best evaluation is the one a fresh solve at its point gives
        ref = reference_dual_value(r, *best)
        assert_same_evaluation(res.best, ref)
        assert res.best.value == trajectory[-1][0]
        optimum = brute_force_optimum(random_euclidean_instance(n, seed)[0]).best_length
        assert verify_global(r, res.best, optimum) is verify_global(r, ref, optimum)
        assert res.iterations == iterations
        assert res.termination is termination
        assert termination is (
            Termination.Stalled if (n, seed) in STALLED else Termination.LeftCone
        )

    @pytest.mark.parametrize(
        "n, seed, deferred", [(8, 0, 0), (10, 0, 0), (5, 0, 9), (7, 2, 1)]
    )
    def test_cone_test_skipped_on_unimproving_points(self, n, seed, deferred, monkeypatch):
        r = euclidean_reduced(n, seed)
        counts = dict.fromkeys(("cone", "value", "raised", "skipped", "deferred"), 0)
        system = ShiftedSystem

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        value = dual.dual_value

        def classified_value(*args, **kwargs):
            try:
                ev = value(*args, **kwargs)
            except NotDualFeasible:
                counts["raised"] += 1
                raise
            counts["skipped"] += ev is None
            return ev

        monkeypatch.setattr(system, "_cone_failure", counted("cone", system._cone_failure))
        monkeypatch.setattr(dual, "dual_value", counted("value", classified_value))
        monkeypatch.setattr(dual, "dual_feasible", counted("deferred", dual.dual_feasible))
        res = dual_ascent(r)
        accepted = len(res.trajectory) - 1
        # every call is the start, an accepted step, a rejection or a skip
        assert counts["value"] == 1 + accepted + counts["raised"] + counts["skipped"]
        assert counts["cone"] == 1 + accepted + counts["raised"] + counts["deferred"]
        assert counts["cone"] < 0.6 * counts["value"]
        assert counts["deferred"] == deferred

    def test_trajectory_nondecreasing(self, reduced):
        res = dual_ascent(reduced)
        values = [v for v, _, _ in res.trajectory]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_bound_below_optimum(self, reduced, unit_square):
        res = dual_ascent(reduced)
        assert res.best.value <= brute_force_optimum(unit_square).best_length

    def test_rejects_infeasible_start(self, reduced, monkeypatch):
        start = np.zeros(5), np.zeros(9)
        lo = dual_feasible(ShiftedSystem(reduced), *start)[1]
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
        lo = dual_feasible(ShiftedSystem(r), *default_start(r))[1]
        with pytest.raises(TspdualError) as exc:
            dual_ascent(r)
        assert type(exc.value) is TspdualError
        assert str(exc.value) == "start is not dual feasible: " + failure.format(lo)
        assert_certificate_sound(cone_tests)

    # the exits that no seeded ascent reaches, each forced by one setting:
    # (setting, value, termination, iterations); the trajectory holds the
    # start and one point per counted iteration
    @pytest.mark.parametrize(
        "name, value, termination, iterations",
        [
            ("MAX_ITER", 3, Termination.IterationCap, 3),
            ("GTOL", math.inf, Termination.GradientSmall, 0),
            ("FTOL", math.inf, Termination.Stalled, dual.STALL_ITERS),
        ],
        ids=["IterationCap", "GradientSmall", "Stalled"],
    )
    def test_forced_exit(self, name, value, termination, iterations, monkeypatch):
        monkeypatch.setattr(dual, name, value)
        res = dual_ascent(euclidean_reduced(5, 1))
        assert res.termination is termination
        assert res.iterations == iterations
        assert len(res.trajectory) == iterations + 1

    def test_default_start_feasible(self):
        for seed in range(5):
            d, _ = random_euclidean_instance(4, seed)
            r = reduce_formulation(build_formulation(d))
            ok, _ = dual_feasible(ShiftedSystem(r), *default_start(r))
            assert ok


class TestConeCertificate:
    """The cone test skips its Cholesky attempt only where eigvalsh and
    Higham's Thm 10.7 prove that it succeeds."""

    # 2^-540 and 2^500 put ||W||_inf below and above the cap's window
    @pytest.mark.parametrize("k", [-540, -40, 20, 56, 500])
    def test_sound_on_scaled_default_starts(self, k, cone_tests):
        scale = 2.0**k
        for n in range(4, 11):
            # the instance scaled, then its own start: the start's + 1 is
            # lost to rounding at large k
            r = scaled_reduced(n, 0, scale)
            dual_feasible(ShiftedSystem(r), *default_start(r))
            # the start scaled with its instance: W scales exactly
            mu = scale * default_start(euclidean_reduced(n, 0))[1]
            dual_feasible(ShiftedSystem(r), np.zeros(r.n_multipliers), mu)
        assert_certificate_sound(cone_tests)
        exact = [attempted for *_, attempted in cone_tests[1::2]]
        assert exact == [k in (-540, 500)] * 7

    @pytest.mark.parametrize("n", range(4, 11))
    def test_sound_at_the_cone_edge(self, n, cone_tests):
        r = euclidean_reduced(n, 0)
        mu = default_start(r)[1]
        mu = mu - np.linalg.eigvalsh(r.A_r + np.diag(mu))[0]  # lambda_min about 0
        for delta in (0.0, 1e-12, 1e-11, 3e-11, 1e-10, 1e-9):
            for shift in (delta, -delta):
                dual_feasible(ShiftedSystem(r), np.zeros(r.n_multipliers), mu + shift)
        assert_certificate_sound(cone_tests)
        # some point that the slack sends to Cholesky has lo above
        # theta * max diag(W), so the slack decides there
        theta = higham_theta(r.dim)
        assert any(
            attempted and lo > theta * W.diagonal().max()
            for W, (_, lo), attempted in cone_tests
        )

    def test_linalg_calls_pinned(self, monkeypatch):
        counts = dict.fromkeys(("eigvalsh", "solve", "cholesky"), 0)
        for name in counts:
            fn = getattr(np.linalg, name)

            def counted(*args, _fn=fn, _name=name):
                counts[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(np.linalg, name, counted)
        # the whole dual command: the verifier reads the ascent's best
        # evaluation and adds no solve or eigensolve
        _run_dual(random_euclidean_instance(10, 0)[0])
        assert counts == {"eigvalsh": 1941, "solve": 3903, "cholesky": 0}


class TestVerifyGlobal:
    def test_identity_fixture_confirms(self, identity_fixture):
        r, ybar = identity_fixture
        target_value = reduced_objective(r, ybar)
        ev = dual_value(ShiftedSystem(r), np.zeros(5), np.zeros(9))
        verdict = verify_global(r, ev, target_value)
        assert verdict is Verdict.ConfirmsTheorem2

    def test_ascent_output_does_not_confirm(self, reduced, unit_square):
        # the expected negative outcome: the dual supremum sits on the cone
        # boundary with a non-binary recovered Y, so no certificate appears
        optimum = brute_force_optimum(unit_square).best_length
        res = dual_ascent(reduced)
        verdict = verify_global(reduced, res.best, optimum)
        assert verdict in (
            Verdict.NotCriticalPoint,
            Verdict.RecoveredYNotBinary,
        )
        ev = res.best
        assert np.max(np.abs(ev.Y * ev.Y - ev.Y)) > 1e-6
