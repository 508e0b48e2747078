import json
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tspdual import inverse
from tspdual.cli import main
from tspdual.errors import ConfigError
from tspdual.formulation import build_formulation
from tspdual.instance import (
    DistanceMatrix,
    Tour,
    canonical_tours,
    random_euclidean_instance,
    validate_distance_matrix,
)
from tspdual.inverse import (
    SearchConfig,
    _FastEvaluator,
    _search_chunk,
    default_target,
    edm_violations,
    eliminate_mu,
    feasibility_score,
    inverse_search,
    optimality_margins,
    stationarity_residual,
)
from tspdual.reduction import reduce_formulation

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
        d = distinct_d4
        assert mu[1] == pytest.approx(2 * (d.d(1, 3) + lam[0] + lam[4]), abs=1e-12)
        assert mu[4] == pytest.approx(
            -2 * (d.d(3, 2) + d.d(3, 4) + lam[1] + lam[4]), abs=1e-12
        )

    def test_stationarity_by_construction(self):
        rng = np.random.default_rng(0)
        for seed in range(100):
            d, _ = random_euclidean_instance(4, seed)
            r = reduce_formulation(build_formulation(d))
            lam = rng.normal(scale=5.0, size=5)
            mu = eliminate_mu(r, lam)
            assert stationarity_residual(r, lam, mu) <= 1e-12


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


class TestEdmViolations:
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

    def test_assembled_matrix_structure(self, distinct_d4):
        # diagonal is exactly mu; off-diagonal pattern is the block display
        r = reduce_formulation(build_formulation(distinct_d4))
        lam = np.array([1.0, -2.0, 0.5, 3.0, -1.5])
        mu = eliminate_mu(r, lam)
        M = r.A_r + np.diag(mu)
        assert np.array_equal(np.diag(M), mu)
        d = distinct_d4
        assert M[0, 4] == d.d(2, 3) and M[0, 5] == d.d(2, 4)
        assert M[4, 0] == d.d(3, 2) and M[4, 8] == d.d(3, 4)
        assert M[8, 3] == d.d(4, 2) and M[8, 4] == d.d(4, 3)
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
            fast = ev.evaluate(D, L, np.full(20, -np.inf))
            assert fast.shape == (20,)
            for r, d in enumerate(ds):
                full = feasibility_score(d, L[r])
                assert fast[r] == pytest.approx(full.score, rel=1e-10, abs=1e-12)
                assert ev.evaluate(D[r:r + 1], L[r:r + 1], np.full(1, -np.inf))[0] == fast[r]

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
        score = ev.evaluate(d.entries.ravel()[None], lam[None], np.full(1, -np.inf))[0]
        assert score == pytest.approx(expected, rel=1e-10, abs=1e-12)

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
    n = draw(st.sampled_from([4, 5, 7]))
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


class TestBoundPruning:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(scored_batches())
    def test_pruned_rows_could_not_beat_the_floor(self, batch):
        n, D, L = batch
        ev = evaluator(n)
        exact = ev.evaluate(D, L, np.full(len(D), -np.inf))
        assert np.isfinite(exact).all()
        floors = {
            "at": exact,
            "ulp-below": np.nextafter(exact, -np.inf),
            "ulp-above": np.nextafter(exact, np.inf),
            "far-below": exact - 1.0 - np.abs(exact),
        }
        for name, floor in floors.items():
            got = ev.evaluate(D, L, floor)
            beats = exact > floor
            assert np.array_equal(got[beats], exact[beats]), name
            assert np.all((got[~beats] == exact[~beats]) | (got[~beats] == -np.inf)), name
        assert np.all(ev.evaluate(D, L, np.full(len(D), np.inf)) == -np.inf)

    def test_bound_prunes_losing_rows(self):
        # collapsed cities 2..n leave A_r = 0, so M = diag(mu) and the bound
        # min(mu) is the score itself: a floor just above it prunes the row
        n = 5
        pts = np.zeros((n, 2))
        pts[0] = (1.0, 0.5)
        D = inverse._points_dvec(n, pts.ravel()[None])
        L = np.random.default_rng(0).normal(size=(1, 2 * n - 3))
        ev = evaluator(n)
        exact = ev.evaluate(D, L, np.full(1, -np.inf))
        assert ev.evaluate(D, L, exact + 1e-6 * abs(exact))[0] == -np.inf
        assert ev.evaluate(D, L, exact - 1e-6 * abs(exact))[0] == exact[0]


def reference_search(cfg, k):
    """One restart alone, one evaluation at a time: +step, then -step, then
    the next coordinate; the step halves after a sweep with no acceptance.
    Returns (best score, theta, evaluations made)."""
    ev = evaluator(cfg.n)
    theta, scales = inverse._start(cfg, k)

    def score(th):
        return ev.evaluate(*inverse._split(cfg.n, th[None]), np.full(1, -np.inf))[0]

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

        def counting(D, L, floor):
            s = evaluate(D, L, floor)
            used.append(1 if len(D) == 1 else 1 + int(s[0] <= floor[0] and floor[1] < np.inf))
            return s

        ev.evaluate = counting
        _search_chunk(ev, cfg, range(k, k + 1))
        return sum(used)


class TestInverseSearch:
    def test_deterministic_under_seed(self):
        cfg = SearchConfig(restarts=4, local_iters=300, seed=123)
        a = inverse_search(cfg=cfg)
        b = inverse_search(cfg=cfg)
        assert a.to_dict() == b.to_dict()

    def test_monotone_local_refinement(self):
        ev = _FastEvaluator(4)
        cfg = SearchConfig(restarts=6, local_iters=500, seed=7)
        trace = []
        best, _ = _search_chunk(ev, cfg, range(6), trace)
        steps = np.array(trace)  # one row per coordinate step, one column per restart
        assert steps.shape[1] == 6 and len(steps) <= 499
        assert np.all(np.diff(steps, axis=0) >= 0)
        assert np.any(np.diff(steps, axis=0) > 0, axis=0).all()
        assert np.array_equal(steps[-1], best)

    @pytest.mark.parametrize("step_floor", [inverse.STEP_FLOOR, 1e-3])
    def test_restart_independent_of_its_chunk(self, monkeypatch, step_floor):
        monkeypatch.setattr(inverse, "STEP_FLOOR", step_floor)
        cfg = SearchConfig(restarts=12, local_iters=2000, seed=4)
        ev = _FastEvaluator(4)
        sizes, evaluate = [], ev.evaluate
        ev.evaluate = lambda D, L, floor: sizes.append(len(D)) or evaluate(D, L, floor)
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
        edges = evaluator(config["n"]).edges.size
        for chunk in (1, 7, config["restarts"]):
            # each restart of a chunk scores two rows of `edges` gathered edges
            monkeypatch.setattr(inverse, "LOCKSTEP_CELLS", 2 * edges * chunk)
            out = tmp_path / f"chunk{chunk}"
            assert main(["inverse", "--config", str(path), "--out", str(out)]) == 0
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1] == reports[2]

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
        assert rep.verdict == "NoFeasiblePointFound"
        assert rep.best_min_eig <= 1e-8
        assert rep.stationarity_residual <= 1e-10
        assert rep.edm_violations == 0.0


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
