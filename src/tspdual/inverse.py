"""Inverse feasibility search: does any (d, lambda, mu) make a designated
tour Y-bar satisfy stationarity, strict positive definiteness, tour
optimality, and the Euclidean-distance-matrix conditions simultaneously?

The binarity multipliers mu are eliminated in closed form (each
stationarity row is linear in exactly one mu_i with coefficient
Y_i - 1/2 = +-1/2), so the search runs over (d, lambda) only and
stationarity holds exactly at every iterate.  The search targets the
identity tour and takes its distances from planar points in the unit
square only; cities that collapse onto each other are what the EDM
positivity penalty catches.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np
# the gufunc behind np.linalg.cholesky: a stack is factored matrix by matrix,
# and under errstate(invalid="ignore") a matrix that fails comes back all NaN
# instead of raising for the whole stack
from numpy.linalg._umath_linalg import cholesky_lo

from .errors import check_range
from .dual import PD_TOLERANCE, assemble, dual_feasible, min_eigenvalue, point
from .formulation import build_formulation
from .instance import (
    ORACLE_MAX_CITIES,
    DistanceMatrix,
    Tour,
    canonical_tours,
    tour_lengths,
    validate_distance_matrix,
)
from .reduction import (
    ReducedProblem,
    build_reduced_constraints,
    embed_tour,
    linear_maps,
    reduce_formulation,
)

STRICTNESS_MARGIN = 1e-6   # numerical margin standing in for strict inequalities
STATIONARITY_TOL = 1e-10
PENALTY_WEIGHT = 1e3
LAMBDA_BOX_FACTOR = 10.0   # lambda starts uniform in +-factor * largest distance
STEP_FLOOR = 1e-9
# cap on scored rows x tour edges (the gathered edges) of one lockstep chunk
# of restarts: it binds from 832 restarts at n = 7 and 104 at n = 8
LOCKSTEP_CELLS = 1 << 22
# at n = 3 every tour is the target, so there are no optimality margins
MIN_SEARCH_CITIES = 4
# the Cholesky screen runs only on rows whose magnitudes are this far from
# overflow, where the rounding-error bound it rests on holds
SCREEN_MAGNITUDE_CAP = 1e150


@dataclass(frozen=True)
class SearchConfig:
    n: int = 4
    restarts: int = 1000
    local_iters: int = 2000   # score-evaluation budget per restart
    seed: int = 0

    def __post_init__(self):
        check_range(
            "n", self.n, MIN_SEARCH_CITIES <= self.n <= ORACLE_MAX_CITIES,
            f"in {MIN_SEARCH_CITIES}..{ORACLE_MAX_CITIES}",
        )
        check_range("restarts", self.restarts, self.restarts >= 1, ">= 1")
        check_range("local_iters", self.local_iters, self.local_iters >= 1, ">= 1")
        check_range("seed", self.seed, self.seed >= 0, ">= 0")


@dataclass(frozen=True)
class InverseCandidate:
    d: DistanceMatrix
    lam: np.ndarray
    mu: np.ndarray


class SearchVerdict(Enum):
    NoFeasiblePointFound = "NoFeasiblePointFound"
    FeasibleCounterexample = "FeasibleCounterexample"


@dataclass(frozen=True)
class InverseSearchReport:
    best: InverseCandidate
    best_min_eig: float
    best_score: float
    stationarity_residual: float
    optimality_margins: list[float]
    edm_violations: float
    restarts: int
    best_restart: int
    verdict: SearchVerdict
    seed: int

    def to_dict(self) -> dict:
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["verdict"] = self.verdict.value
        payload["best"] = {
            "d": [float(v) for v in self.best.d.entries.ravel()],
            "lambda": [float(v) for v in self.best.lam],
            "mu": [float(v) for v in self.best.mu],
        }
        return payload


def default_target(n: int) -> np.ndarray:
    """Embedding of the identity tour (1, 2, ..., n), row 0 of
    canonical_tours(n): the target Y-bar of the search."""
    return embed_tour(Tour(tuple(range(1, n + 1))))


def eliminate_mu(r: ReducedProblem, lam: np.ndarray) -> np.ndarray:
    """Closed-form mu from the stationarity system at the target Y-bar:
    mu_i (Ybar_i - 1/2) = b_ri - [A_r Ybar]_i - [E_r^T lam]_i.
    """
    ybar = default_target(r.n)
    rhs = r.b_r - r.A_r @ ybar - r.E_r.T @ np.asarray(lam, dtype=float)
    return rhs / (ybar - 0.5)


def optimality_margins(d: DistanceMatrix) -> np.ndarray:
    """Tour-length gap of every other canonical tour (in table order)
    against the target, the identity tour in row 0.  All margins strictly
    positive means the target is the unique optimum; at n=4 this yields
    two inequalities.
    """
    lengths = tour_lengths(d, canonical_tours(d.n))
    return lengths[1:] - lengths[0]


def edm_violations(d: DistanceMatrix) -> float:
    """Total magnitude of Euclidean-distance-matrix violations: off-diagonal
    positivity (with the strictness margin) and triangle inequalities.
    Symmetry and zero diagonal are structural and checked upstream.
    """
    mat = d.entries
    n = d.n
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            total += max(0.0, STRICTNESS_MARGIN - mat[i, j])
            for k in range(n):
                if k == i or k == j:
                    continue
                total += max(0.0, mat[i, j] - mat[i, k] - mat[k, j])
    return total


@dataclass(frozen=True)
class ScoreBreakdown:
    score: float
    min_eig: float
    mu: np.ndarray
    margins: np.ndarray
    edm_violations: float
    stationarity_residual: float
    reduced: ReducedProblem


def feasibility_score(d: DistanceMatrix, lam: np.ndarray) -> ScoreBreakdown:
    """Scalar search objective via the full formulation/reduction chain:
    smallest eigenvalue of A_r + diag(mu), penalized by optimality-margin
    and EDM violations; also the stationarity residual max|A Ybar - b| of
    (lam, mu), read from the same assembled (A, b).
    """
    r = reduce_formulation(build_formulation(d))
    mu = eliminate_mu(r, lam)
    A_mat, b_vec = assemble(r, point(lam, mu))
    lo = min_eigenvalue(A_mat)
    _check_pd_implies_positive_mu(lo, mu.min())
    margins = optimality_margins(d)
    edm = edm_violations(d)
    violation = float(np.sum(np.maximum(0.0, STRICTNESS_MARGIN - margins))) + edm
    return ScoreBreakdown(
        score=lo - PENALTY_WEIGHT * violation,
        min_eig=lo,
        mu=mu,
        margins=margins,
        edm_violations=edm,
        stationarity_residual=float(np.max(np.abs(A_mat @ default_target(r.n) - b_vec))),
        reduced=r,
    )


def _check_pd_implies_positive_mu(lo, mu_min) -> None:
    # diag(A_r + diag(mu)) = mu, so positive definiteness forces mu > 0;
    # checked per row of a batch (one lo and one min mu per row)
    lo, mu_min = np.atleast_1d(lo), np.atleast_1d(mu_min)
    bad = (lo > PD_TOLERANCE) & ~(mu_min > 0)
    if bad.any():
        raise AssertionError(
            f"positive definite shifted matrix with min mu {mu_min[bad.argmax()]}"
        )


def _left_to_right(terms: np.ndarray) -> np.ndarray:
    """Row sums of a fancy-indexed (R, k) batch, added left to right at any R.
    Such a batch has transposed strides, so np.sum adds its rows left to
    right for R >= 2, but pairwise for R = 1, whose one row is contiguous."""
    return np.cumsum(terms, axis=1)[:, -1]


class _FastEvaluator:
    """Batched score evaluation for the lockstep search loop.

    A_r and b_r are linear and homogeneous in the distance entries, so
    both are read as linear maps over the flattened d from their closed
    forms in reduction.linear_maps, independent of the formulation and
    reduction chain that feasibility_score replays.  Results agree
    with feasibility_score to rounding, and each row of a batch is
    bit-identical to the same row evaluated alone.  The 0/1 map into A_r
    is a gather.  Every row of B, TY and E_r^T has at most two nonzeros,
    each -1/2 or 1, so in mu's three matmuls every product is exact and
    every entry is one rounding of a two-term sum, whatever the order or
    blocking of the summation.
    Tour lengths sum an edge gather in tour order (edges[a, t] indexes
    edge a of tour t; the target is tour 0), so the margins equal
    optimality_margins bit for bit.  The gather must be np.take: its
    (R, n, T) result is C-ordered, so the margins stay C-contiguous and
    the penalty keeps its pairwise sum.  A fancy-indexed D[:, edges] has
    transposed strides, and the penalty's last bits then move at n >= 9.
    The positivity and triangle terms are such gathers; _left_to_right sums
    them in the one order that np.sum gives them at R >= 2.
    The terms that lambda does not touch (distance_terms) are a pure
    function of a row of D, so a caller may compute them once per
    distance row and pass them to every evaluation of that row.
    """

    def __init__(self, n: int):
        self.n = n
        self.dim = (n - 1) ** 2
        self.ybar = default_target(n)
        self.E_r = build_reduced_constraints(n)
        self.inv_sign = 1.0 / (self.ybar - 0.5)  # +-2

        # A_r entries are picked from d, or from a zero column appended at n^2
        self.T_cols, self.B = linear_maps(n)
        # TY @ d = A_r @ ybar: per row of A_r, the count of target components
        # that read each entry of d
        picks = self.T_cols[:, :, None] == np.arange(n * n)
        self.TY = (picks * self.ybar[None, :, None]).sum(1)

        tours = canonical_tours(n).astype(np.intp)
        self.edges = (tours * n + np.roll(tours, -1, axis=1)).T.copy()

        i, j, k = np.array(list(itertools.permutations(range(n), 3))).T
        self.tri = (i * n + j, i * n + k, k * n + j)
        self.offdiag = np.array(
            [i * n + j for i in range(n) for j in range(n) if i != j]
        )

        # theta_dim of a dim x dim Cholesky (see evaluate), plus 6u for the
        # roundings of the shift
        u, m = np.finfo(float).eps / 2, self.dim  # the unit roundoff, the order
        gamma = (m + 1) * u / (1 - (m + 1) * u)
        self.screen_rel = m * gamma / (1 - m * gamma) + 6 * u

    def margins(self, D: np.ndarray) -> np.ndarray:
        """Row r: optimality margins of the distances in row r of D."""
        lengths = np.take(D, self.edges, axis=1).sum(axis=1)
        return lengths[:, 1:] - lengths[:, :1]

    def distance_terms(self, D: np.ndarray) -> tuple:
        """Per row of D, the terms of its score that lambda does not touch:
        mu's distance part D @ B^T - D @ TY^T, the penalty and max|d|."""
        margins = self.margins(D)
        violation = np.sum(np.maximum(0.0, STRICTNESS_MARGIN - margins), axis=1)
        violation += _left_to_right(np.maximum(0.0, STRICTNESS_MARGIN - D[:, self.offdiag]))
        t0, t1, t2 = self.tri
        violation += _left_to_right(np.maximum(0.0, D[:, t0] - D[:, t1] - D[:, t2]))
        return D @ self.B.T - D @ self.TY.T, PENALTY_WEIGHT * violation, np.abs(D).max(1)

    def evaluate(
        self, D: np.ndarray, L: np.ndarray, floor: np.ndarray, terms: tuple | None = None
    ) -> np.ndarray:
        """Scores of a batch: row r of D is a flattened distance matrix and
        row r of L its lambda; `terms`, if given, is distance_terms(D).  A
        row whose score cannot exceed floor[r] may score -inf without an
        eigensolve; every other row gets its exact score, so a caller that
        accepts only scores > floor sees the same decisions.

        The bound: diag M = mu, so lambda_min(M) <= min(mu) (Rayleigh-Ritz).
        eigvalsh's eigenvalues are exact for some M + E with ||E||_2 a
        modest multiple of eps * ||M||_2, and ||M||_2 <= max|mu| + dim *
        max|d|; the slack, 1e-12 (about 4500 eps) times that norm bound,
        covers the error with room to spare.  Rounding is monotone, so a
        pruned row's computed score could not have exceeded floor either.

        The screen, on a row the bound keeps whose floor f, penalty p and
        mu are finite (all magnitudes below SCREEN_MAGNITUDE_CAP): with
        s = fl(f + p) and c = theta_dim + 6u, shift the diagonal by
        sigma = s - 2 (slack + c (max|mu| + |s|)) and factor fl(M - sigma I)
        by Cholesky.  theta_dim = dim g / (1 - dim g), g = gamma_{dim+1} =
        (dim + 1) u / (1 - (dim + 1) u), u the unit roundoff; theta_dim is
        7.4e-13 at dim = 81.  If the factorization fails, lambda_min(fl(M - sigma I))
        <= theta_dim * max(fl(mu - sigma), 0) (Higham, Accuracy and
        Stability of Numerical Algorithms, 2nd ed., Thm 10.7; a nonpositive
        diagonal entry fails at once and bounds lambda_min by itself).  The
        shifted diagonal is off by at most u max|mu - sigma|, so
        lambda_min(M) <= sigma + (theta_dim + 2u)(max|mu| + |sigma|), and
        with eigvalsh's error inside the slack the computed lo is at most
        sigma + (theta_dim + 2u)(max|mu| + |sigma|) + slack <= f + p: the
        factor 2 and the extra 4u in c cover the roundings of f + p, of the
        shift and of sigma.  Rounding is monotone, so fl(lo - p) <= f, and
        the row scores -inf with no eigensolve.  The cap keeps every entry
        and every product of the factorization far from overflow, where
        Thm 10.7's model of the arithmetic holds.
        """
        DB, penalty, dmax = self.distance_terms(D) if terms is None else terms
        mu = (DB - L @ self.E_r) * self.inv_sign
        mu_min, mu_max = mu.min(1), np.abs(mu).max(1)
        slack = 1e-12 * (mu_max + self.dim * dmax)
        solve = mu_min + slack - penalty > floor

        scores = np.full(len(D), -np.inf)
        mu, mu_min, mu_max, dmax, slack, penalty, floor = (
            a[solve] for a in (mu, mu_min, mu_max, dmax, slack, penalty, floor)
        )
        M = np.concatenate([D[solve], np.zeros((len(mu), 1))], axis=1)[:, self.T_cols]
        diag = M.reshape(len(M), self.dim**2)[:, :: self.dim + 1]  # a view, zero so far

        magnitude = mu_max + self.dim * dmax + np.abs(floor) + penalty
        screened = magnitude < SCREEN_MAGNITUDE_CAP  # false on inf and nan too
        # unscreened rows get sigma = 0, and their Cholesky result is unread;
        # they may hold inf - inf, and a failed factorization flags invalid
        with np.errstate(invalid="ignore"):
            s = floor + penalty
            sigma = s - 2 * (slack + self.screen_rel * (mu_max + np.abs(s)))
            diag[:] = mu - np.where(screened, sigma, 0.0)[:, None]
            lost = screened & np.isnan(cholesky_lo(M)[:, 0, 0])
        diag[:] = 0.0 + mu  # A_r's zero diagonal plus mu, bit for bit

        keep = np.flatnonzero(~lost)
        lo = np.linalg.eigvalsh(M[keep])[:, 0]
        _check_pd_implies_positive_mu(lo, mu_min[keep])
        scores[np.flatnonzero(solve)[keep]] = lo - penalty[keep]
        return scores


def _points_dvec(n: int, coords: np.ndarray) -> np.ndarray:
    """Row-wise: (R, 2n) planar coordinates -> (R, n*n) distances."""
    pts = np.clip(coords.reshape(-1, n, 2), 0.0, 1.0)
    diff = pts[:, :, None, :] - pts[:, None, :, :]
    return np.sqrt((diff**2).sum(-1)).reshape(-1, n * n)


def _split(n: int, theta: np.ndarray):
    """Rows of theta (2n coordinates, then lambda) -> (flattened distance
    matrices, lambdas)."""
    return _points_dvec(n, theta[:, :2 * n]), theta[:, 2 * n:]


def _start(cfg: SearchConfig, k: int):
    """Seeded start of restart k: (theta, per-coordinate step scales)."""
    n = cfg.n
    rng = np.random.default_rng([cfg.seed, k])
    coords = rng.random((n, 2)).ravel()
    box = LAMBDA_BOX_FACTOR * float(np.max(_points_dvec(n, coords)))
    lam = rng.uniform(-box, box, 2 * n - 3)
    scales = [np.full(coords.size, 0.25), np.full(2 * n - 3, max(0.1 * box, 0.1))]
    return np.concatenate([coords, lam]), np.concatenate(scales)


def _search_chunk(ev: _FastEvaluator, cfg: SearchConfig, ks, trace: list | None = None):
    """Seeded starts plus derivative-free coordinate refinement of the
    restarts `ks`, all advanced in lockstep over one shared coordinate.
    Per coordinate, +step then -step is proposed: both are scored in one
    batch, and the -step is used (and counted as an evaluation) only when
    the +step was rejected and the restart has budget left.  A sweep with
    no acceptance halves the step.  A restart stops at STEP_FLOOR or after
    local_iters evaluations.  Rows never mix, so a restart's result does
    not depend on its chunk.  Returns the best score and theta per
    restart; `trace` gets the best scores per coordinate step."""
    theta, scales = map(np.array, zip(*(_start(cfg, k) for k in ks)))
    R, n_coords = theta.shape
    D, L = _split(cfg.n, theta)
    terms = ev.distance_terms(D)  # of each restart's current distances
    best = ev.evaluate(D, L, np.full(R, -np.inf), terms)
    left = np.full(R, cfg.local_iters - 1)  # evaluations left after the start
    step = np.ones(R)
    improved = np.zeros(R, dtype=bool)
    for c in itertools.cycle(range(n_coords)):
        live = np.flatnonzero((step > STEP_FLOOR) & (left > 0))
        if not live.size:
            break
        m, delta = live.size, step[live] * scales[live, c]
        cand = np.concatenate([theta[live], theta[live]])  # +step rows, then -step rows
        cand[:m, c] += delta
        cand[m:, c] -= delta
        if c < 2 * cfg.n:  # a point moves
            cand_D, cand_L = _split(cfg.n, cand)
            cand_terms = ev.distance_terms(cand_D)
        else:  # a lambda step leaves the distances as they are
            both = np.concatenate([live, live])
            cand_D, cand_L = D[both], cand[:, 2 * cfg.n:]
            cand_terms = tuple(a[both] for a in terms)
        # a -step with no budget left has floor +inf, so it is never solved
        floor = np.concatenate([best[live], np.where(left[live] > 1, best[live], np.inf)])
        s = ev.evaluate(cand_D, cand_L, floor, cand_terms)
        take_plus = s[:m] > best[live]
        pick = np.where(take_plus, np.arange(m), np.arange(m, 2 * m))  # the row tried last
        s = s[pick]
        acc = s > best[live]
        rows, pick = live[acc], pick[acc]
        theta[rows], D[rows], best[rows] = cand[pick], cand_D[pick], s[acc]
        for a, b in zip(terms, cand_terms):
            a[rows] = b[pick]
        improved[rows] = True
        left[live] -= np.where(take_plus, 1, 2)
        if c == n_coords - 1:  # end of a sweep
            step[~improved] *= 0.5
            improved[:] = False
        if trace is not None:
            trace.append(best.copy())
    return best, theta


def inverse_search(cfg: SearchConfig = SearchConfig()) -> InverseSearchReport:
    """Multistart maximization of the feasibility score at the identity
    tour; reports the best candidate found and whether it constitutes a
    counterexample.  Any tour is the identity after relabelling cities
    2..n, so fixing the target loses no instance.
    """
    n = cfg.n
    ev = _FastEvaluator(n)
    # each restart scores two rows (+step and -step) per lockstep step
    chunk = max(1, LOCKSTEP_CELLS // (2 * ev.edges.size))
    scores, thetas = map(np.concatenate, zip(*(
        _search_chunk(ev, cfg, range(k, min(k + chunk, cfg.restarts)))
        for k in range(0, cfg.restarts, chunk)
    )))
    best_k = int(np.argmax(scores))  # ties to the lowest restart index
    best_score = float(scores[best_k])

    # replay the winner through the full chain
    D, L = _split(n, thetas[best_k:best_k + 1])
    dvec, lam = D[0], L[0]
    d = DistanceMatrix(n, dvec.reshape(n, n))
    breakdown = feasibility_score(d, lam)
    mu, residual = breakdown.mu, breakdown.stationarity_residual

    verdict = SearchVerdict.NoFeasiblePointFound
    if (
        breakdown.min_eig > STRICTNESS_MARGIN
        and np.all(breakdown.margins > STRICTNESS_MARGIN)
        and breakdown.edm_violations == 0.0
        and residual <= STATIONARITY_TOL
    ):
        # the checks the score does not make: the exact triangle inequality,
        # and the cone test's finiteness, Cholesky and PD_TOLERANCE on the
        # replay's own reduced problem
        validate_distance_matrix(d.entries, metric=True)
        if dual_feasible(breakdown.reduced, point(lam, mu))[0]:
            verdict = SearchVerdict.FeasibleCounterexample

    return InverseSearchReport(
        best=InverseCandidate(d=d, lam=lam, mu=mu),
        best_min_eig=breakdown.min_eig,
        best_score=best_score,
        stationarity_residual=residual,
        optimality_margins=[float(v) for v in breakdown.margins],
        edm_violations=breakdown.edm_violations,
        restarts=cfg.restarts,
        best_restart=best_k,
        verdict=verdict,
        seed=cfg.seed,
    )
