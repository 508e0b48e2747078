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

import numpy as np

from .errors import check_range
from .dual import PD_TOLERANCE, min_eigenvalue, point, dual_feasible
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


@dataclass
class InverseSearchReport:
    best: InverseCandidate
    best_min_eig: float
    best_score: float
    stationarity_residual: float
    optimality_margins: list[float]
    edm_violations: float
    restarts: int
    best_restart: int
    verdict: str  # "NoFeasiblePointFound" | "FeasibleCounterexample"
    seed: int

    def to_dict(self) -> dict:
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
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


def stationarity_residual(r: ReducedProblem, lam: np.ndarray, mu: np.ndarray) -> float:
    ybar = default_target(r.n)
    lhs = (r.A_r + np.diag(mu)) @ ybar
    rhs = r.b_r + 0.5 * mu - r.E_r.T @ lam
    return float(np.max(np.abs(lhs - rhs)))


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


def feasibility_score(d: DistanceMatrix, lam: np.ndarray) -> ScoreBreakdown:
    """Scalar search objective via the full formulation/reduction chain:
    smallest eigenvalue of A_r + diag(mu), penalized by optimality-margin
    and EDM violations; also the stationarity residual of (lam, mu) on the
    same reduced problem.
    """
    r = reduce_formulation(build_formulation(d))
    mu = eliminate_mu(r, lam)
    lo = min_eigenvalue(r.A_r + np.diag(mu))
    _check_pd_implies_positive_mu(lo, mu)
    margins = optimality_margins(d)
    edm = edm_violations(d)
    violation = float(np.sum(np.maximum(0.0, STRICTNESS_MARGIN - margins))) + edm
    return ScoreBreakdown(
        score=lo - PENALTY_WEIGHT * violation,
        min_eig=lo,
        mu=mu,
        margins=margins,
        edm_violations=edm,
        stationarity_residual=stationarity_residual(r, lam, mu),
    )


def _check_pd_implies_positive_mu(lo, mu) -> None:
    # diag(A_r + diag(mu)) = mu, so positive definiteness forces mu > 0;
    # checked per row of a batch (one lo per row of mu)
    lo, mu = np.atleast_1d(lo), np.atleast_2d(mu)
    bad = (lo > PD_TOLERANCE) & ~np.all(mu > 0, axis=1)
    if bad.any():
        raise AssertionError(
            f"positive definite shifted matrix with nonpositive mu: {mu[bad.argmax()]}"
        )


class _FastEvaluator:
    """Batched score evaluation for the lockstep search loop.

    A_r and b_r are linear and homogeneous in the distance entries, so
    both are read as linear maps over the flattened d from their closed
    forms in reduction.linear_maps, independent of the formulation and
    reduction chain that feasibility_score replays.  Results agree
    with feasibility_score to rounding, and each row of a batch is
    bit-identical to the same row evaluated alone: the 0/1 map into A_r
    is a gather, and the other maps of d and lambda go through a stacked
    matmul, which makes the same BLAS call per row as a single product.
    Tour lengths sum an edge gather in tour order (edges[a, t] indexes
    edge a of tour t; the target is tour 0), so the margins equal
    optimality_margins bit for bit.  The gather must be np.take: its
    (R, n, T) result is C-ordered, so the margins stay C-contiguous and
    the penalty keeps its pairwise sum.  A fancy-indexed D[:, edges] has
    transposed strides, and the penalty's last bits then move at n >= 9.
    """

    def __init__(self, n: int):
        self.n = n
        self.dim = (n - 1) ** 2
        self.ybar = default_target(n)
        self.E_r = build_reduced_constraints(n)
        self.ErT = self.E_r.T
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

    def margins(self, D: np.ndarray) -> np.ndarray:
        """Row r: optimality margins of the distances in row r of D."""
        lengths = np.take(D, self.edges, axis=1).sum(axis=1)
        return lengths[:, 1:] - lengths[:, :1]

    def evaluate(self, D: np.ndarray, L: np.ndarray, floor: np.ndarray) -> np.ndarray:
        """Scores of a batch: row r of D is a flattened distance matrix and
        row r of L its lambda.  A row whose score cannot exceed floor[r]
        scores -inf without an eigensolve; every other row gets its exact
        score, so a caller that accepts only scores > floor sees the same
        decisions.

        The bound: diag M = mu, so lambda_min(M) <= min(mu) (Rayleigh-Ritz).
        eigvalsh's eigenvalues are exact for some M + E with ||E||_2 a
        modest multiple of eps * ||M||_2, and ||M||_2 <= max|mu| + dim *
        max|d|; the slack, 1e-12 (about 4500 eps) times that norm bound,
        covers the error with room to spare.  Rounding is monotone, so a
        pruned row's computed score could not have exceeded floor either.
        """
        def apply(m, X):  # row-wise m @ x
            return np.matmul(m, X[:, :, None])[..., 0]

        mu = (apply(self.B, D) - apply(self.TY, D) - apply(self.ErT, L)) * self.inv_sign
        margins = self.margins(D)
        violation = np.sum(np.maximum(0.0, STRICTNESS_MARGIN - margins), axis=1)
        violation += np.sum(np.maximum(0.0, STRICTNESS_MARGIN - D[:, self.offdiag]), axis=1)
        t0, t1, t2 = self.tri
        violation += np.sum(np.maximum(0.0, D[:, t0] - D[:, t1] - D[:, t2]), axis=1)
        penalty = PENALTY_WEIGHT * violation
        slack = 1e-12 * (np.abs(mu).max(1) + self.dim * np.abs(D).max(1))
        solve = mu.min(1) + slack - penalty > floor

        scores = np.full(len(D), -np.inf)
        M = np.concatenate([D[solve], np.zeros((solve.sum(), 1))], axis=1)[:, self.T_cols]
        M.reshape(len(M), self.dim**2)[:, :: self.dim + 1] += mu[solve]  # the diagonals
        lo = np.linalg.eigvalsh(M)[:, 0]
        _check_pd_implies_positive_mu(lo, mu[solve])
        scores[solve] = lo - penalty[solve]
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
    best = ev.evaluate(*_split(cfg.n, theta), np.full(R, -np.inf))
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
        # a -step with no budget left has floor +inf, so it is never solved
        floor = np.concatenate([best[live], np.where(left[live] > 1, best[live], np.inf)])
        s = ev.evaluate(*_split(cfg.n, cand), floor)
        take_plus = s[:m] > best[live]
        s = np.where(take_plus, s[:m], s[m:])
        acc = s > best[live]
        rows = live[acc]
        theta[rows] = np.where(take_plus[:, None], cand[:m], cand[m:])[acc]
        best[rows] = s[acc]
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

    verdict = "NoFeasiblePointFound"
    if (
        breakdown.min_eig > STRICTNESS_MARGIN
        and breakdown.margins.size > 0
        and np.all(breakdown.margins > STRICTNESS_MARGIN)
        and breakdown.edm_violations == 0.0
        and residual <= STATIONARITY_TOL
    ):
        # independent replay of every clause before claiming a counterexample
        d_checked = validate_distance_matrix(d.entries, metric=True)
        in_plus, _ = dual_feasible(
            reduce_formulation(build_formulation(d_checked)),
            point(lam, mu),
        )
        replay_margins = optimality_margins(d_checked)
        if in_plus and np.all(replay_margins > 0):
            verdict = "FeasibleCounterexample"

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
