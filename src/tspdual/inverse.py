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
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
# the gufunc behind np.linalg.cholesky: a stack is factored matrix by matrix,
# and under errstate(invalid="ignore") a matrix that fails comes back all NaN
# instead of raising for the whole stack
from numpy.linalg._umath_linalg import cholesky_lo

from .errors import check_range
from .dual import PD_TOLERANCE, dual_feasible, shifted_system
from .formulation import build_formulation
from .instance import (
    ORACLE_MAX_CITIES,
    DistanceMatrix,
    canonical_tours,
    tour_lengths,
)
from .reduction import ReducedProblem, default_target, linear_maps, reduce_formulation

STRICTNESS_MARGIN = 1e-6   # numerical margin standing in for strict inequalities
STATIONARITY_TOL = 1e-10
PENALTY_WEIGHT = 1e3
LAMBDA_BOX_FACTOR = 10.0   # lambda starts uniform in +-factor * largest distance
STEP_FLOOR = 1e-9
# cap on scored rows x the larger of a row's tour-edge gather and its
# dim x dim matrix in one lockstep chunk of restarts: it binds from 25890
# restarts at n = 4, 8192 at n = 5, 3355 at n = 6, 832 at n = 7 and 104 at n = 8
LOCKSTEP_CELLS = 1 << 22
# at n = 3 every tour is the target, so there are no optimality margins
MIN_SEARCH_CITIES = 4

# Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm 10.7:
# Cholesky runs to completion in floating point on a symmetric M of order m
# with lambda_min(M) > cholesky_theta(m) * max diag(M).  Its model of the
# arithmetic has no overflow, so the screen in _FastEvaluator.evaluate is
# used only on matrices whose magnitudes are below this cap
CHOLESKY_MAGNITUDE_CAP = 1e150
UNIT_ROUNDOFF = np.finfo(float).eps / 2


def cholesky_theta(m: int) -> float:
    """theta_m = m g / (1 - m g), g = gamma_{m+1} = (m + 1) u / (1 - (m + 1) u):
    7.4e-13 at m = 81."""
    u = UNIT_ROUNDOFF
    gamma = (m + 1) * u / (1 - (m + 1) * u)
    return m * gamma / (1 - m * gamma)


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


class SearchVerdict(Enum):
    NoFeasiblePointFound = "NoFeasiblePointFound"
    FeasibleCounterexample = "FeasibleCounterexample"


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
    lengths = tour_lengths(d)
    return lengths[1:] - lengths[0]


@lru_cache(maxsize=None)
def _triples(n: int) -> np.ndarray:
    """Flat indices (ij, ik, kj) of the ordered triples (i, j, k) of distinct
    cities in lexicographic order, n - 2 per pair (i, j): the terms of every
    triangle inequality d_ij <= d_ik + d_kj."""
    i, j, k = np.array(list(itertools.permutations(range(n), 3))).T
    triples = np.array([i * n + j, i * n + k, k * n + j])
    triples.flags.writeable = False
    return triples


def edm_violations(d: DistanceMatrix) -> float:
    """Total magnitude of Euclidean-distance-matrix violations: off-diagonal
    positivity (with the strictness margin) and triangle inequalities.
    Symmetry and zero diagonal are structural and checked upstream.  The
    terms are added left to right, one pair (i, j) at a time in row-major
    order: its positivity term, then its triangle terms in k.
    """
    n, dvec = d.n, d.entries.ravel()
    ij, ik, kj = _triples(n)
    positivity = np.maximum(0.0, STRICTNESS_MARGIN - dvec[ij[:: n - 2]])
    triangle = np.maximum(0.0, dvec[ij] - dvec[ik] - dvec[kj]).reshape(-1, n - 2)
    return float(np.cumsum(np.column_stack([positivity, triangle]))[-1])


@dataclass(frozen=True)
class ScoreBreakdown:
    score: float
    min_eig: float
    in_cone: bool
    mu: np.ndarray
    margins: np.ndarray
    edm_violations: float
    stationarity_residual: float


@dataclass(frozen=True)
class InverseSearchReport:
    """The search's result: the winner (d, lam) of restart best_restart,
    its fast-path score, and `replay`, its score replayed through the full
    chain, on which the verdict rests."""

    cfg: SearchConfig
    d: DistanceMatrix
    lam: np.ndarray
    replay: ScoreBreakdown
    best_score: float
    best_restart: int
    verdict: SearchVerdict


def feasibility_score(d: DistanceMatrix, lam: np.ndarray) -> ScoreBreakdown:
    """Scalar search objective via the full formulation/reduction chain:
    smallest eigenvalue of A_r + diag(mu), penalized by optimality-margin
    and EDM violations.  One cone test of (lam, mu) gives that eigenvalue
    and whether the point is in the cone; the stationarity residual
    max|W Ybar - b| is read from shifted_system at the same point.
    A non-finite shifted matrix raises ValueError.
    """
    r = reduce_formulation(build_formulation(d))
    lam = np.asarray(lam, dtype=float)
    mu = eliminate_mu(r, lam)
    in_cone, lo = dual_feasible(r, lam, mu)
    if math.isnan(lo):  # the cone test takes no eigenvalue of a non-finite W
        raise ValueError("the replayed shifted matrix has a non-finite entry")
    _check_pd_implies_positive_mu(lo, mu.min())
    margins = optimality_margins(d)
    edm = edm_violations(d)
    violation = float(np.sum(np.maximum(0.0, STRICTNESS_MARGIN - margins))) + edm
    W, b = shifted_system(r, lam, mu)
    return ScoreBreakdown(
        score=lo - PENALTY_WEIGHT * violation,
        min_eig=lo,
        in_cone=in_cone,
        mu=mu,
        margins=margins,
        edm_violations=edm,
        stationarity_residual=float(np.max(np.abs(W @ default_target(r.n) - b))),
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

    A_r and mu are read from their closed forms in reduction.linear_maps,
    independent of the formulation and reduction chain that
    feasibility_score replays.  Results agree with feasibility_score to
    rounding, and each row of a batch is bit-identical to the same row
    evaluated alone.  The 0/1 map into A_r is a gather.  mu = D @ mu_d^T +
    L @ mu_lam^T, and every row of mu_d and mu_lam has at most two
    nonzeros, each +-2, so every product is exact and every entry of each
    matmul is one rounding of a two-term sum, whatever the order or
    blocking of the summation.
    Tour lengths sum an edge gather in tour order (edges[a, t] indexes
    edge a of tour t; the target is tour 0), so the margins equal
    optimality_margins bit for bit.  The gather must be np.take: its
    (R, n, T) result is C-ordered, so the margins stay C-contiguous and
    the penalty keeps its pairwise sum.  A fancy-indexed D[:, edges] has
    transposed strides, and the penalty's last bits then move at n >= 9.
    The positivity and triangle terms are such gathers; _left_to_right sums
    them in the one order that np.sum gives them at R >= 2.
    A batch is scored from its record rows(D), a pure function of each row
    of D, so a caller builds it once per distance row and gathers it for
    every evaluation of that row.
    """

    def __init__(self, n: int):
        self.dim = (n - 1) ** 2
        # A_r entries are picked from d; its structural zeros read d_11
        self.a_index, self.mu_d, self.mu_lam = linear_maps(n)
        self.mu_cols = slice(n * n, n * n + self.dim)  # mu's distance part in rows(D)

        tours = canonical_tours(n).astype(np.intp)
        self.edges = (tours * n + np.roll(tours, -1, axis=1)).T.copy()

        self.tri = _triples(n)
        self.offdiag = self.tri[0][:: n - 2]  # pairs i != j in row-major order

        # theta_dim of a dim x dim Cholesky (see evaluate), plus 6u for the
        # roundings of the shift
        self.screen_rel = cholesky_theta(self.dim) + 6 * UNIT_ROUNDOFF

    def margins(self, D: np.ndarray) -> np.ndarray:
        """Row r: optimality margins of the distances in row r of D."""
        lengths = np.take(D, self.edges, axis=1).sum(axis=1)
        return lengths[:, 1:] - lengths[:, :1]

    def rows(self, D: np.ndarray) -> np.ndarray:
        """The record of a batch of distance rows, one row each: D, then
        the terms of its score that lambda does not touch: mu's distance
        part D @ mu_d^T at mu_cols, the penalty at column -2 and max|d| at
        column -1."""
        margins = self.margins(D)
        violation = np.sum(np.maximum(0.0, STRICTNESS_MARGIN - margins), axis=1)
        violation += _left_to_right(np.maximum(0.0, STRICTNESS_MARGIN - D[:, self.offdiag]))
        t0, t1, t2 = self.tri
        violation += _left_to_right(np.maximum(0.0, D[:, t0] - D[:, t1] - D[:, t2]))
        return np.column_stack([D, D @ self.mu_d.T, PENALTY_WEIGHT * violation, np.abs(D).max(1)])

    def evaluate(self, rows: np.ndarray, L: np.ndarray, floor: np.ndarray) -> np.ndarray:
        """Scores of a batch: `rows` is the record rows(D) of the flattened
        distance matrices D, and row r of L is the lambda of row r.  A row
        whose score cannot exceed floor[r] may score -inf without an
        eigensolve; every other row gets its exact score, so a caller that
        accepts only scores > floor sees the same decisions.

        The bound: diag M = mu, so lambda_min(M) <= min(mu) (Rayleigh-Ritz).
        eigvalsh's eigenvalues are exact for some M + E with ||E||_2 a
        modest multiple of eps * ||M||_2, and ||M||_2 <= max|mu| + dim *
        max|d|; the slack, 1e-12 (about 4500 eps) times that norm bound,
        covers the error with room to spare.  Rounding is monotone, so a
        pruned row's computed score could not have exceeded floor either.

        The screen, on a row the bound keeps whose floor f, penalty p and
        mu are finite (all magnitudes below CHOLESKY_MAGNITUDE_CAP): with
        s = fl(f + p) and c = theta_dim + 6u, shift the diagonal by
        sigma = s - 2 (slack + c (max|mu| + |s|)) and factor fl(M - sigma I)
        by Cholesky, u the unit roundoff and theta_dim = cholesky_theta(dim).
        If the factorization fails, lambda_min(fl(M - sigma I)) <= theta_dim *
        max(fl(mu - sigma), 0) (Higham, Thm 10.7; a nonpositive diagonal
        entry fails at once and bounds lambda_min by itself).  The
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
        mu = rows[:, self.mu_cols] + L @ self.mu_lam.T
        mu_min, mu_max = mu.min(1), np.abs(mu).max(1)
        slack = 1e-12 * (mu_max + self.dim * rows[:, -1])
        solve = mu_min + slack - rows[:, -2] > floor

        scores = np.full(len(L), -np.inf)
        rows = rows[solve]
        mu, mu_min, mu_max, slack, floor = (a[solve] for a in (mu, mu_min, mu_max, slack, floor))
        penalty, dmax = rows[:, -2], rows[:, -1]
        M = rows[:, self.a_index]
        diag = M.reshape(len(M), self.dim**2)[:, :: self.dim + 1]  # a view, zero so far

        magnitude = mu_max + self.dim * dmax + np.abs(floor) + penalty
        screened = magnitude < CHOLESKY_MAGNITUDE_CAP  # false on inf and nan too
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


def _start(cfg: SearchConfig, k: int):
    """Seeded start of restart k: (theta, per-coordinate step scales)."""
    n = cfg.n
    rng = np.random.default_rng([cfg.seed, k])
    coords = rng.random((n, 2)).ravel()
    box = LAMBDA_BOX_FACTOR * float(np.max(_points_dvec(n, coords)))
    lam = rng.uniform(-box, box, 2 * n - 3)
    scales = [np.full(coords.size, 0.25), np.full(2 * n - 3, max(0.1 * box, 0.1))]
    return np.concatenate([coords, lam]), np.concatenate(scales)


def _search_chunk(ev: _FastEvaluator, cfg: SearchConfig, ks):
    """Seeded starts plus derivative-free coordinate refinement of the
    restarts `ks`, all advanced in lockstep over one shared coordinate.
    Per coordinate, +step then -step is proposed: both are scored in one
    batch, and the -step is used (and counted as an evaluation) only when
    the +step was rejected and the restart has budget left.  A sweep with
    no acceptance halves the step.  A restart stops at STEP_FLOOR or after
    local_iters evaluations.  Rows never mix, so a restart's result does
    not depend on its chunk.  Returns the best score and theta per
    restart."""
    n2 = 2 * cfg.n  # theta holds 2n point coordinates, then lambda
    theta, scales = map(np.array, zip(*(_start(cfg, k) for k in ks)))
    R, n_coords = theta.shape
    # a restart's state row: its theta, then the record rows(D) of its distances
    state = np.column_stack([theta, ev.rows(_points_dvec(cfg.n, theta[:, :n2]))])
    best = ev.evaluate(state[:, n_coords:], theta[:, n2:], np.full(R, -np.inf))
    left = np.full(R, cfg.local_iters - 1)  # evaluations left after the start
    step = np.ones(R)
    improved = np.zeros(R, dtype=bool)
    for c in itertools.cycle(range(n_coords)):
        live = np.flatnonzero((step > STEP_FLOOR) & (left > 0))
        if not live.size:
            break
        m, delta = live.size, step[live] * scales[live, c]
        cand = state[np.concatenate([live, live])]  # +step rows, then -step rows
        cand[:m, c] += delta
        cand[m:, c] -= delta
        if c < n2:  # a point moves; a lambda step leaves the distances as they are
            cand[:, n_coords:] = ev.rows(_points_dvec(cfg.n, cand[:, :n2]))
        # a -step with no budget left has floor +inf, so it is never solved
        floor = np.concatenate([best[live], np.where(left[live] > 1, best[live], np.inf)])
        s = ev.evaluate(cand[:, n_coords:], cand[:, n2:n_coords], floor)
        take_plus = s[:m] > best[live]
        pick = np.where(take_plus, np.arange(m), np.arange(m, 2 * m))  # the row tried last
        s = s[pick]
        acc = s > best[live]
        won, pick = live[acc], pick[acc]
        state[won], best[won] = cand[pick], s[acc]
        improved[won] = True
        left[live] -= np.where(take_plus, 1, 2)
        if c == n_coords - 1:  # end of a sweep
            step[~improved] *= 0.5
            improved[:] = False
    return best, state[:, :n_coords]


def inverse_search(cfg: SearchConfig = SearchConfig()) -> InverseSearchReport:
    """Multistart maximization of the feasibility score at the identity
    tour; reports the best candidate found and whether it constitutes a
    counterexample.  Any tour is the identity after relabelling cities
    2..n, so fixing the target loses no instance.
    """
    n = cfg.n
    ev = _FastEvaluator(n)
    # each restart scores two rows (+step and -step) per lockstep step, and
    # a row's largest array is its tour-edge gather or its dim x dim matrix
    chunk = max(1, LOCKSTEP_CELLS // (2 * max(ev.edges.size, ev.dim**2)))
    scores, thetas = map(np.concatenate, zip(*(
        _search_chunk(ev, cfg, range(k, min(k + chunk, cfg.restarts)))
        for k in range(0, cfg.restarts, chunk)
    )))
    best_k = int(np.argmax(scores))  # ties to the lowest restart index

    # replay the winner through the full chain
    lam = thetas[best_k, 2 * n:]
    dvec = _points_dvec(n, thetas[best_k, :2 * n])[0]
    d = DistanceMatrix(n, dvec.reshape(n, n))
    replay = feasibility_score(d, lam)

    verdict = SearchVerdict.NoFeasiblePointFound
    ij, ik, kj = ev.tri
    if (
        replay.min_eig > STRICTNESS_MARGIN
        and np.all(replay.margins > STRICTNESS_MARGIN)
        and replay.edm_violations == 0.0
        and replay.stationarity_residual <= STATIONARITY_TOL
        # the checks the score does not make: the exact triangle inequality,
        # and the replay's cone test (finiteness, Cholesky, PD_TOLERANCE)
        and np.all(dvec[ij] <= dvec[ik] + dvec[kj])
        and replay.in_cone
    ):
        verdict = SearchVerdict.FeasibleCounterexample

    return InverseSearchReport(
        cfg=cfg,
        d=d,
        lam=lam,
        replay=replay,
        best_score=float(scores[best_k]),
        best_restart=best_k,
        verdict=verdict,
    )
