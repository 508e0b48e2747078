"""Inverse feasibility search: does any (d, lambda, mu) make a designated
tour Y-bar satisfy stationarity, strict positive definiteness, tour
optimality, and the Euclidean-distance-matrix conditions simultaneously?

The binarity multipliers mu are eliminated in closed form (each
stationarity row is linear in exactly one mu_i with coefficient
Y_i - 1/2 = +-1/2), so the search runs over (d, lambda) only and
stationarity holds exactly at every iterate.  Distances are
parameterized by planar points by default, which makes the EDM
conditions hold by construction; a direct-entry parameterization with
penalty terms is available for comparison.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleTarget, check_range
from .dual import PD_TOLERANCE, min_eigenvalue, point, dual_feasible
from .formulation import build_formulation
from .instance import (
    ORACLE_MAX_CITIES,
    DistanceMatrix,
    Tour,
    brute_force_optimum,
    canonical_tour,
    tour_length,
    validate_distance_matrix,
)
from .reduction import (
    ReducedProblem,
    build_index_map,
    build_reduced_constraints,
    embed_tour,
    extract_tour,
    reduce_formulation,
)

STRICTNESS_MARGIN = 1e-6   # numerical margin standing in for strict inequalities
STATIONARITY_TOL = 1e-10
PENALTY_WEIGHT = 1e3
LAMBDA_BOX_FACTOR = 10.0   # lambda starts uniform in +-factor * largest distance
STEP_FLOOR = 1e-9
# at n = 3 every tour is the target, so there are no optimality margins
MIN_SEARCH_CITIES = 4
PARAMETERIZATIONS = ("points", "direct")


@dataclass(frozen=True)
class SearchConfig:
    n: int = 4
    restarts: int = 1000
    local_iters: int = 2000   # score-evaluation budget per restart
    seed: int = 0
    parameterization: str = "points"  # "points" | "direct"

    def __post_init__(self):
        check_range(
            "n", self.n, MIN_SEARCH_CITIES <= self.n <= ORACLE_MAX_CITIES,
            f"in {MIN_SEARCH_CITIES}..{ORACLE_MAX_CITIES}",
        )
        check_range("restarts", self.restarts, self.restarts >= 0, ">= 0")
        check_range("local_iters", self.local_iters, self.local_iters >= 1, ">= 1")
        check_range("seed", self.seed, self.seed >= 0, ">= 0")
        check_range(
            "parameterization", self.parameterization,
            self.parameterization in PARAMETERIZATIONS,
            " or ".join(repr(p) for p in PARAMETERIZATIONS),
        )


@dataclass(frozen=True)
class InverseCandidate:
    d: DistanceMatrix
    lam: np.ndarray
    mu: np.ndarray


@dataclass
class InverseSearchReport:
    best: InverseCandidate | None
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
        payload = {
            "best": None,
            "best_min_eig": self.best_min_eig,
            "best_score": self.best_score,
            "stationarity_residual": self.stationarity_residual,
            "optimality_margins": self.optimality_margins,
            "edm_violations": self.edm_violations,
            "restarts": self.restarts,
            "best_restart": self.best_restart,
            "verdict": self.verdict,
            "seed": self.seed,
        }
        if self.best is not None:
            payload["best"] = {
                "d": [float(v) for v in self.best.d.entries.ravel()],
                "lambda": [float(v) for v in self.best.lam],
                "mu": [float(v) for v in self.best.mu],
            }
        return payload


def eliminate_mu(r: ReducedProblem, ybar: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Closed-form mu from the stationarity system at the target Y-bar:
    mu_i (Ybar_i - 1/2) = b_ri - [A_r Ybar]_i - [E_r^T lam]_i.
    """
    ybar = np.asarray(ybar, dtype=float)
    _require_target(r.E_r, ybar)
    rhs = r.b_r - r.A_r @ ybar - r.E_r.T @ np.asarray(lam, dtype=float)
    return rhs / (ybar - 0.5)


def stationarity_residual(
    r: ReducedProblem, ybar: np.ndarray, lam: np.ndarray, mu: np.ndarray
) -> float:
    lhs = (r.A_r + np.diag(mu)) @ ybar
    rhs = r.b_r + 0.5 * mu - r.E_r.T @ lam
    return float(np.max(np.abs(lhs - rhs)))


def optimality_margins(d: DistanceMatrix, ybar: np.ndarray) -> np.ndarray:
    """Tour-length gap of every alternative canonical tour against the
    target's tour.  All margins strictly positive means the target is the
    unique optimum; at n=4 this yields exactly two inequalities.
    """
    idx = build_index_map(d.n)
    ybar = np.asarray(ybar, dtype=float)
    _require_target(build_reduced_constraints(d.n), ybar)
    target = canonical_tour(extract_tour(idx, ybar))
    target_len = tour_length(d, target)
    oracle = brute_force_optimum(d, fix_first=True)
    return np.array(
        [
            length - target_len
            for key, length in sorted(oracle.all_lengths.items())
            if key != target.order
        ]
    )


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


def feasibility_score(
    d: DistanceMatrix, ybar: np.ndarray, lam: np.ndarray
) -> ScoreBreakdown:
    """Scalar search objective via the full formulation/reduction chain:
    smallest eigenvalue of A_r + diag(mu), penalized by optimality-margin
    and EDM violations.
    """
    r = reduce_formulation(build_formulation(d))
    mu = eliminate_mu(r, ybar, lam)
    lo = min_eigenvalue(r.A_r + np.diag(mu))
    _check_pd_implies_positive_mu(lo, mu)
    margins = optimality_margins(d, ybar)
    edm = edm_violations(d)
    violation = float(np.sum(np.maximum(0.0, STRICTNESS_MARGIN - margins))) + edm
    return ScoreBreakdown(
        score=lo - PENALTY_WEIGHT * violation,
        min_eig=lo,
        mu=mu,
        margins=margins,
        edm_violations=edm,
    )


def _check_pd_implies_positive_mu(lo: float, mu: np.ndarray) -> None:
    # diag(A_r + diag(mu)) = mu, so positive definiteness forces mu > 0
    if lo > PD_TOLERANCE and not np.all(mu > 0):
        raise AssertionError(
            f"positive definite shifted matrix with nonpositive mu: {mu}"
        )


class _FastEvaluator:
    """Vectorized score evaluation for the inner search loop.

    A_r and b_r are linear and homogeneous in the distance entries, so
    both are precomputed as linear maps over the flattened d by probing
    the formulation/reduction chain on basis matrices.  Results agree
    with feasibility_score exactly (same arithmetic, reordered).
    """

    def __init__(self, n: int, ybar: np.ndarray):
        self.n = n
        self.dim = (n - 1) ** 2
        self.ybar = np.asarray(ybar, dtype=float)
        self.E_r = build_reduced_constraints(n)
        _require_target(self.E_r, self.ybar)
        self.ErT = self.E_r.T
        self.inv_sign = 1.0 / (self.ybar - 0.5)  # +-2

        n2 = n * n
        T = np.zeros((self.dim * self.dim, n2))
        B = np.zeros((self.dim, n2))
        for m in range(n2):
            basis = np.zeros((n, n))
            basis[m // n, m % n] = 1.0
            r = reduce_formulation(build_formulation(DistanceMatrix(n, basis)))
            T[:, m] = r.A_r.ravel()
            B[:, m] = r.b_r
        self.T = T
        self.B = B
        self.TY = (T.reshape(self.dim, self.dim, n2) * self.ybar[None, :, None]).sum(1)

        idx = build_index_map(n)
        target = canonical_tour(extract_tour(idx, self.ybar)).order
        tours = sorted(brute_force_optimum(
            DistanceMatrix(n, np.zeros((n, n))), fix_first=True
        ).all_lengths)
        length_rows = []
        self.target_row = None
        alt_rows = []
        for key in tours:
            row = np.zeros(n2)
            for a in range(n):
                i, j = key[a] - 1, key[(a + 1) % n] - 1
                row[i * n + j] += 1.0
            if key == target:
                self.target_row = row
            else:
                alt_rows.append(row)
        self.alt_rows = np.array(alt_rows)

        tri_i, tri_j, tri_k = [], [], []
        for i, j, k in itertools.permutations(range(n), 3):
            tri_i.append(i * n + j)
            tri_j.append(i * n + k)
            tri_k.append(k * n + j)
        self.tri = (np.array(tri_i), np.array(tri_j), np.array(tri_k))
        self.offdiag = np.array(
            [i * n + j for i in range(n) for j in range(n) if i != j]
        )

    def evaluate(self, dvec: np.ndarray, lam: np.ndarray) -> float:
        A_ry = self.TY @ dvec
        b_r = self.B @ dvec
        mu = (b_r - A_ry - self.ErT @ lam) * self.inv_sign
        M = (self.T @ dvec).reshape(self.dim, self.dim)
        M[np.diag_indices_from(M)] += mu
        lo = float(np.linalg.eigvalsh(M)[0])
        _check_pd_implies_positive_mu(lo, mu)
        margins = self.alt_rows @ dvec - self.target_row @ dvec
        violation = float(np.sum(np.maximum(0.0, STRICTNESS_MARGIN - margins)))
        violation += float(
            np.sum(np.maximum(0.0, STRICTNESS_MARGIN - dvec[self.offdiag]))
        )
        violation += float(
            np.sum(np.maximum(0.0, dvec[self.tri[0]] - dvec[self.tri[1]] - dvec[self.tri[2]]))
        )
        return lo - PENALTY_WEIGHT * violation


def _require_target(E_r: np.ndarray, ybar: np.ndarray) -> None:
    if np.max(np.abs(ybar * ybar - ybar)) > 0 or np.max(np.abs(E_r @ ybar - 1.0)) > 0:
        raise InfeasibleTarget("target Y must be binary with E_r Y = e")


def _points_dvec(n: int, coords: np.ndarray) -> np.ndarray:
    pts = np.clip(coords.reshape(n, 2), 0.0, 1.0)
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt((diff**2).sum(-1)).ravel()


def _direct_dvec(n: int, tri: np.ndarray) -> np.ndarray:
    mat = np.zeros((n, n))
    iu = np.triu_indices(n, 1)
    mat[iu] = tri
    mat = mat + mat.T
    return mat.ravel()


def _run_restart(
    ev: _FastEvaluator, cfg: SearchConfig, k: int, trace: list | None = None
):
    """One seeded start plus derivative-free coordinate refinement.
    Returns (score, theta).  Accepted scores (appended to trace when
    given) are nondecreasing by construction."""
    n = cfg.n
    rng = np.random.default_rng([cfg.seed, k])
    coords = rng.random((n, 2)).ravel()
    d0 = _points_dvec(n, coords)
    box = LAMBDA_BOX_FACTOR * float(np.max(d0))
    lam = rng.uniform(-box, box, 2 * n - 3)

    n_d = n * (n - 1) // 2
    if cfg.parameterization == "direct":
        iu = np.triu_indices(n, 1)
        theta = np.concatenate([d0.reshape(n, n)[iu], lam])
        to_dvec = lambda th: _direct_dvec(n, th[:n_d])
        n_shape = n_d
    else:
        theta = np.concatenate([coords, lam])
        to_dvec = lambda th: _points_dvec(n, th[:2 * n])
        n_shape = 2 * n
    scales = np.concatenate(
        [np.full(n_shape, 0.25), np.full(2 * n - 3, max(0.1 * box, 0.1))]
    )

    def score_of(th):
        return ev.evaluate(to_dvec(th), th[n_shape:])

    best = score_of(theta)
    if trace is not None:
        trace.append(best)
    evals = 1
    step = 1.0
    while evals < cfg.local_iters and step > STEP_FLOOR:
        improved = False
        for i in range(len(theta)):
            for sgn in (1.0, -1.0):
                if evals >= cfg.local_iters:
                    break
                cand = theta.copy()
                cand[i] += sgn * step * scales[i]
                s = score_of(cand)
                evals += 1
                if s > best:
                    theta, best = cand, s
                    if trace is not None:
                        trace.append(best)
                    improved = True
                    break
            if evals >= cfg.local_iters:
                break
        if not improved:
            step *= 0.5
    return best, theta


def default_target(n: int) -> np.ndarray:
    """Embedding of the identity tour (1, 2, ..., n)."""
    return embed_tour(build_index_map(n), Tour(tuple(range(1, n + 1))))


def inverse_search(
    ybar: np.ndarray | None = None, cfg: SearchConfig = SearchConfig()
) -> InverseSearchReport:
    """Multistart maximization of the feasibility score; reports the best
    candidate found and whether it constitutes a counterexample.
    """
    n = cfg.n
    if ybar is None:
        ybar = default_target(n)
    ybar = np.asarray(ybar, dtype=float)

    if cfg.restarts == 0:
        return InverseSearchReport(
            best=None,
            best_min_eig=float("-inf"),
            best_score=float("-inf"),
            stationarity_residual=float("inf"),
            optimality_margins=[],
            edm_violations=float("inf"),
            restarts=0,
            best_restart=-1,
            verdict="NoFeasiblePointFound",
            seed=cfg.seed,
        )

    ev = _FastEvaluator(n, ybar)
    # max by score, ties to the lowest restart index
    best_k, best_score, best_theta = -1, float("-inf"), None
    for k in range(cfg.restarts):
        score, theta = _run_restart(ev, cfg, k)
        if score > best_score:
            best_k, best_score, best_theta = k, score, theta

    # replay the winner through the full chain
    n_d = n * (n - 1) // 2
    if cfg.parameterization == "direct":
        dvec = _direct_dvec(n, best_theta[:n_d])
        lam = best_theta[n_d:]
    else:
        dvec = _points_dvec(n, best_theta[:2 * n])
        lam = best_theta[2 * n:]
    d = DistanceMatrix(n, dvec.reshape(n, n))
    r = reduce_formulation(build_formulation(d))
    mu = eliminate_mu(r, ybar, lam)
    breakdown = feasibility_score(d, ybar, lam)
    residual = stationarity_residual(r, ybar, lam, mu)

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
        replay_margins = optimality_margins(d_checked, ybar)
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
