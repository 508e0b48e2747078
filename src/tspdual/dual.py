"""Classic Lagrangian dual of the reduced problem.

Multipliers lam (length 2n-3) price the equality constraints E_r Y = e
and mu (length (n-1)^2) prices the binarity constraint Y∘Y = Y.  The
shifted data are A_r(lam,mu) = A_r + diag(mu) and
b_r(lam,mu) = b_r + mu/2 - E_r^T lam; on the cone S+ where the shifted
matrix is positive definite the dual value is
g = -(1/2) b^T A^{-1} b - lam^T e with the minimizer Y solving
A_r(lam,mu) Y = b_r(lam,mu).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NotDualFeasible, TspdualError
from .instance import OracleResult
from .reduction import ReducedProblem, reduced_objective

PD_TOLERANCE = 1e-10
BINARY_TOLERANCE = 1e-6
# verify_global's criticality and objective-match tolerances
CRITICAL_GTOL = 1e-6
OBJECTIVE_TOLERANCE = 1e-8

# dual_ascent's settings; no caller varies them, and default ascents stop
# after a few hundred iterations, well short of MAX_ITER
GTOL = 1e-8          # gradient norm that ends the ascent
FTOL = 1e-12         # an accepted step gaining less than this counts as a stall
MAX_ITER = 10_000
STALL_ITERS = 10     # consecutive stalls that end the ascent
INITIAL_STEP = 1.0
MIN_STEP = 1e-18     # backtracking gives up below this step


@dataclass(frozen=True)
class DualPoint:
    lam: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        self.lam.flags.writeable = False
        self.mu.flags.writeable = False


@dataclass(frozen=True)
class DualEvaluation:
    value: float
    Y: np.ndarray
    grad_lambda: np.ndarray
    grad_mu: np.ndarray
    min_eig: float

    @property
    def grad_norm(self) -> float:
        return float(
            np.sqrt(np.sum(self.grad_lambda**2) + np.sum(self.grad_mu**2))
        )


class Termination(Enum):
    GradientSmall = "GradientSmall"
    Stalled = "Stalled"
    IterationCap = "IterationCap"
    LeftCone = "LeftCone"


class Verdict(Enum):
    NotInSPlus = "NotInSPlus"
    NotCriticalPoint = "NotCriticalPoint"
    RecoveredYNotBinary = "RecoveredYNotBinary"
    RecoveredYNotFeasible = "RecoveredYNotFeasible"
    ObjectiveMismatch = "ObjectiveMismatch"
    ConfirmsTheorem2 = "ConfirmsTheorem2"


@dataclass(frozen=True)
class AscentResult:
    best_point: DualPoint
    best_value: float
    iterations: int
    trajectory: list[tuple[float, float, float]]
    termination: Termination


def point(lam, mu) -> DualPoint:
    return DualPoint(
        lam=np.array(lam, dtype=float), mu=np.array(mu, dtype=float)
    )


def assemble(r: ReducedProblem, p: DualPoint) -> tuple[np.ndarray, np.ndarray]:
    """Shifted matrix A_r + diag(mu) and vector b_r + mu/2 - E_r^T lam."""
    if p.lam.shape != (r.n_multipliers,) or p.mu.shape != (r.dim,):
        raise ValueError(
            f"expected lambda length {r.n_multipliers} and mu length {r.dim}, "
            f"got {p.lam.shape} and {p.mu.shape}"
        )
    A_mat = r.A_r + np.diag(p.mu)
    b_vec = r.b_r + 0.5 * p.mu - r.E_r.T @ p.lam
    return A_mat, b_vec


def min_eigenvalue(M: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(M)[0])


def dual_feasible(r: ReducedProblem, p: DualPoint) -> tuple[bool, float]:
    """Strict positive definiteness of the shifted matrix: finite entries,
    a Cholesky attempt, and the smallest eigenvalue against PD_TOLERANCE.
    """
    failure, lo = _cone_failure(assemble(r, p)[0])
    return failure is None, lo


def _cone_failure(A_mat: np.ndarray) -> tuple[str | None, float]:
    """The test of dual_feasible that A_mat fails (None if it passes), and
    its smallest eigenvalue (nan if an entry is not finite)."""
    if not np.isfinite(A_mat).all():
        return "shifted matrix has a non-finite entry", math.nan
    lo = min_eigenvalue(A_mat)
    try:
        np.linalg.cholesky(A_mat)
    except np.linalg.LinAlgError:
        return f"Cholesky factorization failed (min eigenvalue {lo!r})", lo
    if lo <= PD_TOLERANCE:
        return f"min eigenvalue {lo!r} <= {PD_TOLERANCE}", lo
    return None, lo


def _solve(A_mat: np.ndarray, b_vec: np.ndarray) -> np.ndarray | None:
    """Y solving A_mat Y = b_vec, or None where the solve breaks down."""
    try:
        y = np.linalg.solve(A_mat, b_vec)
    except np.linalg.LinAlgError:  # an exactly zero pivot
        return None
    return y if np.isfinite(y).all() else None  # singular to working precision


def dual_value(
    r: ReducedProblem, p: DualPoint, floor: float = -math.inf
) -> DualEvaluation | None:
    """Dual function value, recovered minimizer, and its gradient.

    The solve runs before the cone test, so a point whose Y is finite and
    whose value is <= floor returns None without paying for the test.
    Every other point is judged as with no floor: the cone test first,
    then the solve, each with its own NotDualFeasible message.
    """
    A_mat, b_vec = assemble(r, p)
    y = None
    if np.isfinite(A_mat).all() and np.isfinite(b_vec).all():
        y = _solve(A_mat, b_vec)  # a non-finite b_vec breaks the solve down
    value = math.nan
    if y is not None:
        value = -0.5 * float(b_vec @ y) - float(np.sum(p.lam))
    if floor > -math.inf and value <= floor:  # never for nan, nor with no floor
        return None
    failure, lo = _cone_failure(A_mat)
    if failure is not None:
        raise NotDualFeasible(failure)
    if y is None:
        raise NotDualFeasible(f"the solve for Y broke down (min eigenvalue {lo!r})")
    return DualEvaluation(
        value=value,
        Y=y,
        grad_lambda=r.E_r @ y - np.ones(r.n_multipliers),
        grad_mu=0.5 * (y * y - y),
        min_eig=lo,
    )


def default_start(r: ReducedProblem) -> DualPoint:
    """Strictly diagonally dominant shift: a constructive proof that the
    dual feasible cone is nonempty.
    """
    mu = 1.0 + np.sum(np.abs(r.A_r), axis=1)
    return point(np.zeros(r.n_multipliers), mu)


def dual_ascent(r: ReducedProblem, start: DualPoint | None = None) -> AscentResult:
    """Gradient ascent with backtracking inside the cone: the trial step
    p + t * grad g is not projected; a trial point that leaves the
    positive-definite cone or does not improve is rejected and t halved,
    so accepted iterates only ever improve the dual value.  A trial point
    that does not improve is rejected before its cone test, which runs
    only if no step of the iteration is accepted and the termination
    hangs on it.
    """
    p = start if start is not None else default_start(r)
    try:
        ev = dual_value(r, p)
    except NotDualFeasible as exc:
        raise TspdualError(f"start is not dual feasible: {exc}") from None
    trajectory = [(ev.value, ev.grad_norm, ev.min_eig)]
    step = INITIAL_STEP
    stall = 0
    termination = Termination.IterationCap
    iterations = 0
    for iterations in range(1, MAX_ITER + 1):
        if ev.grad_norm < GTOL:
            termination = Termination.GradientSmall
            iterations -= 1
            break
        accepted = False
        left_cone = False
        unimproving = []  # trial points dual_value skipped before the cone test
        t = step
        while t >= MIN_STEP:
            cand = point(p.lam + t * ev.grad_lambda, p.mu + t * ev.grad_mu)
            try:
                cand_ev = dual_value(r, cand, floor=ev.value)
            except NotDualFeasible:
                left_cone = True
                t *= 0.5
                continue
            if cand_ev is None:
                unimproving.append(cand)
            elif cand_ev.value > ev.value:
                p, ev = cand, cand_ev
                trajectory.append((ev.value, ev.grad_norm, ev.min_eig))
                accepted = True
                step = 2.0 * t  # cautious growth for the next iteration
                break
            t *= 0.5
        if not accepted:
            # no step improved: the ascent left the cone if a trial point
            # failed the cone test, skipped ones included, else it stalled
            left_cone = left_cone or any(
                not dual_feasible(r, c)[0] for c in unimproving
            )
            termination = (
                Termination.LeftCone if left_cone else Termination.Stalled
            )
            break
        if trajectory[-1][0] - trajectory[-2][0] < FTOL:
            stall += 1
            if stall >= STALL_ITERS:
                termination = Termination.Stalled
                break
        else:
            stall = 0
    return AscentResult(
        best_point=p,
        best_value=ev.value,
        iterations=iterations,
        trajectory=trajectory,
        termination=termination,
    )


def verify_global(
    r: ReducedProblem,
    p: DualPoint,
    oracle: OracleResult,
) -> Verdict:
    """Checks whether a dual point certifies the oracle optimum: cone
    membership, criticality, binary feasible recovery, and objective
    match, in that order.  A ConfirmsTheorem2 verdict would be a strong
    positive finding and is expected never to occur.
    """
    try:
        ev = dual_value(r, p)
    except NotDualFeasible:
        return Verdict.NotInSPlus
    if ev.grad_norm > CRITICAL_GTOL:
        return Verdict.NotCriticalPoint
    if np.max(np.abs(ev.Y * ev.Y - ev.Y)) > BINARY_TOLERANCE:
        return Verdict.RecoveredYNotBinary
    y_bin = np.round(ev.Y)
    if np.max(np.abs(r.E_r @ y_bin - 1.0)) > BINARY_TOLERANCE:
        return Verdict.RecoveredYNotFeasible
    if abs(reduced_objective(r, y_bin) + r.c0 - oracle.best_length) > OBJECTIVE_TOLERANCE:
        return Verdict.ObjectiveMismatch
    return Verdict.ConfirmsTheorem2
