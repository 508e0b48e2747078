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
from .reduction import ReducedProblem, reduced_objective

PD_TOLERANCE = 1e-10
BINARY_TOLERANCE = 1e-6
# verify_global's criticality and objective-match tolerances
CRITICAL_GTOL = 1e-6
OBJECTIVE_TOLERANCE = 1e-8

# dual_ascent's barrier path; no caller varies them.  Seeded Euclidean
# solves at n = 4..10, seeds 0-3, take 27-39 Newton steps
STAGES = 8         # barrier weights t0, t0 / SHRINK, ..., one centring each
SHRINK = 20.0
CENTRED = 1e-3     # a stage ends once decrement^2 <= CENTRED * t * dim
MIN_STEP = 1e-6    # the line search gives up below this step


@dataclass(frozen=True)
class DualEvaluation:
    """A dual point (lam, mu) that passed the cone test, with its value,
    recovered minimizer, gradient and the gradient's norm."""
    lam: np.ndarray
    mu: np.ndarray
    value: float
    Y: np.ndarray
    grad_lambda: np.ndarray
    grad_mu: np.ndarray
    grad_norm: float
    min_eig: float


class Termination(Enum):
    GradientSmall = "GradientSmall"
    Stalled = "Stalled"
    LeftCone = "LeftCone"


class Verdict(Enum):
    NotCriticalPoint = "NotCriticalPoint"
    RecoveredYNotBinary = "RecoveredYNotBinary"
    RecoveredYNotFeasible = "RecoveredYNotFeasible"
    ObjectiveMismatch = "ObjectiveMismatch"
    ConfirmsTheorem2 = "ConfirmsTheorem2"


@dataclass(frozen=True)
class AscentResult:
    trajectory: list[DualEvaluation]  # the recorded points, values strictly rising
    iterations: int  # Newton steps taken
    termination: Termination

    @property
    def best(self) -> DualEvaluation:
        """The last recorded point."""
        return self.trajectory[-1]


def shifted_system(
    r: ReducedProblem, lam: np.ndarray, mu: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(W, b) at (lam, mu): W = A_r + diag(mu) and b = b_r + mu/2 - E_r^T
    lam.  The one place outside inverse's batched evaluator that forms
    them."""
    if lam.shape != (r.n_multipliers,) or mu.shape != (r.dim,):
        raise ValueError(
            f"expected lambda length {r.n_multipliers} and mu length "
            f"{r.dim}, got {lam.shape} and {mu.shape}"
        )
    return r.A_r + np.diag(mu), r.b_r + 0.5 * mu - r.E_r.T @ lam


def _cone_failure(W: np.ndarray) -> tuple[str | None, float]:
    """The test of the cone that W fails (None if it passes), and its
    smallest eigenvalue (nan if an entry is not finite)."""
    if not np.isfinite(W).all():
        return "shifted matrix has a non-finite entry", math.nan
    lo = float(np.linalg.eigvalsh(W)[0])
    try:
        np.linalg.cholesky(W)
    except np.linalg.LinAlgError:
        return f"Cholesky factorization failed (min eigenvalue {lo!r})", lo
    if lo <= PD_TOLERANCE:
        return f"min eigenvalue {lo!r} <= {PD_TOLERANCE}", lo
    return None, lo


def _solve(W: np.ndarray, b: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, float] | None:
    """Y solving W Y = b and the dual value -b^T Y / 2 - sum(lam), or None
    where b is not finite or the solve breaks down."""
    if not np.isfinite(b).all():
        return None  # a non-finite b breaks the solve down
    try:
        y = np.linalg.solve(W, b)
    except np.linalg.LinAlgError:  # an exactly zero pivot
        return None
    if not np.isfinite(y).all():
        return None  # singular to working precision
    return y, -0.5 * float(b @ y) - float(np.sum(lam))


def dual_feasible(r: ReducedProblem, lam: np.ndarray, mu: np.ndarray) -> tuple[bool, float]:
    """Strict positive definiteness of the shifted matrix at (lam, mu):
    finite entries, Cholesky success, and the smallest eigenvalue against
    PD_TOLERANCE; returns whether the point passes and that eigenvalue.
    """
    W, _ = shifted_system(r, lam, mu)
    failure, lo = _cone_failure(W)
    return failure is None, lo


def dual_value(r: ReducedProblem, lam: np.ndarray, mu: np.ndarray) -> DualEvaluation:
    """Dual function value, recovered minimizer, and its gradient at
    (lam, mu): the cone test first, then the solve, each with its own
    NotDualFeasible message.
    """
    W, b = shifted_system(r, lam, mu)
    failure, lo = _cone_failure(W)
    if failure is not None:
        raise NotDualFeasible(failure)
    solved = _solve(W, b, lam)
    if solved is None:
        raise NotDualFeasible(f"the solve for Y broke down (min eigenvalue {lo!r})")
    y, value = solved
    grad_lambda = r.E_r @ y - np.ones(r.n_multipliers)
    grad_mu = 0.5 * (y * y - y)
    return DualEvaluation(
        lam=lam,
        mu=mu,
        value=value,
        Y=y,
        grad_lambda=grad_lambda,
        grad_mu=grad_mu,
        grad_norm=float(np.sqrt(np.sum(grad_lambda**2) + np.sum(grad_mu**2))),
        min_eig=lo,
    )


def default_start(r: ReducedProblem) -> tuple[np.ndarray, np.ndarray]:
    """(lam, mu) with a strictly diagonally dominant shift: a constructive
    proof that the dual feasible cone is nonempty.
    """
    return np.zeros(r.n_multipliers), 1.0 + np.sum(np.abs(r.A_r), axis=1)


def _barrier_point(r: ReducedProblem, lam: np.ndarray, mu: np.ndarray):
    """(W, Y, g, L) at (lam, mu), L the Cholesky factor of W - PD_TOLERANCE
    I; None where W or b is not finite, or the factorization or the solve
    fails."""
    W, b = shifted_system(r, lam, mu)
    if not np.isfinite(W).all():
        return None
    try:
        L = np.linalg.cholesky(W - PD_TOLERANCE * np.eye(len(mu)))
    except np.linalg.LinAlgError:
        return None
    solved = _solve(W, b, lam)
    return None if solved is None or not math.isfinite(solved[1]) else (W, *solved, L)


def _newton_step(r: ReducedProblem, W: np.ndarray, y: np.ndarray, L: np.ndarray, t: float):
    """The Newton step (d_lam, d_mu) of phi = g + t logdet(S), S = W -
    PD_TOLERANCE I, at the point whose shifted matrix is W, whose Y is y
    and whose S = L L^T, and its squared Newton decrement; None where the
    Newton system is not finite.  -Hessian = J^T W^-1 J + t (S^-1 o S^-1)
    on the mu block, with J = [-E_r^T, diag(1/2 - Y)]."""
    m = r.n_multipliers
    J = np.hstack([-r.E_r.T, np.diag(0.5 - y)])
    try:
        L_inv = np.linalg.inv(L)
        S_inv = L_inv.T @ L_inv
        H = J.T @ np.linalg.solve(W, J)
        H[m:, m:] += t * S_inv * S_inv
        grad = np.concatenate([r.E_r @ y - 1.0, 0.5 * (y * y - y) + t * S_inv.diagonal()])
        step = np.linalg.solve(H, grad)
    except np.linalg.LinAlgError:  # a non-finite or exactly singular system
        return None
    decrement2 = float(grad @ step)
    return (step[:m], step[m:], decrement2) if math.isfinite(decrement2) else None


def dual_ascent(r: ReducedProblem) -> AscentResult:
    """Maximizes g on a log-barrier path from default_start(r): damped
    Newton on phi = g + t logdet(W - PD_TOLERANCE I) over (lam, mu), for
    STAGES weights t, from t0 = |g0| / dim (max mu0 / dim where g0 = 0,
    since t = 0 makes the Newton system singular) down by SHRINK each
    stage.  A step s * (Newton step) is taken where W - PD_TOLERANCE I
    factors by Cholesky and phi strictly rises; s halves down to MIN_STEP.
    A stage ends centred (decrement^2 <= CENTRED * t * dim) or when its
    line search fails, and its end point goes through dual_value.  The
    trajectory records the start and each stage end that beats the last
    recorded value.

    Termination: GradientSmall if the last stage ended centred; Stalled if
    its line search failed, or if a Newton system was not finite, which
    ends the path; LeftCone if a stage end failed the cone test, which
    ends the path too.
    """
    lam, mu = default_start(r)
    try:
        trajectory = [dual_value(r, lam, mu)]
    except NotDualFeasible as exc:
        raise TspdualError(f"start is not dual feasible: {exc}") from None
    t = (abs(trajectory[0].value) or float(np.max(mu))) / r.dim
    point = _barrier_point(r, lam, mu)
    steps = 0
    with np.errstate(all="ignore"):  # every decision tests for non-finite values
        for _ in range(STAGES):
            termination = Termination.Stalled
            while point is not None:
                W, y, g, L = point
                newton = _newton_step(r, W, y, L, t)
                if newton is None:
                    point = None
                    break
                d_lam, d_mu, decrement2 = newton
                if decrement2 <= CENTRED * t * r.dim:
                    termination = Termination.GradientSmall
                    break
                s = 1.0
                while s >= MIN_STEP:
                    trial_lam, trial_mu = lam + s * d_lam, mu + s * d_mu
                    trial = _barrier_point(r, trial_lam, trial_mu)
                    if trial is not None and trial[2] - g + 2 * t * float(
                        np.sum(np.log(trial[3].diagonal() / L.diagonal()))
                    ) > 0:
                        break
                    s *= 0.5
                else:
                    break  # the line search failed
                lam, mu, point = trial_lam, trial_mu, trial
                steps += 1
            try:
                end = dual_value(r, lam, mu)
            except NotDualFeasible:
                termination = Termination.LeftCone
                break
            if end.value > trajectory[-1].value:
                trajectory.append(end)
            if point is None:
                termination = Termination.Stalled
                break
            t /= SHRINK
    return AscentResult(trajectory=trajectory, iterations=steps, termination=termination)


def verify_global(
    r: ReducedProblem,
    ev: DualEvaluation,
    optimum: float,
) -> Verdict:
    """Checks whether an evaluated dual point, which is in the cone by
    construction, certifies the optimum tour length: criticality, binary
    feasible recovery, and objective match, in that order.  A
    ConfirmsTheorem2 verdict would be a strong positive finding and is
    expected never to occur.
    """
    if ev.grad_norm > CRITICAL_GTOL:
        return Verdict.NotCriticalPoint
    if np.max(np.abs(ev.Y * ev.Y - ev.Y)) > BINARY_TOLERANCE:
        return Verdict.RecoveredYNotBinary
    y_bin = np.round(ev.Y)
    if np.max(np.abs(r.E_r @ y_bin - 1.0)) > BINARY_TOLERANCE:
        return Verdict.RecoveredYNotFeasible
    if abs(reduced_objective(r, y_bin) + r.c0 - optimum) > OBJECTIVE_TOLERANCE:
        return Verdict.ObjectiveMismatch
    return Verdict.ConfirmsTheorem2
