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

# dual_ascent's settings; no caller varies them.  Default ascents on
# Euclidean seeds 0-3 stop after 314-326 iterations at n = 4, 691-701 at
# n = 6, 1231-1246 at n = 8 and 1922-1936 at n = 10, well short of MAX_ITER
GTOL = 1e-8          # gradient norm that ends the ascent
FTOL = 1e-12         # an accepted step gaining less than this counts as a stall
MAX_ITER = 10_000
STALL_ITERS = 10     # consecutive stalls that end the ascent
INITIAL_STEP = 1.0
MIN_STEP = 1e-18     # backtracking gives up below this step

# Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm 10.7:
# Cholesky runs to completion in floating point on a symmetric M of order m
# with lambda_min(M) > cholesky_theta(m) * max diag(M).  Its model of the
# arithmetic has no overflow, so the bounds that rest on it (the cone test
# here, the screen in inverse) are used only on matrices whose magnitudes
# are below this cap
CHOLESKY_MAGNITUDE_CAP = 1e150
UNIT_ROUNDOFF = np.finfo(float).eps / 2


def cholesky_theta(m: int) -> float:
    """theta_m = m g / (1 - m g), g = gamma_{m+1} = (m + 1) u / (1 - (m + 1) u):
    7.4e-13 at m = 81."""
    u = UNIT_ROUNDOFF
    gamma = (m + 1) * u / (1 - (m + 1) * u)
    return m * gamma / (1 - m * gamma)


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
    IterationCap = "IterationCap"
    LeftCone = "LeftCone"


class Verdict(Enum):
    NotCriticalPoint = "NotCriticalPoint"
    RecoveredYNotBinary = "RecoveredYNotBinary"
    RecoveredYNotFeasible = "RecoveredYNotFeasible"
    ObjectiveMismatch = "ObjectiveMismatch"
    ConfirmsTheorem2 = "ConfirmsTheorem2"


@dataclass(frozen=True)
class AscentResult:
    best: DualEvaluation  # the last accepted point
    iterations: int
    trajectory: list[tuple[float, float, float]]
    termination: Termination


class ShiftedSystem:
    """The shifted system of one reduced problem, one point at a time: the
    one place outside inverse's batched evaluator that forms A_r + diag(mu)
    and b, takes the smallest eigenvalue and runs the cone test.
    dual_feasible and dual_value write each point they are given into it.

    W is a work matrix that holds A_r + diag(mu) of the last point, with
    the bits of r.A_r + np.diag(mu): A_r + 0.0 off the diagonal, A_r_ii +
    mu_i on it, and b holds b_r + mu/2 - E_r^T lam.  A point rewrites only
    the diagonal, so the finiteness and |row| sums of the off-diagonal
    part are computed once.
    """

    def __init__(self, r: ReducedProblem):
        self.r = r
        self.W = r.A_r + 0.0
        self.diag = np.einsum("ii->i", self.W)  # a writable view
        self.a_diag = r.A_r.diagonal().copy()
        self.diag[:] = 0.0
        self.off_finite = bool(np.isfinite(self.W).all())
        self.off_sums = np.abs(self.W).sum(axis=1)
        self.theta = cholesky_theta(r.dim)

    def _write(self, lam: np.ndarray, mu: np.ndarray) -> bool:
        """Writes the point (lam, mu) into W and b; returns whether W is
        finite."""
        if lam.shape != (self.r.n_multipliers,) or mu.shape != (self.r.dim,):
            raise ValueError(
                f"expected lambda length {self.r.n_multipliers} and mu length "
                f"{self.r.dim}, got {lam.shape} and {mu.shape}"
            )
        self.diag[:] = self.a_diag + mu
        self.b = self.r.b_r + 0.5 * mu - self.r.E_r.T @ lam
        return self.off_finite and bool(np.isfinite(self.diag).all())

    def _cone_failure(self, finite: bool) -> tuple[str | None, float]:
        """The test of the cone that W fails (None if it passes), and its
        smallest eigenvalue (nan if an entry is not finite).

        Cholesky is attempted only where eigvalsh cannot prove that it
        succeeds.  eigvalsh's eigenvalues are exact for some W + E with
        ||E||_2 a modest multiple of eps * ||W||_2 <= eps * ||W||_inf; the
        slack 1e-12 ||W||_inf (about 4500 eps) covers that.  So where
        lo - slack > theta * max diag(W) and ||W||_inf is below the cap,
        lambda_min(W) > theta * max diag(W) and Cholesky succeeds (see
        cholesky_theta).  ||W||_inf must also be above the cap's inverse,
        where the slack dwarfs any underflow in the factorization.  Every
        other point pays the attempt, so every decision is the one that
        the attempt gives.
        """
        if not finite:
            return "shifted matrix has a non-finite entry", math.nan
        lo = float(np.linalg.eigvalsh(self.W)[0])
        norm = float(np.max(self.off_sums + np.abs(self.diag)))  # ||W||_inf
        proven = (
            1 / CHOLESKY_MAGNITUDE_CAP < norm < CHOLESKY_MAGNITUDE_CAP
            and lo - 1e-12 * norm > self.theta * float(self.diag.max())
        )
        if not proven:
            try:
                np.linalg.cholesky(self.W)
            except np.linalg.LinAlgError:
                return f"Cholesky factorization failed (min eigenvalue {lo!r})", lo
        if lo <= PD_TOLERANCE:
            return f"min eigenvalue {lo!r} <= {PD_TOLERANCE}", lo
        return None, lo


def dual_feasible(
    system: ShiftedSystem, lam: np.ndarray, mu: np.ndarray
) -> tuple[bool, float]:
    """Strict positive definiteness of the shifted matrix at (lam, mu):
    finite entries, Cholesky success, and the smallest eigenvalue against
    PD_TOLERANCE; returns whether the point passes and that eigenvalue.
    """
    failure, lo = system._cone_failure(system._write(lam, mu))
    return failure is None, lo


def dual_value(
    system: ShiftedSystem, lam: np.ndarray, mu: np.ndarray, floor: float = -math.inf
) -> DualEvaluation | None:
    """Dual function value, recovered minimizer, and its gradient at
    (lam, mu).

    The solve runs before the cone test, so a point whose Y is finite
    and whose value is <= floor returns None without paying for the
    test.  Every other point is judged as with no floor: the cone test
    first, then the solve, each with its own NotDualFeasible message.
    """
    finite = system._write(lam, mu)
    y = None
    if finite and np.isfinite(system.b).all():
        y = _solve(system.W, system.b)  # a non-finite b breaks the solve down
    value = math.nan
    if y is not None:
        value = -0.5 * float(system.b @ y) - float(np.sum(lam))
    if floor > -math.inf and value <= floor:  # never for nan, nor with no floor
        return None
    failure, lo = system._cone_failure(finite)
    if failure is not None:
        raise NotDualFeasible(failure)
    if y is None:
        raise NotDualFeasible(f"the solve for Y broke down (min eigenvalue {lo!r})")
    grad_lambda = system.r.E_r @ y - np.ones(system.r.n_multipliers)
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


def _solve(A_mat: np.ndarray, b_vec: np.ndarray) -> np.ndarray | None:
    """Y solving A_mat Y = b_vec, or None where the solve breaks down."""
    try:
        y = np.linalg.solve(A_mat, b_vec)
    except np.linalg.LinAlgError:  # an exactly zero pivot
        return None
    return y if np.isfinite(y).all() else None  # singular to working precision


def default_start(r: ReducedProblem) -> tuple[np.ndarray, np.ndarray]:
    """(lam, mu) with a strictly diagonally dominant shift: a constructive
    proof that the dual feasible cone is nonempty.
    """
    return np.zeros(r.n_multipliers), 1.0 + np.sum(np.abs(r.A_r), axis=1)


def dual_ascent(r: ReducedProblem) -> AscentResult:
    """Gradient ascent with backtracking inside the cone: the trial step
    p + t * grad g is not projected; a trial point that leaves the
    positive-definite cone or does not improve is rejected and t halved,
    so accepted iterates only ever improve the dual value.  A trial point
    that does not improve is rejected before its cone test, which runs
    only if no step of the iteration is accepted and the termination
    hangs on it.  All points share one ShiftedSystem.
    """
    system = ShiftedSystem(r)
    try:
        ev = dual_value(system, *default_start(r))
    except NotDualFeasible as exc:
        raise TspdualError(f"start is not dual feasible: {exc}") from None
    trajectory = [(ev.value, ev.grad_norm, ev.min_eig)]
    step = INITIAL_STEP
    stall = 0
    for done in range(MAX_ITER):  # iterations completed so far
        if ev.grad_norm < GTOL:
            termination, iterations = Termination.GradientSmall, done
            break
        left_cone = False
        unimproving = []  # trial points skipped before the cone test
        t = step
        while t >= MIN_STEP:
            cand_lam, cand_mu = ev.lam + t * ev.grad_lambda, ev.mu + t * ev.grad_mu
            try:
                cand = dual_value(system, cand_lam, cand_mu, floor=ev.value)
            except NotDualFeasible:
                left_cone = True
            else:
                if cand is None:
                    unimproving.append((cand_lam, cand_mu))
                elif cand.value > ev.value:
                    break
            t *= 0.5
        else:
            # no step improved: the ascent left the cone if a trial point
            # failed the cone test, skipped ones included, else it stalled
            left_cone = left_cone or any(
                not dual_feasible(system, *c)[0] for c in unimproving
            )
            termination = Termination.LeftCone if left_cone else Termination.Stalled
            iterations = done + 1
            break
        stall = stall + 1 if cand.value - ev.value < FTOL else 0
        ev = cand
        trajectory.append((ev.value, ev.grad_norm, ev.min_eig))
        step = 2.0 * t  # cautious growth for the next iteration
        if stall >= STALL_ITERS:
            termination, iterations = Termination.Stalled, done + 1
            break
    else:
        termination, iterations = Termination.IterationCap, MAX_ITER
    return AscentResult(
        best=ev,
        iterations=iterations,
        trajectory=trajectory,
        termination=termination,
    )


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
