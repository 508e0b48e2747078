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
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    DimensionMismatch,
    NotDualFeasible,
    StartNotDualFeasible,
    check_range,
)
from .instance import OracleResult
from .reduction import ReducedProblem, reduced_objective

PD_TOLERANCE = 1e-10
BINARY_TOLERANCE = 1e-6


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
class AscentConfig:
    gtol: float = 1e-8
    ftol: float = 1e-12
    max_iter: int = 10_000
    stall_iters: int = 10
    initial_step: float = 1.0
    min_step: float = 1e-18

    def __post_init__(self):
        for key in ("gtol", "ftol"):
            v = getattr(self, key)
            check_range(key, v, math.isfinite(v) and v >= 0, "finite and >= 0")
        for key in ("initial_step", "min_step"):
            v = getattr(self, key)
            check_range(key, v, math.isfinite(v) and v > 0, "finite and > 0")
        check_range("max_iter", self.max_iter, self.max_iter >= 0, ">= 0")
        check_range("stall_iters", self.stall_iters, self.stall_iters >= 1, ">= 1")


@dataclass
class AscentResult:
    best_point: DualPoint
    best_value: float
    iterations: int
    trajectory: list[tuple[float, float, float]] = field(default_factory=list)
    termination: Termination = Termination.IterationCap


def point(lam, mu) -> DualPoint:
    return DualPoint(
        lam=np.array(lam, dtype=float), mu=np.array(mu, dtype=float)
    )


def assemble(r: ReducedProblem, p: DualPoint) -> tuple[np.ndarray, np.ndarray]:
    """Shifted matrix A_r + diag(mu) and vector b_r + mu/2 - E_r^T lam."""
    if p.lam.shape != (r.n_multipliers,) or p.mu.shape != (r.dim,):
        raise DimensionMismatch(
            f"expected lambda length {r.n_multipliers} and mu length {r.dim}, "
            f"got {p.lam.shape} and {p.mu.shape}"
        )
    A_mat = r.A_r + np.diag(p.mu)
    b_vec = r.b_r + 0.5 * p.mu - r.E_r.T @ p.lam
    return A_mat, b_vec


def min_eigenvalue(M: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(M)[0])


def dual_feasible(r: ReducedProblem, p: DualPoint) -> tuple[bool, float]:
    """Strict positive definiteness of the shifted matrix: a Cholesky
    attempt plus the smallest eigenvalue against PD_TOLERANCE.
    """
    return _positive_definite(assemble(r, p)[0])


def _positive_definite(A_mat: np.ndarray) -> tuple[bool, float]:
    try:
        np.linalg.cholesky(A_mat)
        factorizable = True
    except np.linalg.LinAlgError:
        factorizable = False
    lo = min_eigenvalue(A_mat)
    return factorizable and lo > PD_TOLERANCE, lo


def dual_value(r: ReducedProblem, p: DualPoint) -> DualEvaluation:
    """Dual function value, recovered minimizer, and its gradient."""
    A_mat, b_vec = assemble(r, p)
    in_plus, lo = _positive_definite(A_mat)
    if not in_plus:
        raise NotDualFeasible(f"min eigenvalue {lo!r} <= {PD_TOLERANCE}")
    y = np.linalg.solve(A_mat, b_vec)
    value = -0.5 * float(b_vec @ y) - float(np.sum(p.lam))
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


def dual_ascent(
    r: ReducedProblem,
    start: DualPoint | None = None,
    cfg: AscentConfig = AscentConfig(),
) -> AscentResult:
    """Projected gradient ascent with backtracking; trial steps leaving
    the positive-definite cone are rejected and halved, so accepted
    iterates only ever improve the dual value.
    """
    p = start if start is not None else default_start(r)
    try:
        ev = dual_value(r, p)
    except NotDualFeasible as exc:
        raise StartNotDualFeasible(f"start has {exc}") from None
    trajectory = [(ev.value, ev.grad_norm, ev.min_eig)]
    step = cfg.initial_step
    stall = 0
    termination = Termination.IterationCap
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        if ev.grad_norm < cfg.gtol:
            termination = Termination.GradientSmall
            iterations -= 1
            break
        accepted = False
        left_cone = False
        t = step
        while t >= cfg.min_step:
            cand = point(p.lam + t * ev.grad_lambda, p.mu + t * ev.grad_mu)
            try:
                cand_ev = dual_value(r, cand)
            except NotDualFeasible:
                left_cone = True
                t *= 0.5
                continue
            if cand_ev.value > ev.value:
                p, ev = cand, cand_ev
                trajectory.append((ev.value, ev.grad_norm, ev.min_eig))
                accepted = True
                step = 2.0 * t  # cautious growth for the next iteration
                break
            t *= 0.5
        if not accepted:
            termination = (
                Termination.LeftCone if left_cone else Termination.Stalled
            )
            break
        if trajectory[-1][0] - trajectory[-2][0] < cfg.ftol:
            stall += 1
            if stall >= cfg.stall_iters:
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
    gtol: float = 1e-6,
    obj_tol: float = 1e-8,
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
    if ev.grad_norm > gtol:
        return Verdict.NotCriticalPoint
    if np.max(np.abs(ev.Y * ev.Y - ev.Y)) > BINARY_TOLERANCE:
        return Verdict.RecoveredYNotBinary
    y_bin = np.round(ev.Y)
    if np.max(np.abs(r.E_r @ y_bin - 1.0)) > BINARY_TOLERANCE:
        return Verdict.RecoveredYNotFeasible
    if abs(reduced_objective(r, y_bin) + r.c0 - oracle.best_length) > obj_tol:
        return Verdict.ObjectiveMismatch
    return Verdict.ConfirmsTheorem2
