"""Vector form of the TSP as a quadratic program.

An assignment vector is position-major: component (j-1)*n + i (1-based)
holds x_ij, the indicator that city i sits in tour position j.  Position
arithmetic wraps around modulo n, so position 0 means position n and
position n+1 means position 1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import DistanceMatrix, Tour


@dataclass(frozen=True)
class QpFormulation:
    """Objective matrix A (n^2 x n^2); the assignment constraints are
    assignment_constraints(n)."""

    n: int
    A: np.ndarray

    def __post_init__(self):
        self.A.flags.writeable = False


def assignment_constraints(n: int) -> tuple[np.ndarray, np.ndarray]:
    """C = I (x) 1^T (row j: every city at position j) and D = 1^T (x) I
    (row i: city i at every position)."""
    eye, ones = np.eye(n), np.ones((1, n))
    return np.kron(eye, ones), np.kron(ones, eye)


def build_formulation(d: DistanceMatrix) -> QpFormulation:
    """A = (S + S^T) (x) d, with S the cyclic shift of positions: block
    (j, j') is d whenever j' is the cyclic predecessor or successor of j.
    """
    n = d.n
    shift = np.roll(np.eye(n), 1, axis=1)
    # kron gives 0 * -0.0 = -0.0 off the blocks; + 0.0 makes it +0.0
    A = np.kron(shift + shift.T, d.entries) + 0.0
    return QpFormulation(n=n, A=A)


def encode_tour(t: Tour) -> np.ndarray:
    """Binary assignment vector of a tour: row j of the position x city
    grid is the unit vector of the city at position j."""
    return np.eye(t.n)[np.subtract(t.order, 1)].ravel()


def objective(f: QpFormulation, x) -> float:
    """(1/2) X^T A X; accepts arbitrary real vectors, not just binaries."""
    x = _as_vector(f, x)
    return 0.5 * float(x @ f.A @ x)


def _as_vector(f: QpFormulation, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (f.n * f.n,):
        raise ValueError(f"expected length {f.n * f.n}, got shape {x.shape}")
    return x
