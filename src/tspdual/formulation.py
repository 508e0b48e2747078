"""Vector form of the TSP as a quadratic program.

An assignment vector is position-major: component (j-1)*n + i (1-based)
holds x_ij, the indicator that city i sits in tour position j.  Position
arithmetic wraps around modulo n, so position 0 means position n and
position n+1 means position 1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .instance import DistanceMatrix, Tour


def flat_index(n: int, city: int, position: int) -> int:
    """0-based component of (city, position), both 1-based."""
    return (position - 1) * n + (city - 1)


@dataclass(frozen=True)
class QpFormulation:
    """Objective matrix A (n^2 x n^2) and assignment constraints
    C X = e (one city per position), D X = e (one position per city).
    """

    n: int
    A: np.ndarray
    C: np.ndarray
    D: np.ndarray
    e: np.ndarray

    def __post_init__(self):
        for arr in (self.A, self.C, self.D, self.e):
            arr.flags.writeable = False


def build_formulation(d: DistanceMatrix) -> QpFormulation:
    """Entrywise construction: A[(i,j),(k,j')] = d_ik whenever position j'
    is the cyclic predecessor or successor of j, zero otherwise.
    """
    n = d.n
    A = np.zeros((n * n, n * n))
    for j in range(1, n + 1):
        prev = (j - 2) % n + 1
        nxt = j % n + 1
        for jp in (prev, nxt):
            rows = slice((j - 1) * n, j * n)
            cols = slice((jp - 1) * n, jp * n)
            A[rows, cols] += d.entries
    C = np.zeros((n, n * n))
    D = np.zeros((n, n * n))
    for j in range(1, n + 1):
        C[j - 1, (j - 1) * n:j * n] = 1.0
    for i in range(1, n + 1):
        D[i - 1, (i - 1)::n] = 1.0
    return QpFormulation(n=n, A=A, C=C, D=D, e=np.ones(n))


def encode_tour(t: Tour) -> np.ndarray:
    """Binary assignment vector of a tour."""
    n = t.n
    x = np.zeros(n * n)
    for j, city in enumerate(t.order, start=1):
        x[flat_index(n, city, j)] = 1.0
    return x


def objective(f: QpFormulation, x) -> float:
    """(1/2) X^T A X; accepts arbitrary real vectors, not just binaries."""
    x = _as_vector(f, x)
    return 0.5 * float(x @ f.A @ x)


def _as_vector(f: QpFormulation, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (f.n * f.n,):
        raise DimensionMismatch(f"expected length {f.n * f.n}, got shape {x.shape}")
    return x
