"""Reduced problem obtained by fixing city 1 in position 1.

The full vector X is rearranged by a symmetric permutation into
(X1; Y) where X1 collects [x_11, x_21, ..., x_n1, x_12, ..., x_1n]
(the 2n-1 components pinned by the fix) and Y collects x_ij for
i, j in 2..n, position-major.  With X1 = (1, 0, ..., 0) the objective
becomes (1/2) Y^T A_r Y - b_r^T Y + c0 subject to E_r Y = e and
Y binary; E_r stacks the position rows over the city rows with the
redundant city-n row deleted.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, TourDoesNotFixCityOne
from .formulation import QpFormulation, flat_index
from .instance import Tour


@dataclass(frozen=True)
class IndexMap:
    n: int
    head: tuple[int, ...]   # 0-based full indices of X1, in order
    perm: np.ndarray        # full permutation, X_hat = X[perm]

    def __post_init__(self):
        self.perm.flags.writeable = False

    def reduced_index(self, city: int, position: int) -> int:
        """0-based index of x_{city,position} in Y (city, position in 2..n)."""
        if not (2 <= city <= self.n and 2 <= position <= self.n):
            raise DimensionMismatch(
                f"city {city}, position {position} outside 2..{self.n}"
            )
        return (position - 2) * (self.n - 1) + (city - 2)


@dataclass(frozen=True)
class ReducedProblem:
    n: int
    A_r: np.ndarray
    b_r: np.ndarray
    E_r: np.ndarray
    c0: float
    map: IndexMap

    def __post_init__(self):
        for arr in (self.A_r, self.b_r, self.E_r):
            arr.flags.writeable = False

    @property
    def dim(self) -> int:
        return (self.n - 1) ** 2

    @property
    def n_multipliers(self) -> int:
        return 2 * self.n - 3


def build_index_map(n: int) -> IndexMap:
    head = [flat_index(n, i, 1) for i in range(1, n + 1)]
    head += [flat_index(n, 1, j) for j in range(2, n + 1)]
    tail = [
        flat_index(n, i, j) for j in range(2, n + 1) for i in range(2, n + 1)
    ]
    return IndexMap(n=n, head=tuple(head), perm=np.array(head + tail))


def reduce_formulation(f: QpFormulation) -> ReducedProblem:
    n = f.n
    idx = build_index_map(n)
    A_hat = f.A[np.ix_(idx.perm, idx.perm)]
    m = 2 * n - 1
    A11 = A_hat[:m, :m]
    A12 = A_hat[:m, m:]
    A21 = A_hat[m:, :m]
    A22 = A_hat[m:, m:]
    x1 = np.zeros(m)
    x1[0] = 1.0  # x_11 = 1, everything else in X1 forced to 0
    b_r = -0.5 * (A21 @ x1 + A12.T @ x1)
    c0 = 0.5 * float(x1 @ A11 @ x1)
    return ReducedProblem(
        n=n, A_r=A22, b_r=b_r, E_r=build_reduced_constraints(n), c0=c0, map=idx
    )


def build_reduced_constraints(n: int) -> np.ndarray:
    """(2n-3) x (n-1)^2 matrix: one row per position 2..n, one row per
    city 2..n-1 (the city-n row is linearly dependent and dropped).
    """
    dim = (n - 1) ** 2
    E = np.zeros((2 * n - 3, dim))
    for j in range(2, n + 1):
        E[j - 2, (j - 2) * (n - 1):(j - 1) * (n - 1)] = 1.0
    for i in range(2, n):
        E[(n - 1) + (i - 2), (i - 2)::(n - 1)] = 1.0
    return E


@lru_cache(maxsize=None)
def linear_maps(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed forms of A_r and b_r as read-only maps of the flattened d,
    built once per n.  A_r = P (x) d2, with P the path adjacency of
    positions 2..n and d2 = d[2..n, 2..n]: A_r[a, b] is entry a_index[a, b]
    of d.ravel() extended by a zero at index n^2.  b_r = b_map @ d.ravel():
    -(d_i1 + d_1i)/2 in the rows of positions 2 and n, zero elsewhere.
    """
    m = n - 1
    pos, city = np.divmod(np.arange(m * m), m)  # offsets of position and city from 2
    adjacent = np.abs(pos[:, None] - pos[None, :]) == 1
    a_index = np.where(adjacent, (city[:, None] + 1) * n + city + 1, n * n)
    ends = np.flatnonzero((pos == 0) | (pos == m - 1))
    b_map = np.zeros((m * m, n * n))
    b_map[ends, (city[ends] + 1) * n] = -0.5  # d_i1
    b_map[ends, city[ends] + 1] = -0.5        # d_1i
    a_index.flags.writeable = False
    b_map.flags.writeable = False
    return a_index, b_map


def embed_tour(idx: IndexMap, t: Tour) -> np.ndarray:
    """Binary Y for a tour that keeps city 1 in position 1."""
    if t.order[0] != 1:
        raise TourDoesNotFixCityOne(f"tour {t.order} does not start at city 1")
    if t.n != idx.n:
        raise DimensionMismatch(f"tour has {t.n} cities, map expects {idx.n}")
    y = np.zeros((idx.n - 1) ** 2)
    for j in range(2, idx.n + 1):
        y[idx.reduced_index(t.order[j - 1], j)] = 1.0
    return y


def extract_tour(idx: IndexMap, y: np.ndarray) -> Tour:
    """Inverse of embed_tour for binary feasible Y."""
    n = idx.n
    order = [1]
    for j in range(2, n + 1):
        block = y[(j - 2) * (n - 1):(j - 1) * (n - 1)]
        order.append(int(np.argmax(block)) + 2)
    return Tour(tuple(order))


def reduced_objective(r: ReducedProblem, y) -> float:
    y = np.asarray(y, dtype=float)
    if y.shape != (r.dim,):
        raise DimensionMismatch(f"expected length {r.dim}, got shape {y.shape}")
    return 0.5 * float(y @ r.A_r @ y) - float(r.b_r @ y)


def reduced_to_dict(r: ReducedProblem) -> dict:
    return {
        "n": r.n,
        "A_r": [[float(v) for v in row] for row in r.A_r],
        "b_r": [float(v) for v in r.b_r],
        "E_r": [[float(v) for v in row] for row in r.E_r],
        "c0": float(r.c0),
    }
