"""Reduced problem obtained by fixing city 1 in position 1.

The full vector X is position-major, so X = grid.ravel() with
grid[position, city].  Y is the grid's lower-right (n-1)^2 block
(positions and cities 2..n), position-major; X1 is its row 0 and
column 0 (the 2n-1 components pinned by the fix).  With x_11 = 1 and
the rest of X1 at 0 the objective becomes (1/2) Y^T A_r Y - b_r^T Y + c0
subject to E_r Y = e and Y binary; E_r stacks the position rows over
the city rows with the redundant city-n row deleted.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, TourDoesNotFixCityOne
from .formulation import QpFormulation, assignment_constraints, encode_tour
from .instance import Tour


@dataclass(frozen=True)
class ReducedProblem:
    n: int
    A_r: np.ndarray
    b_r: np.ndarray
    E_r: np.ndarray
    c0: float

    def __post_init__(self):
        for arr in (self.A_r, self.b_r, self.E_r):
            arr.flags.writeable = False

    @property
    def dim(self) -> int:
        return (self.n - 1) ** 2

    @property
    def n_multipliers(self) -> int:
        return 2 * self.n - 3


def reduce_formulation(f: QpFormulation) -> ReducedProblem:
    n, dim = f.n, (f.n - 1) ** 2
    grid = f.A.reshape(n, n, n, n)  # position, city, position', city'
    # with x_11 = grid[0, 0] at 1 and the rest of X1 at 0, the linear term
    # is x_11's coupling with Y, from both sides
    b_r = -0.5 * (grid[1:, 1:, 0, 0] + grid[0, 0, 1:, 1:]).ravel()
    return ReducedProblem(
        n=n,
        A_r=grid[1:, 1:, 1:, 1:].reshape(dim, dim),
        b_r=b_r,
        E_r=build_reduced_constraints(n),
        c0=0.5 * float(grid[0, 0, 0, 0]),
    )


def build_reduced_constraints(n: int) -> np.ndarray:
    """(2n-3) x (n-1)^2 matrix: C and D restricted to Y, one row per
    position 2..n, one row per city 2..n-1 (the city-n row is linearly
    dependent and dropped).
    """
    C, D = assignment_constraints(n)
    rows = np.vstack([C[1:], D[1:-1]]).reshape(-1, n, n)  # row, position, city
    return rows[:, 1:, 1:].reshape(2 * n - 3, -1)


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


def embed_tour(t: Tour) -> np.ndarray:
    """Binary Y for a tour that keeps city 1 in position 1."""
    if t.order[0] != 1:
        raise TourDoesNotFixCityOne(f"tour {t.order} does not start at city 1")
    return encode_tour(t).reshape(t.n, t.n)[1:, 1:].ravel()


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
