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
    # is x_11's coupling with Y, from both sides; -0.5 * 0.0 is -0.0 off
    # positions 2 and n, and + 0.0 makes it +0.0
    b_r = -0.5 * (grid[1:, 1:, 0, 0] + grid[0, 0, 1:, 1:]).ravel() + 0.0
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
def linear_maps(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed forms of the reduced problem at the identity target Y-bar, as
    read-only maps (a_index, mu_d, mu_lam) built once per n.  A_r = P (x) d2,
    with P the path adjacency of positions 2..n and d2 = d[2..n, 2..n]:
    A_r[a, b] is entry a_index[a, b] of d.ravel(), and a structural zero
    reads d_11, the zero diagonal at index 0.  For symmetric d,
    stationarity at Y-bar gives mu = mu_d @ d.ravel() + mu_lam @ lam.
    mu_d = (b_r - A_r Y-bar) / (Y-bar - 1/2): row (position p, city c)
    reads d_ca and d_cb, where a and b are the identity tour's cities at
    positions p -+ 1 (city 1 at position 1).  mu_lam = -E_r^T / (Y-bar -
    1/2).  Every row of mu_d and mu_lam has at most two nonzeros, each +-2.
    """
    m = n - 1
    pos, city = np.divmod(np.arange(m * m), m)  # offsets of position and city from 2
    adjacent = np.abs(pos[:, None] - pos[None, :]) == 1
    a_index = np.where(adjacent, (city[:, None] + 1) * n + city + 1, 0)
    sign = np.where(pos == city, -2.0, 2.0)  # -1 / (Y-bar - 1/2)
    mu_d = np.zeros((m * m, n * n))
    for a in (pos, (pos + 2) % n):  # 0-based cities at positions p -+ 1
        mu_d[np.arange(m * m), (city + 1) * n + a] = sign
    mu_lam = np.where(build_reduced_constraints(n).T != 0, sign[:, None], 0.0)
    for arr in (a_index, mu_d, mu_lam):
        arr.flags.writeable = False
    return a_index, mu_d, mu_lam


def embed_tour(t: Tour) -> np.ndarray:
    """Binary Y for a tour that keeps city 1 in position 1."""
    if t.order[0] != 1:
        raise ValueError(f"tour {t.order} does not start at city 1")
    return encode_tour(t).reshape(t.n, t.n)[1:, 1:].ravel()


def default_target(n: int) -> np.ndarray:
    """Embedding of the identity tour (1, 2, ..., n), row 0 of
    canonical_tours(n): the target Y-bar of the inverse search."""
    return embed_tour(Tour(tuple(range(1, n + 1))))


def reduced_objective(r: ReducedProblem, y) -> float:
    y = np.asarray(y, dtype=float)
    if y.shape != (r.dim,):
        raise ValueError(f"expected length {r.dim}, got shape {y.shape}")
    return 0.5 * float(y @ r.A_r @ y) - float(r.b_r @ y)

