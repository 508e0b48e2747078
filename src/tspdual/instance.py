"""Distance matrices, tours, and the exhaustive brute-force oracle.

City indices are 1-based in the public interface and in all error
messages; arrays are stored 0-based internally.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import InstanceError, TspdualError

MIN_CITIES = 3
ORACLE_MAX_CITIES = 10


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric nonnegative city-to-city distances with zero diagonal."""

    n: int
    entries: np.ndarray

    def __post_init__(self):
        self.entries.flags.writeable = False


@dataclass(frozen=True)
class Tour:
    """Visiting order: position j holds the city visited jth (1-based)."""

    order: tuple[int, ...]

    def __post_init__(self):
        n = len(self.order)
        if sorted(self.order) != list(range(1, n + 1)):
            raise ValueError(f"tour {self.order} is not a permutation of 1..{n}")

    @property
    def n(self) -> int:
        return len(self.order)


@dataclass(frozen=True)
class OracleResult:
    best_tour: Tour
    best_length: float


def validate_distance_matrix(entries) -> DistanceMatrix:
    """Check finiteness, zero diagonal, symmetry, nonnegativity and a
    finite total; returns the validated matrix.
    """
    mat = np.array(entries, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InstanceError(f"distance matrix must be square, got shape {mat.shape}")
    n = mat.shape[0]
    if n < MIN_CITIES:
        raise InstanceError(f"need at least {MIN_CITIES} cities, got n = {n}")
    bad = np.argwhere(~np.isfinite(mat))
    if len(bad):
        i, j = (int(k) for k in bad[0])
        raise InstanceError(f"{_entry(mat, i, j)} is not finite")
    diagonal = np.flatnonzero(np.diag(mat) != 0.0)
    if diagonal.size:
        i = int(diagonal[0])
        raise InstanceError(f"{_entry(mat, i, i)} must be zero")
    # pairs i < j in row-major order; asymmetry is reported before sign
    upper = np.triu_indices(n, 1)
    bad = np.flatnonzero((mat[upper] != mat.T[upper]) | (mat[upper] < 0.0))
    if bad.size:
        i, j = int(upper[0][bad[0]]), int(upper[1][bad[0]])
        if mat[i, j] != mat[j, i]:
            raise InstanceError(f"{_entry(mat, i, j)} != {_entry(mat, j, i)}")
        raise InstanceError(f"{_entry(mat, i, j)} is negative")
    # entries are >= 0, so a finite total bounds every sum the program forms
    # of them: tour lengths, twice a tour length, and d_i1 + d_1i
    with np.errstate(over="ignore"):
        total = mat.sum()
    if not np.isfinite(total):
        raise InstanceError(
            "the distances sum past the float64 range, so tour lengths could overflow"
        )
    return DistanceMatrix(n=n, entries=mat)


def _entry(mat: np.ndarray, i: int, j: int) -> str:
    """`d[i,j] = value` of 0-based entry (i, j), with 1-based indices."""
    return f"d[{i + 1},{j + 1}] = {float(mat[i, j])!r}"


def tour_length(d: DistanceMatrix, t: Tour) -> float:
    """Cyclic tour length, including the closing edge back to the start."""
    if t.n != d.n:
        raise ValueError(f"tour has {t.n} cities, matrix has {d.n}")
    total = 0.0
    for j in range(t.n):
        total += d.entries[t.order[j] - 1, t.order[(j + 1) % t.n] - 1]
    return float(total)


def canonical_tour(t: Tour) -> Tour:
    """Rotate city 1 to the front, then pick the direction whose second
    city has the smaller index.
    """
    order = list(t.order)
    k = order.index(1)
    order = order[k:] + order[:k]
    if t.n >= 3 and order[-1] < order[1]:
        order = [order[0]] + order[:0:-1]
    return Tour(tuple(order))


def require_oracle_size(n: int) -> None:
    """Raise InstanceError unless the oracle can enumerate n cities."""
    if n > ORACLE_MAX_CITIES:
        raise InstanceError(f"n = {n} exceeds enumeration guard {ORACLE_MAX_CITIES}")


@lru_cache(maxsize=None)
def canonical_tours(n: int) -> np.ndarray:
    """Every tour once, as a read-only (tours, n) array of 0-based cities in
    lexicographic order: the canonical_tour of each, city 1 first and the
    second city below the last.
    """
    require_oracle_size(n)
    flat = itertools.chain.from_iterable(itertools.permutations(range(1, n)))
    rest = np.fromiter(flat, dtype=np.int8).reshape(-1, n - 1)
    tours = np.insert(rest[rest[:, 0] < rest[:, -1]], 0, 0, axis=1)
    tours.flags.writeable = False
    return tours


def tour_lengths(d: DistanceMatrix) -> np.ndarray:
    """Cyclic length of each row of canonical_tours(d.n), summed in tour
    order from 0.0 as tour_length does, so the two agree bit for bit."""
    n, tours = d.n, canonical_tours(d.n)
    lengths = np.zeros(len(tours))
    for j in range(n):
        lengths += d.entries[tours[:, j], tours[:, (j + 1) % n]]
    return lengths


def brute_force_optimum(d: DistanceMatrix) -> OracleResult:
    """Exhaustive enumeration of every canonical tour.  Ties go to the
    lexicographically smallest tour, the first minimum of the table."""
    tours = canonical_tours(d.n)
    lengths = tour_lengths(d)
    best = int(np.argmin(lengths))
    best_tour = Tour(tuple(int(c) + 1 for c in tours[best]))
    return OracleResult(best_tour, float(lengths[best]))


def random_euclidean_instance(n: int, seed: int) -> tuple[DistanceMatrix, np.ndarray]:
    """Points uniform in the unit square (PCG64 generator), pairwise
    Euclidean distances.  Identical seed gives bit-identical output.
    """
    if n < MIN_CITIES:
        raise InstanceError(f"need at least {MIN_CITIES} cities, got n = {n}")
    rng = np.random.default_rng(seed)
    points = rng.random((n, 2))
    return points_to_distance_matrix(points), points


def points_to_distance_matrix(points: np.ndarray) -> DistanceMatrix:
    """Exactly-symmetric Euclidean distance matrix of planar points."""
    points = np.asarray(points, dtype=float)
    # hypot ignores signs, so d_ij and d_ji are the same bits
    diff = points[:, None, :] - points[None, :, :]
    return DistanceMatrix(n=len(points), entries=np.hypot(diff[..., 0], diff[..., 1]))


def read_json(path):
    """Parsed contents of a JSON file.  A file that cannot be opened raises
    OSError; bytes that are not UTF-8, malformed text and JSON that Python
    cannot hold (an integer past the 4300-digit conversion limit, nesting
    past the recursion limit) raise TspdualError."""
    try:
        return json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:
        raise TspdualError(str(exc)) from None


def instance_from_dict(payload) -> tuple[DistanceMatrix, np.ndarray | None]:
    """Parsed instance JSON, `{"n": int, "d": [row-major reals], "points":
    optional}` -> (validated matrix, points or None).  Types follow the
    config loader's rules (a bool or a float is not an int); anything else
    raises InstanceError."""
    if not isinstance(payload, dict):
        raise InstanceError(f"instance must be a JSON object, got {_brief(payload)}")
    n = payload.get("n")
    if type(n) is not int or n < MIN_CITIES:
        raise InstanceError(f"'n' must be an integer >= {MIN_CITIES}, got {_brief(n)}")
    d = validate_distance_matrix(_reals(payload.get("d"), n * n, "d").reshape(n, n))
    points = payload.get("points")
    if points is not None:
        if not isinstance(points, list) or len(points) != n:
            raise InstanceError(
                f"'points' must be a list of {n} [x, y] pairs, got {_brief(points)}"
            )
        points = np.array([_reals(p, 2, f"points[{i}]") for i, p in enumerate(points)])
        if not np.isfinite(points).all():
            raise InstanceError("'points' must be finite")
    return d, points


def _reals(values, count: int, key: str) -> np.ndarray:
    """A JSON list of `count` numbers as floats."""
    if not isinstance(values, list) or len(values) != count:
        raise InstanceError(
            f"'{key}' must be a list of {count} numbers, got {_brief(values)}"
        )
    for i, v in enumerate(values):
        if type(v) not in (int, float):
            raise InstanceError(f"'{key}[{i}]' must be a number, got {_brief(v)}")
    try:
        return np.array(values, dtype=float)
    except OverflowError:
        raise InstanceError(f"'{key}' holds an integer out of float range") from None


def _brief(value) -> str:
    """JSON text of a value, cut to one short line for an error message."""
    text = json.dumps(value)
    return text if len(text) <= 40 else text[:37] + "..."


def save_instance(path, d: DistanceMatrix, points: np.ndarray | None = None) -> None:
    payload: dict = {"n": d.n, "d": [float(v) for v in d.entries.ravel()]}
    if points is not None:
        payload["points"] = [[float(x), float(y)] for x, y in points]
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
