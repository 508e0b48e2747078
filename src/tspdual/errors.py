"""Exception types shared across the package.

All city and position indices in error messages are 1-based.
"""


class TspdualError(Exception):
    """Base class for all package errors."""


class ConfigError(TspdualError):
    """Unknown configuration key, value of the wrong type, or value out of
    range.  `key` is the dotted path of the offending entry."""

    def __init__(self, key: str, problem: str):
        self.key = key
        self.problem = problem
        super().__init__(f"config key {key!r}: {problem}")


def check_range(key: str, value, ok: bool, rule: str) -> None:
    """Raise ConfigError for `key` unless `ok`; `rule` states the range."""
    if not ok:
        raise ConfigError(key, f"must be {rule}, got {value!r}")


class InstanceError(TspdualError):
    """Invalid distance matrix or tour data."""


class AsymmetricMatrix(InstanceError):
    def __init__(self, i: int, j: int, dij: float, dji: float):
        self.pair = (i, j)
        super().__init__(f"d[{i},{j}] = {float(dij)!r} != d[{j},{i}] = {float(dji)!r}")


class NonFiniteDistance(InstanceError):
    def __init__(self, i: int, j: int, value: float):
        self.pair = (i, j)
        super().__init__(f"d[{i},{j}] = {float(value)!r} is not finite")


class NegativeDistance(InstanceError):
    def __init__(self, i: int, j: int, value: float):
        self.pair = (i, j)
        super().__init__(f"d[{i},{j}] = {float(value)!r} is negative")


class NonzeroDiagonal(InstanceError):
    def __init__(self, i: int, value: float):
        self.index = i
        super().__init__(f"d[{i},{i}] = {float(value)!r} must be zero")


class TriangleViolation(InstanceError):
    def __init__(self, i: int, j: int, k: int, direct: float, detour: float):
        self.pair = (i, j)
        self.via = k
        super().__init__(
            f"d[{i},{j}] = {float(direct)!r} > "
            f"d[{i},{k}] + d[{k},{j}] = {float(detour)!r}"
        )


class UnreadableJson(TspdualError):
    """A JSON file that parses but that Python cannot hold: an integer
    past the 4300-digit conversion limit, or nesting past the recursion
    limit."""


class DimensionMismatch(TspdualError):
    pass


class InstanceTooLarge(TspdualError):
    pass


class TourDoesNotFixCityOne(TspdualError):
    pass


class NotDualFeasible(TspdualError):
    pass


class StartNotDualFeasible(TspdualError):
    pass
