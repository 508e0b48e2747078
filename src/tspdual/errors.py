"""Exception types for bad input.

Each message is written where it is raised; all city and position
indices in messages are 1-based.  A ValueError is a broken call
contract, a defect in the caller, not bad input.
"""


class TspdualError(Exception):
    """Base class for all package errors."""


class ConfigError(TspdualError):
    """Unknown configuration key, value of the wrong type, or value out of
    range.  `key` names the entry, flat (`seed`) or indexed (`ns[1]`)."""

    def __init__(self, key: str, problem: str):
        self.key = key
        super().__init__(f"config key {key!r}: {problem}")


def check_range(key: str, value, ok: bool, rule: str) -> None:
    """Raise ConfigError for `key` unless `ok`; `rule` states the range."""
    if not ok:
        raise ConfigError(key, f"must be {rule}, got {value!r}")


class InstanceError(TspdualError):
    """Invalid distance matrix or instance file, or too many cities."""


class NotDualFeasible(TspdualError):
    """The shifted matrix of a dual point is not positive definite."""
