"""Exception types shared across the package, and the reader of the
environment's size caps."""
import os


class QudotnError(Exception):
    """Base class for all package errors."""

    code = "error"


class InvalidAssignmentError(QudotnError):
    """An assignment does not match the problem dimensions or value range."""

    code = "invalid-assignment"


class NotAChainError(QudotnError):
    """The problem bandwidth exceeds the requested neighbor count."""

    code = "not-a-chain"

    def __init__(self, pair, k):
        self.pair = tuple(pair)
        self.k = k
        super().__init__(
            f"coefficient at {self.pair} has distance "
            f"{self.pair[1] - self.pair[0]} > k={k}"
        )


class CapacityError(QudotnError):
    """The requested computation exceeds a configured size cap."""

    code = "capacity"


class NumericFaultError(QudotnError):
    """Normalization hit an all-zero or non-finite vector."""

    code = "numeric-fault"


class InstanceFormatError(QudotnError):
    """An instance document is malformed."""

    code = "instance-format"


class ConfigError(QudotnError):
    """An environment setting has an invalid value."""

    code = "config"


def env_cap(name: str, default: int) -> int:
    """The positive integer cap set by environment variable name, else default."""
    text = os.environ.get(name)
    if text is None:
        return default
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise ConfigError(f"{name} must be a positive integer, got {text!r}")
    return value
