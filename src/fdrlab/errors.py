"""Exception types shared across the package, and the scalar input rules.

Each rule takes ``(value, name="value", error=DomainError)``, returns the
value coerced (a float, or an int for the integer rules) and otherwise
raises `error` with a message that names `name`, the rule and the value.
They are the one home of these checks: the library calls them for its
arguments, `SimConfig` with ``error=ConfigurationError``, and the CLI for
its flags, where any `ValueError` becomes an argparse error naming the flag.
"""

import math
import numbers


class FdrLabError(Exception):
    """Base class for every error raised by this package."""


class DomainError(FdrLabError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DegenerateDataError(FdrLabError, ValueError):
    """Input data admits no meaningful answer, e.g. zero pooled variance."""


class UndefinedResultError(FdrLabError, ArithmeticError):
    """The requested quantity is undefined for these inputs, e.g. a 0/0 rate."""


class ConfigurationError(FdrLabError, ValueError):
    """Invalid or mutually inconsistent configuration objects."""


def finite(value, name: str = "value", error: type = DomainError) -> float:
    """`value` as a float, if it is finite."""
    value = float(value)
    if not math.isfinite(value):
        raise error(f"{name} must be finite; got {value}")
    return value


def positive(value, name: str = "value", error: type = DomainError) -> float:
    """`value` as a float, if it is finite and above 0."""
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise error(f"{name} must be finite and positive; got {value}")
    return value


def probability(value, name: str = "value", error: type = DomainError) -> float:
    """`value` as a float, if it lies in [0, 1]."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise error(f"{name} must lie in [0, 1]; got {value}")
    return value


def open_probability(value, name: str = "value", error: type = DomainError) -> float:
    """`value` as a float, if it lies strictly inside (0, 1)."""
    value = float(value)
    if not 0.0 < value < 1.0:
        raise error(f"{name} must lie strictly inside (0, 1); got {value}")
    return value


# int first: the `numbers.Integral` check alone costs several times more,
# and `RngStream` makes two integer checks per stream.
_INTEGER = (int, numbers.Integral)


def integer_at_least(value, minimum: int, name: str = "value",
                     error: type = DomainError) -> int:
    """`value` as an int, if it is an integer (not a bool) >= `minimum`."""
    if isinstance(value, bool) or not isinstance(value, _INTEGER) or value < minimum:
        raise error(f"{name} must be an integer >= {minimum}; got {value!r}")
    return int(value)


_UINT64_END = 2 ** 64


def uint64_value(value, name: str = "seed", error: type = DomainError) -> int:
    """`value` as an int, if it is an integer in [0, 2**64).

    The rule for seeds and stream indices, shared by `RngStream`,
    `SimConfig`, ``--seed`` and FDRLAB_SEED.
    """
    # the common case first: `RngStream` checks two plain ints per stream
    if type(value) is int and 0 <= value < _UINT64_END:
        return value
    if not isinstance(value, _INTEGER):
        raise error(f"{name} must be an integer; got {value!r}")
    if not 0 <= int(value) < _UINT64_END:
        raise error(f"{name} must fit in an unsigned 64-bit integer; got {value}")
    return int(value)
