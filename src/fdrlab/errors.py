"""Exception types shared across the package, and the input rules.

Each scalar rule takes ``(value, name="value", error=DomainError)``, returns
the value coerced (a float, or an int for the integer rules) and otherwise
raises `error` with a message that names `name`, the rule and the value.
The simulation's rules follow them: grid bounds, histogram bin widths,
curve sample sizes, thread counts and simulated means and sds.  They are
the one home of these checks: the library calls them for its arguments,
`SimConfig` with ``error=ConfigurationError``, and the CLI for its flags,
where any `ValueError` becomes an argparse error naming the flag.  The
module imports no numpy, so the CLI builds its parser without it.
"""

import math
import numbers
from collections.abc import Sequence


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


# ---------------------------------------------------------------------------
# The simulation's rules, which `fdrlab.montecarlo` imports.
# ---------------------------------------------------------------------------

DEFAULT_MASTER_SEED = 12345

# Cells of the p-value grid: cell k covers (k/1000, (k+1)/1000].
_N_BINS = 1000


def grid_index(value: float, name: str = "value") -> int:
    """Index of `value` on the 0.001 p-value grid; rejects off-grid input,
    including infinities and NaN."""
    value = float(value)
    idx = int(round(value * 1000.0)) if 0.0 <= value <= 1.0 else -1
    # idx / 1000.0 is the same double as the grid edge montecarlo._BIN_EDGES[idx]
    if idx < 0 or value != idx / 1000.0:
        raise DomainError(f"{name} must lie on the 0.001 grid in [0, 1]; got {value}")
    return idx


def grid_interval(lo: float, hi: float) -> tuple[int, int]:
    """Grid indices of the interval (lo, hi]; both bounds on the 0.001 grid
    and lo < hi."""
    lo_idx, hi_idx = grid_index(lo, "lo"), grid_index(hi, "hi")
    if lo_idx >= hi_idx:
        raise DomainError(f"interval must satisfy lo < hi; got ({lo}, {hi}]")
    return lo_idx, hi_idx


def histogram_ticks(bin_width: float) -> int:
    """Grid cells per histogram bin of `bin_width`, which must be a multiple
    of 0.001 that divides 1 evenly."""
    bin_width = float(bin_width)
    ticks = int(round(bin_width * 1000.0)) if 0.0 < bin_width <= 1.0 else 0
    if ticks < 1 or bin_width != ticks / 1000.0 or _N_BINS % ticks != 0:
        raise DomainError("bin width must be a multiple of 0.001 that divides 1 "
                          f"evenly; got {bin_width}")
    return ticks


# Most worker threads `run_batch` accepts.  Threads never change a result,
# and past the core count they buy nothing; each one running a chunk holds
# about 6 MiB up to n = 2**15, and 2 * threads chunks may be in flight.
MAX_THREADS = 256


def thread_count(threads: int | None) -> int:
    """`threads` as an int in [1, MAX_THREADS]; None means 1."""
    if threads is None:
        return 1
    if (not isinstance(threads, _INTEGER) or isinstance(threads, bool)
            or not 1 <= threads <= MAX_THREADS):
        raise DomainError(f"threads must be an integer in [1, {MAX_THREADS}]; "
                          f"got {threads!r}")
    return int(threads)


# Largest magnitude of a simulated mean or sd.  A chunk squares deviations
# and differences, which overflows once they pass about 1e154; 1e100 leaves
# room for the normal draws (|z| < 8.3) and for sums over n and n_sims.
_MAX_SCALE = 1e100


def simulated_scale(value, name: str = "value", error: type = DomainError) -> float:
    """`value` as a float, if it is finite and at most 1e100 in magnitude:
    the rule for a simulated mean, and `simulated_sd`'s upper bound."""
    value = finite(value, name, error)
    if abs(value) > _MAX_SCALE:
        raise error(f"{name} must be at most {_MAX_SCALE:g} in magnitude; got {value}")
    return value


def simulated_sd(value, name: str = "value", error: type = DomainError) -> float:
    """`value` as a float in [1e-100, 1e100]: the rule for a simulated sd.
    The floor is 1/_MAX_SCALE: a chunk squares deviations, which vanish near
    sd = 1e-160 at n = 2, and the batch then fails as if its observations
    were identical."""
    value = simulated_scale(value, name, error)
    if value < 1.0 / _MAX_SCALE:
        raise error(f"{name} must be at least {1.0 / _MAX_SCALE:g}; got {value}")
    return value


def curve_sizes(n_values: Sequence[int]) -> list[int]:
    """The per-group sample sizes of an inflation curve as ints; there must
    be at least one, and every one an integer >= 3."""
    if len(n_values) == 0 or any(not isinstance(n, _INTEGER) or n < 3
                                 for n in n_values):
        raise DomainError("every n in the curve must be an integer >= 3")
    return [int(n) for n in n_values]
