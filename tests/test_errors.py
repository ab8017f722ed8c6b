"""The shared input rules: what each scalar rule accepts and returns, what
it rejects, and that the caller chooses the exception type; and that the
simulation's rules, which live here, are the ones `fdrlab.montecarlo`
serves, on the same grid."""

import math

import numpy as np
import pytest

from fdrlab import distributions, errors, montecarlo
from fdrlab.errors import (ConfigurationError, DomainError, finite, grid_index,
                           histogram_ticks, integer_at_least, open_probability,
                           positive, probability, thread_count, uint64_value)

_NON_FINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("rule, good, bad", [
    (finite, (-1e300, 0, 2.5), _NON_FINITE),
    (positive, (5e-324, 1, 1e300), (0.0, -0.0, -1.0) + _NON_FINITE),
    (probability, (0, 0.5, 1), (-1e-300, 1.0000000000000002) + _NON_FINITE),
    (open_probability, (5e-324, 0.5, 0.9999999999999999), (0.0, 1.0) + _NON_FINITE),
])
def test_float_rules(rule, good, bad):
    for value in good:
        result = rule(value)
        assert type(result) is float and result == value
    for value in bad:
        with pytest.raises(DomainError, match=r"^rate must .*; got "):
            rule(value, "rate")
        with pytest.raises(ConfigurationError):
            rule(value, "rate", ConfigurationError)


def test_integer_at_least():
    assert integer_at_least(2, 2) == 2
    result = integer_at_least(np.int64(7), 0)
    assert type(result) is int and result == 7
    for value in (1, True, 2.0, "3", None):
        with pytest.raises(DomainError, match=r"^n must be an integer >= 2; got "):
            integer_at_least(value, 2, "n")
    with pytest.raises(ConfigurationError):
        integer_at_least(True, 1, "n_sims", ConfigurationError)


def test_uint64_value_is_shared_with_distributions():
    assert distributions.uint64_value is uint64_value
    assert uint64_value(np.uint64(2 ** 64 - 1)) == 2 ** 64 - 1
    for value in (-1, 2 ** 64, 1.5):
        with pytest.raises(ConfigurationError):
            uint64_value(value, "seed", ConfigurationError)


def test_uint64_value_plain_ints_and_the_rest():
    # plain ints in range return at once; everything else takes the rule
    for value in (0, 12345, 2 ** 64 - 1):
        assert uint64_value(value) is value
    for value, expected in ((True, 1), (np.int64(5), 5), (np.uint64(2 ** 63), 2 ** 63)):
        result = uint64_value(value)
        assert type(result) is int and result == expected
    with pytest.raises(DomainError, match=r"^seed must fit in an unsigned 64-bit integer; got -1$"):
        uint64_value(-1)
    with pytest.raises(DomainError, match=r"^seed must fit in an unsigned 64-bit integer; got 18446744073709551616$"):
        uint64_value(2 ** 64)
    with pytest.raises(DomainError, match=r"^seed must be an integer; got 1.5$"):
        uint64_value(1.5)


@pytest.mark.parametrize("name", ["grid_index", "grid_interval", "histogram_ticks",
                                  "curve_sizes", "thread_count", "simulated_scale",
                                  "simulated_sd", "MAX_THREADS", "DEFAULT_MASTER_SEED"])
def test_simulation_rules_are_served_by_montecarlo(name):
    assert getattr(montecarlo, name) is getattr(errors, name)


def test_grid_index_and_bin_edges_share_one_grid():
    # grid_index compares against k / 1000.0; the histogram bins p values
    # against _BIN_EDGES, which must be the same doubles
    for k in range(1001):
        assert grid_index(k / 1000) == k
        assert montecarlo._BIN_EDGES[k] == k / 1000.0
    assert len(montecarlo._BIN_EDGES) == 1001


def test_histogram_ticks_accepts_exactly_the_divisors_of_one():
    def accepts(width):
        try:
            histogram_ticks(width)
        except DomainError:
            return False
        return True

    divisors = [k for k in range(1, 1001) if 1000 % k == 0]
    assert [k for k in range(1, 1001) if accepts(k / 1000)] == divisors
    assert [histogram_ticks(k / 1000) for k in divisors] == divisors
    for bad in (0.0, -0.001, 1.001, 0.0015, math.inf, math.nan):
        with pytest.raises(DomainError):
            histogram_ticks(bad)


def test_integer_rules_take_numpy_integers():
    assert thread_count(np.int64(3)) == 3
    assert errors.curve_sizes([np.int32(3), 50]) == [3, 50]
    for bad in (np.float64(2.0), True, 0):
        with pytest.raises(DomainError):
            thread_count(bad)
