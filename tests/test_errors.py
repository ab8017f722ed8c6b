"""The shared scalar input rules: what each accepts and returns, what it
rejects, and that the caller chooses the exception type."""

import math

import numpy as np
import pytest

from fdrlab import distributions
from fdrlab.errors import (ConfigurationError, DomainError, finite, integer_at_least,
                           open_probability, positive, probability, uint64_value)

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
