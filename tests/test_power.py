"""Analytic power: cross-checked against scipy's noncentral t, the solver's
bracketing properties, hypothesis properties of power, `solve_n` and the t
quantile, and full-size Monte Carlo batches.
"""

import hashlib
import math

import mpmath
import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from fdrlab import power
from fdrlab.distributions import noncentral_t_cdf, student_t_cdf
from fdrlab.errors import DomainError
from fdrlab.power import power_two_sample, solve_n, student_t_quantile


def _scipy_power(n, d, alpha):
    df = 2 * n - 2
    ncp = d * math.sqrt(n / 2.0)
    crit = scipy.stats.t.ppf(1.0 - alpha / 2.0, df)
    return scipy.stats.nct.sf(crit, df, ncp) + scipy.stats.nct.cdf(-crit, df, ncp)


def test_against_scipy_oracle():
    for n in (2, 3, 5, 8, 16, 40, 100):
        for d in (0.2, 0.5, 1.0, 2.0, -1.0):
            for alpha in (0.01, 0.05, 0.2):
                ref = _scipy_power(n, d, alpha)
                if math.isnan(ref):
                    continue  # scipy's nct gives up at large df * ncp
                assert power_two_sample(n, d, alpha) == pytest.approx(ref, abs=1e-9)


def test_result_strictly_inside_unit_interval():
    for n in (2, 16, 200):
        value = power_two_sample(n, 1.0, 0.05)
        assert 0.0 < value < 1.0
    # the lower tail, P(T <= -t_crit) ~ 3.8e-33 at n = 200, is evaluated as
    # it stands, not as the rounding residue of 1 - P(T > -t_crit)
    upper = scipy.stats.nct.sf(scipy.stats.t.ppf(0.975, 398), 398, 10.0)
    assert power_two_sample(200, 1.0) == pytest.approx(upper, abs=1e-15)


def test_power_is_its_two_float_tails():
    # power's one call at (-t_crit, t_crit) has the bits of two float calls
    for n in range(2, 101):
        df = 2 * n - 2
        for d in (0.2, 1.0, -1.0, 3.0):
            ncp = d * math.sqrt(n / 2.0)
            for alpha in (0.05, 0.001):
                t_crit = -student_t_quantile(alpha / 2.0, df)
                assert power_two_sample(n, d, alpha) == (
                    (1.0 - noncentral_t_cdf(t_crit, df, ncp))
                    + noncentral_t_cdf(-t_crit, df, ncp))


# SHA-256 of the repr of every power value and solve_n result below, one a
# line: 2,555 power values and 15 sample sizes.  A change that moves any
# power bit must re-pin this in a commit of its own.
_POWER_DIGEST = "14016e8b320e19656ea4d40f0714143c64033d2cdb3c464753790b806e34bbf0"


def test_power_bits_are_pinned():
    ns = [*range(2, 70), 100, 394, 1000, 156979, 10 ** 6]
    lines = [repr(power_two_sample(n, d, alpha)) for n in ns
             for d in (0.0, 0.01, 0.2, 1.0, -1.0, 5.0, 40.0)
             for alpha in (0.05, 1e-3, 1e-10, 1e-17, 1e-310)]
    lines += [repr(solve_n(target, d)) for target in (0.5, 0.8, 0.95)
              for d in (1.0, 0.2, 0.01, 3.0, -0.5)]
    assert len(lines) == 2570
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == _POWER_DIGEST


def test_monotone_in_n_d_alpha():
    powers = [power_two_sample(n, 0.8, 0.05) for n in range(2, 40)]
    assert all(b > a for a, b in zip(powers, powers[1:]))
    powers = [power_two_sample(10, d, 0.05) for d in np.linspace(0.05, 3.0, 30)]
    assert all(b > a for a, b in zip(powers, powers[1:]))
    powers = [power_two_sample(10, 1.0, a) for a in np.linspace(0.005, 0.5, 30)]
    assert all(b > a for a, b in zip(powers, powers[1:]))


def test_sign_of_effect_is_irrelevant():
    assert power_two_sample(12, -1.3, 0.05) == pytest.approx(
        power_two_sample(12, 1.3, 0.05), abs=1e-12)


def test_t_quantile_roundtrip():
    for df in (1.0, 4.0, 30.0, 98.0):
        for p in (0.6, 0.975, 0.9995, 0.25):
            q = student_t_quantile(p, df)
            assert student_t_cdf(q, df) == pytest.approx(p, abs=1e-12)


def test_t_quantile_at_large_df_against_mpmath():
    # solve_n(0.8, 0.01) reads its critical value here; the log beta of the
    # incomplete beta put it 4.3e-11 high
    df = 313956.0
    with mpmath.workdps(40):
        exact = mpmath.findroot(
            lambda t: mpmath.betainc(df / 2, 0.5, 0, df / (df + t * t), regularized=True) / 2
            - mpmath.mpf(0.025), 1.96)
        assert abs(float((student_t_quantile(0.975, df) - exact) / exact)) < 1e-11


def test_critical_value_against_mpmath(monkeypatch):
    # t_crit is the quantile of alpha / 2 itself.  The quantile of
    # 1 - alpha / 2 carried that subtraction's rounding, 3.6e-9 relative at
    # alpha = 1e-10 and df = 30, and below alpha = 2**-53 it raised.
    calls = []

    def record(t, df, ncp):
        calls.append(t.tolist())
        return np.zeros(2)

    monkeypatch.setattr(power, "noncentral_t_cdf", record)
    worst = 0.0
    with mpmath.workdps(50):
        for alpha in (1e-10, 1e-17, 1e-100):
            for n in (2, 3, 16, 50, 394):
                power_two_sample(n, 1.0, alpha)
                below, t_crit = calls.pop()
                assert below == -t_crit
                df = 2 * n - 2
                exact = mpmath.exp(mpmath.findroot(
                    lambda u: mpmath.log(mpmath.betainc(
                        df / 2, 0.5, 0, df / (df + mpmath.exp(2 * u)), regularized=True)
                        / alpha),
                    math.log(t_crit)))
                worst = max(worst, abs(float(t_crit / exact - 1)))
    assert worst <= 1e-14


def test_t_quantile_domain_and_far_tail():
    for p in (0.0, 1.0, math.nan):
        with pytest.raises(DomainError):
            student_t_quantile(p, 5.0)
    with pytest.raises(DomainError):
        student_t_quantile(0.3, 0.0)
    # the quantile, about -1e600, lies past the float range
    with pytest.raises(DomainError):
        student_t_quantile(1e-300, 0.5)
    # Cauchy: -cot(pi q); below q = 2.4e-155 the quantile lies past
    # |t| = 1.34e154, where t * t overflows
    for q in (1e-150, 1e-160, 1e-300):
        assert student_t_quantile(q, 1.0) == pytest.approx(-1.0 / (math.pi * q), rel=1e-12)


@pytest.mark.parametrize("q", [1e-155, 1e-160])
def test_t_quantile_newton_steps_past_overflow(q, monkeypatch):
    # past |t| = 1.34e154 the slope takes log1p(t^2/df) as 2 log|t| - log df,
    # so Newton still steps there; without it the iteration bisects, at
    # about 50 CDF evaluations
    calls = []

    def counted(t, df):
        calls.append(t)
        return student_t_cdf(t, df)

    monkeypatch.setattr(power, "student_t_cdf", counted)
    assert student_t_quantile(q, 1.0) == pytest.approx(-1.0 / (math.pi * q), rel=1e-12)
    assert len(calls) <= 3


class TestSolveN:
    def test_worked_values(self):
        assert solve_n(0.78, 1.0, 0.05) == 16
        assert solve_n(0.80, 1.0, 0.05) == 17
        assert solve_n(0.22, 1.0, 0.05) == 4
        assert solve_n(0.80, 0.2, 0.05) == 394
        assert solve_n(0.80, 0.01, 0.05) == 156979

    def test_monotone_in_target(self):
        assert solve_n(0.9, 1.0, 0.05) > solve_n(0.5, 1.0, 0.05)

    def test_is_the_smallest_such_n(self):
        for target, d, alpha in [(0.8, 0.5, 0.05), (0.33, 1.0, 0.05), (0.95, 0.25, 0.05),
                                 (0.8, 1.0, 1e-300)]:
            n = solve_n(target, d, alpha)
            assert power_two_sample(n, d, alpha) >= target
            if n > 2:
                assert power_two_sample(n - 1, d, alpha) < target

    def test_never_overshoots(self):
        for n in (3, 5, 8, 16, 33):
            achieved = power_two_sample(n, 1.0, 0.05)
            assert solve_n(achieved, 1.0, 0.05) <= n

    def test_domain(self):
        with pytest.raises(DomainError):
            solve_n(1.0, 1.0, 0.05)
        with pytest.raises(DomainError):
            solve_n(0.8, 0.0, 0.05)
        with pytest.raises(DomainError):
            power_two_sample(1, 1.0, 0.05)
        with pytest.raises(DomainError):
            power_two_sample(16, 1.0, 1.0)
        # alpha / 2 rounds to 0, which has no normal or t quantile; the error
        # names that rule, not the t quantile's argument
        with pytest.raises(DomainError, match=r"^alpha / 2 must"):
            solve_n(0.8, 1.0, 5e-324)
        for n in (2, 16):
            with pytest.raises(DomainError, match=r"^alpha / 2 must"):
                power_two_sample(n, 1.0, 5e-324)
        # the required n passes 2**32
        for d in (1e-5, 1e-300, 5e-324):
            with pytest.raises(DomainError):
                solve_n(0.8, d, 0.05)


_PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)


@st.composite
def _designs(draw):
    """(n, d) with 0.05 <= |d| and a noncentrality d sqrt(n/2) of at most 6,
    so that power and its steps in n and d stay clear of rounding at 1."""
    n = draw(st.integers(2, 5000))
    d = draw(st.floats(0.05, 6.0 / math.sqrt(n / 2.0)))
    return n, d if draw(st.booleans()) else -d


class TestProperties:
    @_PROPERTY
    @given(_designs(), st.floats(1e-4, 0.5))
    def test_power_strictly_inside_unit_interval(self, design, alpha):
        n, d = design
        assert 0.0 < power_two_sample(n, d, alpha) < 1.0
        assert 0.0 < power_two_sample(n, 0.0, alpha) < 1.0

    @_PROPERTY
    @given(_designs())
    def test_power_rises_strictly_with_n(self, design):
        n, d = design
        if abs(d) * math.sqrt((n + 1) / 2.0) <= 6.0:
            assert power_two_sample(n + 1, d) > power_two_sample(n, d)

    @_PROPERTY
    @given(_designs(), st.floats(0.5, 0.99))
    def test_power_rises_strictly_with_abs_d(self, design, shrink):
        n, d = design
        assert power_two_sample(n, shrink * d) < power_two_sample(n, d)
        assert power_two_sample(n, -d) == pytest.approx(power_two_sample(n, d), abs=1e-12)

    @_PROPERTY
    @given(st.floats(0.01, 0.99), st.floats(0.05, 3.0), st.floats(1e-3, 0.2))
    def test_solve_n_is_the_smallest_n_reaching_the_target(self, target, d, alpha):
        n = solve_n(target, d, alpha)
        assert power_two_sample(n, d, alpha) >= target
        assert n == 2 or power_two_sample(n - 1, d, alpha) < target

    @_PROPERTY
    @given(st.floats(1e-10, 1.0 - 1e-10), st.floats(0.5, 3.2e5))
    def test_t_quantile_roundtrips_through_the_cdf(self, p, df):
        q = student_t_quantile(p, df)
        assert abs(student_t_cdf(q, df) - p) <= 1e-9 * min(p, 1.0 - p)


def test_simulation_agreement(null16, effect_batches):
    """Simulated significant fractions match analytic power within 3 binomial
    standard errors, for every batch size used in the study."""
    cases = [(16, 0.0, null16.fraction_significant, 0.05)]
    for n, batch in effect_batches.items():
        cases.append((n, 1.0, batch.fraction_significant, None))
    for n, d, fraction, null_rate in cases:
        expected = null_rate if d == 0.0 else power_two_sample(n, d, 0.05)
        se = math.sqrt(expected * (1.0 - expected) / 100_000)
        assert abs(fraction - expected) <= 3.0 * se, (n, d, fraction, expected)
