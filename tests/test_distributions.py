"""Distribution functions checked against independent oracles:
numerical quadrature of the defining densities, bisection inverses,
closed forms, Monte Carlo sampling, and scipy and mpmath as outside
references.  The seeded uniforms are pinned by digests of their raw bytes.
"""

import hashlib
import math

import mpmath
import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings, strategies as st

from fdrlab.distributions import (
    RngStream,
    _lbeta,
    block_uniforms,
    noncentral_t_cdf,
    normal_cdf,
    normal_quantile,
    regularized_incomplete_beta,
    sample_normal,
    student_t_cdf,
)
from fdrlab.errors import DomainError
from fdrlab.montecarlo import STREAM_VERSION

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def _integrate(fn, lo, hi, panels=24):
    """Composite Gauss-Legendre quadrature, the oracle used throughout."""
    edges = np.linspace(lo, hi, panels + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        x = 0.5 * (b - a) * _GL_NODES + 0.5 * (b + a)
        total += 0.5 * (b - a) * np.sum(_GL_WEIGHTS * fn(x))
    return total


def _gauss_density(x):
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


class TestNormalCdf:
    def test_symmetry_at_zero(self):
        assert normal_cdf(0.0) == 0.5

    def test_reflection_identity(self):
        assert normal_cdf(-1.7) == pytest.approx(1.0 - normal_cdf(1.7), abs=1e-15)

    def test_against_quadrature_oracle(self):
        for x in [0.5, 1.0, 1.96, 2.5, 3.0, -1.3]:
            oracle = 0.5 + _integrate(_gauss_density, 0.0, x)
            assert normal_cdf(x) == pytest.approx(oracle, abs=1e-12)

    def test_known_value(self):
        assert normal_cdf(1.96) == pytest.approx(0.9750, abs=1e-4)

    def test_monotone_on_grid(self):
        grid = np.linspace(-9.0, 9.0, 1000)
        values = normal_cdf(grid)
        assert np.all(np.diff(values) >= 0.0)
        assert np.all((values >= 0.0) & (values <= 1.0))

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            normal_cdf(math.nan)
        with pytest.raises(DomainError):
            normal_cdf(math.inf)

    # +-0, the smallest subnormals, a grid past the clamp at |x| = 30 sqrt(2),
    # and each erfc boundary |x| = b sqrt(2), b in (0.46875, 4, 30), with its
    # three neighbouring doubles on either side
    BOUNDARIES = np.array([b * math.sqrt(2.0) for b in (0.46875, 4.0, 30.0)])
    INPUTS = np.concatenate((
        [0.0, -0.0, 5e-324, -5e-324], np.linspace(-45.0, 45.0, 4001),
        *(edge + np.arange(-3, 4) * np.spacing(edge)
          for edge in np.concatenate((BOUNDARIES, -BOUNDARIES)))))

    def test_scalar_path_matches_array_path(self):
        array = normal_cdf(self.INPUTS)
        scalar = np.array([normal_cdf(x) for x in self.INPUTS])
        assert np.array_equal(array.view(np.uint64), scalar.view(np.uint64))
        # an array wholly in one erfc region is not gathered
        y = np.abs(self.INPUTS) / math.sqrt(2.0)
        for region in (y <= 0.46875, (y > 0.46875) & (y <= 4.0), y > 4.0):
            assert 0 < np.count_nonzero(region) < len(y)
            assert np.array_equal(normal_cdf(self.INPUTS[region]).view(np.uint64),
                                  scalar[region].view(np.uint64))


class TestNormalQuantile:
    def test_median(self):
        assert normal_quantile(0.5) == 0.0

    def test_three_sigma_point_via_bisection_oracle(self):
        # independent inverse: bisect normal_cdf directly
        target = 0.99865
        lo, hi = 0.0, 10.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if normal_cdf(mid) < target:
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)
        assert normal_quantile(target) == pytest.approx(oracle, abs=1e-9)
        assert normal_quantile(target) == pytest.approx(3.0, abs=5e-4)

    def test_roundtrip_both_ways(self):
        for x in (-2.0, 0.3, 4.0):
            assert normal_quantile(normal_cdf(x)) == pytest.approx(x, abs=1e-9)
        ps = np.linspace(1e-6, 1.0 - 1e-6, 2001)
        assert np.max(np.abs(normal_cdf(normal_quantile(ps)) - ps)) < 1e-12

    def test_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                normal_quantile(bad)

    def test_out_may_be_the_input(self):
        p = np.array([[2.0 ** -54, 0.01, 0.3], [0.5, 0.99, 1.0 - 2.0 ** -53]])
        expected = normal_quantile(p)
        assert normal_quantile(p, out=p) is p
        assert np.array_equal(p, expected)


def _quantile_relative_error(p: float) -> float:
    """Relative error of normal_quantile(p) against the root of ncdf(x) = p,
    found by Newton's method at 40 digits."""
    value = float(normal_quantile(p))
    with mpmath.workdps(40):
        x = mpmath.mpf(value)
        for _ in range(50):
            step = (mpmath.ncdf(x) - p) / mpmath.npdf(x)
            x -= step
            if abs(step) <= abs(x) * mpmath.mpf(10) ** -35:
                return float(abs((value - x) / x))
    raise AssertionError(f"Newton did not converge at p = {p!r}")


class TestNormalQuantileAccuracy:
    # The smallest doubles, AS 241's branch edges (|q| = 0.425 and r = 5),
    # 1/2 +- 1 ulp, the doubles just under 1 and seeded lattice uniforms.
    INPUTS = np.concatenate((
        [5e-324, 1e-310, 1e-300, 2.0 ** -54, 0.075, 0.925, math.exp(-25.0),
         0.5 - 2.0 ** -54, 0.5 + 2.0 ** -53, 1.0 - 1e-13, 1.0 - 1e-14, 1.0 - 1e-15],
        1.0 - 2.0 ** -np.arange(44.0, 54.0),
        RngStream(20261018, 0).uniforms(2000)))

    def test_relative_error_against_mpmath(self):
        # the docstring's claim: below 1e-15 relative on all of (0, 1)
        assert max(_quantile_relative_error(float(p)) for p in self.INPUTS) < 1e-15

    def test_scalar_path_matches_array_path(self):
        array = normal_quantile(self.INPUTS)
        scalar = np.array([normal_quantile(p) for p in self.INPUTS])
        assert np.array_equal(array.view(np.uint64), scalar.view(np.uint64))
        # an array wholly in the tails is not gathered
        tails = np.abs(self.INPUTS - 0.5) > 0.425
        assert np.array_equal(normal_quantile(self.INPUTS[tails]).view(np.uint64),
                              scalar[tails].view(np.uint64))

    def test_antisymmetric_where_one_minus_p_is_exact(self):
        # both sides form the same r: 0.180625 - q^2 in the centre, and
        # sqrt(-log(1 - p)) in the tail, where 1 - p = 0.5 - q exactly
        p = np.concatenate((np.linspace(0.5, 0.75, 2001),
                            1.0 - np.geomspace(2.0 ** -53, 0.075, 2001)))
        assert np.array_equal(normal_quantile(1.0 - p), -normal_quantile(p))
        assert all(normal_quantile(1.0 - v) == -normal_quantile(v) for v in p[::50])


_UNIT_LATTICE = st.floats(2.0 ** -54, 1.0 - 2.0 ** -53)


class TestProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_UNIT_LATTICE, st.lists(_UNIT_LATTICE, min_size=1, max_size=64))
    def test_quantile_roundtrip_within_claim(self, p, ps):
        # normal_quantile is accurate to 1e-15 relative, and normal_cdf to
        # well below 1e-12
        assert abs(normal_cdf(normal_quantile(p)) - p) < 1e-10
        ps = np.array(ps)
        assert np.max(np.abs(normal_cdf(normal_quantile(ps)) - ps)) < 1e-10


class TestIncompleteBeta:
    def test_boundaries(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_symmetry_at_half(self):
        for a in (0.5, 1.0, 4.5, 20.0):
            assert regularized_incomplete_beta(a, a, 0.5) == pytest.approx(0.5, abs=1e-13)

    def test_closed_form_a_equal_one(self):
        # I_x(1, b) = 1 - (1-x)^b
        assert regularized_incomplete_beta(1.0, 3.0, 0.2) == pytest.approx(0.488, abs=1e-12)
        for b in (0.5, 2.0, 7.0):
            for x in (0.1, 0.35, 0.9):
                assert regularized_incomplete_beta(1.0, b, x) == pytest.approx(
                    1.0 - (1.0 - x) ** b, abs=1e-12)

    def test_monotone_in_x(self):
        x = np.linspace(0.0, 1.0, 500)
        for a, b in [(0.5, 0.5), (3.0, 1.5), (15.0, 0.5)]:
            values = regularized_incomplete_beta(a, b, x)
            assert np.all(np.diff(values) >= -1e-15)

    def test_against_scipy(self):
        x = np.linspace(0.0, 1.0, 401)
        for a, b in [(0.5, 0.5), (1.0, 4.0), (7.5, 0.5), (40.0, 0.5), (2.2, 3.3)]:
            mine = np.asarray(regularized_incomplete_beta(a, b, x))
            ref = scipy.special.betainc(a, b, x)
            assert np.max(np.abs(mine - ref)) < 1e-10

    def test_scalar_path_matches_array_path(self):
        rng = np.random.default_rng(5)
        for a, b, x in zip(np.exp(rng.uniform(-1.0, 8.0, 300)),
                           np.exp(rng.uniform(-1.0, 8.0, 300)), rng.uniform(0.0, 1.0, 300)):
            scalar = regularized_incomplete_beta(a, b, float(x))
            assert isinstance(scalar, float)
            assert scalar == pytest.approx(regularized_incomplete_beta(a, b, np.array([x]))[0],
                                           abs=1e-13)
        for x in (0.0, 1.0, np.float64(0.25), np.array(0.25)):
            value = regularized_incomplete_beta(2.0, 3.0, x)
            assert isinstance(value, float)
            assert value == pytest.approx(scipy.special.betainc(2.0, 3.0, x), abs=1e-15)

    def test_log_beta_against_mpmath(self):
        # exp(-log B(a, b)) to 1e-14 relative, either way round, across the
        # switch to the Stirling difference at max(a, b) = 8
        grid = np.unique(np.concatenate((np.geomspace(0.5, 1e7, 400),
                                         np.arange(0.5, 40.0, 0.5))))
        worst = 0.0
        with mpmath.workdps(40):
            for b in (0.5, 1.0, 8.0):
                for a in map(float, grid):
                    for x, y in ((a, b), (b, a)):
                        exact = mpmath.log(mpmath.beta(x, y))
                        worst = max(worst, abs(float(mpmath.expm1(exact - _lbeta(x, y)))))
        assert worst <= 1e-14

    def test_large_a_against_mpmath(self):
        # the t CDF at df = 313956: lgamma(a) + lgamma(b) - lgamma(a + b)
        # put both paths 5.6e-11 off here
        a = 156978.0
        for t in (0.25, 0.5):
            x = 2.0 * a / (2.0 * a + t * t)
            with mpmath.workdps(40):
                exact = mpmath.betainc(a, 0.5, 0, x, regularized=True)
                for value in (regularized_incomplete_beta(a, 0.5, x),
                              regularized_incomplete_beta(a, 0.5, np.array([x]))[0]):
                    assert abs(float((value - exact) / exact)) < 1e-13

    def test_domain(self):
        for bad in (math.nan, math.inf, -0.1, 1.5):
            with pytest.raises(DomainError):
                regularized_incomplete_beta(1.0, 1.0, bad)
            with pytest.raises(DomainError):
                regularized_incomplete_beta(1.0, 1.0, np.array([0.5, bad]))
        with pytest.raises(DomainError):
            regularized_incomplete_beta(0.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            regularized_incomplete_beta(1.0, -2.0, 0.5)
        with pytest.raises(DomainError):
            regularized_incomplete_beta(1.0, 1.0, 1.5)


class TestStudentT:
    def test_zero_is_half(self):
        assert student_t_cdf(0.0, 7.0) == 0.5

    def test_cauchy_closed_form(self):
        # df=1 is Cauchy: F(t) = 1/2 + arctan(t)/pi
        assert student_t_cdf(1.0, 1.0) == pytest.approx(0.75, abs=1e-10)
        for t in (-3.0, 0.4, 2.5):
            assert student_t_cdf(t, 1.0) == pytest.approx(
                0.5 + math.atan(t) / math.pi, abs=1e-12)

    def test_large_df_gaussian_limit(self):
        assert student_t_cdf(1.96, 1e6) == pytest.approx(normal_cdf(1.96), abs=1e-4)

    def test_symmetry(self):
        ts = np.array([0.0, 0.3, 1.0, 2.7, 8.0])
        for df in (1.0, 4.0, 30.0):
            left = np.asarray(student_t_cdf(-ts, df))
            right = 1.0 - np.asarray(student_t_cdf(ts, df))
            # equal up to the rounding of the final 1 - x subtraction
            assert np.max(np.abs(left - right)) < 2e-16

    def test_against_density_quadrature(self):
        # integrate the t density directly from 0 to t
        for df in (1.0, 2.0, 3.5, 10.0, 30.0, 200.0):
            log_const = (math.lgamma(0.5 * (df + 1.0)) - math.lgamma(0.5 * df)
                         - 0.5 * math.log(df * math.pi))

            def density(x, df=df, log_const=log_const):
                return np.exp(log_const - 0.5 * (df + 1.0) * np.log1p(x * x / df))

            for t in (-4.0, -1.0, 0.5, 2.0, 5.0):
                oracle = 0.5 + _integrate(density, 0.0, t)
                assert student_t_cdf(t, df) == pytest.approx(oracle, abs=1e-8)

    def test_near_zero_at_large_df(self):
        # F(t) = 1/2 + f(0) t + O(t^3); at df ~ 3e5, x = df / (df + t^2)
        # rounds to 1 for |t| < 6e-6, so y = t^2 / (df + t^2) must be used
        for df in (1.0, 4.0, 30.0, 313956.0):
            f0 = math.exp(math.lgamma(0.5 * (df + 1.0)) - math.lgamma(0.5 * df)
                          - 0.5 * math.log(df * math.pi))
            for t in (-3e-6, -1e-7, 1e-9, 2e-6):
                assert student_t_cdf(t, df) == pytest.approx(0.5 + f0 * t, abs=3e-16)
            ts = np.array([-3e-6, 1e-9, 2.0])
            assert list(student_t_cdf(ts, df)) == [student_t_cdf(t, df) for t in ts]

    def test_domain(self):
        with pytest.raises(DomainError):
            student_t_cdf(1.0, 0.0)
        with pytest.raises(DomainError):
            student_t_cdf(1.0, -3.0)


class TestNoncentralT:
    def test_central_reduction(self):
        assert noncentral_t_cdf(1.5, 7.0, 0.0) == student_t_cdf(1.5, 7.0)
        assert noncentral_t_cdf(1.5, 7.0, 1e-14) == pytest.approx(
            student_t_cdf(1.5, 7.0), abs=1e-10)

    def test_monte_carlo_sampling_oracle(self):
        # draws of (Z + ncp) / sqrt(chi2_df / df) with numpy's own samplers
        rng = np.random.default_rng(2024)
        n = 1_000_000
        for t, df, ncp in [(2.0, 10.0, 1.5), (0.5, 4.0, -1.0), (3.0, 30.0, 2.83)]:
            draws = (rng.standard_normal(n) + ncp) / np.sqrt(rng.chisquare(df, n) / df)
            est = np.mean(draws <= t)
            se = math.sqrt(max(est * (1.0 - est), 1e-12) / n)
            assert noncentral_t_cdf(t, df, ncp) == pytest.approx(est, abs=3.0 * se)

    def test_monotone_in_t_and_ncp(self):
        ts = np.linspace(-4.0, 6.0, 40)
        values = [noncentral_t_cdf(t, 9.0, 1.7) for t in ts]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        ncps = np.linspace(-3.0, 5.0, 30)
        values = [noncentral_t_cdf(2.0, 9.0, d) for d in ncps]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_quadrature_against_mpmath_oracle(self):
        # df from Cauchy to ~3e5, ncp of either sign, t on both sides of the
        # step and at 0, and the far-noncentral points
        cases = [(t, df, ncp)
                 for df in (1.0, 2.0, 3.0, 5.0, 8.0, 30.0, 98.0, 313956.0)
                 for ncp in (-20.0, -2.5, 0.3, 2.83, 20.0)
                 for t in (0.0, ncp - 2.0, ncp + 2.0)]
        cases += [(39.0, 12.0, 38.0), (41.0, 25.0, 39.5), (45.0, 8.0, 44.0),
                  (200.0, 1.0, 80.0), (300.0, 2.0, 200.0), (1000.0, 5.0, 200.0),
                  (-200.0, 1.0, -80.0), (50.0, 2.0, -45.0), (5.88, 313956.0, -13.14)]
        misses = [(t, df, ncp, value, oracle) for t, df, ncp in cases
                  if not abs((value := noncentral_t_cdf(t, df, ncp))
                             - (oracle := _mpmath_nct_cdf(t, df, ncp))) < 1e-8]
        assert misses == []

    def test_vectorised_over_t(self):
        ts = np.array([-3.0, 0.0, 1.5, 4.0])
        values = noncentral_t_cdf(ts, 9.0, 1.7)
        assert values.shape == ts.shape
        singles = [noncentral_t_cdf(t, 9.0, 1.7) for t in ts]
        assert np.max(np.abs(values - singles)) < 1e-15

    def test_lower_tail_keeps_relative_accuracy(self):
        # P(T <= -t_crit) at n = 200 per group, d = 1: about 3.8e-33, far
        # below the rounding of 1 - P(T > -t_crit)
        t_crit = float(scipy.stats.t.ppf(0.975, 398))
        ref = _mpmath_nct_cdf(-t_crit, 398.0, 10.0)
        assert 0.0 < ref < 1e-30
        assert noncentral_t_cdf(-t_crit, 398.0, 10.0) == pytest.approx(ref, rel=1e-10)

    def test_gauss_legendre_rule(self):
        from fdrlab.distributions import _gauss_legendre
        nodes, weights = _gauss_legendre(48)
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(48)
        assert np.max(np.abs(nodes - ref_nodes)) < 1e-14
        assert np.max(np.abs(weights - ref_weights)) < 1e-14

    def test_against_scipy(self):
        for t, df, ncp in [(2.04, 30.0, 2.83), (-1.0, 5.0, 2.0), (0.0, 3.0, 1.0),
                           (5.0, 2.0, 4.0), (45.0, 8.0, 44.0)]:
            assert noncentral_t_cdf(t, df, ncp) == pytest.approx(
                scipy.stats.nct.cdf(t, df, ncp), abs=1e-6)

    def test_quadrature_branch_small_df_against_mpmath(self):
        # far noncentral points: at small df the window of W is wide and the
        # step of Phi(t*w - ncp) is narrow
        for t, df, ncp in [(200.0, 1.0, 80.0), (200.0, 2.0, 80.0), (45.0, 1.0, 41.0),
                           (300.0, 2.0, 200.0), (1000.0, 5.0, 200.0), (60.0, 5.0, 60.0),
                           (-200.0, 1.0, -80.0), (-300.0, 5.0, -41.0), (50.0, 2.0, -45.0)]:
            assert noncentral_t_cdf(t, df, ncp) == pytest.approx(
                _mpmath_nct_cdf(t, df, ncp), abs=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            noncentral_t_cdf(1.0, -1.0, 0.5)


def _mpmath_nct_cdf(t, df, ncp):
    """P(T <= t) = E[Phi(t*W - ncp)], W = sqrt(chi2_df / df), by mpmath
    quadrature for either sign of t.  Breakpoints sit at W's mode and at
    k / sqrt(2 df) either side of it, without which the quadrature misses
    the density's narrow peak at large df, and, when t != 0, around the
    step at w = ncp/t."""
    with mpmath.workdps(20):
        t, df, ncp = mpmath.mpf(t), mpmath.mpf(df), mpmath.mpf(ncp)
        log_c = mpmath.log(2) + df / 2 * mpmath.log(df / 2) - mpmath.loggamma(df / 2)

        def integrand(w):
            log_dens = log_c + (df - 1) * mpmath.log(w) - df * w * w / 2
            return mpmath.exp(log_dens) * mpmath.ncdf(t * w - ncp)

        mode, scale = mpmath.sqrt((df - 1) / df), 1 / mpmath.sqrt(2 * df)
        points = [mode + k * scale for k in (-16, -8, -4, -2, -1, 0, 1, 2, 4, 8, 16)]
        if t != 0:
            points += [(ncp + k) / t for k in (-16, -4, -1, 0, 1, 4, 16)]
        inner = sorted(w for w in set(points) if w > 0)
        return float(mpmath.quad(integrand, [0, *inner, mpmath.inf],
                                 method="gauss-legendre"))


class TestSampling:
    def test_identical_stream_identical_draws(self):
        a = sample_normal(RngStream(99, 3), 0.0, 1.0)
        b = sample_normal(RngStream(99, 3), 0.0, 1.0)
        assert a == b
        va = sample_normal(RngStream(99, 3), 2.0, 0.5, size=64)
        vb = sample_normal(RngStream(99, 3), 2.0, 0.5, size=64)
        assert np.array_equal(va, vb)

    def test_distinct_streams_differ(self):
        a = sample_normal(RngStream(99, 0), 0.0, 1.0, size=16)
        b = sample_normal(RngStream(99, 1), 0.0, 1.0, size=16)
        assert not np.array_equal(a, b)

    def test_draws_advance_the_stream(self):
        stream = RngStream(7, 0)
        first = sample_normal(stream, 0.0, 1.0)
        second = sample_normal(stream, 0.0, 1.0)
        assert first != second

    def test_law_of_large_numbers(self):
        draws = sample_normal(RngStream(12345, 0), 1.0, 1.0, size=100_000)
        assert draws.mean() == pytest.approx(1.0, abs=0.01)
        assert draws.var(ddof=1) == pytest.approx(1.0, abs=0.015)

    def test_kolmogorov_smirnov_against_normal_cdf(self):
        n = 100_000
        draws = np.sort(sample_normal(RngStream(2718, 5), 0.0, 1.0, size=n))
        cdf = np.asarray(normal_cdf(draws))
        upper = np.max(np.arange(1, n + 1) / n - cdf)
        lower = np.max(cdf - np.arange(0, n) / n)
        # 0.001-significance KS critical value, asymptotic: 1.94947 / sqrt(n)
        assert max(upper, lower) < 1.94947 / math.sqrt(n)

    def test_domain(self):
        with pytest.raises(DomainError):
            sample_normal(RngStream(1, 0), 0.0, 0.0)
        with pytest.raises(DomainError):
            sample_normal(RngStream(1, 0), 0.0, -1.0)
        with pytest.raises(DomainError):
            RngStream(-1, 0)
        with pytest.raises(DomainError):
            RngStream(0, 2 ** 64)


_MAX64 = 2 ** 64 - 1


class TestStreamBits:
    # SHA-256 of the raw float64 bytes of RngStream(seed, index).uniforms(k).
    # The uniforms come from integer arithmetic and one exact scaling, so the
    # digests hold on every platform; a change here is a new stream version.
    PINNED = {
        (0, 0, 1): "bb6344a9e7754e2a1dd38280530883ff63c5df896f71ba058122d876d01fb967",
        (7, 3, 6): "82b77660b23358ef6c91687bfd17e8f8f3af285ce408fe4ef4b21e9e52817d21",
        (12345, 4095, 32): "bbafa99b936461b2ed3d6ec21205c5421fd9f9d2bffb02950e18c9f5ebef411c",
        (_MAX64, _MAX64, 9): "953ecc2129d9241ea41026897bc2a1114ed5b95eaa55e0f1ad67ed669e5d8f96",
        (_MAX64, 0, 100): "54449c4d2f8d70cee92c0c6effab246d8c89e26de8f100b9892cc172500cd6c7",
        (0, _MAX64, 7): "fbd7a67d2da59b184f685949100838cf491ce8ec1ebadb1a569313f16e864a93",
    }

    @pytest.mark.parametrize("seed, index, k", sorted(PINNED))
    def test_uniforms_digest(self, seed, index, k):
        u = RngStream(seed, index).uniforms(k)
        assert hashlib.sha256(u.tobytes()).hexdigest() == self.PINNED[seed, index, k]


class TestKernelBits:
    # SHA-256 of the float64 bytes of `normal_quantile` and `normal_cdf` over
    # fixed inputs.  The quantile inputs hold the uniform lattice's extremes,
    # 1e-300, points on both sides of stream version 1's tail boundaries at
    # 0.02425 and 0.97575, and 10,000 seeded uniforms; its digests are keyed
    # by STREAM_VERSION, as in tests/test_montecarlo.py.  The CDF grid
    # reaches all three erfc branches and the clamp at |x| = 30.  Unlike
    # `TestStreamBits` these run through numpy's exp and log, so they pin
    # this platform's float kernels as well.
    QUANTILE_INPUTS = (2.0 ** -54, 1.0 - 2.0 ** -53, 1e-300, 1e-10, 0.001, 0.02,
                       0.02424, 0.02425, 0.02426, 0.5, 0.97574, 0.97576, 0.98,
                       0.999, 1.0 - 1e-10)
    QUANTILE = {
        1: "73298e25c6c6f6db5e5dac142b486ee8962d3b0f791592298e45bbe5895369e6",
        2: "639a9ffbd1b02511df3b4118751b3cc08648b852cd9c82e930f8d32d80650647",
    }
    CDF = "901a0c8c1dc23c4f091839a16640ae516c911c657effc0ea65b240a398398d1c"

    def test_normal_quantile_digest(self):
        p = np.concatenate((self.QUANTILE_INPUTS, RngStream(2024, 0).uniforms(10_000)))
        assert (hashlib.sha256(normal_quantile(p).tobytes()).hexdigest()
                == self.QUANTILE[STREAM_VERSION])

    def test_normal_cdf_digest(self):
        x = np.linspace(-40.0, 40.0, 80001)
        assert hashlib.sha256(normal_cdf(x).tobytes()).hexdigest() == self.CDF


class TestBlockUniforms:
    KEYS = [(0, 0), (12345, 17), (_MAX64, 0), (0, _MAX64), (_MAX64, _MAX64),
            (_MAX64 - 1, _MAX64 - 2), (2 ** 63, 2 ** 32 - 1)]

    @pytest.mark.parametrize("size", [*range(1, 10), 32, 100])
    def test_bit_equal_to_scalar_streams(self, size):
        scalar = np.array([RngStream(s, i).uniforms(size) for s, i in self.KEYS])
        fresh = [RngStream(s, i) for s, i in self.KEYS]
        # only the keys are read: streams that have drawn give the same rows
        drawn = [RngStream(s, i) for s, i in self.KEYS]
        for k, stream in enumerate(drawn):
            stream.uniforms(k + 1)
        for streams in (fresh, drawn):
            block = block_uniforms(streams, size)
            assert block.shape == (len(self.KEYS), size)
            assert np.array_equal(block.view(np.uint64), scalar.view(np.uint64))
        # and the streams go on as if no block had been drawn
        for k, (seed, index) in enumerate(self.KEYS):
            whole = RngStream(seed, index).uniforms(size + k + 10)
            assert np.array_equal(fresh[k].uniforms(size).view(np.uint64),
                                  whole[:size].view(np.uint64))
            assert np.array_equal(drawn[k].uniforms(9).view(np.uint64),
                                  whole[k + 1:k + 10].view(np.uint64))

    def test_size_validation(self):
        for size in (-1, 2.0, None):
            with pytest.raises(DomainError):
                block_uniforms([RngStream(5, 0)], size)
        assert block_uniforms([], 3).shape == (0, 3)
