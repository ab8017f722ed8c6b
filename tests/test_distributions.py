"""Distribution functions checked against independent oracles:
numerical quadrature of the defining densities, bisection inverses,
closed forms, Monte Carlo sampling, and scipy and mpmath as outside
references.  The seeded uniforms are pinned by digests of their raw bytes.
"""

import hashlib
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings, strategies as st

from fdrlab import distributions
from fdrlab.cli import main
from fdrlab.distributions import (
    _NCT_STEP_EDGES,
    _SUM_A_MAX,
    _SUM_MIN,
    RngStream,
    _betacf,
    _lbeta,
    _log_w_rule,
    block_uniforms,
    noncentral_t_cdf,
    normal_cdf,
    normal_quantile,
    regularized_incomplete_beta,
    sample_normal,
    student_t_cdf,
)
from fdrlab.errors import DomainError, FdrLabError
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
        # an array wholly in one erfc region gives the same bits
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
        # an array wholly in the tails, and one wholly in the centre, whose
        # tail gathers are empty
        tails = np.abs(self.INPUTS - 0.5) > 0.425
        central = (self.INPUTS >= 0.1) & (self.INPUTS <= 0.9)
        for part in (tails, central):
            assert np.array_equal(normal_quantile(self.INPUTS[part]).view(np.uint64),
                                  scalar[part].view(np.uint64))

    # Arrays past one 2**16-element tile: `normal_quantile` takes them a row
    # tile at a time, and `_as241` gathers and writes back each tile's tails
    # by flat index.  A result must hold the per-float bits on the rows on
    # both sides of each tile edge and on every 97th row (the float path
    # costs about 0.1 ms a value), and everywhere the bits of contiguous
    # pieces smaller than a tile.
    @staticmethod
    def _assert_float_bits(result, p, step):
        rows = len(p)
        picked = sorted({rows - 1, *range(0, rows, 97), *range(step - 1, rows, step),
                         *range(step, rows, step)})
        scalar = np.array([[normal_quantile(float(v)) for v in row] for row in p[picked]])
        assert np.array_equal(result[picked].view(np.uint64), scalar.view(np.uint64))
        pieces = np.concatenate([normal_quantile(piece)
                                 for piece in np.array_split(p.ravel(), 8)])
        assert np.array_equal(result.ravel().view(np.uint64), pieces.view(np.uint64))

    def test_strided_view_across_tiles_in_place(self):
        # the engine's n = 3 chunk: 6 of a row's 8 columns, in three and a
        # bit row tiles, computed in place
        step = distributions._TILE // 6
        rows = 3 * step + 5
        base = RngStream(20261021, 3).uniforms(rows * 8).reshape(rows, 8)
        # tails and centre on both sides of the first tile edge
        base[step - 1, :6] = [1e-300, 0.3, 1.0 - 2.0 ** -53, 0.5, 0.01, 0.97]
        base[step, :6] = [0.02, 0.999, 0.6, 2.0 ** -54, 0.45, 1.0 - 1e-13]
        p, pad = base[:, :6].copy(), base[:, 6:].copy()
        view = base[:, :6]
        assert not view.flags.contiguous
        assert normal_quantile(view, out=view) is view
        self._assert_float_bits(view, p, step)
        assert np.array_equal(base[:, 6:], pad)  # the padding is left alone

    @pytest.mark.parametrize("part", ["central", "tails"])
    def test_one_branch_across_tiles(self, part):
        # every tile's tail gather empty, or every element gathered
        count = 2 ** 17 + 3
        if part == "central":
            p = np.linspace(0.075 + 2.0 ** -30, 0.925 - 2.0 ** -30, count)
        else:
            p = np.concatenate((np.geomspace(5e-324, 0.07, count // 2),
                                1.0 - np.geomspace(0.07, 2.0 ** -53, count - count // 2)))
            assert np.all(np.abs(p - 0.5) > 0.425)
        p = p.reshape(-1, 1)
        self._assert_float_bits(normal_quantile(p), p, distributions._TILE)

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
        # and across the finite sum's switch to the continued fraction at
        # I = _SUM_MIN, on x dense around it, as an array and as floats
        for a in (15, _SUM_A_MAX):
            switch = scipy.special.betaincinv(a, 0.5, _SUM_MIN)
            x = np.linspace(switch * (1.0 - 1e-4), switch * (1.0 + 1e-4), 2001)
            array = regularized_incomplete_beta(a, 0.5, x)
            floats = np.array([regularized_incomplete_beta(a, 0.5, v) for v in map(float, x)])
            assert array.min() < _SUM_MIN <= array.max()
            for values in (array, floats):
                assert np.all(np.diff(values) >= -1e-15)

    def test_half_sum_against_mpmath(self):
        # b = 1/2 and every integer a the finite sum takes, at seeded x on
        # both sides of its switch at I = _SUM_MIN, as floats and arrays:
        # the docstring's bounds, and the float's bits everywhere
        rng = np.random.default_rng(17)
        worst_abs = worst_rel = 0.0
        kept = 0
        for a in range(1, _SUM_A_MAX + 1):
            p = np.concatenate((10.0 ** rng.uniform(-3.0, 0.0, 5),
                                10.0 ** rng.uniform(-12.0, -3.0, 5),
                                _SUM_MIN * (1.0 + rng.uniform(-1e-6, 1e-6, 2))))
            x = scipy.special.betaincinv(a, 0.5, p)
            array = regularized_incomplete_beta(a, 0.5, x)
            with mpmath.workdps(40):
                for v, from_array in zip(map(float, x), array):
                    value = regularized_incomplete_beta(a, 0.5, v)
                    assert value == from_array
                    kept += value >= _SUM_MIN
                    exact = mpmath.betainc(a, 0.5, 0, v, regularized=True)
                    for err in (value - exact, from_array - exact):
                        worst_abs = max(worst_abs, abs(float(err)))
                        worst_rel = max(worst_rel, abs(float(err / exact)))
        assert 5 * _SUM_A_MAX <= kept < 10 * _SUM_A_MAX
        assert worst_abs <= 1e-15 and worst_rel <= 5e-13

    def test_against_scipy(self):
        x = np.linspace(0.0, 1.0, 401)
        for a, b in [(0.5, 0.5), (1.0, 4.0), (7.5, 0.5), (40.0, 0.5), (2.2, 3.3)]:
            mine = np.asarray(regularized_incomplete_beta(a, b, x))
            ref = scipy.special.betainc(a, b, x)
            assert np.max(np.abs(mine - ref)) < 1e-10

    def test_scalar_path_matches_array_path(self):
        # a float gets an array element's bits: random a, b and x, then
        # b = 1/2 with every integer a from 1 to 129, inside the finite
        # sum's bound and past it, at x on both sides of its switch
        rng = np.random.default_rng(5)
        for a, b, x in zip(np.exp(rng.uniform(-1.0, 8.0, 300)),
                           np.exp(rng.uniform(-1.0, 8.0, 300)), rng.uniform(0.0, 1.0, 300)):
            scalar = regularized_incomplete_beta(a, b, float(x))
            assert isinstance(scalar, float)
            assert scalar == regularized_incomplete_beta(a, b, np.array([x]))[0]
        for a in range(1, 2 * _SUM_A_MAX + 2):
            p = np.concatenate((10.0 ** rng.uniform(-3.0, 0.0, 32),
                                10.0 ** rng.uniform(-12.0, -3.0, 32)))
            x = scipy.special.betaincinv(a, 0.5, p)
            floats = [regularized_incomplete_beta(a, 0.5, v) for v in map(float, x)]
            assert regularized_incomplete_beta(a, 0.5, x).tolist() == floats
        for x in (0.0, 1.0, np.float64(0.25), np.array(0.25)):
            value = regularized_incomplete_beta(2.0, 3.0, x)
            assert isinstance(value, float)
            assert value == pytest.approx(scipy.special.betainc(2.0, 3.0, x), abs=1e-15)
        # the ends of [0, 1] and the smallest subnormal take the array
        # formula, whose front factor is 0 at x = 0 and x = 1
        for a, b in ((2.0, 3.0), (0.5, 0.5), (15.0, 0.5), (0.5, 15.0)):
            edges = [-0.0, 0.0, 5e-324, 1.0]
            array = regularized_incomplete_beta(a, b, np.array(edges))
            assert array.tolist() == pytest.approx(
                [regularized_incomplete_beta(a, b, x) for x in edges], rel=1e-14, abs=0.0)
            assert array[0] == 0.0 and array[1] == 0.0 and array[3] == 1.0

    def test_array_fraction_equals_float_fraction(self):
        # each element of an array stops at its own first converged step, so
        # it gets the float's bits; the large a are where the fraction is
        # slowest, and where one element's stop used to wait for the others
        rng = np.random.default_rng(14)
        for a in (*np.exp(rng.uniform(-1.0, 9.0, 40)), 3999.0, 4999.0, 156978.0):
            for b in (0.5, 1.0, 3.5, 40.0):
                x = rng.uniform(0.0, (a + 1.0) / (a + b + 2.0), 60)
                floats = [_betacf(float(a), b, float(v)) for v in x]
                assert _betacf(float(a), b, x).tolist() == floats

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

    def test_unconverged_fraction_raises(self, monkeypatch, capsys):
        # a = 100 has no finite sum, and one step of the fraction is too few
        monkeypatch.setattr(distributions, "_CF_MAX_ITER", 1)
        for x in (0.5, np.array([0.5])):
            with pytest.raises(FdrLabError, match=r"did not converge \(a=100.0, b=0.5\)"):
                regularized_incomplete_beta(100.0, 0.5, x)
        # the t quantile at df = 200 reaches it: one error line, exit 3
        assert main(["power", "--n", "101", "--d", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: incomplete beta continued fraction did not")
        assert captured.err.count("\n") == 1

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

    @staticmethod
    def _lower_tail(t, df):
        """P(T <= t) for t < 0, as mpmath's incomplete beta at the exact t."""
        with mpmath.workdps(50):
            x = mpmath.mpf(df) / (df + mpmath.mpf(t) ** 2)
            return mpmath.betainc(mpmath.mpf(df) / 2, 0.5, 0, x, regularized=True) / 2

    def test_large_df_against_mpmath(self):
        # relative error of the lower tail against the incomplete beta at the
        # exact t; for t^2 >= 3 the rounded x = df / (df + t^2) makes it grow
        # with df.  The bounds are the measured maxima rounded up (4.0e-14 at
        # df = 30, 5.8e-14 at 1e3, 2.5e-2 at 1e14; 1.3e-14 at t = -1.5);
        # ROADMAP item 5, an exact 1 - x for the incomplete beta, will
        # tighten them
        for df in (30.0, *(10.0 ** k for k in range(2, 15))):
            for t in (-1.8, -1.96, -3.0, -5.0, -10.0, -30.0):
                exact = self._lower_tail(t, df)
                error = abs(float((student_t_cdf(t, df) - exact) / exact))
                assert error <= max(6e-14, 2.5e-16 * df), (t, df, error)
            exact = self._lower_tail(-1.5, df)
            assert abs(float((student_t_cdf(-1.5, df) - exact) / exact)) <= 1.5e-14, df

    @pytest.mark.parametrize("df, t", [
        (0.5, -1.35e154), (0.5, -1e300), (0.5, -1.7976931348623157e308),
        (1.0, -1.35e154), (1.0, -1e200), (1.0, -1e300), (1.0, -1.7976931348623157e308),
        (1.5, -1.35e154), (1.5, -1e162), (1.5, -1e200),
        (1.9, -1.35e154), (1.9, -1e160), (2.0, -1.35e154), (2.0, -1e155),
        # past the overflow the true tail underflows at df = 2.5 and 30
        (2.5, -1.35e154), (30.0, -1e200),
    ])
    def test_far_tail_past_overflow_against_mpmath(self, df, t):
        # past |t| = 1.34e154, t * t overflows; below df = 2 the tail is still
        # a normal double there, and at df = 2 up to |t| of about 1e162
        assert math.isinf(t * t)
        exact = float(self._lower_tail(t, df))
        assert student_t_cdf(t, df) == pytest.approx(exact, rel=1e-12, abs=0.0)
        assert student_t_cdf(-t, df) == 1.0

    def test_scalar_path_matches_array_path(self):
        # a float gets an array element's bits, on both branches of the CDF
        # and on both sides of the finite sum's switch
        rng = np.random.default_rng(18)
        for df in (*range(1, 198, 7), 786, 313956, 1e7):
            ts = np.concatenate((rng.normal(0.0, 3.0, 30), rng.uniform(-40.0, 40.0, 30)))
            floats = [student_t_cdf(t, df) for t in map(float, ts)]
            assert student_t_cdf(ts, df).tolist() == floats
            # an array keeps its shape, an empty one too
            grid = student_t_cdf(ts.reshape(6, 10), df)
            assert grid.shape == (6, 10) and grid.ravel().tolist() == floats
            empty = student_t_cdf(np.empty((0, 3)), df)
            assert empty.shape == (0, 3) and empty.dtype == np.float64
        with pytest.raises(DomainError, match="t must be finite"):
            student_t_cdf(np.array([1.0, math.nan, -2.0]), 30.0)

    def test_array_far_tail_at_large_df(self):
        # each element converges alone; the array used to wait for all of
        # them to pass the step test at one step, and raised
        ts = np.array([39.68, 39.76, 39.8, 39.84, 39.88, 39.92, 39.96, 40.0])
        for t in (ts, -ts):
            assert student_t_cdf(t, 313956).tolist() == [student_t_cdf(v, 313956) for v in t]

    def test_domain(self):
        with pytest.raises(DomainError):
            student_t_cdf(1.0, 0.0)
        with pytest.raises(DomainError):
            student_t_cdf(1.0, -3.0)
        # any finite t: past |t| = 1.3e154, t * t overflows, without a warning
        assert (student_t_cdf(1e200, 3.0), student_t_cdf(-1e200, 3.0)) == (1.0, 0.0)
        assert student_t_cdf(np.array([1e200, -1e200, 2.0]), 3.0).tolist() == [
            1.0, 0.0, student_t_cdf(2.0, 3.0)]


class TestNoncentralT:
    def test_central_reduction(self):
        assert noncentral_t_cdf(1.5, 7.0, 0.0) == student_t_cdf(1.5, 7.0)
        # the pair power_two_sample passes at d = 0, each element a float call
        for df in (4.0, 30.0, 313956.0):
            for t in (0.5, 2.1):
                assert noncentral_t_cdf(np.array([-t, t]), df, 0.0).tolist() == [
                    student_t_cdf(-t, df), student_t_cdf(t, df)]
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
        assert values.tolist() == [noncentral_t_cdf(t, 9.0, 1.7) for t in ts]

    def test_long_array_scratch_stays_small(self):
        # each distinct |t| is integrated on its own, so the scratch is one
        # quadrature's however long the array is
        ts = np.linspace(-5.0, 8.0, 200).reshape(20, 10)
        tracemalloc.start()
        try:
            values = noncentral_t_cdf(ts, 30.0, 2.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20
        assert values.shape == ts.shape
        assert values.ravel().tolist() == [noncentral_t_cdf(t, 30.0, 2.0) for t in ts.ravel()]

    @pytest.mark.parametrize("df, ncp", [(30.0, 2.0), (8.0, 1.5), (98.0, 5.0), (1.0, 80.0),
                                         (313956.0, -13.14)])
    def test_array_element_has_the_float_bits(self, df, ncp):
        # a value's result does not depend on what else is in the array,
        # signed zeros, subnormals and the ends of the double range included
        ts = np.concatenate((np.linspace(-5.0, 8.0, 200),
                             [0.0, -0.0, 5e-324, -5e-324, 200.0, -200.0, 1e308, -1e308]))
        singles = np.array([noncentral_t_cdf(t, df, ncp) for t in ts.tolist()])
        assert noncentral_t_cdf(ts, df, ncp).tobytes() == singles.tobytes()

    def test_lower_tail_keeps_relative_accuracy(self):
        # P(T <= -t_crit) at n = 200 per group, d = 1: about 3.8e-33, far
        # below the rounding of 1 - P(T > -t_crit).  The error is 8.4e-8
        # relative; ROADMAP item 4's tail work should bring it to 1e-10.
        t_crit = float(scipy.stats.t.ppf(0.975, 398))
        ref = _mpmath_nct_cdf(-t_crit, 398.0, 10.0)
        assert 0.0 < ref < 1e-30
        assert noncentral_t_cdf(-t_crit, 398.0, 10.0) == pytest.approx(ref, rel=1e-7, abs=0.0)

    @pytest.mark.parametrize("df", [0.5, 1.0, 2.0, 3.0, 5.0, 30.0, 398.0, 313956.0, 1e10])
    def test_log_w_rule_moments_against_mpmath(self, df):
        # E[W^k] = (2/df)^(k/2) Gamma((df + k)/2) / Gamma(df/2) on the rule's
        # own nodes and masses, with no step edges and with the CDF's edges
        # at (ncp, t) = (2, 3) and (40, 41); mpmath, because a difference of
        # lgamma loses 1.5e-5 relative at df = 1e10
        with mpmath.workdps(40):
            half_df = mpmath.mpf(df) / 2
            exact = [float(half_df ** (-k / 2) * mpmath.gamma(half_df + k / 2)
                           / mpmath.gamma(half_df)) for k in (1, 2, 3)]
        for step_w in (np.empty(0), *((ncp + _NCT_STEP_EDGES) / np.array([[-t], [t]])
                                      for ncp, t in ((2.0, 3.0), (40.0, 41.0)))):
            y, mass = _log_w_rule(df, step_w)
            for k, moment in zip((1, 2, 3), exact):
                assert np.exp(k * y) @ mass / mass.sum() == pytest.approx(
                    moment, rel=1e-15, abs=0.0)

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
        # any finite t: a t*W past the double range overflows, without a
        # warning, to a Phi of 0 or 1
        assert (noncentral_t_cdf(1e308, 1.0, 0.5), noncentral_t_cdf(-1e308, 1.0, 0.5)) == (
            1.0, 0.0)
        # a subnormal t overflows its step edges, without a warning, and
        # gives Phi(-ncp)
        for t in (5e-324, -5e-324):
            assert noncentral_t_cdf(t, 5.0, 1.0) == pytest.approx(normal_cdf(-1.0), abs=1e-12)
        assert noncentral_t_cdf(np.array([5e-324, -5e-324]), 5.0, 1.0) == pytest.approx(
            normal_cdf(-1.0), abs=1e-12)


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
    # SHA-256 of the raw float64 bytes of RngStream(seed, index).uniforms(k),
    # by stream version; the older tables stay as the record of what each
    # version gave.  The uniforms come from integer arithmetic and one exact
    # scaling, so the digests hold on every platform.
    PINNED = {
        # versions 1 to 4: numpy's Philox keyed by (seed, index), counters
        # 1, 2, ...
        4: {
            (0, 0, 1): "bb6344a9e7754e2a1dd38280530883ff63c5df896f71ba058122d876d01fb967",
            (7, 3, 6): "82b77660b23358ef6c91687bfd17e8f8f3af285ce408fe4ef4b21e9e52817d21",
            (12345, 4095, 32): "bbafa99b936461b2ed3d6ec21205c5421fd9f9d2bffb02950e18c9f5ebef411c",
            (_MAX64, _MAX64, 9): "953ecc2129d9241ea41026897bc2a1114ed5b95eaa55e0f1ad67ed669e5d8f96",
            (_MAX64, 0, 100): "54449c4d2f8d70cee92c0c6effab246d8c89e26de8f100b9892cc172500cd6c7",
            (0, _MAX64, 7): "fbd7a67d2da59b184f685949100838cf491ce8ec1ebadb1a569313f16e864a93",
        },
        # version 5: block b of stream i at counter i + 2**64 * b + 1 under
        # the key (seed, 0); the first block of stream 0 is version 4's
        5: {
            (0, 0, 1): "bb6344a9e7754e2a1dd38280530883ff63c5df896f71ba058122d876d01fb967",
            (7, 3, 6): "374939d999130e0ba4b5bd3abee5fef4febac311172189e91d1b6cf3a9479207",
            (12345, 4095, 32): "4eeb7051260b7e285efe4ebce706b1c84f9a4a5f459696dfcb419c90a80527fc",
            (_MAX64, _MAX64, 9): "256c28ad6ec92f78989395b592a587f60ad1adfefc56cf6b00913b07953978b8",
            (_MAX64, 0, 100): "960fb7cff56006b27cbd38e4c6e88b085011e7c853c589d4df8e5d7bcb8aa98d",
            (0, _MAX64, 7): "5cb76c9a9eab873859fe1ba20c0bed1f077ffc14fc030470dd4d6a2af971bc32",
        },
    }

    @pytest.mark.parametrize("seed, index, k", sorted(PINNED[STREAM_VERSION]))
    def test_uniforms_digest(self, seed, index, k):
        u = RngStream(seed, index).uniforms(k)
        assert (hashlib.sha256(u.tobytes()).hexdigest()
                == self.PINNED[STREAM_VERSION][seed, index, k])


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
        # version 3 changed only the p value's continued fraction
        3: "639a9ffbd1b02511df3b4118751b3cc08648b852cd9c82e930f8d32d80650647",
        # version 4 changed only the p value's incomplete beta
        4: "639a9ffbd1b02511df3b4118751b3cc08648b852cd9c82e930f8d32d80650647",
        # version 5 changed the 10,000 seeded uniforms
        5: "adaea146ff81fa707c056ee3e94093e8775b52c450cbf4f5a2aa6114bb624f31",
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

    @pytest.mark.parametrize("keys", [
        [(3, _MAX64), (3, 0), (3, 1)],
        [(3, 5), (4, 6), (3, 7), (3, 8)],
        [(3, 9), (3, 8), (3, 7), (3, 7), (3, 8)],
        [(_MAX64, 12)],
    ], ids=["index-wraps", "seed-changes", "reversed-and-repeated", "one-stream"])
    @pytest.mark.parametrize("size", [1, 4, 5, 9])
    def test_runs_bit_equal_to_scalar_streams(self, keys, size):
        # a block draw takes each run of consecutive indices under one seed
        # as one counter range; 2**64 - 1 then 0 is not such a run, although
        # the uint64 difference is 1
        scalar = np.array([RngStream(s, i).uniforms(size) for s, i in keys])
        block = block_uniforms([RngStream(s, i) for s, i in keys], size)
        assert np.array_equal(block.view(np.uint64), scalar.view(np.uint64))

    def test_run_longer_than_a_tile(self):
        # a run is drawn in row tiles of 2**14 streams
        rows = [0, 2 ** 14 - 1, 2 ** 14, 2 ** 14 + 1]
        block = block_uniforms([RngStream(8, 100 + i) for i in range(2 ** 14 + 2)], 6)
        scalar = np.array([RngStream(8, 100 + i).uniforms(6) for i in rows])
        assert np.array_equal(block[rows].view(np.uint64), scalar.view(np.uint64))

    def test_size_validation(self):
        for size in (-1, 2.0, None):
            with pytest.raises(DomainError):
                block_uniforms([RngStream(5, 0)], size)
        assert block_uniforms([], 3).shape == (0, 3)
