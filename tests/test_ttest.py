"""Two-sample t test: hand-computed cases, symmetry and equivariance
properties, an exhaustive permutation oracle, and null-uniformity of the
resulting p values.
"""

import itertools
import math

import numpy as np
import pytest
import scipy.stats

from fdrlab.distributions import RngStream, block_uniforms, normal_quantile
from fdrlab.errors import DegenerateDataError, DomainError
from fdrlab.ttest import batch_two_sample_t, significant, two_sample_t
from fdrlab.ttest import TestResult as TResult


def test_identical_groups():
    res = two_sample_t([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
    assert res.t_stat == 0.0
    assert res.p_two_sided == 1.0
    assert res.observed_diff == 0.0


def test_textbook_example():
    # group means 2 and 3, pooled variance 1, se = sqrt(2/3)
    res = two_sample_t([1.0, 2.0, 3.0], [2.0, 3.0, 4.0])
    assert res.observed_diff == pytest.approx(1.0, abs=1e-15)
    assert res.se_diff == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-15)
    assert res.t_stat == pytest.approx(1.0 / math.sqrt(2.0 / 3.0), abs=1e-12)
    assert res.df == 4.0
    # independent p-value oracle
    ref = scipy.stats.ttest_ind([1.0, 2.0, 3.0], [2.0, 3.0, 4.0], equal_var=True)
    assert res.p_two_sided == pytest.approx(ref.pvalue, abs=1e-12)


def test_swap_antisymmetry():
    rng = np.random.default_rng(11)
    x = rng.normal(0.0, 1.0, 9)
    y = rng.normal(0.4, 1.3, 7)
    ab = two_sample_t(x, y)
    ba = two_sample_t(y, x)
    assert ba.t_stat == -ab.t_stat
    assert ba.observed_diff == -ab.observed_diff
    assert ba.p_two_sided == ab.p_two_sided
    assert ba.se_diff == ab.se_diff


def test_location_scale_equivariance():
    rng = np.random.default_rng(5)
    x = rng.normal(size=8)
    y = rng.normal(0.7, 1.0, size=8)
    base = two_sample_t(x, y)

    shifted = two_sample_t(x + 13.25, y + 13.25)
    assert shifted.t_stat == pytest.approx(base.t_stat, abs=1e-9)
    assert shifted.p_two_sided == pytest.approx(base.p_two_sided, abs=1e-9)
    assert shifted.observed_diff == pytest.approx(base.observed_diff, abs=1e-9)

    k = 3.5
    scaled = two_sample_t(k * x, k * y)
    assert scaled.t_stat == pytest.approx(base.t_stat, rel=1e-12)
    assert scaled.p_two_sided == pytest.approx(base.p_two_sided, rel=1e-12)
    assert scaled.observed_diff == pytest.approx(k * base.observed_diff, rel=1e-12)
    assert scaled.se_diff == pytest.approx(k * base.se_diff, rel=1e-12)


# Five fixed datasets spanning strong to absent effects.  With n=4 the
# exhaustive permutation distribution has only 70 atoms, so agreement with
# the t test is coarse by nature; these stay within the 0.05 coupling.
_PERMUTATION_DATASETS = [
    ([-0.06, -1.53, -0.24, -0.47], [3.56, 4.32, 2.29, 4.54]),
    ([-0.68, 1.17, -0.01, 0.13], [1.63, 2.64, 2.05, 1.44]),
    ([-0.95, -0.2, 0.5, -1.52], [2.37, -0.1, 1.89, 1.07]),
    ([-2.6, 0.64, -0.72, 0.45], [-0.21, 1.05, 1.25, 2.15]),
    ([0.43, 0.23, 0.79, 1.03], [0.08, -0.08, 1.85, 0.63]),
]


@pytest.mark.parametrize("group1,group2", _PERMUTATION_DATASETS)
def test_agreement_with_exhaustive_permutation(group1, group2):
    observed = abs(two_sample_t(group1, group2).t_stat)
    pooled = list(group1) + list(group2)
    count = 0
    total = 0
    for idx in itertools.combinations(range(8), 4):
        left = [pooled[i] for i in idx]
        right = [pooled[i] for i in range(8) if i not in idx]
        t = abs(two_sample_t(left, right).t_stat)
        count += t >= observed - 1e-12
        total += 1
    p_perm = count / total
    p_t = two_sample_t(group1, group2).p_two_sided
    assert abs(p_t - p_perm) <= 0.05


def test_null_p_values_uniform():
    # 2000 null experiments drawn as the simulation engine draws them;
    # Kolmogorov-Smirnov against the uniform CDF
    z = normal_quantile(block_uniforms([RngStream(314, i) for i in range(2000)], 10))
    p = np.sort(batch_two_sample_t(z[:, :5], z[:, 5:])[2])
    n = p.size
    d = max(np.max(np.arange(1, n + 1) / n - p), np.max(p - np.arange(0, n) / n))
    assert d < 1.94947 / math.sqrt(n)  # 0.001-significance critical value


def test_batch_matches_scalar_calls():
    rng = np.random.default_rng(21)
    x = rng.normal(0.0, 1.0, (6, 5))
    y = rng.normal(0.5, 1.0, (6, 5))
    t, df, p, diff, se = batch_two_sample_t(x, y)
    for i in range(6):
        res = two_sample_t(x[i], y[i])
        assert res.t_stat == pytest.approx(t[i], rel=1e-13)
        assert res.p_two_sided == pytest.approx(p[i], rel=1e-12)
        assert res.observed_diff == diff[i]
        assert res.se_diff == pytest.approx(se[i], rel=1e-13)
        assert res.df == df


def test_degenerate_and_domain_errors():
    with pytest.raises(DegenerateDataError):
        two_sample_t([1.0, 1.0, 1.0], [1.0, 1.0])
    with pytest.raises(DomainError):
        two_sample_t([1.0], [1.0, 2.0])
    with pytest.raises(DomainError):
        two_sample_t([1.0, math.nan], [1.0, 2.0])
    with pytest.raises(DomainError):
        two_sample_t([[1.0, 2.0]], [1.0, 2.0])
    # the batch form takes two 2-d arrays with one row per experiment
    rows = np.arange(12.0).reshape(3, 4)
    for group1, group2 in ((rows[0], rows[1]), (rows, rows[:2]), (rows, rows[0]),
                           (rows[None], rows[None])):
        with pytest.raises(DomainError):
            batch_two_sample_t(group1, group2)


class TestSignificant:
    def test_boundary_is_inclusive(self):
        res = TResult(t_stat=2.0, df=10.0, p_two_sided=0.05,
                         observed_diff=1.0, se_diff=0.5)
        assert significant(res, 0.05) is True

    def test_strict_exceedance(self):
        res = TResult(t_stat=2.0, df=10.0, p_two_sided=0.050001,
                         observed_diff=1.0, se_diff=0.5)
        assert significant(res, 0.05) is False

    def test_p_equal_one(self):
        res = TResult(t_stat=0.0, df=10.0, p_two_sided=1.0,
                         observed_diff=0.0, se_diff=0.5)
        assert significant(res, 0.999) is False

    def test_alpha_domain(self):
        res = TResult(t_stat=0.0, df=10.0, p_two_sided=1.0,
                         observed_diff=0.0, se_diff=0.5)
        for bad in (0.0, 1.0, -1.0):
            with pytest.raises(DomainError):
                significant(res, bad)
