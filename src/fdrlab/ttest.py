"""Two-sample Student t test with pooled variance, two sided.

`two_sample_t` handles one pair of samples; `batch_two_sample_t` runs the
same arithmetic over whole matrices of experiments at once and is what the
simulation engine uses, so simulated and individually computed tests share
one code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import Arena, regularized_incomplete_beta
from .errors import DegenerateDataError, DomainError, open_probability

# Smallest positive p value ever reported; keeps p strictly above zero even
# for absurdly large t statistics.
_P_FLOOR = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class TestResult:
    """Outcome of one two-sample t test.

    `observed_diff` is mean(group2) - mean(group1); `se_diff` is the pooled
    standard error of that difference; `p_two_sided` is 1.0 exactly when the
    t statistic is zero and is never 0.
    """

    t_stat: float
    df: float
    p_two_sided: float
    observed_diff: float
    se_diff: float


def _as_sample(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise DomainError(f"{name} must be one-dimensional")
    if arr.size < 2:
        raise DomainError(f"{name} needs at least two observations")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} contains non-finite values")
    return arr


def two_sample_t(group1, group2) -> TestResult:
    """Pooled-variance two-sample t test of mean(group2) - mean(group1).

    Raises `DegenerateDataError` when every observation in both groups is
    identical (the pooled variance is zero and no t statistic exists).
    """
    x = _as_sample(group1, "group1")
    y = _as_sample(group2, "group2")
    t, df, p, diff, se = batch_two_sample_t(x[None, :], y[None, :])
    return TestResult(float(t[0]), float(df), float(p[0]),
                      float(diff[0]), float(se[0]))


def batch_two_sample_t(group1: np.ndarray, group2: np.ndarray, *,
                       arena: Arena | None = None):
    """Row-wise pooled t tests over matrices of shape (m, n1) and (m, n2).

    Returns arrays ``(t_stat, df, p_two_sided, observed_diff, se_diff)``
    where df is a shared scalar.  Inputs that are not both 2-d with equal
    row counts raise `DomainError`; rows with zero pooled variance raise
    `DegenerateDataError`.  `arena` supplies the (m, n) scratch arrays.
    """
    x = np.asarray(group1, dtype=np.float64)
    y = np.asarray(group2, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or len(x) != len(y):
        raise DomainError("group1 and group2 must be 2-d with the same number of rows")
    n1 = x.shape[1]
    n2 = y.shape[1]
    if n1 < 2 or n2 < 2:
        raise DomainError("each group needs at least two observations")
    df = n1 + n2 - 2
    arena = Arena() if arena is None else arena

    mean1 = x.mean(axis=1)
    mean2 = y.mean(axis=1)
    ss1 = _sum_sq_dev(x, mean1, arena)
    ss2 = _sum_sq_dev(y, mean2, arena)
    pooled_var = (ss1 + ss2) / df
    if np.any(pooled_var <= 0.0):
        raise DegenerateDataError(
            "zero pooled variance: all observations are identical"
        )

    se = np.sqrt(pooled_var * (1.0 / n1 + 1.0 / n2))
    diff = mean2 - mean1
    t = diff / se
    # Two-sided p by the incomplete-beta identity, algebraically equal to
    # 2 * (1 - student_t_cdf(|t|, df)) but evaluated in one stable step.
    p = np.asarray(regularized_incomplete_beta(0.5 * df, 0.5, df / (df + t * t)))
    np.maximum(p, _P_FLOOR, out=p)
    return t, float(df), p, diff, se


def _sum_sq_dev(x: np.ndarray, mean: np.ndarray, arena: Arena) -> np.ndarray:
    """Row sums of (x - mean)**2, the deviations squared in scratch."""
    with arena:
        dev = np.subtract(x, mean[:, None], out=arena.take(x.shape))
        return np.multiply(dev, dev, out=dev).sum(axis=1)


def significant(result: TestResult, alpha: float) -> bool:
    """True when the test's p value is at or below `alpha` (inclusive)."""
    return result.p_two_sided <= open_probability(alpha, "alpha")
