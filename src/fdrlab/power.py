"""Analytic power of the two-sided, equal-n, two-sample t test.

With n observations per group and a true mean difference of d standard
deviations, the t statistic is noncentral t with 2n-2 degrees of freedom and
noncentrality d*sqrt(n/2); power is the probability it falls outside the
two-sided critical values.
"""

from __future__ import annotations

import bisect
import math
import statistics
import sys

import numpy as np

from .distributions import noncentral_t_cdf, student_t_cdf
from .errors import DomainError, finite, integer_at_least, open_probability, positive

# One float's normal quantile for the starts below: CPython's AS 241 in C,
# with `normal_quantile`'s bits on every input tried, at a hundredth the cost.
_normal_quantile = statistics.NormalDist().inv_cdf

# Newton steps `student_t_quantile` takes at most.
_QUANTILE_STEPS = 60
# A Newton step that fails to halve the last one sees only the t CDF's
# rounding noise (about 1e-10 relative at df ~ 3e5, where the CDF never meets
# q exactly); within this relative distance of q the iteration then stops.
_QUANTILE_NOISE = 1e-8


def _quantile_start(q: float, df: float) -> float:
    """A first guess at the lower-tail quantile: exact at df = 1 and 2, else
    the Cornish-Fisher expansion about the normal quantile."""
    if df == 1.0:
        return -1.0 / math.tan(math.pi * q)
    if df == 2.0:
        return (2.0 * q - 1.0) / math.sqrt(2.0 * q * (1.0 - q))
    z = _normal_quantile(q)
    z2 = z * z
    g1 = (z2 + 1.0) * z / 4.0
    g2 = ((5.0 * z2 + 16.0) * z2 + 3.0) * z / 96.0
    g3 = (((3.0 * z2 + 19.0) * z2 + 17.0) * z2 - 15.0) * z / 384.0
    g4 = ((((79.0 * z2 + 776.0) * z2 + 1482.0) * z2 - 1920.0) * z2 - 945.0) * z / 92160.0
    return z + (g1 + (g2 + (g3 + g4 / df) / df) / df) / df


def student_t_quantile(p: float, df: float) -> float:
    """Quantile of Student's t with `df` degrees of freedom.

    Solves ``student_t_cdf(t, df) = q`` for t < 0 with q = min(p, 1 - p),
    which is exact, and flips the sign for p > 1/2.  The start is the
    Cornish-Fisher expansion (closed forms at df = 1 and 2), kept no further
    out than the tail bound (K/q)^(1/df), where K |t|^-df bounds the CDF from
    above.  Newton steps follow on log F(t) against log|t|, with the
    closed-form t density for the slope, inside a bracket; a step that would
    leave the bracket, or fails to halve the last one, bisects it instead.
    The iteration ends when the step or the bracket has shrunk to a few
    ulps, when Newton has stalled within the CDF's rounding noise of q, or
    after `_QUANTILE_STEPS` steps; ``student_t_cdf`` of the result returns p
    to within that noise (checked to 1e-9 relative to min(p, 1 - p)).
    The result carries ``student_t_cdf``'s error, which grows with df (see
    there): at df = 1e12 the 0.025 quantile comes out -1.9599723720549607,
    4.3e-6 relative from the true -1.959963984540.
    """
    p = open_probability(p, "p")
    df = positive(df, "df")
    if p == 0.5:
        return 0.0
    t = _lower_t_quantile(min(p, 1.0 - p), df)
    return t if p < 0.5 else -t


def _lower_t_quantile(q: float, df: float) -> float:
    log_c = (math.lgamma(0.5 * (df + 1.0)) - math.lgamma(0.5 * df)
             - 0.5 * math.log(df * math.pi))
    # F(t) <= K |t|^-df for t < 0, with K = c df^((df - 1) / 2), so the
    # quantile lies in [lo, hi].  Far out the bound is tight: past the float
    # range it puts the quantile there too, and in range it is doubled to
    # leave a Newton step that lands on it inside the bracket.
    log_k = log_c + 0.5 * (df - 1.0) * math.log(df)
    log_bound = (log_k - math.log(q)) / df
    if log_bound > math.log(sys.float_info.max):
        raise DomainError("quantile out of floating range")
    lo = max(-2.0 * math.exp(log_bound), -sys.float_info.max)
    hi = 0.0
    t = min(max(_quantile_start(q, df), 0.5 * lo), -math.ulp(0.0))
    last_step = math.inf
    for _ in range(_QUANTILE_STEPS):
        cdf = student_t_cdf(t, df)
        if cdf == q:
            return t
        if cdf < q:
            lo = t
        else:
            hi = t
        # Newton on log F(t) against log|t|, which is linear in the
        # power-law tail of t, so that a far start costs one step.  There is
        # no step where F or the density underflows.  Where t * t / df
        # overflows, log1p of it is 2 log|t| - log df to within rounding.
        ratio = t * t / df
        log1p_ratio = (math.log1p(ratio) if ratio < math.inf
                       else 2.0 * math.log(-t) - math.log(df))
        density = math.exp(log_c - 0.5 * (df + 1.0) * log1p_ratio)
        new = math.nan
        if cdf > 0.0 and density > 0.0:
            gain = (math.log(cdf) - math.log(q)) * cdf / (-t * density)
            new = t * math.exp(min(gain, 700.0))
            step = abs(new - t)
            if step <= 4.0 * math.ulp(t):
                return new
            if step > 0.5 * last_step and abs(cdf - q) <= _QUANTILE_NOISE * q:
                return t
        if not (lo < new < hi and abs(new - t) <= 0.5 * last_step):
            # Bisect, on the log scale while the bracket excludes 0.
            new = -math.sqrt(-lo) * math.sqrt(-hi) if hi < 0.0 else 0.5 * lo
        last_step = abs(new - t)
        if hi - lo <= 4.0 * math.ulp(lo):
            return new
        t = new
    return t


def power_two_sample(n_per_group: int, effect_size_d: float, alpha: float = 0.05) -> float:
    """Power of the two-sided pooled t test at the given per-group n.

    `effect_size_d` is the true mean difference in units of the common
    standard deviation; its sign does not matter.  Both tails come from one
    `noncentral_t_cdf` call at -t_crit and t_crit.  t_crit is the quantile
    of alpha / 2 itself, so it does not carry the rounding of 1 - alpha / 2;
    an alpha whose half rounds to 0 raises `DomainError`.
    """
    n = integer_at_least(n_per_group, 2, "n_per_group")
    alpha = open_probability(alpha, "alpha")
    d = finite(effect_size_d, "effect_size_d")
    df = 2 * n - 2
    ncp = d * math.sqrt(n / 2.0)
    t_crit = -student_t_quantile(open_probability(0.5 * alpha, "alpha / 2"), df)
    below, at_crit = noncentral_t_cdf(np.array([-t_crit, t_crit]), df, ncp).tolist()
    return (1.0 - at_crit) + below


# `solve_n` gives up once the required n passes this.
_N_MAX = 2 ** 32


def solve_n(target_power: float, effect_size_d: float, alpha: float = 0.05) -> int:
    """Smallest per-group n with `power_two_sample` at or above the target.

    Starts at the normal approximation n = 2 ((z_{1-alpha/2} + z_power) / d)^2,
    steps away from it by doubling steps until the answer is bracketed, then
    bisects over integers.  A zero effect, a target of 1 or more, or a
    required n above 2**32 raises `DomainError`.
    """
    target = open_probability(target_power, "target power")
    d = finite(effect_size_d, "effect size")
    if d == 0.0:
        raise DomainError("effect size must be nonzero to reach any power")
    alpha = open_probability(alpha, "alpha")
    half_alpha = open_probability(0.5 * alpha, "alpha / 2")  # 0 at alpha = 5e-324

    def reaches(n: int) -> bool:
        return power_two_sample(n, d, alpha) >= target

    z = _normal_quantile(target) - _normal_quantile(half_alpha)
    # min() keeps the square finite; 2 * 2**32 is past _N_MAX anyway.
    ratio = min(max(z, 0.0) / abs(d), 2.0 ** 16)
    n = min(max(math.ceil(2.0 * ratio * ratio), 2), _N_MAX)
    # Bracket the answer, not reaches(lo) and reaches(hi), with steps that
    # double; lo = 1 stands for "n = 2 already reaches the target".
    step = 1
    if reaches(n):
        hi = n
        while True:
            lo = max(hi - step, 1)
            if lo < 2 or not reaches(lo):
                break
            hi = lo
            step *= 2
    else:
        lo = n
        while True:
            if lo == _N_MAX:
                raise DomainError("required sample size is out of range")
            hi = min(lo + step, _N_MAX)
            if reaches(hi):
                break
            lo = hi
            step *= 2
    # Power rises with n, so the answer is the first n in (lo, hi] that
    # reaches the target; hi does, so it is not probed again.
    return lo + 1 + bisect.bisect_left(range(lo + 1, hi), True, key=reaches)
