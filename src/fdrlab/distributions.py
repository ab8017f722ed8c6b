"""Special functions and seeded normal sampling.

Everything numeric is implemented here directly so that the behaviour of the
package is pinned by this one file: a rational erfc (Cody's approximation),
Wichura's AS 241 normal quantile (one path, for a float as for an array;
`power` takes its float starting quantiles from `statistics.NormalDist`,
the same algorithm in C), the regularized incomplete beta, the central
Student t CDF through it (one value at a time), and the noncentral t CDF
as Phi(t*W - ncp) integrated on one Gauss-Legendre rule over log W,
W = sqrt(chi2_df / df): `_log_w_rule` is the one place the law of W is
written, and it serves any other E[g(W)] as well.  The CDF takes one rule
per distinct |t|, which gives the CDF at -|t| and |t| together.  The
incomplete beta runs a Lentz continued fraction in numpy for an array and
in `math` floats for one value, but forms its front factor with numpy's
ufuncs for both, so a float has an array element's bits everywhere.  Its
log beta is a Stirling difference at large parameters; at b = 1/2 and an
integer a <= 64 (the t test's even df) a finite sum by Horner gives every
value of at least 1e-3.

All distribution functions accept a float or a numpy array and return the
matching kind.  Random draws come from `RngStream`, a counter-based
substream of numpy's Philox4x64-10: stream (master_seed, i) takes block b
from the counter i + 2**64 * b + 1 under the key (master_seed, 0), so the
same pair always yields the same sequence, on any platform and under any
threading.  Block b of consecutive streams is one counter range, and
`block_uniforms` draws the first uniforms of many streams with one numpy
call per block column, bit for bit, leaving the streams untouched.  It and
`normal_quantile` take their scratch one row tile of about 2**16 elements
at a time, so they hold a few MiB of it however many uniforms there are;
the quantile gathers a tile's tails and writes them back by flat index.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (DomainError, FdrLabError, finite, integer_at_least,
                     positive, probability, uint64_value)

_SQRT2 = math.sqrt(2.0)
_SQRT_HALF = math.sqrt(0.5)
_INV_SQRT_PI = 5.6418958354775628695e-1

# Half-width of the open-interval uniform lattice (2k+1)/2**54.
_U_SHIFT = 2.0 ** -54
_U_MAX = 1.0 - 2.0 ** -53


def _asarray_checked(x, name: str) -> np.ndarray:
    """`x` as a float64 ndarray, 0-d for a float or a 0-d input; a
    non-finite entry raises ``DomainError``."""
    arr = np.asarray(x, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise DomainError(f"{name} must be finite")
    return arr


def _ret(arr: np.ndarray):
    """`arr` as a float if it is 0-d (as a float or 0-d input makes it),
    else `arr` itself."""
    return float(arr) if np.ndim(arr) == 0 else arr


# Elements per pass of a kernel over a large array, so that a pass's scratch
# arrays stay in a core's cache.
_TILE = 2 ** 16


def _row_tiles(shape: tuple, tile: int = _TILE):
    """Index expressions that cut an array of `shape` along its first axis
    into tiles of about `tile` elements, each at least one row; none for an
    empty array."""
    if not shape:
        yield ...
        return
    if not math.prod(shape):
        return
    step = max(1, tile // math.prod(shape[1:]))
    for start in range(0, shape[0], step):
        yield slice(start, start + step)


def _horner(coeffs, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(...((c0*x + c1)*x + c2)...)*x + c_last into `out` (a new array if
    None), step by step."""
    out = np.empty_like(x) if out is None else out
    np.multiply(x, coeffs[0], out=out)
    for c in coeffs[1:-1]:
        out += c
        out *= x
    out += coeffs[-1]
    return out


# ---------------------------------------------------------------------------
# erfc: W. J. Cody's rational Chebyshev approximation (netlib CALERF layout),
# accurate to a few ulps over the whole double range.  Coefficients are in
# Horner order, highest power first; a leading 1.0 makes the first step of a
# denominator exact.
# ---------------------------------------------------------------------------

_ERF_NUM = (1.85777706184603153e-1, 3.16112374387056560e0,
            1.13864154151050156e2, 3.77485237685302021e2,
            3.20937758913846947e3)
_ERF_DEN = (1.0, 2.36012909523441209e1, 2.44024637934444173e2,
            1.28261652607737228e3, 2.84423683343917062e3)

_ERFC_NUM = (2.15311535474403846e-8, 5.64188496988670089e-1,
             8.88314979438837594e0, 6.61191906371416295e1,
             2.98635138197400131e2, 8.81952221241769090e2,
             1.71204761263407058e3, 2.05107837782607147e3,
             1.23033935479799725e3)
_ERFC_DEN = (1.0, 1.57449261107098347e1, 1.17693950891312499e2,
             5.37181101862009858e2, 1.62138957456669019e3,
             3.29079923573345963e3, 4.36261909014324716e3,
             3.43936767414372164e3, 1.23033935480374942e3)

_ERFC_TAIL_NUM = (1.63153871373020978e-2, 3.05326634961232344e-1,
                  3.60344899949804439e-1, 1.25781726111229246e-1,
                  1.60837851487422766e-2, 6.58749161529837803e-4)
_ERFC_TAIL_DEN = (1.0, 2.56852019228982242e0, 1.87295284992346047e0,
                  5.27905102951428412e-1, 6.05183413124413191e-2,
                  2.33520497626869185e-3)

_ERFC_LOW_MAX = 0.46875
_ERFC_MID_MAX = 4.0


def _erfc(x: np.ndarray) -> np.ndarray:
    """Complementary error function, |rel err| ~ few ulps, for `normal_cdf`
    and the noncentral t quadrature; x = +-inf gives 0 or 2.

    y = |x| falls in three regions, y <= 0.46875, 0.46875 < y <= 4 and
    y > 4.  Each region's elements are gathered, and only that region's
    formula runs on them; then x < 0 takes erfc(x) = 2 - erfc(-x).
    """
    # erfc(y) < 5e-324 for y > 27.3; clamp to avoid pointless overflow warnings
    y = np.minimum(np.abs(x), 30.0)
    low = y <= _ERFC_LOW_MAX
    high = y > _ERFC_MID_MAX
    out = np.empty_like(y)
    for region, formula in ((low, _erfc_small_y), (~(low | high), _erfc_medium_y),
                            (high, _erfc_large_y)):
        if region.any():
            out[region] = formula(y[region])
    return np.subtract(2.0, out, out=out, where=x < 0.0)


def _erfc_small_y(y: np.ndarray) -> np.ndarray:
    """1 - erf(y) for y <= 0.46875, erf(y) a rational in y**2 times y."""
    z = y * y
    return 1.0 - _horner(_ERF_NUM, z) * y / _horner(_ERF_DEN, z)


def _erfc_medium_y(y: np.ndarray) -> np.ndarray:
    """erfc(y) for 0.46875 < y <= 4: a rational in y times exp(-y**2)."""
    return _horner(_ERFC_NUM, y) / _horner(_ERFC_DEN, y) * _exp_neg_sq(y)


def _erfc_large_y(y: np.ndarray) -> np.ndarray:
    """erfc(y) for y > 4: exp(-y**2) / y times 1/sqrt(pi) less a rational
    in 1/y**2."""
    z = 1.0 / (y * y)
    ratio = z * _horner(_ERFC_TAIL_NUM, z) / _horner(_ERFC_TAIL_DEN, z)
    return _exp_neg_sq(y) * (_INV_SQRT_PI - ratio) / y


def _exp_neg_sq(y: np.ndarray) -> np.ndarray:
    # exp(-y*y) with the argument split on a 1/16 lattice, which keeps the
    # relative error of the product small deep in the tail (CALERF trick).
    ysq = np.floor(y * 16.0) / 16.0
    return np.exp(-ysq * ysq) * np.exp(-(y - ysq) * (y + ysq))


def normal_cdf(x):
    """Standard normal CDF, absolute error well below 1e-12, as
    0.5 * erfc(-x / sqrt(2)) (see `_erfc`).

    Accepts a float or an ndarray; non-finite input raises ``DomainError``.
    """
    return _ret(0.5 * _erfc(-_asarray_checked(x, "x") / _SQRT2))


# Wichura's AS 241, PPND16 (Appl. Statist. 37:477-484, 1988): three rational
# functions of degree 7 over 7, relative error about 1e-16.  Coefficients are
# in Horner order, highest power first.  The central one takes
# r = 0.180625 - q^2 for |q| = |p - 1/2| <= 0.425; the two tails take
# r = sqrt(-log(min(p, 1 - p))), shifted by 1.6 up to r = 5 and by 5 past it.
_AS241_A = (2.5090809287301226727e+3, 3.3430575583588128105e+4,
            6.7265770927008700853e+4, 4.5921953931549871457e+4,
            1.3731693765509461125e+4, 1.9715909503065514427e+3,
            1.3314166789178437745e+2, 3.3871328727963666080e+0)
_AS241_B = (5.2264952788528545610e+3, 2.8729085735721942674e+4,
            3.9307895800092710610e+4, 2.1213794301586595867e+4,
            5.3941960214247511077e+3, 6.8718700749205790830e+2,
            4.2313330701600911252e+1, 1.0)
_AS241_C = (7.74545014278341407640e-4, 2.27238449892691845833e-2,
            2.41780725177450611770e-1, 1.27045825245236838258e+0,
            3.64784832476320460504e+0, 5.76949722146069140550e+0,
            4.63033784615654529590e+0, 1.42343711074968357734e+0)
_AS241_D = (1.05075007164441684324e-9, 5.47593808499534494600e-4,
            1.51986665636164571966e-2, 1.48103976427480074590e-1,
            6.89767334985100004550e-1, 1.67638483018380384940e+0,
            2.05319162663775882187e+0, 1.0)
_AS241_E = (2.01033439929228813265e-7, 2.71155556874348757815e-5,
            1.24266094738807843860e-3, 2.65321895265761230930e-2,
            2.96560571828504891230e-1, 1.78482653991729133580e+0,
            5.46378491116411436990e+0, 6.65790464350110377720e+0)
_AS241_F = (2.04426310338993978564e-15, 1.42151175831644588870e-7,
            1.84631831751005468180e-5, 7.86869131145613259100e-4,
            1.48753612908506148525e-2, 1.36929880922735805310e-1,
            5.99832206555887937690e-1, 1.0)
_AS241_Q_CENTRAL = 0.425
_AS241_R_CENTRAL = 0.180625         # 0.425^2
_AS241_R_MID = 1.6
_AS241_R_FAR = 5.0


def _as241(p: np.ndarray, out: np.ndarray) -> np.ndarray:
    """AS 241 into `out`, which may be `p` itself: the central formula over
    every element, then the tails, gathered by flat (C-order) index with
    `take` and written back with `put`; on a tile these cost a fraction of
    a 2-D boolean mask's gather and scatter.  Every tail `p` is read before
    `out` is written.  The steps run in place over two scratch arrays of
    `p`'s shape, whose `out=` also keeps them arrays for a 0-d `p`."""
    q = np.subtract(p, 0.5, out=np.empty_like(p))
    scratch = np.abs(q, out=np.empty_like(p))
    tail = np.flatnonzero(scratch > _AS241_Q_CENTRAL)
    # the tails need q and s = min(p, 1 - p), where 1 - p is 0.5 - q
    # exactly for p > 1/2; with no p in a tail, the gathers are empty
    q_tail = q.take(tail)
    s_tail = np.minimum(p.take(tail), 0.5 - q_tail)
    r = np.multiply(q, q, out=scratch)
    np.subtract(_AS241_R_CENTRAL, r, out=r)
    num = _horner(_AS241_A, r)
    num *= q
    np.divide(num, _horner(_AS241_B, r, q), out=out)
    x_tail = _as241_tail(s_tail)
    np.negative(x_tail, out=x_tail, where=q_tail < 0.0)
    out.put(tail, x_tail)
    return out


def _as241_tail(s: np.ndarray) -> np.ndarray:
    """The tail formulas at s = min(p, 1 - p) < 0.075, as |x|; `s` is
    overwritten."""
    r = np.log(s, out=s)
    np.negative(r, out=r)
    np.sqrt(r, out=r)
    shifted = r - _AS241_R_MID
    x = _horner(_AS241_C, shifted)
    x /= _horner(_AS241_D, shifted)
    if r.max(initial=0.0) > _AS241_R_FAR:  # `s` may be empty
        # p below about 1.4e-11: rare among simulated draws, so gathered
        far = r > _AS241_R_FAR
        rf = r[far] - _AS241_R_FAR
        x[far] = _horner(_AS241_E, rf) / _horner(_AS241_F, rf)
    return x


def normal_quantile(p, *, out=None):
    """Inverse of `normal_cdf` on (0, 1).

    Wichura's AS 241 (PPND16), whose relative error is below 1e-15 over
    all of (0, 1), 5e-324 included: at most 5.6e-16 against an mpmath
    Newton solve on the test suite's inputs.  ``normal_quantile(1 - p) ==
    -normal_quantile(p)`` holds exactly for p in [0.5, 0.75] and
    [0.925, 1), where both sides form the same r.

    `out` receives the result and may be `p` itself.  An array is taken in
    row tiles of about 2**16 elements, so the scratch numpy allocates for
    it stays a few tiles in size; each tile's tails (|p - 1/2| > 0.425) are
    gathered and written back by flat index.  A float takes the same path;
    for one float, ``statistics.NormalDist().inv_cdf`` is the same AS 241
    in C.
    """
    arr = np.asarray(p, dtype=np.float64)
    # min and max are NaN when any entry is, so NaN fails this test too
    if arr.size and not (0.0 < arr.min() and arr.max() < 1.0):
        _asarray_checked(arr, "p")
        raise DomainError("p must lie strictly inside (0, 1)")
    out = np.empty_like(arr) if out is None else out
    for rows in _row_tiles(arr.shape):
        _as241(arr[rows], out[rows])
    return _ret(out)


# ---------------------------------------------------------------------------
# Regularized incomplete beta and the Student t CDFs built on it.
# ---------------------------------------------------------------------------

_CF_MAX_ITER = 500
_CF_EPS = 3.0e-15
_CF_FPMIN = 1.0e-300


def _betacf(a: float, b: float, x):
    """Continued fraction of I_x(a, b) by modified Lentz, for a float `x` in
    `math` floats or for an array `x` elementwise.

    The fraction stops at the first step whose factor is within `_CF_EPS`
    of 1.  An array element keeps its h from that step, and the loop ends
    once every element has stopped, so each element gets the float's bits.
    """
    scalar = isinstance(x, float)
    guard = _cf_guard_float if scalar else _cf_guard_array
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 / guard(1.0 - qab * x / qap)
    h = d
    if not scalar:
        out = np.empty_like(x)
        running = np.ones(x.shape, dtype=bool)
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 / guard(1.0 + aa * d)
        c = guard(1.0 + aa / c)
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 / guard(1.0 + aa * d)
        c = guard(1.0 + aa / c)
        delta = d * c
        h *= delta
        stop = abs(delta - 1.0) < _CF_EPS
        if scalar:
            if stop:
                return h
        else:
            stop &= running
            np.copyto(out, h, where=stop)
            running ^= stop
            if not running.any():
                return out
    raise FdrLabError(
        f"incomplete beta continued fraction did not converge (a={a}, b={b})"
    )


def _cf_guard_float(v: float) -> float:
    """`v`, or `_CF_FPMIN` if |v| is below it: Lentz's guard against 0."""
    return v if abs(v) >= _CF_FPMIN else _CF_FPMIN


def _cf_guard_array(v: np.ndarray) -> np.ndarray:
    """`_cf_guard_float` elementwise, in place."""
    np.copyto(v, _CF_FPMIN, where=np.abs(v) < _CF_FPMIN)
    return v


# log B(a, b) as lgamma(a) + lgamma(b) - lgamma(a + b) loses the digits of
# lgamma's size: 9e-11 at a = 156978, b = 1/2.  From this max(a, b) on, the
# difference of the large argument's two lgamma terms is a Stirling-series
# difference instead (DiDonato and Morris, ACM TOMS 18:360, 1992, `algdiv`),
# whose series needs the large argument >= 8.  Checked against mpmath over
# a in [0.5, 1e7] with b in {0.5, 1, 8}: exp(-lbeta) within 9e-15 relative
# on this side, and within 3.5e-15 by the direct sum below it.
_LBETA_STIRLING_MIN = 8.0
# Coefficients of the Stirling remainder in powers of 1/z^2 (algdiv's c0..c5,
# fitted for z >= 8).
_STIRLING_C0, _STIRLING_C1, _STIRLING_C2 = (
    .833333333333333e-01, -.277777777760991e-02, .793650666825390e-03)
_STIRLING_C3, _STIRLING_C4, _STIRLING_C5 = (
    -.595202931351870e-03, .837308034031215e-03, -.165322962780713e-02)
# log 2 in two parts, the first with trailing zero bits so that k * _LN2_HI
# is exact for any exponent k.
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10


def _lbeta(a: float, b: float) -> float:
    """log B(a, b) for a, b > 0, in `math` floats."""
    small, large = (a, b) if a <= b else (b, a)
    if large < _LBETA_STIRLING_MIN:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    # lgamma(large) - lgamma(large + small) = w - u - small * (log(large) - 1),
    # with u = (large + small - 1/2) * log1p(small / large) and w the
    # difference of the Stirling remainders, sum_k c_k (1 - x^(2k+1)) / large^(2k+1)
    # at x = large / (large + small), via 1 - x^n = (1 - x) * s_n and
    # s_n = 1 + x + ... + x^(n-1).
    h = small / large
    x = 1.0 / (1.0 + h)
    x2 = x * x
    s3 = 1.0 + (x + x2)
    s5 = 1.0 + (x + x2 * s3)
    s7 = 1.0 + (x + x2 * s5)
    s9 = 1.0 + (x + x2 * s7)
    s11 = 1.0 + (x + x2 * s9)
    t = (1.0 / large) ** 2
    w = (((((_STIRLING_C5 * s11 * t + _STIRLING_C4 * s9) * t + _STIRLING_C3 * s7) * t
           + _STIRLING_C2 * s5) * t + _STIRLING_C1 * s3) * t + _STIRLING_C0)
    w *= (h / (1.0 + h)) / large
    u = (large + (small - 0.5)) * math.log1p(h)
    # log(large) = k log 2 + log(m), m in [1/sqrt(2), sqrt(2)), so that
    # small * log(large) keeps its digits when small is a short binary number
    m, k = math.frexp(large)
    if m < _SQRT_HALF:
        m, k = 2.0 * m, k - 1
    return math.fsum((math.lgamma(small), w, -u, -small * k * _LN2_HI,
                      -small * k * _LN2_LO, -small * math.log(m), small))


# For b = 1/2 and an integer a, I_x(a, 1/2) = 1 - sqrt(1 - x) * S(x) with
# S(x) = sum_{k<a} c_k x^k and c_k = (1/2)_k / k! = C(2k, k) / 4^k, a
# finite sum (Abramowitz and Stegun 26.7.3-4 for even df).  Below _SUM_MIN
# the difference cancels, and the continued fraction runs instead.  Up to
# _SUM_A_MAX terms the sum costs a sixth of the fraction or less, as a float
# and over an array, and its absolute error stays below 4e-16.
_SUM_A_MAX = 64
_SUM_MIN = 1e-3
# c_{_SUM_A_MAX - 1}, ..., c_1, c_0: Horner order, each correctly rounded.
_SUM_COEFFS = tuple(math.comb(2 * k, k) / 4 ** k for k in range(_SUM_A_MAX - 1, -1, -1))


def regularized_incomplete_beta(a, b, x):
    """Regularized incomplete beta I_x(a, b) for scalar a, b > 0.

    `x` may be a float or an array with entries in [0, 1]; the result has
    absolute error below 1e-10 (in practice a few 1e-15).  For b = 1/2 and
    an integer a up to `_SUM_A_MAX`, every value is within 1e-15 absolute
    and 5e-13 relative of the exact one: a finite sum gives each value of
    at least `_SUM_MIN`, and the continued fraction the rest.  A float `x`
    takes a path in `math` floats, free of most of numpy's per-call
    overhead, and gets an array element's bits.
    """
    a = positive(a, "a")
    b = positive(b, "b")
    # the finite sum's number of terms, or 0 where only the fraction serves
    terms = int(a) if b == 0.5 and a <= _SUM_A_MAX and a.is_integer() else 0
    if np.ndim(x) == 0:
        return _betainc_scalar(a, b, probability(x, "x"), terms)
    arr = _asarray_checked(x, "x")
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise DomainError("x must lie in [0, 1]")
    if not terms:
        return _betainc_fraction(a, b, arr)
    out = _half_sum(terms, arr)
    rest = out < _SUM_MIN
    out[rest] = _betainc_fraction(a, b, arr[rest])
    return out


def _front_factor(a: float, b: float, x):
    """x^a (1 - x)^b / B(a, b) by numpy's ufuncs, whose scalar and array
    loops round alike (libm's do not), for a float or an array `x`."""
    return np.exp(a * np.log(x) + b * np.log1p(-x) - _lbeta(a, b))


def _betainc_fraction(a: float, b: float, arr: np.ndarray) -> np.ndarray:
    """I_x(a, b) over an array by the continued fraction."""
    # the front factor is exp(-inf) = 0 at x = 0 and 1: the formula gives 0, 1
    with np.errstate(divide="ignore"):
        front = _front_factor(a, b, arr)
    out = np.empty_like(arr)
    direct = arr < (a + 1.0) / (a + b + 2.0)
    out[direct] = front[direct] * _betacf(a, b, arr[direct]) / a
    comp = ~direct
    out[comp] = 1.0 - front[comp] * _betacf(b, a, 1.0 - arr[comp]) / b
    return np.clip(out, 0.0, 1.0, out=out)


def _betainc_scalar(a: float, b: float, x: float, terms: int) -> float:
    if x == 0.0 or x == 1.0:
        return x
    if terms:
        res = _half_sum(terms, x)
        if res >= _SUM_MIN:
            return res
    front = float(_front_factor(a, b, x))
    if x < (a + 1.0) / (a + b + 2.0):
        res = front * _betacf(a, b, x) / a
    else:
        res = 1.0 - front * _betacf(b, a, 1.0 - x) / b
    return min(1.0, max(0.0, res))


def _half_sum(terms: int, x):
    """1 - sqrt(1 - x) * S(x) over S's first `terms` terms, for a float `x`
    in `math` floats or for an array `x` elementwise.  Both take the same
    steps in the same order, so each element gets the float's bits."""
    coeffs = _SUM_COEFFS[_SUM_A_MAX - terms:]
    if isinstance(x, float):
        s = coeffs[0]
        for c in coeffs[1:]:
            s = s * x + c
        return 1.0 - math.sqrt(1.0 - x) * s
    s = np.full_like(x, coeffs[0])
    for c in coeffs[1:]:
        s *= x
        s += c
    s *= np.sqrt(1.0 - x)
    return np.subtract(1.0, s, out=s)


def student_t_cdf(t, df):
    """CDF of Student's t with `df` degrees of freedom.

    Symmetric, cdf(-t) = 1 - cdf(t) to within one rounding.  The tail is
    evaluated for one float, in `math` floats; an array `t` takes that path
    once per element and keeps its shape.  That costs 1.0-2.3 ms for 100
    elements and 10-22 ms for 1000 (df = 4, 30 and 313956; 2-vCPU Xeon,
    Python 3.11), several times what one vectorised pass over 1000 would;
    the package passes one value, or two from `noncentral_t_cdf` at
    ncp = 0.

    Accuracy, relative to the lower tail at the exact t (mpmath): for
    t^2 >= 3 the incomplete beta is given the rounded x = df / (df + t^2),
    so the error grows with df, up to max(6e-14, 2.5e-16 * df): 4.1e-12 at
    df = 1e5, 6.4e-9 at 1e8, 1.4e-6 at 1e10, 1.8e-4 at 1e12 and 2.5e-2 at
    1e14 (t from -1.8 to -30).  For t^2 < 3 it stays within 1.3e-14 up to
    df = 1e17.  Past |t| = 1.34e154, where t^2 overflows, the tail is the
    first term of its series in x = df / t^2 < 1e-308, taken in logs, so it
    does not read 0 where it is still a double (below df = 2, and at df = 2
    up to |t| of about 1e162): within 1.5e-13 over df = 0.5 to 2.5 and |t|
    up to 1.7e308.
    """
    df = positive(df, "df")
    if np.ndim(t) != 0:
        arr = np.asarray(t, dtype=np.float64)
        return np.array([student_t_cdf(v, df) for v in arr.ravel().tolist()]).reshape(arr.shape)
    # P(T <= -|t|) = I_x(df/2, 1/2) / 2 at x = df / (df + t^2).  For t^2 < 3
    # it is 1/2 - I_y(1/2, df/2) / 2 at y = t^2 / (df + t^2) instead: there
    # x is near 1, and the 1 - x the incomplete beta would form loses the
    # digits of y.  Past |t| = 1.34e154, t * t overflows, and x < 1e-308
    # would read 0; there the series' first term, x^a / (a B(a, 1/2)) with
    # a = df/2, gives the tail in logs, to O(x) relative.
    t = finite(t, "t")
    tt = t * t
    if tt < 3.0:
        tail_half = 0.5 - 0.5 * regularized_incomplete_beta(0.5, 0.5 * df, tt / (df + tt))
    elif tt < math.inf:
        tail_half = 0.5 * regularized_incomplete_beta(0.5 * df, 0.5, df / (df + tt))
    else:
        a = 0.5 * df
        tail_half = 0.5 * math.exp(a * (math.log(df) - 2.0 * math.log(abs(t)))
                                   - math.log(a) - _lbeta(a, 0.5))
    return 1.0 - tail_half if t > 0.0 else tail_half


def noncentral_t_cdf(t, df, ncp):
    """CDF of the noncentral t distribution; `t` may be a float or an array.

    P(T <= t) = E[Phi(t*W - ncp)] with W = sqrt(chi2_df / df): Phi
    integrated on the one log-W rule, `_log_w_rule`, with extra panel edges
    around the step of Phi (see `_nct_cdf_quadrature`).  The integrand is
    used as it stands for either sign of t, so a tiny lower-tail
    probability is not the rounding residue of 1 - P(T > t).  Absolute
    error is below 1e-8: that is checked against an mpmath oracle for df
    from 1 to 313956, |ncp| up to 200 and t on both sides of the step,
    t = 0 included.

    A value's result depends on its own (t, df, ncp) alone, so an array
    element gets the float's bits.  A call integrates once per distinct
    |t|, on one panel set that gives -|t| and |t| together: the pair
    (-t_crit, t_crit) that `power_two_sample` passes costs one quadrature.
    One float integrates that pair too, which takes about 45% longer than a
    quadrature of the value alone (180 against 125 us at df = 30; 2-vCPU
    Xeon, Python 3.11); no caller in the package passes one float.
    """
    df = positive(df, "df")
    ncp = finite(ncp, "ncp")
    arr = _asarray_checked(t, "t")
    if ncp == 0.0:
        return student_t_cdf(t, df)
    # one quadrature per distinct |t| gives the pair (-|t|, |t|)
    flat = arr.ravel().tolist()
    pairs = {a: _nct_cdf_quadrature(a, df, ncp).tolist() for a in set(map(abs, flat))}
    return _ret(np.array([pairs[abs(v)][v > 0.0] for v in flat]).reshape(arr.shape))


def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the Gauss-Legendre rule on [-1, 1].

    Newton's method on the three-term Legendre recurrence, from the
    Tricomi-style start cos(pi (k - 1/4) / (order + 1/2)); the nodes agree
    with numpy's `leggauss` to a few 1e-15 without importing
    `numpy.polynomial`.
    """
    x = np.cos(np.pi * (np.arange(1, order // 2 + 1) - 0.25) / (order + 0.5))
    for _ in range(100):
        p_prev, p = np.ones_like(x), x
        for j in range(2, order + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        slope = order * (x * p - p_prev) / (x * x - 1.0)
        step = p / slope
        x = x - step
        if np.max(np.abs(step)) < 1e-15:
            break
    weights = 2.0 / ((1.0 - x * x) * slope * slope)
    return np.concatenate((-x, x[::-1])), np.concatenate((weights, weights[::-1]))


# The density of Y = log W is proportional to exp(h(y)) with
# h(y) = df * (y - (e^{2y} - 1) / 2): its peak is h(0) = 0 for every df and
# its curvature there is -2 df.  The quadrature window ends where h falls to
# -_NCT_DROP, which leaves out less than 1e-17 of the mass.
_NCT_DROP = 40.0
_NCT_PANELS = 24
# Offsets, in units of 1/t on the W scale, of the extra panel edges placed
# around the step of Phi(t*W - delta) at W = delta/t.
_NCT_STEP_EDGES = np.array([-16.0, -4.0, -1.0, 0.0, 1.0, 4.0, 16.0])
# Nodes and weights of each panel's 48-point rule, built once at import.
_NCT_NODES, _NCT_WEIGHTS = _gauss_legendre(48)


def _log_w_rule(df: float, step_w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes y = log W, W = sqrt(chi2_df / df), and their unnormalised
    masses: E[g(W)] is ``g(np.exp(y)) @ mass / mass.sum()``.

    A composite Gauss-Legendre rule over the window where h(y) >=
    -_NCT_DROP: _NCT_PANELS equal panels of the 48-point rule, with extra
    panel edges at those positive W of `step_w` whose log falls inside the
    window, where g has a step to resolve.  In y the density has the same
    shape for every df, with no singularity at W = 0 when df < 1.  The
    masses carry neither the density's constant nor the mass outside the
    window, so a caller normalises by their sum.

    The window is centred on the density, not on g, so a g that grows
    where the density has fallen below e^-40 of its peak loses that mass:
    E[1/W] comes out 1.3e-6 relative short at df = 1.5, 1.4e-9 at df = 2
    and 1.4e-12 at df = 3, and is within 6e-15 from df = 5 up.
    """
    # h(y) <= -0.5677 df y^2 on [-1, 0], and h(y) <= df (y + 1/2) below it.
    lo = -math.sqrt(_NCT_DROP / (0.56 * df))
    if lo < -1.0:
        lo = -_NCT_DROP / df - 0.5
    # h(y) <= -df y^2 for y > 0; for df <= 2 D, with D = _NCT_DROP, also
    # h(log1p(2 D / df)) <= -D.
    hi = math.sqrt(_NCT_DROP / df)
    if df <= 2.0 * _NCT_DROP:
        hi = min(hi, math.log1p(2.0 * _NCT_DROP / df))
    steps = np.log(step_w[step_w > 0.0])
    # A repeated edge makes a panel of width 0, which weighs nothing.
    edges = np.sort(np.concatenate((np.linspace(lo, hi, _NCT_PANELS + 1),
                                    steps[(steps > lo) & (steps < hi)])))
    half = 0.5 * np.diff(edges)[:, None]
    y = (half * _NCT_NODES + (edges[:-1, None] + half)).ravel()
    return y, (half * _NCT_WEIGHTS).ravel() * np.exp(df * (y - 0.5 * np.expm1(2.0 * y)))


def _nct_cdf_quadrature(a: float, df: float, delta: float) -> np.ndarray:
    # P(T' <= t) at t = -a and t = a, in that order, from one rule:
    # E[Phi(t*W - delta)] on `_log_w_rule`.  Phi(t*W - delta) steps from 0
    # to 1 over a width of about 1/t around W = delta/t; the rule's extra
    # edges there resolve the step.
    t = np.array([-a, a])
    # a subnormal t overflows its step positions to +-inf, which fall outside
    # the window; a t*W past the double range is +-inf, which `_erfc` maps
    # to 0 or 2
    with np.errstate(over="ignore"):
        y, mass = _log_w_rule(df, (delta + _NCT_STEP_EDGES) / t[t != 0.0, None])
        phi = 0.5 * _erfc(-(t[:, None] * np.exp(y) - delta) / _SQRT2)
    # Phi as `normal_cdf` forms it, summed on the raw masses and then
    # normalised: normalising the masses first moves 1,292 of the 2,570
    # values that `test_power_bits_are_pinned` hashes
    return np.clip(phi @ mass / mass.sum(), 0.0, 1.0)


# ---------------------------------------------------------------------------
# Seeded sampling.
# ---------------------------------------------------------------------------

class RngStream:
    """One independent substream of a counter-based generator.

    Stream ``(master_seed, stream_index)`` is Philox4x64-10 (Salmon et al.,
    "Parallel random numbers: as easy as 1, 2, 3", SC 2011) under the key
    ``(master_seed, 0)``: its block b of four words is the cipher of the
    256-bit counter ``stream_index + 2**64 * b + 1``.  Distinct stream
    indices never share a counter, so a batch of streams can be consumed in
    any order, by any number of workers, with identical results; and block b
    of consecutive streams is one contiguous counter range, which
    `block_uniforms` draws with one numpy call.

    Uniform draws are returned on the open interval (0, 1): the raw 53-bit
    lattice k/2^53 is shifted to cell midpoints so that the inverse-CDF
    transform in `sample_normal` can never see 0 or 1.

    Construction only validates and stores the key and a count of the words
    drawn.  `uniforms` walks the stream's blocks one numpy call each, so a
    long draw from one stream costs a few microseconds per four uniforms.
    """

    __slots__ = ("master_seed", "stream_index", "_drawn")

    def __init__(self, master_seed: int, stream_index: int = 0):
        self.master_seed = uint64_value(master_seed, "master_seed")
        self.stream_index = uint64_value(stream_index, "stream_index")
        self._drawn = 0

    def __repr__(self):
        return f"RngStream(master_seed={self.master_seed}, stream_index={self.stream_index})"

    def uniforms(self, size=None):
        """Draw `size` uniforms in (0, 1), or one float when `size` is None,
        advancing the stream."""
        count = 1 if size is None else integer_at_least(size, 0, "size")
        first, skip = divmod(self._drawn, 4)
        words = np.empty((1, -(-(skip + count) // 4), 4), dtype=np.uint64)
        _raw_blocks(words, self.master_seed, self.stream_index, first)
        self._drawn += count
        u = _uniforms(words).reshape(-1)[skip:skip + count]
        return float(u[0]) if size is None else u


def _raw_blocks(words: np.ndarray, seed: int, index: int, first: int) -> None:
    """Blocks first, first + 1, ... of the streams index, index + 1, ...
    under `seed`, as raw words into `words` of shape (streams, blocks, 4).

    Block b of the streams is one counter range, drawn by numpy's Philox;
    after each range the counter skips 2**64 - streams ahead to the next
    block's.  NEP 19 keeps a bit generator's raw stream stable across numpy
    releases, but not `Generator`'s methods.
    """
    streams, blocks, _ = words.shape
    bits = np.random.Philox(key=seed, counter=index + (first << 64))
    for b in range(blocks):
        if b:
            bits.advance(2 ** 64 - streams)
        words[:, b] = bits.random_raw((streams, 4))


def _uniforms(words: np.ndarray) -> np.ndarray:
    """Raw words as uniforms in (0, 1), in place, returned as the float64
    view of `words`: numpy's double, the top 53 bits times 2**-53, shifted
    to the cell midpoints and clamped below 1."""
    u = words.view(np.float64)
    # in tiles, because numpy copies an input that shares memory with the
    # output under another dtype; the top 53 bits are exact as int64, whose
    # conversion to double is the fast one
    flat_words, flat_u = words.reshape(-1, 4), u.reshape(-1, 4)
    for tile in _row_tiles(flat_words.shape):
        w, v = flat_words[tile], flat_u[tile]
        w >>= np.uint64(11)
        np.multiply(w.view(np.int64), 2.0 ** -53, out=v)
        v += _U_SHIFT
        np.minimum(v, _U_MAX, out=v)
    return u


def block_uniforms(streams, size: int) -> np.ndarray:
    """The first `size` uniforms of each of `streams`' keys, drawn all at once.

    Row i of the (len(streams), size) result is bit-identical to
    ``RngStream(s.master_seed, s.stream_index).uniforms(size)`` for
    ``s = streams[i]``: only the keys are read, so what a stream has drawn
    before does not matter, and the streams are left as they were.  Each run
    of consecutive stream indices under one seed is drawn one block column
    at a time, one numpy call per column and row tile of 2**14 streams, so
    the scratch beside the result stays one tile of 2**16 words.  The result
    is a view of an array of ceil(size/4) * 4 columns.
    """
    size = integer_at_least(size, 0, "size")
    rows, blocks = len(streams), -(-size // 4)
    words = np.empty((rows, blocks, 4), dtype=np.uint64)
    seeds = np.array([s.master_seed for s in streams], dtype=np.uint64)
    index = np.array([s.stream_index for s in streams], dtype=np.uint64)
    # a run starts where the seed changes or the index does not step up by
    # one; 2**64 - 1 + 1 wraps to 0 in uint64, so that index ends a run too
    starts = np.ones(rows, dtype=bool)
    starts[1:] = ((seeds[1:] != seeds[:-1]) | (index[:-1] == np.iinfo(np.uint64).max)
                  | (index[1:] != index[:-1] + np.uint64(1)))
    bounds = [*np.flatnonzero(starts).tolist(), rows]
    for lo, hi in zip(bounds, bounds[1:]):
        for tile in _row_tiles((hi - lo, 4)):
            _raw_blocks(words[lo:hi][tile], int(seeds[lo]), int(index[lo]) + tile.start, 0)
    return _uniforms(words).reshape(rows, 4 * blocks)[:, :size]


def sample_normal(stream: RngStream, mean: float, sd: float, size=None):
    """Normal draws from `stream` by inverse-CDF transform of its uniforms.

    The inverse-CDF route consumes exactly one uniform per draw, so streams
    stay aligned no matter what was sampled before (rejection samplers do
    not have this property).  Returns a float when `size` is None.
    """
    mean = finite(mean, "mean")
    sd = positive(sd, "sd")
    u = stream.uniforms(size)
    z = normal_quantile(u)
    return mean + sd * z
