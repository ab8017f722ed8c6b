"""Special functions and seeded normal sampling.

Everything numeric is implemented here directly so that the behaviour of the
package is pinned by this one file: a rational erfc (Cody's approximation),
the Acklam normal quantile polished with one Halley step, the regularized
incomplete beta via a Lentz continued fraction (in numpy for arrays, in
`math` floats for one value), the central Student t CDF through that beta,
and the noncentral t CDF as one Gauss-Legendre quadrature of
E[Phi(t*W - ncp)] over log W, W = sqrt(chi2_df / df), for a whole array of t.

All distribution functions accept a float or a numpy array and return the
matching kind.  Random draws come from `RngStream`, a counter-based Philox
substream keyed by (master_seed, stream_index): the same pair always yields
the same sequence, on any platform and under any threading.  `block_uniforms`
draws many fresh streams at once with a numpy Philox4x64-10, bit for bit.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import (DomainError, FdrLabError, finite, integer_at_least,
                     positive, probability, uint64_value)

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_INV_SQRT_PI = 5.6418958354775628695e-1

# Half-width of the open-interval uniform lattice (2k+1)/2**54.
_U_SHIFT = 2.0 ** -54
_U_MAX = 1.0 - 2.0 ** -53


def _asarray_checked(x, name: str) -> tuple[np.ndarray, bool]:
    """Coerce to float64 ndarray, rejecting non-finite entries."""
    scalar = np.isscalar(x) or (hasattr(x, "ndim") and x.ndim == 0)
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    return arr, scalar


def _ret(arr: np.ndarray, scalar: bool):
    return float(arr) if scalar else arr


# ---------------------------------------------------------------------------
# erfc: W. J. Cody's rational Chebyshev approximation (netlib CALERF layout),
# accurate to a few ulps over the whole double range.
# ---------------------------------------------------------------------------

_ERF_A = (3.16112374387056560e0, 1.13864154151050156e2,
          3.77485237685302021e2, 3.20937758913846947e3)
_ERF_A4 = 1.85777706184603153e-1
_ERF_B = (2.36012909523441209e1, 2.44024637934444173e2,
          1.28261652607737228e3, 2.84423683343917062e3)

_ERFC_C = (5.64188496988670089e-1, 8.88314979438837594e0,
           6.61191906371416295e1, 2.98635138197400131e2,
           8.81952221241769090e2, 1.71204761263407058e3,
           2.05107837782607147e3)
_ERFC_C7 = 1.23033935479799725e3
_ERFC_C8 = 2.15311535474403846e-8
_ERFC_D = (1.57449261107098347e1, 1.17693950891312499e2,
           5.37181101862009858e2, 1.62138957456669019e3,
           3.29079923573345963e3, 4.36261909014324716e3,
           3.43936767414372164e3)
_ERFC_D7 = 1.23033935480374942e3

_ERFC_P = (3.05326634961232344e-1, 3.60344899949804439e-1,
           1.25781726111229246e-1, 1.60837851487422766e-2)
_ERFC_P4 = 6.58749161529837803e-4
_ERFC_P5 = 1.63153871373020978e-2
_ERFC_Q = (2.56852019228982242e0, 1.87295284992346047e0,
           5.27905102951428412e-1, 6.05183413124413191e-2)
_ERFC_Q4 = 2.33520497626869185e-3


def _erfc(x: np.ndarray) -> np.ndarray:
    """Complementary error function, vectorized, |rel err| ~ few ulps."""
    x = np.asarray(x, dtype=np.float64)
    # erfc(y) < 5e-324 for y > 27.3; clamp to avoid pointless overflow warnings
    y = np.minimum(np.abs(x), 30.0)
    out = np.empty_like(y)

    low = y <= 0.46875
    if np.any(low):
        z = y[low] * y[low]
        num = _ERF_A4 * z
        den = z
        for ai, bi in zip(_ERF_A[:3], _ERF_B[:3]):
            num = (num + ai) * z
            den = (den + bi) * z
        out[low] = 1.0 - y[low] * (num + _ERF_A[3]) / (den + _ERF_B[3])

    mid = (y > 0.46875) & (y <= 4.0)
    if np.any(mid):
        ym = y[mid]
        num = _ERFC_C8 * ym
        den = ym
        for ci, di in zip(_ERFC_C, _ERFC_D):
            num = (num + ci) * ym
            den = (den + di) * ym
        ratio = (num + _ERFC_C7) / (den + _ERFC_D7)
        out[mid] = _exp_neg_sq(ym) * ratio

    high = y > 4.0
    if np.any(high):
        yh = y[high]
        z = 1.0 / (yh * yh)
        num = _ERFC_P5 * z
        den = z
        for pi, qi in zip(_ERFC_P, _ERFC_Q):
            num = (num + pi) * z
            den = (den + qi) * z
        ratio = z * (num + _ERFC_P4) / (den + _ERFC_Q4)
        out[high] = _exp_neg_sq(yh) * (_INV_SQRT_PI - ratio) / yh

    return np.where(x < 0.0, 2.0 - out, out)


def _exp_neg_sq(y: np.ndarray) -> np.ndarray:
    # exp(-y*y) with the argument split on a 1/16 lattice, which keeps the
    # relative error of the product small deep in the tail (CALERF trick).
    ysq = np.floor(y * 16.0) / 16.0
    return np.exp(-ysq * ysq) * np.exp(-(y - ysq) * (y + ysq))


def normal_cdf(x):
    """Standard normal CDF, absolute error well below 1e-12.

    Accepts a float or an ndarray; non-finite input raises ``DomainError``.
    """
    arr, scalar = _asarray_checked(x, "x")
    return _ret(0.5 * _erfc(-arr / _SQRT2), scalar)


def _normal_pdf(x: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * x * x) / _SQRT_2PI


# Acklam's rational approximation for the normal quantile (|rel err| < 1.2e-9
# before refinement).
_ACK_A = (-3.969683028665376e+01, 2.209460984245205e+02,
          -2.759285104469687e+02, 1.383577518672690e+02,
          -3.066479806614716e+01, 2.506628277459239e+00)
_ACK_B = (-5.447609879822406e+01, 1.615858368580409e+02,
          -1.556989798598866e+02, 6.680131188771972e+01,
          -1.328068155288572e+01)
_ACK_C = (-7.784894002430293e-03, -3.223964580411365e-01,
          -2.400758277161838e+00, -2.549732539343734e+00,
          4.374664141464968e+00, 2.938163982698783e+00)
_ACK_D = (7.784695709041462e-03, 3.224671290700398e-01,
          2.445134137142996e+00, 3.754408661907416e+00)
_ACK_P_LOW = 0.02425


def _acklam(p: np.ndarray) -> np.ndarray:
    a, b, c, d = _ACK_A, _ACK_B, _ACK_C, _ACK_D
    out = np.empty_like(p)

    lo = p < _ACK_P_LOW
    hi = p > 1.0 - _ACK_P_LOW
    mid = ~(lo | hi)

    if np.any(mid):
        q = p[mid] - 0.5
        r = q * q
        num = ((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]
        den = ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        out[mid] = q * num / den

    for mask, tail_p, sign in ((lo, p[lo], -1.0), (hi, 1.0 - p[hi], 1.0)):
        if np.any(mask):
            q = np.sqrt(-2.0 * np.log(tail_p))
            num = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5])
            den = ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
            out[mask] = -sign * num / den

    return out


def normal_quantile(p):
    """Inverse of `normal_cdf` on (0, 1).

    Acklam's approximation followed by one Halley step against the rational
    erfc, so the roundtrip ``normal_cdf(normal_quantile(p))`` holds to much
    better than 1e-10.
    """
    arr, scalar = _asarray_checked(p, "p")
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("p must lie strictly inside (0, 1)")
    x = _acklam(arr)
    # One Halley refinement; skipped in the far tail where the gaussian
    # density underflows (the raw approximation is already ample there).
    refine = np.abs(x) < 37.0
    if np.any(refine):
        xr = x[refine]
        err = 0.5 * _erfc(-xr / _SQRT2) - arr[refine]
        u = err * _SQRT_2PI * np.exp(0.5 * xr * xr)
        x[refine] = xr - u / (1.0 + 0.5 * xr * u)
    return _ret(x, scalar)


# ---------------------------------------------------------------------------
# Regularized incomplete beta and the Student t CDFs built on it.
# ---------------------------------------------------------------------------

_CF_MAX_ITER = 500
_CF_EPS = 3.0e-15
_CF_FPMIN = 1.0e-300


def _betacf(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    np.copyto(d, _CF_FPMIN, where=np.abs(d) < _CF_FPMIN)
    d = 1.0 / d
    h = d.copy()
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        np.copyto(d, _CF_FPMIN, where=np.abs(d) < _CF_FPMIN)
        c = 1.0 + aa / c
        np.copyto(c, _CF_FPMIN, where=np.abs(c) < _CF_FPMIN)
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        np.copyto(d, _CF_FPMIN, where=np.abs(d) < _CF_FPMIN)
        c = 1.0 + aa / c
        np.copyto(c, _CF_FPMIN, where=np.abs(c) < _CF_FPMIN)
        d = 1.0 / d
        delta = d * c
        h *= delta
        if np.all(np.abs(delta - 1.0) < _CF_EPS):
            return h
    raise FdrLabError(
        f"incomplete beta continued fraction did not converge (a={a}, b={b})"
    )


def _betacf_scalar(a: float, b: float, x: float) -> float:
    """`_betacf` for one float, step for step in `math` floats."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    d = 1.0 / (d if abs(d) >= _CF_FPMIN else _CF_FPMIN)
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        c = 1.0 + aa / c
        c = c if abs(c) >= _CF_FPMIN else _CF_FPMIN
        d = 1.0 / (d if abs(d) >= _CF_FPMIN else _CF_FPMIN)
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        c = 1.0 + aa / c
        c = c if abs(c) >= _CF_FPMIN else _CF_FPMIN
        d = 1.0 / (d if abs(d) >= _CF_FPMIN else _CF_FPMIN)
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise FdrLabError(
        f"incomplete beta continued fraction did not converge (a={a}, b={b})"
    )


def regularized_incomplete_beta(a, b, x):
    """Regularized incomplete beta I_x(a, b) for scalar a, b > 0.

    `x` may be a float or an array with entries in [0, 1]; the result has
    absolute error below 1e-10 (in practice a few 1e-15).  A float `x` takes
    a path in `math` floats, free of numpy's per-call overhead.
    """
    a = positive(a, "a")
    b = positive(b, "b")
    if np.ndim(x) == 0:
        return _betainc_scalar(a, b, probability(x, "x"))
    arr, _ = _asarray_checked(x, "x")
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise DomainError("x must lie in [0, 1]")

    out = np.zeros_like(arr)
    out[arr >= 1.0] = 1.0
    interior = (arr > 0.0) & (arr < 1.0)
    if np.any(interior):
        xi = arr[interior]
        lbeta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
        front = np.exp(a * np.log(xi) + b * np.log1p(-xi) - lbeta)
        res = np.empty_like(xi)
        direct = xi < (a + 1.0) / (a + b + 2.0)
        if np.any(direct):
            res[direct] = front[direct] * _betacf(a, b, xi[direct]) / a
        comp = ~direct
        if np.any(comp):
            res[comp] = 1.0 - front[comp] * _betacf(b, a, 1.0 - xi[comp]) / b
        out[interior] = np.clip(res, 0.0, 1.0)
    return out


def _betainc_scalar(a: float, b: float, x: float) -> float:
    if x == 0.0 or x == 1.0:
        return x
    lbeta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - lbeta)
    if x < (a + 1.0) / (a + b + 2.0):
        res = front * _betacf_scalar(a, b, x) / a
    else:
        res = 1.0 - front * _betacf_scalar(b, a, 1.0 - x) / b
    return min(1.0, max(0.0, res))


def student_t_cdf(t, df):
    """CDF of Student's t with `df` degrees of freedom.

    Symmetric, cdf(-t) = 1 - cdf(t) to within one rounding; accepts array `t`.
    """
    df = positive(df, "df")
    arr, scalar = _asarray_checked(t, "t")
    # P(T <= -|t|) = I_x(df/2, 1/2) / 2 at x = df / (df + t^2).  For t^2 < 3
    # it is 1/2 - I_y(1/2, df/2) / 2 at y = t^2 / (df + t^2) instead: there
    # x is near 1, and the 1 - x the incomplete beta would form loses the
    # digits of y.  The branch not taken gets y = 0 or x = 1, which the
    # incomplete beta returns at once.
    tt = arr * arr
    central = tt < 3.0
    near = 0.5 - 0.5 * regularized_incomplete_beta(
        0.5, 0.5 * df, np.where(central, tt / (df + tt), 0.0))
    far = 0.5 * regularized_incomplete_beta(
        0.5 * df, 0.5, np.where(central, 1.0, df / (df + tt)))
    tail_half = np.where(central, near, far)
    return _ret(np.where(arr > 0.0, 1.0 - tail_half, tail_half), scalar)


def noncentral_t_cdf(t, df, ncp):
    """CDF of the noncentral t distribution; `t` may be a float or an array.

    P(T <= t) = E[Phi(t*W - ncp)] with W = sqrt(chi2_df / df), integrated
    over log W (see `_nct_cdf_quadrature`).  The integrand is used as it
    stands for either sign of t, so a tiny lower-tail probability is not
    the rounding residue of 1 - P(T > t).  Absolute error is below 1e-8:
    that is checked against an mpmath oracle for df from 1 to 313956, |ncp|
    up to 200 and t on both sides of the step, t = 0 included.
    """
    df = positive(df, "df")
    ncp = finite(ncp, "ncp")
    arr, scalar = _asarray_checked(t, "t")
    if ncp == 0.0:
        return student_t_cdf(t, df)
    out = _nct_cdf_quadrature(arr.reshape(-1), df, ncp).reshape(arr.shape)
    return _ret(out, scalar)


@functools.cache
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


def _log_w_window(df: float) -> tuple[float, float]:
    """Bounds on y = log W outside which h(y) < -_NCT_DROP."""
    drop = _NCT_DROP
    # h(y) <= -0.5677 df y^2 on [-1, 0], and h(y) <= df (y + 1/2) below it.
    lo = -math.sqrt(drop / (0.56 * df))
    if lo < -1.0:
        lo = -drop / df - 0.5
    # h(y) <= -df y^2 for y > 0; for df <= 2 drop also h(log1p(2 drop / df))
    # <= -drop.
    hi = math.sqrt(drop / df)
    if df <= 2.0 * drop:
        hi = min(hi, math.log1p(2.0 * drop / df))
    return lo, hi


def _nct_cdf_quadrature(t: np.ndarray, df: float, delta: float) -> np.ndarray:
    # P(T' <= t) = E[Phi(t*W - delta)] with W = sqrt(chi2_df / df), as a
    # composite Gauss-Legendre integral over y = log W.  In y the density
    # has the same shape for every df, with no singularity at W = 0 when
    # df < 1.  Phi(t*W - delta) steps from 0 to 1 over a width of about 1/t
    # around W = delta/t; extra panel edges there resolve the step.  The
    # weights are normalised by their own sum, so neither the density's
    # constant nor the mass outside the window enters the result.
    lo, hi = _log_w_window(df)
    edges = np.linspace(lo, hi, _NCT_PANELS + 1)
    steps = (delta + _NCT_STEP_EDGES) / t[t != 0.0, None]
    steps = np.log(steps[steps > 0.0])
    # A repeated edge makes a panel of width 0, which weighs nothing.
    edges = np.sort(np.concatenate((edges, steps[(steps > lo) & (steps < hi)])))

    nodes, weights = _gauss_legendre(48)
    half = 0.5 * np.diff(edges)[:, None]
    y = (half * nodes + (edges[:-1, None] + half)).ravel()
    mass = (half * weights).ravel() * np.exp(df * (y - 0.5 * np.expm1(2.0 * y)))
    phi = normal_cdf(t[:, None] * np.exp(y) - delta)
    return np.clip(phi @ mass / mass.sum(), 0.0, 1.0)


# ---------------------------------------------------------------------------
# Seeded sampling.
# ---------------------------------------------------------------------------

class RngStream:
    """One independent substream of a counter-based generator.

    The stream is a Philox generator keyed directly by
    ``(master_seed, stream_index)``.  Philox produces an independent random
    function of its counter for every distinct key, so distinct stream
    indices never share state and a batch of streams can be consumed in any
    order, by any number of workers, with identical results.

    Uniform draws are returned on the open interval (0, 1): the raw 53-bit
    lattice k/2^53 is shifted to cell midpoints so that the inverse-CDF
    transform in `sample_normal` can never see 0 or 1.

    Construction only validates and stores the key; numpy's ``Philox`` is
    built on the first `uniforms` call.  A fresh stream may instead be drawn
    by `block_uniforms` together with many others, after which `uniforms`
    continues with the draws that follow the block's.
    """

    __slots__ = ("master_seed", "stream_index", "_gen", "_block_drawn")

    def __init__(self, master_seed: int, stream_index: int = 0):
        self.master_seed = uint64_value(master_seed, "master_seed")
        self.stream_index = uint64_value(stream_index, "stream_index")
        self._gen = None
        self._block_drawn = 0   # uniforms taken by `block_uniforms`

    def __repr__(self):
        return f"RngStream(master_seed={self.master_seed}, stream_index={self.stream_index})"

    def _generator(self) -> np.random.Generator:
        if self._gen is None:
            # Philox makes 4 outputs per counter value, starting at counter 1.
            full, part = divmod(self._block_drawn, 4)
            key = np.array([self.master_seed, self.stream_index], dtype=np.uint64)
            bitgen = np.random.Philox(key=key, counter=full)
            bitgen.random_raw(part)
            self._gen = np.random.Generator(bitgen)
        return self._gen

    def uniforms(self, size=None):
        """Draw uniforms in (0, 1), advancing the stream."""
        u = self._generator().random(size)
        u = u + _U_SHIFT
        if size is None:
            return min(float(u), _U_MAX)
        return np.minimum(u, _U_MAX, out=u)


# Philox4x64-10 constants (Salmon et al., "Parallel random numbers: as easy
# as 1, 2, 3", SC 2011), as in numpy's Philox.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit product m * x, from 32-bit
    halves so that no partial product overflows."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LOW32, x >> _U32
    lo_lo = m_lo * x_lo
    hi_lo = m_hi * x_lo
    lo_hi = m_lo * x_hi
    carry = (lo_lo >> _U32) + (hi_lo & _LOW32) + (lo_hi & _LOW32)
    hi = m_hi * x_hi + (hi_lo >> _U32) + (lo_hi >> _U32) + (carry >> _U32)
    return hi, np.uint64(m) * x


def block_uniforms(streams, size: int) -> np.ndarray:
    """The first `size` uniforms of each of `streams`, drawn all at once.

    Runs Philox4x64-10 over every stream's key and counters 1..ceil(size/4)
    in one vectorised pass.  Row i of the (len(streams), size) result is
    bit-identical to ``streams[i].uniforms(size)`` on a fresh stream, and the
    streams are advanced past the draws, so a later `uniforms` call continues
    where the row ends.  Every stream must be fresh: one that has already
    drawn raises ``DomainError``.
    """
    size = integer_at_least(size, 0, "size")
    for stream in streams:
        if stream._gen is not None or stream._block_drawn:
            raise DomainError(f"{stream!r} has already drawn")
    blocks = -(-size // 4)
    k0 = np.array([s.master_seed for s in streams], dtype=np.uint64)[:, None]
    k1 = np.array([s.stream_index for s in streams], dtype=np.uint64)[:, None]
    x0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64),
                         (len(streams), blocks))
    x1 = x2 = x3 = np.zeros_like(x0)
    for rnd in range(_PHILOX_ROUNDS):
        if rnd:
            k0 = k0 + _PHILOX_W[0]
            k1 = k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
    raw = np.stack((x0, x1, x2, x3), axis=-1).reshape(len(streams), 4 * blocks)
    # numpy's double: the top 53 bits times 2**-53; then the stream's
    # midpoint shift and clamp.
    u = (raw[:, :size] >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    u += _U_SHIFT
    np.minimum(u, _U_MAX, out=u)
    for stream in streams:
        stream._block_drawn = size
    return u


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
