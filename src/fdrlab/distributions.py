"""Special functions and seeded normal sampling.

Everything numeric is implemented here directly so that the behaviour of the
package is pinned by this one file: a rational erfc (Cody's approximation),
Wichura's AS 241 normal quantile, the regularized incomplete beta via a
Lentz continued fraction (in numpy for arrays, in `math` floats for one
value) with a Stirling-difference log beta at large parameters, the
central Student t CDF through that beta,
and the noncentral t CDF as one Gauss-Legendre quadrature of
E[Phi(t*W - ncp)] over log W, W = sqrt(chi2_df / df), for a whole array of t.

All distribution functions accept a float or a numpy array and return the
matching kind.  Random draws come from `RngStream`, a counter-based Philox
substream keyed by (master_seed, stream_index): the same pair always yields
the same sequence, on any platform and under any threading.  `block_uniforms`
draws the first uniforms of many streams at once with a numpy
Philox4x64-10, bit for bit, and leaves the streams themselves untouched.

The simulation's kernels, `block_uniforms`, `normal_quantile` and
`ttest.batch_two_sample_t`, take an optional `Arena`: one grow-only byte
buffer from which they carve every large intermediate, with ``out=`` ufuncs
that apply each element's operations in the same order as the plain numpy
expressions, so the bits do not change.  They pass over tiles of about
2**16 elements, so an arena holds a chunk's uniforms (4096 * 2n doubles,
n rounded up to an even number) plus a few MiB of scratch, whatever n is.
A running chunk borrows one arena from a lock-guarded stack of spares
(`borrowed_arena`) and returns it when it ends, so from the second chunk
of a shape on, nothing large is allocated.  The stack keeps at most
``os.cpu_count()`` arenas and drops one whose buffer would pass 64 MiB
(n above about 950).  Without an arena the kernels allocate, as plain
numpy code does.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import threading

import numpy as np

from .errors import (DomainError, FdrLabError, finite, integer_at_least,
                     positive, probability, uint64_value)

_SQRT2 = math.sqrt(2.0)
_SQRT_HALF = math.sqrt(0.5)
_INV_SQRT_PI = 5.6418958354775628695e-1

# Half-width of the open-interval uniform lattice (2k+1)/2**54.
_U_SHIFT = 2.0 ** -54
_U_MAX = 1.0 - 2.0 ** -53


def _asarray(x) -> tuple[np.ndarray, bool]:
    """`x` as a float64 ndarray, and whether it was a scalar."""
    scalar = np.isscalar(x) or (hasattr(x, "ndim") and x.ndim == 0)
    return np.asarray(x, dtype=np.float64), scalar


def _asarray_checked(x, name: str) -> tuple[np.ndarray, bool]:
    """Coerce to float64 ndarray, rejecting non-finite entries."""
    arr, scalar = _asarray(x)
    if not np.isfinite(arr).all():
        raise DomainError(f"{name} must be finite")
    return arr, scalar


def _ret(arr: np.ndarray, scalar: bool):
    return float(arr) if scalar else arr


# ---------------------------------------------------------------------------
# Scratch memory for the simulation kernels.
# ---------------------------------------------------------------------------

# Byte alignment of each array an arena hands out, and the dtypes it holds.
_ALIGN = 64
_FLOAT64, _UINT64, _BOOL = np.dtype(np.float64), np.dtype(np.uint64), np.dtype(bool)


class Arena:
    """Scratch memory that the kernels of one simulation chunk carve arrays from.

    `take` hands out typed views of one grow-only byte buffer, stacked one
    after another, and a ``with arena:`` block gives back at its end what
    was taken inside it.  The buffer therefore needs only the size of the
    largest stage of a chunk, not the sum of all stages.  A request that
    does not fit in the buffer gets a fresh array, and the arena records how
    many bytes it would have needed; `reset` grows the buffer to that, so a
    second chunk of the same shape allocates no large array.  A new
    `Arena()` thus allocates like plain numpy code, which is what the
    kernels use when they are called without one.

    An arena serves one thread at a time.  Views it handed out are valid
    until `reset`.
    """

    __slots__ = ("_buf", "_top", "_marks", "high")

    def __init__(self):
        self._buf = np.empty(0, dtype=np.uint8)
        self._top = 0
        self._marks = []
        self.high = 0       # most bytes in use at once since creation

    @property
    def nbytes(self) -> int:
        return self._buf.nbytes

    def take(self, shape: tuple, dtype: np.dtype = _FLOAT64) -> np.ndarray:
        """An uninitialised array of `shape` and `dtype` (a `np.dtype`)."""
        start = -(-self._top // _ALIGN) * _ALIGN
        self._top = end = start + math.prod(shape) * dtype.itemsize
        if end > self.high:
            self.high = end
        if end > self._buf.nbytes:
            return np.empty(shape, dtype)
        return np.ndarray(shape, dtype, self._buf, start)

    def __enter__(self) -> Arena:
        self._marks.append(self._top)
        return self

    def __exit__(self, *exc) -> None:
        self._top = self._marks.pop()

    def reset(self) -> None:
        """Give back every array and grow the buffer to the high-water mark."""
        self._top = 0
        self._marks.clear()
        if self._buf.nbytes < self.high:
            self._buf = np.empty(self.high, dtype=np.uint8)


# Arenas not in use, for the next chunk to take (see `borrowed_arena`): at
# most one per core, and none past _ARENA_MAX_BYTES, so a run at a large n
# does not leave its buffers behind.
_SPARE_ARENAS: list[Arena] = []
_SPARES_LOCK = threading.Lock()
_MAX_SPARE_ARENAS = os.cpu_count() or 1
_ARENA_MAX_BYTES = 64 * 2 ** 20


@contextlib.contextmanager
def borrowed_arena():
    """An arena from the spare stack (or a new one), returned to it at the
    end of the block whether the block raised or not."""
    with _SPARES_LOCK:
        arena = _SPARE_ARENAS.pop() if _SPARE_ARENAS else Arena()
    try:
        yield arena
    finally:
        if arena.high <= _ARENA_MAX_BYTES:
            arena.reset()
            with _SPARES_LOCK:
                if len(_SPARE_ARENAS) < _MAX_SPARE_ARENAS:
                    _SPARE_ARENAS.append(arena)


# Elements per pass of a kernel over a large array, so that a pass's scratch
# arrays stay in a core's cache.
_TILE = 2 ** 16


def _row_tiles(shape: tuple):
    """Index expressions that cut an array of `shape` along its first axis
    into tiles of about _TILE elements, each at least one row; none for an
    empty array."""
    if not shape:
        yield ...
        return
    if not math.prod(shape):
        return
    step = max(1, _TILE // math.prod(shape[1:]))
    for start in range(0, shape[0], step):
        yield slice(start, start + step)


def _horner(coeffs, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(...((c0*x + c1)*x + c2)...)*x + c_last into `out` (a new array if
    None), step by step."""
    out = np.empty_like(x) if out is None else out
    if x.ndim == 0:
        # numpy scalars round alike and cost a fraction of a 0-d ufunc call
        x = x[()]
        acc = x * coeffs[0]
        for c in coeffs[1:-1]:
            acc = (acc + c) * x
        out[()] = acc + coeffs[-1]
        return out
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
    """Complementary error function, |rel err| ~ few ulps; its only caller
    is `normal_cdf`.

    y = |x| falls in three regions, y <= 0.46875, 0.46875 < y <= 4 and
    y > 4.  Each region's elements are gathered (unless they are all of y)
    and only that region's formula runs on them; then x < 0 takes
    erfc(x) = 2 - erfc(-x).
    """
    # erfc(y) < 5e-324 for y > 27.3; clamp to avoid pointless overflow warnings
    y = np.minimum(np.abs(x), 30.0)
    low = y <= _ERFC_LOW_MAX
    high = y > _ERFC_MID_MAX
    out = np.empty_like(y)
    for region, formula in ((low, _erfc_small_y), (~(low | high), _erfc_medium_y),
                            (high, _erfc_large_y)):
        if region.all():
            out[...] = formula(y)
        elif region.any():
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
    arr, scalar = _asarray_checked(x, "x")
    return _ret(0.5 * _erfc(-arr / _SQRT2), scalar)


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


def _as241(p: np.ndarray, out: np.ndarray, arena: Arena) -> np.ndarray:
    """AS 241 into `out`, which may be `p` itself: the central formula over
    every element unless all lie in the tails, then the tails, gathered.

    Every tail `p` is read before `out` is written.
    """
    with arena:
        q = np.subtract(p, 0.5, out=arena.take(p.shape))
        scratch = np.abs(q, out=arena.take(p.shape))
        tail = np.greater(scratch, _AS241_Q_CENTRAL, out=arena.take(p.shape, _BOOL))
        n_tail = int(np.count_nonzero(tail))
        # the tails need q and s = min(p, 1 - p), where 1 - p is 0.5 - q
        # exactly for p > 1/2
        if n_tail == p.size:
            # all in the tails, as a single value often is: nothing to
            # gather, and `_horner` takes its scalar route on 0-d input
            q_tail = q
            s_tail = np.minimum(p, np.subtract(0.5, q, out=scratch), out=scratch)
        elif n_tail:
            if p.flags.c_contiguous:
                flat_p = p.reshape(-1)
            else:       # compress reads a flat view: copy a strided tile first
                np.copyto(scratch, p)
                flat_p = scratch.reshape(-1)
            flat_tail = tail.reshape(-1)
            q_tail = np.compress(flat_tail, q.reshape(-1), out=arena.take((n_tail,)))
            s_tail = np.compress(flat_tail, flat_p, out=arena.take((n_tail,)))
            np.minimum(s_tail, np.subtract(0.5, q_tail, out=arena.take((n_tail,))), out=s_tail)

        if n_tail < p.size:
            r = np.multiply(q, q, out=scratch)
            np.subtract(_AS241_R_CENTRAL, r, out=r)
            num = _horner(_AS241_A, r, arena.take(p.shape))
            num *= q
            np.divide(num, _horner(_AS241_B, r, q), out=out)

        if n_tail:
            x_tail = _as241_tail(s_tail, arena)
            lower = np.less(q_tail, 0.0, out=arena.take(q_tail.shape, _BOOL))
            np.negative(x_tail, out=x_tail, where=lower)
            if n_tail == p.size:
                np.copyto(out, x_tail)
            else:
                out[tail] = x_tail
    return out


def _as241_tail(s: np.ndarray, arena: Arena) -> np.ndarray:
    """The tail formulas at s = min(p, 1 - p) < 0.075, as |x|, taken from
    `arena`; `s` is overwritten."""
    r = np.log(s, out=s)
    np.negative(r, out=r)
    np.sqrt(r, out=r)
    shifted = np.subtract(r, _AS241_R_MID, out=arena.take(r.shape))
    x = _horner(_AS241_C, shifted, arena.take(r.shape))
    x /= _horner(_AS241_D, shifted, arena.take(r.shape))
    if r.max() > _AS241_R_FAR:
        # p below about 1.4e-11: rare among simulated draws, so gathered
        far = r > _AS241_R_FAR
        rf = r[far] - _AS241_R_FAR
        x[far] = (_horner(_AS241_E, rf, np.empty_like(rf))
                  / _horner(_AS241_F, rf, np.empty_like(rf)))
    return x


def normal_quantile(p, *, out=None, arena=None):
    """Inverse of `normal_cdf` on (0, 1).

    Wichura's AS 241 (PPND16), whose relative error is below 1e-15 over
    all of (0, 1), 5e-324 included: at most 5.6e-16 against an mpmath
    Newton solve on the test suite's inputs.  ``normal_quantile(1 - p) ==
    -normal_quantile(p)`` holds exactly for p in [0.5, 0.75] and
    [0.925, 1), where both sides form the same r.

    `out` receives the result and may be `p` itself; `arena` supplies the
    scratch arrays (see `Arena`).
    """
    arr, scalar = _asarray(p)
    # min and max are NaN when any entry is, so NaN fails this test too
    if arr.size and not (0.0 < arr.min() and arr.max() < 1.0):
        _asarray_checked(arr, "p")
        raise DomainError("p must lie strictly inside (0, 1)")
    out = np.empty_like(arr) if out is None else out
    arena = Arena() if arena is None else arena
    for rows in _row_tiles(arr.shape):
        _as241(arr[rows], out[rows], arena)
    return _ret(out, scalar)


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
        front = np.exp(a * np.log(xi) + b * np.log1p(-xi) - _lbeta(a, b))
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
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - _lbeta(a, b))
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
    built on the first `uniforms` call.  `block_uniforms` draws the first
    uniforms of many keys at once without touching their streams, so a
    stream's own `uniforms` always starts at its first draw.
    """

    __slots__ = ("master_seed", "stream_index", "_gen")

    def __init__(self, master_seed: int, stream_index: int = 0):
        self.master_seed = uint64_value(master_seed, "master_seed")
        self.stream_index = uint64_value(stream_index, "stream_index")
        self._gen = None

    def __repr__(self):
        return f"RngStream(master_seed={self.master_seed}, stream_index={self.stream_index})"

    def _generator(self) -> np.random.Generator:
        if self._gen is None:
            key = np.array([self.master_seed, self.stream_index], dtype=np.uint64)
            self._gen = np.random.Generator(np.random.Philox(key=key))
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
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)


def _mulhi(m: np.uint64, x: np.ndarray, out: np.ndarray, a: np.ndarray,
           b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """High 64-bit word of the 128-bit product m * x into `out`, from 32-bit
    halves so that no partial product overflows (Hacker's Delight, 8-2);
    a, b and c are scratch of x's shape."""
    m_lo, m_hi = m & _LOW32, m >> _U32
    np.bitwise_and(x, _LOW32, out=a)                  # x_lo
    np.right_shift(x, _U32, out=b)                    # x_hi
    np.multiply(a, m_lo, out=c)
    np.right_shift(c, _U32, out=c)
    np.multiply(a, m_hi, out=a)
    np.add(a, c, out=a)                               # t = m_hi x_lo + (m_lo x_lo >> 32)
    np.multiply(b, m_lo, out=c)
    np.multiply(b, m_hi, out=b)
    np.right_shift(a, _U32, out=out)
    out += b                                          # m_hi x_hi + (t >> 32)
    np.bitwise_and(a, _LOW32, out=a)
    a += c                                            # (t & low32) + m_lo x_hi
    a >>= _U32
    out += a
    return out


def _philox(k0: np.ndarray, k1: np.ndarray, blocks: int,
            arena: Arena) -> list[np.ndarray]:
    """Philox4x64-10 of counters 1..blocks under the keys (k0, k1), given as
    column vectors and bumped in place: the four output words, each of
    shape (len(k0), blocks), taken from `arena`."""
    shape = (len(k0), blocks)
    x0, x1, x2, x3, hi0, hi1, a, b, c = (arena.take(shape, _UINT64) for _ in range(9))
    x0[...] = np.arange(1, blocks + 1, dtype=np.uint64)
    for word in (x1, x2, x3):
        word.fill(0)
    m0, m1 = _PHILOX_M
    for rnd in range(_PHILOX_ROUNDS):
        if rnd:
            k0 += _PHILOX_W[0]
            k1 += _PHILOX_W[1]
        _mulhi(m0, x0, hi0, a, b, c)
        _mulhi(m1, x2, hi1, a, b, c)
        hi1 ^= x1
        hi1 ^= k0
        np.multiply(x2, m1, out=x1)
        hi0 ^= x3
        hi0 ^= k1
        np.multiply(x0, m0, out=x3)
        # (x0, x1, x2, x3) <- (hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0)
        x0, hi1, x2, hi0 = hi1, x0, hi0, x2
    return [x0, x1, x2, x3]


def block_uniforms(streams, size: int, *, arena: Arena | None = None) -> np.ndarray:
    """The first `size` uniforms of each of `streams`' keys, drawn all at once.

    Runs Philox4x64-10 over every stream's key and counters 1..ceil(size/4)
    in one vectorised pass.  Row i of the (len(streams), size) result is
    bit-identical to ``RngStream(s.master_seed, s.stream_index).uniforms(size)``
    for ``s = streams[i]``: only the keys are read, so what a stream has drawn
    before does not matter, and the streams are left as they were.  With an
    `arena` the result is a view into it (see `Arena`).
    """
    size = integer_at_least(size, 0, "size")
    arena = Arena() if arena is None else arena
    rows, blocks = len(streams), -(-size // 4)
    u = arena.take((rows, blocks, 4))
    k0 = np.array([s.master_seed for s in streams], dtype=np.uint64)[:, None]
    k1 = np.array([s.stream_index for s in streams], dtype=np.uint64)[:, None]
    for tile in _row_tiles((rows, blocks)):
        with arena:
            # numpy's double: the top 53 bits times 2**-53, word j of each
            # block being draw 4 * block + j
            for j, word in enumerate(_philox(k0[tile], k1[tile], blocks, arena)):
                word >>= np.uint64(11)
                np.multiply(word, 2.0 ** -53, out=u[tile, :, j])
    # then the stream's midpoint shift and clamp
    u = u.reshape(rows, 4 * blocks)
    u += _U_SHIFT
    np.minimum(u, _U_MAX, out=u)
    return u[:, :size]


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
