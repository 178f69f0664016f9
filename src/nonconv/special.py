"""The special functions the statistics and bounds need, without scipy.

Five functions under scipy.special's names: ``betaincinv`` for the
Clopper-Pearson edges, ``ndtr`` for the Kolmogorov distance, ``log_ndtr``
for the finite-N Gaussian rate, ``gammaln`` and ``logsumexp`` for the
moment and cumulant envelopes.  Each is checked against 50-digit mpmath
references in the tests.

The incomplete beta ratio I_x(a, b) is a binomial probability times a
continued fraction, Didonato and Morris's (ACM TOMS 708).  The binomial
factor is taken in Loader's saddle-point form ("Fast and accurate
computation of binomial probabilities", 2000): written with log-gamma
differences it is up to 2e-9 relative off at a + b = 1e6, from cancellation
between terms near 1e7 in size.
"""

from __future__ import annotations

import math

import numpy as np

_LN_2PI = math.log(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)
_EPS = 2.0**-53

# ln n! - ln(sqrt(2 pi n) (n/e)^n) for n = 0..15, rounded from 50-digit values
_STIRLERR_TABLE = (
    0.0,
    0.08106146679532726,
    0.0413406959554093,
    0.02767792568499834,
    0.020790672103765093,
    0.016644691189821193,
    0.013876128823070748,
    0.01189670994589177,
    0.010411265261972096,
    0.009255462182712733,
    0.00833056343336287,
    0.007573675487951841,
    0.00694284010720953,
    0.006408994188004207,
    0.0059513701127588475,
    0.005554733551962801,
)


def _stirlerr(n: int) -> float:
    """ln n! - ln(sqrt(2 pi n) (n/e)^n) for an integer n >= 0 (Loader's error term)."""
    if n <= 15:
        return _STIRLERR_TABLE[n]
    nn = float(n) * n
    s0, s1, s2, s3, s4 = 1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188
    if n > 500:
        return (s0 - s1 / nn) / n
    if n > 80:
        return (s0 - (s1 - s2 / nn) / nn) / n
    if n > 35:
        return (s0 - (s1 - (s2 - s3 / nn) / nn) / nn) / n
    return (s0 - (s1 - (s2 - (s3 - s4 / nn) / nn) / nn) / nn) / n


def _bd0(x: float, m: float) -> float:
    """x ln(x / m) + m - x, without cancellation when x is near m (Loader's deviance term)."""
    if abs(x - m) < 0.1 * (x + m):
        v = (x - m) / (x + m)
        s = (x - m) * v
        ej = 2.0 * x * v
        v *= v
        j = 1
        while True:
            ej *= v
            s1 = s + ej / (2 * j + 1)
            if s1 == s:
                return s1
            s = s1
            j += 1
    return x * math.log(x / m) + m - x


def _binom_pmf(k: int, n: int, p: float, q: float) -> float:
    """C(n, k) p^k q^(n - k) for integers 1 <= k <= n and p + q = 1, both in (0, 1).

    p and q are passed apart so that whichever is exact keeps its digits.
    """
    if k == n:
        return math.exp(-_bd0(n, n * p) - n * q if q < 0.1 else n * math.log(p))
    lc = _stirlerr(n) - _stirlerr(k) - _stirlerr(n - k) - _bd0(k, n * p) - _bd0(n - k, n * q)
    return math.exp(lc) / math.sqrt(2.0 * math.pi * (k * (n - k) / n))


def _beta_frac(a: int, b: int, x: float, y: float, lam: float) -> float:
    """I_x(a, b) over x^a y^b / B(a, b), for y = 1 - x and lam = (a + b) y - b >= 0.

    TOMS 708's BFRAC.  Its terms take x and y only as factors, and the
    cancelling difference a - (a + b) x only as lam, so a caller that forms
    lam from whichever of x and 1 - x is exact keeps a quantile near 0 or 1
    to its last digits.
    """
    c = 1.0 + lam
    c0 = b / a
    c1 = 1.0 + 1.0 / a
    yp1 = y + 1.0
    p, s = 1.0, a + 1.0
    an, bn, anp1, bnp1 = 0.0, 1.0, 1.0, c / c1
    r = c1 / c
    n = 0
    while True:
        n += 1
        t = n / a
        w = n * (b - n) * x
        e = a / s
        alpha = (p * (p + c0) * e * e) * (w * x)
        e = (1.0 + t) / (c1 + t + t)
        beta = n + w / s + e * (c + n * yp1)
        p = 1.0 + t
        s += 2.0
        an, anp1 = anp1, alpha * an + beta * anp1
        bn, bnp1 = bnp1, alpha * bn + beta * bnp1
        r0, r = r, anp1 / bnp1
        if abs(r - r0) <= 1e-15 * r:  # TOMS 708's tolerance, a few ulps
            return r
        an, bn, anp1, bnp1 = an / bnp1, bn / bnp1, r, 1.0


def _beta_gap(a: int, b: int, x: float, q: float) -> float:
    """I_x(a, b) - q, with the fraction taken on the side of the mean a / (a + b) that x is on.

    There it converges; x stays exact and only 1 - x rounds.
    """
    y = 1.0 - x
    lam = a - (a + b) * x
    if lam >= 0.0:
        return a * _binom_pmf(a, a + b - 1, x, y) * y * _beta_frac(a, b, x, y, lam) - q
    return (1.0 - q) - b * _binom_pmf(b, a + b - 1, y, x) * x * _beta_frac(b, a, y, x, -lam)


def _bits_float(i: int) -> float:
    return float(np.int64(i).view(np.float64))


def betaincinv(a, b, y) -> float:
    """x in [0, 1] with I_x(a, b) = y, for integers a, b >= 1 and 0 < y < 1.

    Bisection on the bit patterns of the floats in [0, 1], which order
    them, down to two adjacent floats; the one whose I_x lies nearer y is
    returned.  The quantile's relative error is then that of I_x, about
    1e-15, divided by x I_x' / I_x.
    """
    if a != int(a) or b != int(b) or a < 1 or b < 1 or not 0.0 < y < 1.0:
        raise ValueError("betaincinv needs integers a, b >= 1 and 0 < y < 1")
    a, b, y = int(a), int(b), float(y)
    lo, hi = 0, 0x3FF0000000000000  # the bit patterns of 0.0 and 1.0
    g_lo, g_hi = -y, 1.0 - y
    while hi - lo > 1:
        mid = (lo + hi) // 2
        g = _beta_gap(a, b, _bits_float(mid), y)
        if g == 0.0:
            return _bits_float(mid)
        if g < 0.0:
            lo, g_lo = mid, g
        else:
            hi, g_hi = mid, g
    return _bits_float(lo if -g_lo < g_hi else hi)


def _ndtr(z: float) -> float:
    x = z * _SQRT_HALF
    if abs(x) < _SQRT_HALF:
        return 0.5 + 0.5 * math.erf(x)
    y = 0.5 * math.erfc(abs(x))
    return 1.0 - y if x > 0 else y


def _log_ndtr(z: float) -> float:
    if z > 0.0:
        return math.log1p(-_ndtr(-z))
    if z > -20.0:
        return math.log(_ndtr(z))
    # ln Phi(z) = -z^2/2 - ln(-z) - ln sqrt(2 pi) + ln(1 - 1/z^2 + 3/z^4 - ...)
    # the asymptotic series has reached double precision by its tenth term at z = -20
    inv = 1.0 / (z * z)
    total, term, k = 1.0, 1.0, 1
    while True:
        term *= -(2 * k - 1) * inv
        if abs(term) < _EPS * abs(total):
            break
        total += term
        k += 1
    return -0.5 * z * z - math.log(-z) - 0.5 * _LN_2PI + math.log(total)


def _elementwise(fn, x):
    """fn over every entry of x: an array of x's shape, or a numpy scalar for a scalar.

    A memoryview hands fn Python floats one at a time, without a list of them.
    """
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(fn, memoryview(x.ravel())), float, x.size).reshape(x.shape)[()]


def ndtr(z):
    """Standard normal CDF, split as cephes splits it: erf near 0, erfc in the tails."""
    return _elementwise(_ndtr, z)


def log_ndtr(z):
    """ln of the standard normal CDF, finite for every finite z."""
    return _elementwise(_log_ndtr, z)


def gammaln(x):
    """ln |Gamma(x)| for positive x."""
    return _elementwise(math.lgamma, x)


def logsumexp(a) -> float:
    """ln sum exp(a), shifted by the largest entry so no exp overflows."""
    a = np.asarray(a, dtype=float)
    m = float(np.max(a))
    if not math.isfinite(m):
        return m
    return m + math.log(float(np.sum(np.exp(a - m))))
