"""Closed-form evaluators for the concentration, deviation, and moment bounds.

Everything here is a deterministic formula: exponential concentration for
the normalized sum, the Chernoff tail and its threshold from the martingale
constants, the moderate-deviation envelope and rate, the Berry-Esseen bound,
the moment-versus-Gaussian bound, and the variance envelope.  No constant is
baked in: every constant is an argument, supplied by the caller from the
calibration routines in the Monte Carlo layer, a config file's [bounds] and
[martingale] sections, or the options of ``nonconv bounds``.

All evaluators work in log space internally and document their monotone
directions, which the property tests exercise.  A value past the float range
comes out as inf and one below it as 0, never as an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from nonconv.budget import ensure_within_budget
from nonconv.errors import ConfigError, OutOfWindowError


def _exp(v: float) -> float:
    """math.exp, with inf where the value overflows instead of an OverflowError."""
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _minus_square_over(a: float, den: float, log_den: float) -> float:
    """-a^2 / den for a >= 0, where ``den`` > 0 is the denominator as floats evaluate it
    and ``log_den`` its exact log; from the logs where a^2 or den left the float range."""
    if a == 0.0:
        return -0.0
    if 0.0 < min(a * a, den) and max(a * a, den) < math.inf:
        return -(a * a) / den
    return -_exp(2.0 * math.log(a) - log_den)


# ---------------------------------------------------------------------------
# exponential concentration for the normalized sum
# ---------------------------------------------------------------------------


def concentration_log(x: float, n_terms: float, c1: float, c2: float, gamma: float) -> float:
    """log of the concentration bound for P(sum/sqrt(N) >= x).

    Returns -x^2 / (2 (c1 + c2 x N^(-1/(2+4 gamma)))^((1+2 gamma)/(1+gamma))).
    Nonincreasing in x, nondecreasing in c1 and c2 (a larger denominator
    weakens the bound).
    """
    if c1 <= 0 or c2 <= 0 or gamma <= 0:
        raise ConfigError("need c1, c2, gamma > 0")
    if x < 0 or n_terms < 1:
        raise ConfigError("need x >= 0 and n_terms >= 1")
    damp = math.exp(-math.log(n_terms) / (2.0 + 4.0 * gamma))
    base = c1 + c2 * x * damp
    expo = (1.0 + 2.0 * gamma) / (1.0 + gamma)
    log_half_den = expo * math.log(base)
    return _minus_square_over(x, 2.0 * _exp(log_half_den), math.log(2.0) + log_half_den)


def concentration_bound(x: float, n_terms: float, c1: float, c2: float, gamma: float) -> float:
    return math.exp(concentration_log(x, n_terms, c1, c2, gamma))


# ---------------------------------------------------------------------------
# Chernoff tail from the martingale constants
# ---------------------------------------------------------------------------


def chernoff_tail_log(t: float, n_terms: float, arity: int, delta1: float, b_const: float) -> float:
    """log bound for P(S_N >= t + B delta2): -t^2 / (4 B^2 N arity delta1^2).

    Nonincreasing in t; nondecreasing in B and delta1.  Doubling t quarters
    the log exactly.
    """
    if delta1 <= 0:
        raise ConfigError("delta1 must be positive")
    if t < 0 or n_terms < 1 or arity < 1 or b_const <= 0:
        raise ConfigError("bad Chernoff arguments")
    den = 4.0 * b_const * b_const * n_terms * arity * delta1 * delta1
    log_den = math.log(4.0 * arity) + math.log(n_terms)
    return _minus_square_over(t, den, log_den + 2.0 * (math.log(b_const) + math.log(delta1)))


def chernoff_tail_bound(t: float, n_terms: float, arity: int, delta1: float, b_const: float) -> float:
    return math.exp(chernoff_tail_log(t, n_terms, arity, delta1, b_const))


def chernoff_threshold(t: float, delta2: float, b_const: float) -> float:
    """The event threshold t + B delta2 the tail bound refers to."""
    return t + b_const * delta2


def mgf_exponent_bound(
    lam: float, n_terms: float, arity: int, delta1: float, delta2: float, b_const: float
) -> float:
    """log of the MGF bound: B lam^2 N arity delta1 + B |lam| delta2."""
    if delta1 <= 0 or delta2 < 0 or b_const <= 0 or n_terms < 1 or arity < 1:
        raise ConfigError("bad MGF-bound arguments")
    return b_const * lam * lam * n_terms * arity * delta1 + b_const * abs(lam) * delta2


# ---------------------------------------------------------------------------
# moderate deviations
# ---------------------------------------------------------------------------


def moddev_window_edge(n_terms: float, c4: float, gamma: float) -> float:
    """Upper end c4 N^(1/(2+4 gamma)) of the x range the envelope covers."""
    if c4 <= 0 or gamma <= 0 or n_terms < 1:
        raise ConfigError("need c4, gamma > 0 and n_terms >= 1")
    return c4 * n_terms ** (1.0 / (2.0 + 4.0 * gamma))


def moddev_envelope(x: float, n_terms: float, c5: float, gamma: float, c4: float | None) -> float:
    """Envelope c5 (1 + x^3) N^(-1/(2+4 gamma)) for the log-ratio of the
    normalized tail to the Gaussian tail.

    Monotone increasing in x.  When c4 is not None, x at or beyond the window
    edge raises OutOfWindowError; the inequality is simply not asserted there
    and extrapolating would misreport it.
    """
    if x < 0:
        raise ConfigError("x must be nonnegative")
    if c5 <= 0 or gamma <= 0 or n_terms < 1:
        raise ConfigError("need c5, gamma > 0 and n_terms >= 1")
    if c4 is not None:
        edge = moddev_window_edge(n_terms, c4, gamma)
        if x >= edge:
            raise OutOfWindowError(
                f"x = {x:g} is outside the validity window [0, {edge:g})"
            )
    try:
        return c5 * (1.0 + x**3) * n_terms ** (-1.0 / (2.0 + 4.0 * gamma))
    except OverflowError:  # x^3 past the float range: inf, as c5 * inf is
        return math.inf


def mdp_rate(x: float) -> float:
    """Quadratic rate x^2/2 of the moderate-deviation principle."""
    return 0.5 * x * x


def mdp_gaussian_rate(x: float, a_n: float) -> float:
    """Finite-N Gaussian rate -ln Phi_bar(x a_N) / a_N^2.

    The normalized log-tail of a standard normal at the same threshold; the
    moderate-deviation envelope bounds the log-ratio of the tail to exactly
    this Gaussian tail.  The value tends to mdp_rate(x) as a_N -> infinity,
    but only like ln(a_N) / a_N^2, because of the prefactor in
    -ln Phi_bar(t) = t^2/2 + ln t + ln sqrt(2 pi) + o(1).
    """
    from scipy.special import log_ndtr

    if a_n <= 0:
        raise ConfigError("a_N must be positive")
    return -float(log_ndtr(-x * a_n)) / (a_n * a_n)


@dataclass(frozen=True)
class MdpValidity:
    grows: bool
    damped_vanishes: bool
    a_range: tuple[float, float]  # a_N at the first and the last grid point
    damped_range: tuple[float, float]
    passed: bool


def mdp_validity(exponent: float, gamma: float, n_grid) -> MdpValidity:
    """Numerical check of a_N = N^exponent -> infinity and a_N N^(-1/(2+4 gamma)) -> 0.

    Both limits are verified monotonically on the scanned grid: a_N strictly
    increasing, the damped sequence strictly decreasing with its last value
    below half its first.  A grid cannot prove a limit; this rejects scaling
    sequences that visibly violate the growth window.
    """
    if gamma <= 0:
        raise ConfigError("gamma must be positive")
    grid = np.asarray(n_grid, dtype=float)
    if grid.size < 3 or grid[0] <= 0 or np.any(np.diff(grid) <= 0):
        raise ConfigError("need an increasing positive grid with >= 3 points")
    a = grid**exponent
    damped = a * grid ** (-1.0 / (2.0 + 4.0 * gamma))
    grows = bool(np.all(np.diff(a) > 0))
    vanishes = bool(np.all(np.diff(damped) < 0) and damped[-1] < 0.5 * damped[0])
    return MdpValidity(
        grows=grows,
        damped_vanishes=vanishes,
        a_range=(float(a[0]), float(a[-1])),
        damped_range=(float(damped[0]), float(damped[-1])),
        passed=grows and vanishes,
    )


# ---------------------------------------------------------------------------
# Berry-Esseen, moment comparison, variance envelope
# ---------------------------------------------------------------------------


def berry_esseen_constant(gamma: float) -> float:
    """c_gamma = (1/6) (sqrt(2)/6)^(1/(1+2 gamma)); tends to 1/6 as gamma grows."""
    if gamma <= 0:
        raise ConfigError("gamma must be positive")
    return (1.0 / 6.0) * (math.sqrt(2.0) / 6.0) ** (1.0 / (1.0 + 2.0 * gamma))


def berry_esseen_bound(delta: float, gamma: float) -> float:
    """Kolmogorov-distance bound c_gamma Delta^(-1/(1+2 gamma)).

    Decreasing in Delta; scaling Delta by 8 at gamma = 1 halves the bound.
    """
    if delta <= 0:
        raise ConfigError("Delta must be positive")
    try:
        return berry_esseen_constant(gamma) * delta ** (-1.0 / (1.0 + 2.0 * gamma))
    except OverflowError:  # Delta^(-1/(1+2 gamma)) past the float range
        return math.inf


def momthm_log(p: int, n_terms: float, c0: float, gamma: float) -> float:
    """log of the moment-comparison bound
    c01^p (p!)^(1+gamma) sum_{1 <= u <= (p-1)/2} N^u p^u / (u!)^2,
    with c01 = max(1, c0).  Empty sum (p <= 2) gives -inf: the first two
    moments match the Gaussian surrogate exactly.  The budget is asked for
    64 bytes per term of the sum before its arrays exist (tracemalloc: 57).
    """
    from scipy.special import gammaln, logsumexp

    if p < 1 or n_terms < 1 or c0 <= 0 or gamma <= 0:
        raise ConfigError("bad moment-bound arguments")
    u_max = (p - 1) // 2
    if u_max < 1:
        return -math.inf
    ensure_within_budget(64 * u_max, "moment bound terms")
    c01 = max(1.0, c0)
    u = np.arange(1, u_max + 1)
    terms = u * (math.log(n_terms) + math.log(p)) - 2.0 * gammaln(u + 1)
    return float(
        p * math.log(c01) + (1.0 + gamma) * float(gammaln(p + 1)) + logsumexp(terms)
    )


def momthm_bound(p: int, n_terms: float, c0: float, gamma: float) -> float:
    return _exp(momthm_log(p, n_terms, c0, gamma))


def variance_envelope(n_terms: float, const: float) -> float:
    """Envelope const * sqrt(N) for |variance of S_N - D^2 N|."""
    if n_terms < 1 or const < 0:
        raise ConfigError("need n_terms >= 1 and const >= 0")
    return const * math.sqrt(n_terms)
