"""Closed-form evaluators for the concentration, deviation, and moment bounds.

Everything here is a deterministic formula: exponential concentration for
the normalized sum, the Chernoff tail and its threshold from the martingale
constants, the moderate-deviation envelope and rate, the Berry-Esseen bound,
the moment-versus-Gaussian bound, and the variance envelope.  No constant is
baked in: every constant is an argument, supplied by the caller from the
calibration routines in the Monte Carlo layer, a config file's [bounds] and
[martingale] sections, or the options of ``nonconv bounds``.

The tail and envelope evaluators (concentration, Chernoff, moderate
deviation, Berry-Esseen, moment comparison) follow one rule: each builds the
log of its value from the logs of its factors (logaddexp for a sum, log 0 =
-inf) and turns it into a value only through ``_exp``, which reads inf past
the float range and 0 below it.  So a value is finite wherever the bound is,
and never an exception.  Every evaluator documents its monotone directions,
which the property tests exercise.
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


def _log(v: float) -> float:
    """math.log, with -inf at 0."""
    return math.log(v) if v > 0 else -math.inf


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
    log_x = _log(x)
    log_damp = -math.log(n_terms) / (2.0 + 4.0 * gamma)
    log_base = float(np.logaddexp(math.log(c1), math.log(c2) + log_x + log_damp))
    log_den = math.log(2.0) + (1.0 + 2.0 * gamma) / (1.0 + gamma) * log_base
    return -_exp(2.0 * log_x - log_den)


def concentration_bound(x: float, n_terms: float, c1: float, c2: float, gamma: float) -> float:
    return _exp(concentration_log(x, n_terms, c1, c2, gamma))


# ---------------------------------------------------------------------------
# Chernoff tail from the martingale constants
# ---------------------------------------------------------------------------


def chernoff_tail_log(t: float, n_terms: float, arity: int, delta1: float, b_const: float) -> float:
    """log bound for P(S_N >= t + B delta2): -t^2 / (4 B^2 N arity delta1^2).

    Nonincreasing in t; nondecreasing in B and delta1.  Doubling t quarters
    the log.
    """
    if delta1 <= 0:
        raise ConfigError("delta1 must be positive")
    if t < 0 or n_terms < 1 or arity < 1 or b_const <= 0:
        raise ConfigError("bad Chernoff arguments")
    log_den = math.log(4.0) + math.log(arity) + math.log(n_terms)
    return -_exp(2.0 * (_log(t) - math.log(b_const) - math.log(delta1)) - log_den)


def chernoff_tail_bound(t: float, n_terms: float, arity: int, delta1: float, b_const: float) -> float:
    return _exp(chernoff_tail_log(t, n_terms, arity, delta1, b_const))


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
    log_cube = float(np.logaddexp(0.0, 3.0 * _log(x)))
    return _exp(math.log(c5) + log_cube - math.log(n_terms) / (2.0 + 4.0 * gamma))


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
    return _exp(math.log(berry_esseen_constant(gamma)) - math.log(delta) / (1.0 + 2.0 * gamma))


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
