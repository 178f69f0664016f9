"""nonconv.special against exact references computed with mpmath at 50 digits.

The grids and tolerances below were fixed before these tests first ran.

- betaincinv: the 95% Clopper-Pearson edges, betaincinv(c, R - c + 1, 0.025)
  and betaincinv(c + 1, R - c, 0.975), for R in {1e2, 1e4, 1e6} and counts c
  in {0, 1, 2, 19, R/2, R - 1, R}; relative 1e-14.  The reference is the root
  of the binomial tail sum I_x(a, b) = P(Bin(a + b - 1, x) >= a).
- ndtr: z on [-40, 9] in steps of 0.05, plus the points where the method
  switches; relative 1e-14 + 2^-50 z^2, and 2^-1070 absolute below the
  smallest normal float.  Phi's relative condition number in z grows like z^2
  in the lower tail, so the z^2 term grants 4 ulps of z, no more.
- log_ndtr: the ndtr grid and -z on a log grid from 1 to 1e5; relative
  1e-14 + 2^-50 max(z, 0)^2, the same allowance where ln Phi tends to 0.
- gammaln and logsumexp: 1e-14 of max(1, |reference|).
- Loader's Stirling error term: 2.5e-16 absolute, about one ulp of 1, as it
  enters the binomial probability through its exponent.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import betaincinv as scipy_betaincinv

from nonconv.special import _stirlerr, betaincinv, gammaln, log_ndtr, logsumexp, ndtr

DPS = 50


def betainc_exact(a: int, b: int, x: float) -> mpmath.mpf:
    """I_x(a, b) for integers a, b >= 1, summed from a along the binomial tail it lies in."""
    with mpmath.workdps(DPS):
        n = a + b - 1
        x = mpmath.mpf(x)
        upper = a >= n * x  # sum j >= a upward, else the complement j <= a - 1 downward
        j = a if upper else a - 1
        term = mpmath.binomial(n, j) * x**j * (1 - x) ** (n - j)
        total = mpmath.mpf(0)
        while term > total * mpmath.eps or total == 0:
            total += term
            if (upper and j == n) or (not upper and j == 0):
                break
            if upper:
                term *= (n - j) * x / ((j + 1) * (1 - x))
                j += 1
            else:
                term *= j * (1 - x) / ((n - j + 1) * x)
                j -= 1
        return +total if upper else 1 - total


def betaincinv_exact(a: int, b: int, q: float, start: float) -> mpmath.mpf:
    """The root x of I_x(a, b) = q, by Newton's method from ``start`` to 45 digits.

    I_x is increasing, so the root is unique; the last step certifies it.
    """
    with mpmath.workdps(DPS):
        x = mpmath.mpf(start)
        for _ in range(20):
            density = a * mpmath.binomial(a + b - 1, a) * x ** (a - 1) * (1 - x) ** (b - 1)
            step = (betainc_exact(a, b, x) - mpmath.mpf(q)) / density
            x -= step
            if abs(step) < mpmath.mpf(10) ** -45 * x:
                return x
        raise AssertionError(f"no convergence at ({a}, {b}, {q})")


def clopper_pearson_edges(R: int):
    """(a, b, q) of every beta quantile a Clopper-Pearson interval at R replicates takes."""
    for c in sorted({0, 1, 2, 19, R // 2, R - 1, R}):
        if c > 0:
            yield c, R - c + 1, 0.025
        if c < R:
            yield c + 1, R - c, 0.975


def _rel(got: float, exact) -> float:
    return float(abs((mpmath.mpf(got) - exact) / exact))


@pytest.mark.parametrize("R", [100, 10**4, 10**6])
def test_betaincinv_hits_the_clopper_pearson_edges(R):
    for a, b, q in clopper_pearson_edges(R):
        got = betaincinv(a, b, q)
        assert _rel(got, betaincinv_exact(a, b, q, got)) <= 1e-14, (a, b, q)


def test_betaincinv_where_scipy_is_1e8_off():
    # the upper edge at a count of 999 in 1e6
    got = betaincinv(1000, 999001, 0.975)
    exact = betaincinv_exact(1000, 999001, 0.975, got)
    assert mpmath.nstr(exact, 15) == "0.00106288717197713"
    assert _rel(got, exact) <= 1e-14
    # second opinion: scipy.special lands 1.0e-8 relative away from the root
    assert 0.9e-8 < _rel(float(scipy_betaincinv(1000, 999001, 0.975)), exact) < 1.1e-8


def test_betaincinv_refuses_what_it_does_not_cover():
    for a, b, q in ((0, 5, 0.5), (1.5, 5, 0.5), (2, 5, 0.0), (2, 5, 1.0)):
        with pytest.raises(ValueError):
            betaincinv(a, b, q)


def test_stirling_error_terms():
    # the table below 16 and the series above it
    for n in [*range(0, 60), 80, 81, 500, 501, 10**4, 10**6]:
        with mpmath.workdps(DPS):
            exact = (
                0
                if n == 0
                else mpmath.loggamma(n + 1) - (n + 0.5) * mpmath.log(n) + n
                - mpmath.log(mpmath.sqrt(2 * mpmath.pi))
            )
        assert abs(_stirlerr(n) - float(exact)) <= 2.5e-16, n


NDTR_GRID = np.concatenate(
    [
        np.linspace(-40.0, 9.0, 981),
        [-1.0, 1.0, -math.sqrt(0.5), math.sqrt(0.5), -20.0, math.nextafter(-20.0, 0.0), 0.0],
    ]
)


def test_ndtr_against_the_exact_normal_cdf():
    got = ndtr(NDTR_GRID)
    assert got.shape == NDTR_GRID.shape
    for z, value in zip(NDTR_GRID.tolist(), got.tolist()):
        with mpmath.workdps(DPS):
            exact = mpmath.ncdf(z)
        tol = float(exact) * (1e-14 + 2.0**-50 * z * z) + 2.0**-1070
        assert float(abs(mpmath.mpf(value) - exact)) <= tol, z


def test_log_ndtr_against_the_exact_log_cdf():
    grid = np.concatenate([NDTR_GRID, -np.logspace(0.0, 5.0, 201)])
    got = log_ndtr(grid)
    for z, value in zip(grid.tolist(), got.tolist()):
        with mpmath.workdps(DPS):
            exact = mpmath.log(mpmath.ncdf(z))
        assert _rel(value, exact) <= 1e-14 + 2.0**-50 * max(z, 0.0) ** 2, z


def test_gammaln_against_the_exact_log_gamma():
    grid = [0.5, 1.5, 2.5, 7.25, *range(1, 301), 10**3, 10**4, 10**5, 10**6, 10**7 + 1, 10**8]
    got = gammaln(np.array(grid, dtype=float))
    for x, value in zip(grid, got.tolist()):
        with mpmath.workdps(DPS):
            exact = mpmath.loggamma(mpmath.mpf(x))
        assert abs(value - float(exact)) <= 1e-14 * max(1.0, abs(float(exact))), x
    assert float(gammaln(5)) == math.lgamma(5)


@pytest.mark.parametrize(
    "terms",
    [
        # the moment bound's terms u ln(N p) - 2 ln u! at a few (p, N)
        *(
            u * math.log(n * p) - 2.0 * np.array([math.lgamma(k + 1) for k in u])
            for p, n in ((5, 10.0), (41, 1e4), (1001, 1e6))
            for u in [np.arange(1, (p - 1) // 2 + 1)]
        ),
        np.array([-1000.0, -1000.0 + 1e-9, -1030.0]),
        np.array([700.0, 0.0, -700.0]),
        np.array([2.5]),
    ],
    ids=["momthm-5", "momthm-41", "momthm-1001", "close-pair", "wide", "single"],
)
def test_logsumexp_against_the_exact_log_sum(terms):
    with mpmath.workdps(DPS):
        exact = mpmath.log(mpmath.fsum(mpmath.exp(mpmath.mpf(t)) for t in terms.tolist()))
    assert abs(logsumexp(terms) - float(exact)) <= 1e-14 * max(1.0, abs(float(exact)))
