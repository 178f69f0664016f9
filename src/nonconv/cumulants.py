"""Cumulant algebra, sample cumulants, and the cumulant growth envelope.

Moments and cumulants convert both ways exactly; sample cumulants come with
delete-one jackknife errors; and the per-order envelope
N (k!)^(1+gamma) c0^(k-2) that the verification battery checks them against
is evaluated in log space, so large k cannot overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import gammaln

from nonconv.errors import ConfigError

EXACT_ORDER_CAP = 16
SAMPLE_ORDER_CAP = 8


# ---------------------------------------------------------------------------
# moment <-> cumulant algebra
# ---------------------------------------------------------------------------


def _working_dtype(order: int):
    # extended precision guards the recursion once binomial weights get large
    return np.longdouble if order > 10 else np.float64


def moments_to_cumulants(moments: Sequence[float]) -> np.ndarray:
    """Cumulants from raw moments m_1..m_K via the binomial recursion

        Gamma_k = m_k - sum_{j<k} C(k-1, j-1) Gamma_j m_{k-j}.
    """
    m = np.asarray(moments, dtype=float)
    K = m.size
    if not (1 <= K <= EXACT_ORDER_CAP):
        raise ConfigError(f"order must be in 1..{EXACT_ORDER_CAP}")
    dt = _working_dtype(K)
    mm = m.astype(dt)
    gam = np.zeros(K, dtype=dt)
    for k in range(1, K + 1):
        acc = mm[k - 1]
        for j in range(1, k):
            acc -= math.comb(k - 1, j - 1) * gam[j - 1] * mm[k - j - 1]
        gam[k - 1] = acc
    return gam.astype(float)


def _compositions(total: int, parts: int):
    # ordered lists of `parts` positive integers summing to `total`
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def cumulants_to_moments(cumulants: Sequence[float], centered: bool = False) -> np.ndarray:
    """Raw moments from cumulants by the explicit partition sum

        m_p = sum_u (1/u!) sum_{k_1+...+k_u = p} p!/(k_1!...k_u!) prod Gamma_{k_i}.

    With ``centered`` the first cumulant must vanish and the outer sum is cut
    at u <= p/2 (blocks of size one drop out), which is the form used by the
    moment comparison bound.  Inverse of :func:`moments_to_cumulants`.
    """
    g = np.asarray(cumulants, dtype=float)
    K = g.size
    if not (1 <= K <= EXACT_ORDER_CAP):
        raise ConfigError(f"order must be in 1..{EXACT_ORDER_CAP}")
    if centered and abs(g[0]) > 1e-12:
        raise ConfigError("centered form requires a vanishing first cumulant")
    dt = _working_dtype(K)
    gg = g.astype(dt)
    out = np.zeros(K, dtype=dt)
    for p in range(1, K + 1):
        u_hi = p // 2 if centered else p
        total = dt(0.0)
        p_fact = math.factorial(p)
        for u in range(1, u_hi + 1):
            u_fact = math.factorial(u)
            for comp in _compositions(p, u):
                weight = p_fact
                for ki in comp:
                    weight //= math.factorial(ki)
                prod = dt(weight) / u_fact
                for ki in comp:
                    prod = prod * gg[ki - 1]
                total = total + prod
        out[p - 1] = total
    return out.astype(float)


# ---------------------------------------------------------------------------
# sample cumulants with jackknife errors
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CumulantVector:
    """Sample cumulants of one scalar variable with their jackknife SEs.

    The cumulants are k-statistics up to order 4 and plug-ins above it.
    Note the unbiased k-statistics do not satisfy the exact conversion
    identities: the order-2 statistic is n/(n-1) times the plug-in variance.
    """

    cumulants: np.ndarray
    std_errors: np.ndarray  # NaN without the jackknife

    def cumulant(self, k: int) -> float:
        return float(self.cumulants[k - 1])

    def std_error(self, k: int) -> float:
        return float(self.std_errors[k - 1])


def _kstats_from_power_sums(s: np.ndarray, n) -> np.ndarray:
    """Unbiased cumulant estimators of orders 1..4 from power sums s[r-1] = sum x^r.

    The classical polynomial formulas; vectorized so that delete-one power
    sums give all jackknife replicates in one pass.
    """
    s1, s2, s3, s4 = s[0], s[1], s[2], s[3]
    n = np.asarray(n, dtype=s1.dtype if hasattr(s1, "dtype") else float)
    k1 = s1 / n
    k2 = (n * s2 - s1**2) / (n * (n - 1))
    k3 = (2 * s1**3 - 3 * n * s1 * s2 + n**2 * s3) / (n * (n - 1) * (n - 2))
    k4 = (
        -6 * s1**4
        + 12 * n * s1**2 * s2
        - 3 * n * (n - 1) * s2**2
        - 4 * n * (n + 1) * s1 * s3
        + n**2 * (n + 1) * s4
    ) / (n * (n - 1) * (n - 2) * (n - 3))
    return np.stack([k1, k2, k3, k4])


def _plugin_high_orders(central: np.ndarray, k_max: int) -> np.ndarray:
    """Plug-in cumulants of orders 5..k_max from central moments (orders 2..k_max)."""
    dt = central.dtype
    gam = np.zeros((k_max,) + central.shape[1:], dtype=dt)
    mm = central  # mm[r-1] = central moment of order r, with mm[0] = 0
    for k in range(2, k_max + 1):
        acc = mm[k - 1].copy()
        for j in range(2, k):
            acc -= math.comb(k - 1, j - 1) * gam[j - 1] * mm[k - j - 1]
        gam[k - 1] = acc
    return gam


def sample_cumulants(samples: np.ndarray, k_max: int = 4, jackknife: bool = True) -> CumulantVector:
    """Cumulant estimates of orders 1..k_max from one sample vector.

    Orders up to 4 use the unbiased polynomial estimators; orders 5..8 are
    plug-in transforms of central moments (consistent, not unbiased).  SEs are
    delete-one jackknife, computed from power-sum updates so the whole thing
    is a handful of vector passes.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size < max(k_max * 10, k_max + 1):
        raise ConfigError("need a 1-d sample with at least 10x the max order")
    if not (1 <= k_max <= SAMPLE_ORDER_CAP):
        raise ConfigError(f"sample cumulants support orders 1..{SAMPLE_ORDER_CAP}")
    n = x.size
    grand_mean = float(x.mean())
    xc = (x - grand_mean).astype(np.longdouble)  # orders >= 2 are shift-invariant

    powers = np.vstack([xc**r for r in range(1, max(k_max, 4) + 1)])
    S = powers.sum(axis=1)  # full-sample power sums of the centered data

    full4 = _kstats_from_power_sums(S[:4], np.longdouble(n))
    estimates = np.zeros(k_max)
    for k in range(1, min(k_max, 4) + 1):
        estimates[k - 1] = float(full4[k - 1]) + (grand_mean if k == 1 else 0.0)
    if k_max > 4:
        mean_c = S[0] / n
        central = np.stack([
            sum(
                math.comb(r, j) * ((-mean_c) ** j) * (S[r - j - 1] / n if r - j >= 1 else 1.0)
                for j in range(0, r + 1)
            )
            for r in range(1, k_max + 1)
        ])
        central[0] = 0.0
        gam_hi = _plugin_high_orders(central, k_max)
        for k in range(5, k_max + 1):
            estimates[k - 1] = float(gam_hi[k - 1])

    ses = np.full(k_max, np.nan)
    if jackknife:
        loo_n = np.longdouble(n - 1)
        loo_S = S[:, None] - powers  # (order, n) delete-one power sums
        loo4 = _kstats_from_power_sums(loo_S[:4], loo_n)
        loo_all = np.zeros((k_max, n), dtype=np.longdouble)
        loo_all[: min(k_max, 4)] = loo4[: min(k_max, 4)]
        if k_max > 4:
            loo_mean = loo_S[0] / loo_n
            loo_central = np.stack([
                sum(
                    math.comb(r, j) * ((-loo_mean) ** j)
                    * (loo_S[r - j - 1] / loo_n if r - j >= 1 else 1.0)
                    for j in range(0, r + 1)
                )
                for r in range(1, k_max + 1)
            ])
            loo_central[0] = 0.0
            loo_all[4:k_max] = _plugin_high_orders(loo_central, k_max)[4:k_max]
        center_loo = loo_all.mean(axis=1, keepdims=True)
        ses = np.sqrt((n - 1) / n * np.sum((loo_all - center_loo) ** 2, axis=1)).astype(float)

    return CumulantVector(cumulants=estimates, std_errors=ses)


# ---------------------------------------------------------------------------
# cumulant growth envelope
# ---------------------------------------------------------------------------


def noncum_bound(
    n_terms: int, k: int, c0: float, gamma: float, normalized: bool = False
) -> float:
    """Log of the per-order cumulant envelope for the centered sum:

        N (k!)^(1+gamma) c0^(k-2),          k >= 3,

    or, for the sqrt(N)-normalized sum, (k!)^(1+gamma) (c0/sqrt(N))^(k-2)."""
    if k < 3:
        raise ConfigError("the envelope starts at order 3")
    if n_terms < 1 or c0 <= 0 or gamma < 0:
        raise ConfigError("need N >= 1, c0 > 0, gamma >= 0")
    fact = (1.0 + gamma) * float(gammaln(k + 1))
    if normalized:
        return fact + (k - 2) * (math.log(c0) - 0.5 * math.log(n_terms))
    return math.log(n_terms) + fact + (k - 2) * math.log(c0)
