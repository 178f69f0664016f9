"""Cumulant algebra, sample cumulants, and the cumulant growth envelope.

Moments and cumulants convert both ways exactly; sample cumulants are the
k-statistics of orders 1..4 with delete-one jackknife errors; and the
per-order envelope N (k!)^(1+gamma) c0^(k-2) that the verification battery
checks them against is evaluated in log space, so large k cannot overflow.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from nonconv.budget import ensure_within_budget, slice_rows
from nonconv.errors import ConfigError

EXACT_ORDER_CAP = 16
_ORDERS = 4  # sample cumulants are the k-statistics of orders 1..4


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


@functools.lru_cache(maxsize=EXACT_ORDER_CAP)
def _partition_table(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The terms of m_p's partition sum: integer weights p!/prod k_i!, u!, and index rows.

    Row r holds the parts k_1..k_u of one composition of p, padded with 0
    to width p; the rows run over u = 1..p, compositions in lexicographic
    order.  A leading row of weight 0 and all padding starts the sum at
    an exact zero.
    """
    comps = [c for u in range(1, p + 1) for c in _compositions(p, u)]
    p_fact = math.factorial(p)
    weights = [0] + [p_fact // math.prod(math.factorial(k) for k in c) for c in comps]
    u_facts = [1] + [math.factorial(len(c)) for c in comps]
    rows = np.zeros((len(comps) + 1, p), dtype=np.intp)
    for r, c in enumerate(comps, start=1):
        rows[r, : len(c)] = c
    table = (np.array(weights, dtype=np.int64), np.array(u_facts, dtype=np.int64), rows)
    for arr in table:  # shared by every caller through the cache
        arr.setflags(write=False)
    return table


def cumulants_to_moments(cumulants: Sequence[float]) -> np.ndarray:
    """Raw moments from cumulants by the explicit partition sum

        m_p = sum_u (1/u!) sum_{k_1+...+k_u = p} p!/(k_1!...k_u!) prod Gamma_{k_i}.

    Inverse of :func:`moments_to_cumulants`, computed independently of its
    recursion.  Each order's terms come from a table built once per order
    (:func:`_partition_table`): every term is (weight / u!) Gamma_{k_1} ...
    Gamma_{k_u}, multiplied left to right one column at a time (padding
    reads an exact 1), and the terms are added in table order by a
    sequential cumsum, so every moment is the same float as a term-by-term
    loop gives.
    """
    g = np.asarray(cumulants, dtype=float)
    K = g.size
    if not (1 <= K <= EXACT_ORDER_CAP):
        raise ConfigError(f"order must be in 1..{EXACT_ORDER_CAP}")
    dt = _working_dtype(K)
    padded = np.concatenate(([1.0], g)).astype(dt)  # index 0 is the padding
    out = np.zeros(K, dtype=dt)
    for p in range(1, K + 1):
        weights, u_facts, rows = _partition_table(p)
        terms = weights.astype(dt) / u_facts.astype(dt)
        for col in rows.T:
            terms *= padded[col]
        out[p - 1] = np.cumsum(terms)[-1]
    return out.astype(float)


# ---------------------------------------------------------------------------
# sample cumulants with jackknife errors
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CumulantVector:
    """Sample cumulants of orders 1..4 of one scalar variable with their jackknife SEs.

    The cumulants are the unbiased k-statistics.  Note they do not satisfy
    the exact conversion identities: the order-2 statistic is n/(n-1) times
    the plug-in variance.
    """

    cumulants: np.ndarray
    std_errors: np.ndarray

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


def request_jackknife(n_samples: int) -> int:
    """Ask the budget for what :func:`sample_cumulants` holds on ``n_samples`` values.

    That is one (4, n) longdouble array, per column of one slice the
    delete-one power sums, the four k-statistics and their stacked copy
    (twelve longdoubles), and 64 KiB for numpy's ufunc buffer and the full
    power sums.  Returns the columns per slice.
    """
    item = np.dtype(np.longdouble).itemsize
    columns = slice_rows(n_samples, 12 * item)
    ensure_within_budget((_ORDERS * n_samples + 12 * columns) * item + 2**16, "jackknife cumulants")
    return columns


def sample_cumulants(samples: np.ndarray) -> CumulantVector:
    """Cumulant estimates of orders 1..4 from one sample vector.

    The estimates are the unbiased polynomial k-statistics; their SEs are
    delete-one jackknife, computed from power-sum updates.  Everything runs
    in one (4, n) longdouble array, asked of the budget first
    (:func:`request_jackknife`): row r - 1 holds the centered data to the
    power r, then, one column slice at a time (``slice_rows``), the
    delete-one estimates, which are finally centered and squared in place.
    Every element sees the same operations as on whole-array temporaries,
    and every reduction runs over one whole contiguous row, so the results
    do not depend on the slicing.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size < 10 * _ORDERS:
        raise ConfigError(f"need a 1-d sample of at least {10 * _ORDERS} values")
    n = x.size
    columns = request_jackknife(n)
    grand_mean = float(x.mean())
    work = np.empty((_ORDERS, n), dtype=np.longdouble)
    # the float64 difference, widened: orders >= 2 are shift-invariant
    np.subtract(x, grand_mean, out=work[0], dtype=float)
    np.square(work[0], out=work[1])  # x * x, as ``** 2`` is; powl need not be
    for r in range(3, _ORDERS + 1):
        np.power(work[0], r, out=work[r - 1])
    S = work.sum(axis=1)  # full-sample power sums of the centered data
    # k-statistics of the centered data; only the first shifts back
    shift = [grand_mean, 0.0, 0.0, 0.0]
    estimates = _kstats_from_power_sums(S, np.longdouble(n)).astype(float) + shift

    # (order, n) delete-one estimates from delete-one power sums
    for a in range(0, n, columns):
        block = work[:, a : a + columns]
        block[...] = _kstats_from_power_sums(S[:, None] - block, np.longdouble(n - 1))
    work -= work.mean(axis=1, keepdims=True)
    np.square(work, out=work)
    ses = np.sqrt((n - 1) / n * work.sum(axis=1)).astype(float)
    return CumulantVector(cumulants=estimates, std_errors=ses)


# ---------------------------------------------------------------------------
# cumulant growth envelope
# ---------------------------------------------------------------------------


def noncum_bound(n_terms: int, k: int, c0: float, gamma: float) -> float:
    """Log of the per-order cumulant envelope for the centered sum:

        N (k!)^(1+gamma) c0^(k-2),          k >= 3."""
    from scipy.special import gammaln

    if k < 3:
        raise ConfigError("the envelope starts at order 3")
    if n_terms < 1 or c0 <= 0 or gamma < 0:
        raise ConfigError("need N >= 1, c0 > 0, gamma >= 0")
    fact = (1.0 + gamma) * float(gammaln(k + 1))
    return math.log(n_terms) + fact + (k - 2) * math.log(c0)
