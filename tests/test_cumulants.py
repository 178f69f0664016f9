import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstat

import nonconv.cumulants
from nonconv.budget import slice_rows
from nonconv.cumulants import (
    _kstats_from_power_sums,
    cumulants_to_moments,
    moments_to_cumulants,
    noncum_bound,
    sample_cumulants,
)
from nonconv.errors import ConfigError
from nonconv.rng import substream_rng


def touchard_poisson_moments(lam, p_max):
    # m_{n+1} = lam * sum_k C(n, k) m_k, an independent recursion
    ms = [1.0]
    for n in range(p_max):
        ms.append(lam * math.fsum(math.comb(n, k) * ms[k] for k in range(n + 1)))
    return ms[1:]


def enumerated_moments(cumulants):
    # the term-by-term partition sum: compositions enumerated afresh for
    # every order, each product formed left to right and added in order
    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(1, total - parts + 2):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    g = np.asarray(cumulants, dtype=float)
    dt = np.longdouble if g.size > 10 else np.float64
    gg = g.astype(dt)
    out = np.zeros(g.size, dtype=dt)
    for p in range(1, g.size + 1):
        total = dt(0.0)
        for u in range(1, p + 1):
            for comp in compositions(p, u):
                weight = math.factorial(p)
                for k in comp:
                    weight //= math.factorial(k)
                prod = dt(weight) / math.factorial(u)
                for k in comp:
                    prod = prod * gg[k - 1]
                total = total + prod
        out[p - 1] = total
    return out.astype(float)


class TestMomentCumulantMaps:
    @pytest.mark.parametrize("order", range(1, 17))
    def test_table_sum_matches_enumeration_bit_for_bit(self, order):
        # orders above 10 run in longdouble; signed zeros must survive too
        rng = substream_rng(8, order)
        vectors = [
            rng.uniform(-3.0, 3.0, order) * 10.0 ** rng.integers(-3, 4, order),
            np.full(order, -0.0),
            np.where(rng.random(order) < 0.5, 0.0, rng.standard_normal(order)),
        ]
        for cums in vectors:
            got = cumulants_to_moments(cums)
            assert got.tobytes() == enumerated_moments(cums).tobytes()


    def test_gaussian_cumulants_vanish_beyond_two(self):
        # N(1, 4): moments via the binomial/double-factorial closed form
        mu, var = 1.0, 4.0
        moments = []
        for p in range(1, 9):
            tot = 0.0
            for j in range(0, p + 1, 2):
                dfac = math.prod(range(j - 1, 0, -2)) if j else 1
                tot += math.comb(p, j) * dfac * var ** (j // 2) * mu ** (p - j)
            moments.append(tot)
        cums = moments_to_cumulants(moments)
        assert cums[0] == pytest.approx(mu, abs=1e-12)
        assert cums[1] == pytest.approx(var, abs=1e-12)
        np.testing.assert_allclose(cums[2:], 0.0, atol=1e-8)

    def test_poisson_cumulants_all_equal_lambda(self):
        lam = 2.0
        cums = moments_to_cumulants(touchard_poisson_moments(lam, 8))
        np.testing.assert_allclose(cums, lam, atol=1e-8)

    def test_poisson_raw_moments_frozen(self):
        # lambda = 2: first four raw moments 2, 6, 22, 94
        np.testing.assert_allclose(
            touchard_poisson_moments(2.0, 4), [2.0, 6.0, 22.0, 94.0]
        )
        np.testing.assert_allclose(
            cumulants_to_moments([2.0, 2.0, 2.0, 2.0]), [2.0, 6.0, 22.0, 94.0]
        )

    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=10),
    )
    def test_round_trip_property(self, cums):
        back = moments_to_cumulants(cumulants_to_moments(cums))
        np.testing.assert_allclose(back, cums, atol=1e-8)

    def test_empty_input_rejected(self):
        with pytest.raises(ConfigError):
            cumulants_to_moments([])


def vstack_sample_cumulants(samples):
    # the whole-array form: a centered longdouble copy, its stacked powers,
    # the delete-one estimates and their squared deviations all held at once
    x = np.asarray(samples, dtype=float)
    n = x.size
    grand_mean = float(x.mean())
    xc = (x - grand_mean).astype(np.longdouble)
    powers = np.vstack([xc**r for r in range(1, 5)])
    S = powers.sum(axis=1)
    shift = [grand_mean, 0.0, 0.0, 0.0]
    estimates = _kstats_from_power_sums(S, np.longdouble(n)).astype(float) + shift
    loo = _kstats_from_power_sums(S[:, None] - powers, np.longdouble(n - 1))
    center_loo = loo.mean(axis=1, keepdims=True)
    ses = np.sqrt((n - 1) / n * np.sum((loo - center_loo) ** 2, axis=1)).astype(float)
    return estimates, ses


# columns per jackknife slice: twelve longdoubles per column
SLICE = slice_rows(10**6, 12 * np.dtype(np.longdouble).itemsize)


class TestSampleCumulants:
    @pytest.mark.parametrize("n", [40, SLICE - 1, SLICE, SLICE + 1, 10**5 + 3])
    def test_sliced_jackknife_equals_the_whole_array_reference(self, n):
        # bit for bit: each element sees the same operations, and every
        # reduction runs over one whole row, however the columns are sliced
        assert 1000 < SLICE < 10**5
        rng = substream_rng(12, n)
        data = {
            "normal": rng.standard_normal(n) * 2.5 - 0.7,
            "skewed": rng.exponential(size=n) ** 3,
            "integer plus offset": rng.integers(0, 7, n) + 1e6 + 0.3,
        }
        for name, x in data.items():
            vec = sample_cumulants(x)
            estimates, ses = vstack_sample_cumulants(x)
            assert vec.cumulants.tobytes() == estimates.tobytes(), name
            assert vec.std_errors.tobytes() == ses.tobytes(), name

    def test_budget_request_matches_the_peak(self, monkeypatch):
        # the request is the traced peak of a warm call within 25%; the
        # whole-array form peaked at 3.2 times it
        requests = []
        monkeypatch.setattr(
            nonconv.cumulants, "ensure_within_budget", lambda b, label: requests.append((b, label))
        )
        x = substream_rng(13, 0).standard_normal(10**5 + 3)
        sample_cumulants(x)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sample_cumulants(x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        request, label = requests[-1]
        assert label == "jackknife cumulants"
        assert peak <= request <= 1.25 * peak

    def test_matches_scipy_kstats(self):
        rng = substream_rng(5, 21)
        x = rng.standard_normal(400) * 1.7 + 0.3
        vec = sample_cumulants(x)
        for k in range(1, 5):
            assert vec.cumulant(k) == pytest.approx(float(kstat(x, k)), rel=1e-10)

    def test_jackknife_errors_shrink_with_sample_size(self):
        rng = substream_rng(6, 21)
        small = sample_cumulants(rng.standard_normal(200))
        big = sample_cumulants(rng.standard_normal(20_000))
        assert big.std_error(3) < small.std_error(3)


class TestEnvelopes:
    def test_noncum_bound_frozen_value(self):
        # N = 100, k = 4, c0 = 2, gamma = 1: N (4!)^2 c0^2 = 230400
        assert math.exp(noncum_bound(100, 4, 2.0, 1.0)) == pytest.approx(230400.0)

    def test_below_order_three_rejected(self):
        with pytest.raises(ConfigError):
            noncum_bound(10, 2, 1.0, 1.0)

    def test_monotone_in_c0_and_n(self):
        assert noncum_bound(100, 3, 2.0, 1.0) > noncum_bound(100, 3, 1.0, 1.0)
        assert noncum_bound(200, 3, 1.0, 1.0) > noncum_bound(100, 3, 1.0, 1.0)


class TestStirlingComparison:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 8))
    def test_factorial_power_dominates_multinomial(self, lam, k):
        # (lam k)! <= lam^(lam k) (k!)^lam: the driver behind factorial
        # bookkeeping in the envelope exponents
        lhs = math.lgamma(lam * k + 1)
        rhs = lam * k * math.log(lam) + lam * math.lgamma(k + 1)
        assert lhs <= rhs + 1e-9
