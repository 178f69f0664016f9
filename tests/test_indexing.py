import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nonconv.indexing
from nonconv.errors import BudgetError, ConfigError
from nonconv.indexing import (
    linear_family,
    neighborhood,
    neighborhood_cap,
    neighborhood_sizes,
    polynomial_family,
)


def brute_neighborhood(arity, n, n_max, s):
    # definition written out: all m whose dilation distance to n is <= s
    out = []
    for m in range(1, n_max + 1):
        d = min(
            abs(i * n - j * m)
            for i in range(1, arity + 1)
            for j in range(1, arity + 1)
        )
        if d <= s:
            out.append(m)
    return np.asarray(out, dtype=np.int64)


def filter_neighborhood(arity, n, n_max, s):
    # vectorized filter of every m in [1, n_max], O(n_max * arity^2)
    i = np.arange(1, arity + 1, dtype=np.int64)
    ms = np.arange(1, n_max + 1, dtype=np.int64)
    prods = i[None, :, None] * ms[:, None, None]  # (M, arity, 1)
    targets = (i * n)[None, None, :]  # (1, 1, arity)
    dist = np.min(np.abs(prods - targets), axis=(1, 2))
    return ms[dist <= s]


class TestFamilies:
    def test_linear_values(self):
        fam = linear_family(3)
        assert fam.columns(5)[4, 1] == 10
        np.testing.assert_array_equal(fam.columns(4)[3], [4, 8, 12])

    def test_polynomial_values(self):
        fam = polynomial_family([[1, 0], [1, 0, 1]])  # n and n^2 + 1
        np.testing.assert_array_equal(fam.columns(7)[6], [7, 50])

    def test_power_sparse_values(self):
        # q(n^3) for q = n, 2n, written as expanded polynomials
        fam = polynomial_family([[1, 0, 0, 0], [2, 0, 0, 0]])
        np.testing.assert_array_equal(fam.columns(2)[1], [8, 16])

    def test_linear_is_the_dilation_family_from_one(self):
        assert linear_family(3).coeffs == ((1, 0), (2, 0), (3, 0))
        assert linear_family(3).linear
        assert polynomial_family([[1, 0], [2, 0]]).linear
        assert not polynomial_family([[1, 0], [2, 0]], ray_start=2).linear
        assert not polynomial_family([[1, 0], [1, 0, 1]]).linear
        assert not polynomial_family([[1, 0], [3, 0]]).linear

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=5),
        st.integers(1, 2**40),
        st.one_of(st.integers(0, 2**15), st.integers(2**32, 2**32 + 2**12)),
    )
    @example([0, 0], 1, 2**32 + 1)  # n^2 there wraps in int64 to 2^33 + 1
    def test_horner_matches_exact_integers(self, tail, lead, n):
        # every value is the exact integer, or the evaluator refuses it: one
        # that leaves [1, 2^53), or one whose Horner partials are not certified
        # below 2^62 (so no int64 step can wrap)
        coeffs = (lead, *tail)
        exact = sum(c * n**k for k, c in enumerate(reversed(coeffs)))
        certified = sum(abs(c) * n**k for k, c in enumerate(reversed(coeffs))) < 2**62
        try:
            got = int(polynomial_family([coeffs], ray_start=n).columns(1)[0, 0])
        except ConfigError:
            assert not (certified and 1 <= exact < 2**53)
        else:
            assert got == exact and 1 <= exact < 2**53

    def test_values_past_int64_are_refused_not_wrapped(self):
        # (2^32 + 1)^2 wraps in int64 to 2^33 + 1; the bound refuses it
        fam = polynomial_family([[1, 0, 0]], ray_start=2**32 + 1)
        with pytest.raises(ConfigError, match="cannot be evaluated exactly"):
            fam.columns(4)

    @pytest.mark.parametrize("n_terms", [10_000, 200_000])
    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_columns_request_covers_the_traced_peak(self, arity, n_terms, monkeypatch):
        # above 256 KiB numpy reuses a Horner temporary, so at arity 1 the
        # peak drops from 32 to 25 bytes per term under the same request
        requests = []
        monkeypatch.setattr(nonconv.indexing, "ensure_within_budget", lambda b, _: requests.append(b))
        fam = linear_family(arity)
        fam.columns(n_terms)
        tracemalloc.start()
        try:
            fam.columns(n_terms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= requests[-1] <= 1.35 * peak

    def test_columns_refused_over_the_budget(self, monkeypatch):
        monkeypatch.setenv("NONCONV_BUDGET_MB", "1")
        assert linear_family(2).columns(10_000).shape == (10_000, 2)
        with pytest.raises(BudgetError, match="index family columns needs 4.7 MiB"):
            linear_family(2).columns(100_000)

    def test_square_at_the_float_exact_boundary(self):
        fam = polynomial_family([[1, 0, 0]], ray_start=94906265)
        assert fam.columns(1)[0, 0] == 9007199136250225  # just below 2^53
        with pytest.raises(ConfigError, match=r"\[1, 2\^53\)"):
            polynomial_family([[1, 0, 0]], ray_start=94906266).columns(1)

    @pytest.mark.parametrize(
        "coeffs, ray_start",
        [([[1, 0]], 2**64), ([[2**64, 0]], 1), ([[1, -(2**63) - 1]], 1)],
        ids=["ray-start", "leading-coefficient", "constant-term"],
    )
    def test_inputs_outside_int64_are_refused(self, coeffs, ray_start):
        with pytest.raises(ConfigError, match="must fit in int64"):
            polynomial_family(coeffs, ray_start=ray_start)

    def test_family_rejects_values_below_one(self):
        fam = polynomial_family([[1, -5]])  # n - 5
        with pytest.raises(ConfigError):
            fam.columns(3)

    @pytest.mark.parametrize(
        "coeffs, where",
        [
            ([[1, 0, 0], [2, 0]], "at n = 2: q_1(n) = 4 >= q_2(n) = 4"),  # n^2 meets 2n
            ([[2, 0], [1, 0]], "at n = 1: q_1(n) = 2 >= q_2(n) = 1"),
        ],
        ids=["square-meets-double", "descending"],
    )
    def test_unordered_maps_rejected_at_first_n(self, coeffs, where):
        fam = polynomial_family(coeffs)
        with pytest.raises(ConfigError) as exc:
            fam.columns(9)
        assert where in str(exc.value)

    @pytest.mark.parametrize(
        "coeffs, where",
        [
            ([[1, -3, 3]], "at n = 2: q_1(n) = 1 <= q_1(n - 1) = 1"),  # n^2 - 3n + 3
            ([[1, 0], [1, -3, 5]], "at n = 2: q_2(n) = 3 <= q_2(n - 1) = 3"),
        ],
        ids=["single-map", "second-map"],
    )
    def test_stalling_maps_rejected_at_first_n(self, coeffs, where):
        with pytest.raises(ConfigError) as exc:
            polynomial_family(coeffs).columns(9)
        assert where in str(exc.value)
        # from ray start 2 on the same maps increase strictly
        cols = polynomial_family(coeffs, ray_start=2).columns(8)
        assert np.all(np.diff(cols, axis=0) > 0)


class TestNeighborhood:
    @pytest.mark.parametrize("arity", [1, 2, 3, 4])
    def test_matches_bruteforce(self, arity):
        for n in (1, 7, 40, 99):
            for s in (1, 5, 17):
                got = neighborhood(arity, n, 100, s)
                np.testing.assert_array_equal(got, brute_neighborhood(arity, n, 100, s))

    @pytest.mark.parametrize("arity", [1, 2, 3, 4])
    def test_interval_union_matches_filter_oracle(self, arity):
        for s in (0, 1, 7, 50):
            for n in range(1, 501):
                want = filter_neighborhood(arity, n, 500, s)
                got = neighborhood(arity, n, 500, s)
                assert got.dtype == np.int64
                np.testing.assert_array_equal(got, want)
        for n_max in (1, 3, 37):  # clipped, and empty once n is far above n_max
            for n in (1, 2, 40, 200):
                got = neighborhood(arity, n, n_max, 5)
                assert got.dtype == np.int64
                np.testing.assert_array_equal(got, filter_neighborhood(arity, n, n_max, 5))

    @pytest.mark.parametrize("arity", [1, 2, 3, 4])
    def test_sizes_match_point_sets_and_filter_oracle(self, arity):
        # n_max = 1 and 37 clip most intervals and leave some empty
        for s in (0, 1, 2, 7, 50):
            for n_max in (1, 37, 500):
                got = neighborhood_sizes(arity, n_max, s)
                assert got.dtype == np.int64 and got.shape == (n_max,)
                points = [neighborhood(arity, n, n_max, s).size for n in range(1, n_max + 1)]
                oracle = [filter_neighborhood(arity, n, n_max, s).size for n in range(1, n_max + 1)]
                np.testing.assert_array_equal(got, points)
                np.testing.assert_array_equal(got, oracle)

    def test_sizes_reject_bad_arguments(self):
        for args in ((0, 10, 1), (2, 0, 1), (2, 10, -1)):
            with pytest.raises(ConfigError):
                neighborhood_sizes(*args)

    def test_contains_its_center(self):
        assert 13 in neighborhood(3, 13, 200, 1)

    @settings(max_examples=150, deadline=None)
    @given(
        arity=st.integers(1, 4),
        n=st.integers(1, 300),
        s=st.integers(1, 60),
    )
    def test_size_bound_property(self, arity, n, s):
        size = neighborhood(arity, n, 300, s).size
        assert size <= neighborhood_cap(arity, s)

    def test_cap_value(self):
        assert neighborhood_cap(2, 10) == 120.0
