import itertools
import math
import tracemalloc

import numpy as np
import pytest

from nonconv.budget import slice_rows
from nonconv.errors import BudgetError, ConfigError
from nonconv.indexing import linear_family, polynomial_family
from nonconv.observables import (
    Observable,
    batch_sums,
    center,
    clipped_poly_observable,
    decompose,
    exact_d_squared,
    exact_mean_SN,
    family_indices,
    indicator_product_observable,
    _term_bytes,
    lookup_sums,
    lookup_terms,
    product_observable,
    sum_observable,
)
from nonconv.processes import doubling_model, iid_model, markov_model, sample_paths

PAIR = markov_model([[0.9, 0.1], [0.2, 0.8]], [[1.0], [-1.0]])
RADEMACHER = iid_model([[1.0], [-1.0]], [0.5, 0.5])


def _exact_mean(model, centered, family, n_terms):
    # E S_N of one N enumerated alone
    return exact_mean_SN(model, centered, *family_indices(family, n_terms), (n_terms,))[n_terms]


def _component_total(c):
    # sum of the component tables, each broadcast over the axes it lacks
    return sum(comp.reshape(comp.shape + (1,) * (c.arity - comp.ndim)) for comp in c.components)


class TestCatalog:
    def test_product_values(self):
        obs = product_observable(3)
        pts = np.array([[[2.0], [3.0], [4.0]]])
        assert obs(pts)[0] == pytest.approx(24.0)

    def test_sum_values(self):
        obs = sum_observable(2)
        pts = np.array([[[2.0], [3.0]]])
        assert obs(pts)[0] == pytest.approx(5.0)

    def test_indicator_product(self):
        obs = indicator_product_observable(2, thresholds=[0.5, 0.5])
        pts = np.array([[[1.0], [0.0]], [[1.0], [1.0]]])
        np.testing.assert_allclose(obs(pts), [0.0, 1.0])

    def test_clipped_poly_respects_the_clip(self):
        obs = clipped_poly_observable(1, coeffs=[5.0], degrees=[3], clip=2.0)
        pts = np.array([[[10.0]]])
        assert obs(pts)[0] == pytest.approx(2.0)

    def test_product_bound_const(self):
        assert product_observable(2, value_bound=3.0).bound_const == pytest.approx(9.0)

    @pytest.mark.parametrize("k", [math.inf, math.nan, 0.0])
    def test_bound_const_must_be_finite_and_positive(self, k):
        with pytest.raises(ConfigError, match="need a finite K > 0"):
            sum_observable(1, bound_const=k)


class TestCentering:
    def test_mean_of_pair_product_under_stationary(self):
        # E x = 1/3 under (2/3, 1/3); independent-coordinate mean is 1/9
        c = center(product_observable(2), PAIR)
        assert c.mean == pytest.approx(1 / 9, abs=1e-14)

    def test_component_sups_frozen(self):
        # first component x/3 - 1/9 has sup 4/9 at x = -1;
        # second component xy - x/3 has sup 4/3
        c = center(product_observable(2), PAIR)
        assert c.component_sups[0] == pytest.approx(4 / 9, abs=1e-12)
        assert c.component_sups[1] == pytest.approx(4 / 3, abs=1e-12)

    def test_components_sum_to_centered_observable(self):
        c = center(product_observable(2), PAIR)
        pts = np.array(
            [[[1.0], [1.0]], [[1.0], [-1.0]], [[-1.0], [1.0]], [[-1.0], [-1.0]]]
        )
        centered = (c.base(pts) - c.mean).reshape(2, 2)
        np.testing.assert_allclose(_component_total(c), centered, atol=1e-13)
        np.testing.assert_allclose(_component_total(c), c.table, atol=1e-13)

    def test_first_component_is_mean_zero(self):
        c = center(product_observable(2), PAIR)
        law = PAIR.marginal()
        assert c.components[0].shape == (2,)
        assert float(c.components[0] @ law.probs) == pytest.approx(0.0, abs=1e-14)

    def test_arity_three_components(self):
        # three atoms, arity 3: component i is an (3,) * i table, the
        # components broadcast over trailing axes sum to F - mean, and each
        # integrates to zero over its last axis under the marginal law
        law = iid_model([[-1.0], [0.5], [2.0]], [0.2, 0.5, 0.3]).marginal()
        obs = clipped_poly_observable(
            3, coeffs=[1.0, -0.5, 0.25], degrees=[1, 2, 3], clip=1.5, value_bound=2.0
        )
        c = decompose(obs, law)
        assert [comp.shape for comp in c.components] == [(3,), (3, 3), (3, 3, 3)]
        np.testing.assert_allclose(_component_total(c), c.table, atol=1e-13)
        for comp in c.components:
            np.testing.assert_allclose(comp @ law.probs, 0.0, atol=1e-14)
        assert c.component_sups == tuple(float(np.max(np.abs(comp))) for comp in c.components)

    def test_centering_constant_matches_manual_sum(self):
        obs = product_observable(2)
        assert center(obs, RADEMACHER).mean == pytest.approx(0.0, abs=1e-14)


class TestExactMean:
    def test_chain_pair_closed_form(self):
        # E S_N = sum over n of Cov(x at n, x at 2n) = (8/9) sum 0.7^n
        c = center(product_observable(2), PAIR)
        fam = linear_family(2)
        for n_terms in (1, 3, 8):
            expect = (8 / 9) * sum(0.7**n for n in range(1, n_terms + 1))
            assert _exact_mean(PAIR, c, fam, n_terms) == pytest.approx(
                expect, abs=1e-12
            )

    @pytest.mark.parametrize(
        "n_terms, pinned",
        [(16, 2.067181318104077), (256, 2.0740740740739794), (1024, 2.074074074073681)],
    )
    def test_chain_pair_bits_pinned(self, n_terms, pinned):
        # recorded before the joint-law kernel replaced the per-term loop;
        # weights multiply left to right (a backward fold moves the last digits)
        c = center(product_observable(2), PAIR)
        assert _exact_mean(PAIR, c, linear_family(2), n_terms) == pinned

    def test_iid_mean_is_exactly_zero(self):
        c = center(product_observable(2), RADEMACHER)
        assert _exact_mean(RADEMACHER, c, linear_family(2), 50) == 0.0

    @pytest.mark.parametrize(
        "model, family",
        [
            (PAIR, linear_family(2)),
            (doubling_model([1.0, -1.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0], 3), linear_family(2)),
            (PAIR, polynomial_family([[1, 0], [1, 0, 0]], ray_start=2)),
        ],
        ids=["chain_pair", "doubling_pwc", "n-and-n-squared"],
    )
    def test_grid_equals_each_n_alone(self, monkeypatch, model, family):
        # one term mean per term of the largest N, each E S_N the fsum of a
        # prefix of them: bitwise what each N gives enumerated alone
        import nonconv.observables as obs

        c = center(product_observable(2), model)
        grid = (64, 256, 1024, 2048, 4096)
        alone = [_exact_mean(model, c, family, n).hex() for n in grid]
        weights, calls = obs.path_weights, []
        monkeypatch.setattr(obs, "path_weights", lambda *a: calls.append(a) or weights(*a))
        by_n = exact_mean_SN(model, c, *family_indices(family, grid[-1]), grid)
        assert [by_n[n].hex() for n in grid] == alone
        assert len(calls) == grid[-1]  # 4096 term means, not the 7488 of the N alone

    def test_montecarlo_agreement(self):
        c = center(product_observable(2), PAIR)
        fam = linear_family(2)
        sums = batch_sums(PAIR, c, fam, 6, 3, 40_000)
        exact = _exact_mean(PAIR, c, fam, 6)
        se = float(np.std(sums, ddof=1)) / math.sqrt(len(sums))
        assert abs(float(np.mean(sums)) - exact) < 5 * se


class TestExactVariance:
    def test_rademacher_product_limit_is_one(self):
        c = center(product_observable(2), RADEMACHER)
        assert exact_d_squared(RADEMACHER, c) == pytest.approx(1.0)

    def test_scalar_marginal_variance(self):
        m = iid_model([[0.0], [1.0]], [0.5, 0.5])
        c = center(product_observable(1), m)
        assert exact_d_squared(m, c) == pytest.approx(0.25)

    def test_unknown_case_returns_none(self):
        c = center(sum_observable(2), PAIR)
        assert exact_d_squared(PAIR, c) is None

    def test_degenerate_kernel_matches_enumerated_variance(self):
        # F(x, y) = (x + x^2) y + 0.3 x^2 y^3 is no product, but under the
        # symmetric three-atom law its first component E_y F - mean vanishes,
        # so Var S_N / N equals D^2 exactly at every N
        model = iid_model([[-1.0], [0.0], [1.0]], [0.25, 0.5, 0.25])
        kernel = lambda x, y: (x + x**2) * y + 0.3 * x**2 * y**3
        obs = Observable(
            arity=2, dim=1, fn=lambda p: kernel(p[:, 0, 0], p[:, 1, 0]), bound_const=2.3
        )
        fam = linear_family(2)
        d2 = exact_d_squared(model, center(obs, model))
        atoms, probs = model.law.atoms[:, 0], model.law.probs
        for n_terms in range(1, 5):
            uniq, positions = family_indices(fam, n_terms)
            # every assignment of atoms to the family's index set, with its weight
            paths = np.array(list(itertools.product(range(3), repeat=uniq.size)))
            weights = np.prod(probs[paths], axis=1)
            x = atoms[paths]
            sums = kernel(x[:, positions[:, 0]], x[:, positions[:, 1]]).sum(axis=1)
            var = weights @ (sums - weights @ sums) ** 2
            assert d2 == pytest.approx(var / n_terms, abs=1e-12)
        assert d2 == pytest.approx(0.6725, abs=1e-12)
        # F(x, y) = x + y keeps a live first component: no closed form
        assert exact_d_squared(model, center(sum_observable(2), model)) is None


class TestBatchSums:
    def test_single_replicate_consistency(self):
        c = center(product_observable(2), PAIR)
        fam = linear_family(2)
        block = batch_sums(PAIR, c, fam, 10, 5, 3)
        for j in range(3):
            one = batch_sums(PAIR, c, fam, 10, 5, 1, first_replicate=j)[0]
            assert one == block[j]

    def test_manual_tiny_instance(self):
        # N = 2, linear pair family: S = x1 x2 + x2 x4 - 2/9
        c = center(product_observable(2), PAIR)
        fam = linear_family(2)
        vals = sample_paths(PAIR, [1, 2, 4], 9, 5)[:, :, 0]
        expect = vals[:, 0] * vals[:, 1] + vals[:, 1] * vals[:, 2] - 2 / 9
        got = batch_sums(PAIR, c, fam, 2, 9, 5)
        np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_polynomial_family_indices(self):
        # q1 = n, q2 = n^2 + n: distinct index usage exercises the gather map
        c = center(product_observable(2), RADEMACHER)
        fam = polynomial_family([[1, 0], [1, 1, 0]])
        s = batch_sums(RADEMACHER, c, fam, 4, 1, 64)
        assert np.all(np.abs(s) <= 4 + 1e-12)

    @pytest.mark.parametrize(
        "model, obs, family",
        [
            (PAIR, product_observable(2), linear_family(2)),
            (RADEMACHER, product_observable(2), linear_family(2)),
            (
                doubling_model([1.0, -1.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0], 3),
                sum_observable(2),
                linear_family(2),
            ),
            (
                iid_model([[-1.0], [0.5], [2.0]], [0.2, 0.5, 0.3]),
                clipped_poly_observable(2, coeffs=[1.0, -0.5], degrees=[1, 2], clip=1.5,
                                        value_bound=2.0),
                polynomial_family([[1, 0], [1, 1, 0]]),
            ),
        ],
        ids=["chain", "iid", "doubling", "polynomial-family"],
    )
    def test_table_lookup_is_bitwise_the_evaluated_sum(self, model, obs, family):
        # the centered table holds F - mean exactly as F evaluates on values,
        # so looking terms up reproduces the evaluated sum bit for bit
        c = center(obs, model)
        n_terms, seed, R, first = 300, 4, 24, 7
        uniq, positions = family_indices(family, n_terms)
        paths = sample_paths(model, uniq, seed, R, first_replicate=first)
        args = np.ascontiguousarray(paths[:, positions, :])  # (R, N, arity, dim)
        terms = (c.base(args.reshape(-1, c.arity, model.dim)) - c.mean).reshape(R, n_terms)
        got = batch_sums(model, c, family, n_terms, seed, R, first_replicate=first)
        assert got.tobytes() == np.sum(terms, axis=1).tobytes()

    def test_index_table_gathers_the_columns(self):
        family = polynomial_family([[1, 0], [1, 1, 0]])
        uniq, positions = family_indices(family, 50)
        assert np.array_equal(uniq[positions], family.columns(50))

    @pytest.mark.parametrize("n_atoms", [3, 7])  # flat index fits uint8, needs uint16
    def test_flat_index_lookup_matches_tuple_gather(self, n_atoms):
        rs = np.random.default_rng(n_atoms)
        table = rs.standard_normal((n_atoms,) * 3)
        states = rs.integers(0, n_atoms, size=(33, 120))
        positions = rs.integers(0, 120, size=(400, 3))
        terms = table[tuple(states[:, positions[:, j]] for j in range(3))]
        want = np.sum(np.ascontiguousarray(terms), axis=1)
        # the sampler's narrow states, a wider unsigned type, and int64
        for state_type in (np.uint8, np.uint16, np.int64):
            got = lookup_sums(table, states.astype(state_type), positions)
            assert got.tobytes() == want.tobytes(), state_type

    @pytest.mark.parametrize(
        "arity, symmetric", [(1, True), (2, True), (2, False), (3, False)],
        ids=["arity-1", "arity-2", "arity-2-non-symmetric", "arity-3"],
    )
    def test_sliced_lookup_equals_one_shot_sums(self, arity, symmetric):
        # lookup_sums reduces one row slice at a time: at block sizes around
        # the slice's row count its bytes are the one-shot row sums
        # (the states are uint8, so are the flat indices of these tables)
        rs = np.random.default_rng(arity)
        table = rs.standard_normal((3,) * arity)
        if symmetric:
            table = sum(table.transpose(p) for p in itertools.permutations(range(arity)))
        assert np.array_equal(table, table.T) == symmetric
        n_terms = 5000
        rows = slice_rows(10**6, n_terms * _term_bytes(table, np.dtype(np.uint8)))
        assert 1 < rows < 100
        wide = rs.integers(0, 3, size=(3 * rows + 5, 9000), dtype=np.uint8)
        positions = rs.integers(0, 7000, size=(n_terms, arity))
        for R in (1, rows - 1, rows, rows + 1, 3 * rows + 5):
            # a column prefix of wider draws, as an i.i.d. block reads them
            states = wide[:R, :7000]
            want = np.sum(lookup_terms(table, states, positions), axis=1)
            assert lookup_sums(table, states, positions).tobytes() == want.tobytes(), R

    def test_alphabet_mismatch_raises(self):
        c = center(product_observable(2), PAIR)
        fam = linear_family(2)
        with pytest.raises(ConfigError):  # same shape, other values
            batch_sums(iid_model([[0.0], [1.0]], [0.5, 0.5]), c, fam, 4, 0, 8)
        with pytest.raises(ConfigError):  # another number of atoms
            batch_sums(iid_model([[1.0], [-1.0], [0.0]], [0.4, 0.4, 0.2]), c, fam, 4, 0, 8)

    def test_budget_violation_raises(self):
        # the refusal comes before the (1e7, 2) index table and its np.unique,
        # which at N = 1e7 peak near 1 GiB
        c = center(product_observable(2), RADEMACHER)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match="sum evaluation block"):
                batch_sums(RADEMACHER, c, linear_family(2), 10_000_000, 0, 10_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestValidation:
    def test_arity_mismatch_rejected(self):
        obs = product_observable(2)
        pts = np.zeros((4, 3, 1))
        with pytest.raises(ConfigError):
            obs(pts)
