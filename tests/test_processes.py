import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import nonconv.observables
import nonconv.processes
from nonconv.budget import slice_rows
from nonconv.errors import BudgetError, ConfigError
from nonconv.indexing import linear_family
from nonconv.martingale import MartingaleDecomposition
from nonconv.montecarlo import sums_over_grid
from nonconv.observables import batch_sums, center, family_indices, lookup_sums, product_observable
from nonconv.processes import (
    _chain_states,
    _draw,
    _dyadic_cells,
    _gap_thresholds,
    alpha_coefficient,
    as_chain,
    doubling_model,
    doubling_to_markov,
    iid_model,
    markov_model,
    path_weights,
    phi_bruteforce,
    phi_coefficient,
    phi_tail,
    sample_paths,
    sample_state_paths,
    stationary_distribution,
    transition_power,
)
from nonconv.rng import replicate_rng
from nonconv.verification import preset_experiment

PAIR = [[0.9, 0.1], [0.2, 0.8]]
PAIR_VALUES = [[1.0], [-1.0]]
TRIPLE = [[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.2, 0.2, 0.6]]
TRIPLE_VALUES = [[-1.0], [0.0], [1.0]]


@pytest.fixture(scope="module")
def pair():
    return markov_model(PAIR, PAIR_VALUES)


@pytest.fixture(scope="module")
def triple():
    return markov_model(TRIPLE, TRIPLE_VALUES)


class TestStationary:
    def test_two_state_closed_form(self):
        # [[1-p, p], [q, 1-q]] has stationary law (q, p)/(p+q)
        pi = stationary_distribution(np.asarray(PAIR))
        np.testing.assert_allclose(pi, [2 / 3, 1 / 3], atol=1e-13)

    def test_invariance(self, triple):
        pi = triple.stationary
        np.testing.assert_allclose(pi @ triple.transition, pi, atol=1e-13)

    def test_reducible_chain_is_rejected(self):
        with pytest.raises(ConfigError):
            markov_model([[1.0, 0.0], [0.0, 1.0]], PAIR_VALUES)


class TestPhi:
    def test_pair_value_frozen(self, pair):
        # TV(P(0,.), pi) = 7/30, TV(P(1,.), pi) = 7/15; the max is 7/15
        assert phi_coefficient(pair, 1) == pytest.approx(7 / 15, abs=1e-14)

    def test_geometric_decay_of_two_state_chain(self, pair):
        # second eigenvalue 0.7 drives the rate exactly
        for n in range(1, 7):
            assert phi_coefficient(pair, n) == pytest.approx(
                (7 / 15) * 0.7 ** (n - 1), abs=1e-12
            )

    def test_bruteforce_equals_closed_form_across_windows(self, pair, triple):
        for model in (pair, triple):
            for n in (1, 2, 4):
                phi = phi_coefficient(model, n)
                for pw in (1, 2, 3):
                    for fw in (1, 2, 3):
                        assert phi_bruteforce(model, n, pw, fw) == pytest.approx(
                            phi, abs=1e-12
                        )

    def test_monotone_in_gap(self, triple):
        vals = [phi_coefficient(triple, n) for n in range(1, 8)]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


class TestAlpha:
    def test_dominated_by_half_phi(self, pair, triple):
        for model in (pair, triple):
            for n in (1, 2, 3):
                phi = phi_coefficient(model, n)
                for pw, fw in [(1, 1), (2, 1), (1, 2), (2, 2)]:
                    assert alpha_coefficient(model, n, pw, fw) <= phi / 2 + 1e-12


class TestDoublingEmbedding:
    def test_chain_reproduces_table_and_uniform_law(self):
        table = [1.0, -1.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0]
        chain = doubling_to_markov(doubling_model(table, 3))
        assert chain.n_states == 8
        np.testing.assert_allclose(chain.stationary, np.full(8, 1 / 8), atol=1e-12)
        np.testing.assert_array_equal(chain.values[:, 0], table)
        # the shift map: each state passes to exactly two successors, 1/2 each
        np.testing.assert_allclose(np.sort(chain.transition, axis=1)[:, -2:], 0.5)


def _random_chain(n_states):
    """A chain with random rows and 200 indices at gaps 1, 2 and 5.

    Past 64 states, the cap of a configured chain, it is an i.i.d. law's chain.
    """
    rs = np.random.default_rng(n_states)
    P = rs.random((n_states, n_states)) ** 3 + 0.01
    P /= P.sum(axis=1, keepdims=True)
    values = np.arange(n_states, dtype=float)[:, None]
    if n_states > 64:
        model = as_chain(iid_model(values, P[0]))
    else:
        model = markov_model(P, values)
    return model, np.cumsum(rs.choice([1, 2, 5], size=200))


def _time_major_walk(model, idx, uniforms):
    """Reference: the chain walk on time-major copies of the uniforms and the states.

    Each step reads one contiguous column of the transposed uniforms and
    writes one contiguous row of the (indices, replicates) walk, which is
    copied back to (replicates, indices) at the end.
    """
    if model.n_states == 1:
        return np.zeros(uniforms.shape, dtype=np.uint8)
    gaps = np.diff(idx).tolist()
    tables = {g: _gap_thresholds(model, g) for g in set(gaps)}
    u_cols = np.ascontiguousarray(uniforms.T)
    walk = np.empty(u_cols.shape, dtype=np.min_scalar_type(model.n_states - 1))
    _draw(model.stationary, u_cols[0], walk[0])
    first = walk.view(bool) if walk.itemsize == 1 else walk
    thr = np.empty(u_cols.shape[1])
    hit = np.empty(u_cols.shape[1], dtype=bool)
    for t, g in enumerate(gaps, start=1):
        prev, nxt, u = walk[t - 1], walk[t], u_cols[t]
        rows = tables[g]
        rows[0].take(prev, out=thr, mode="clip")
        np.less_equal(thr, u, out=first[t], casting="unsafe")
        for row in rows[1:]:
            row.take(prev, out=thr, mode="clip")
            np.less_equal(thr, u, out=hit)
            nxt += hit
    return np.ascontiguousarray(walk.T)


def _given(shape, dtype):
    """A state array for a kernel to fill, every entry set to the type's largest value."""
    return np.full(shape, np.iinfo(dtype).max, dtype=dtype)


class TestInPlaceWalk:
    """The chain walk in place equals the time-major reference bit for bit."""

    def _check(self, model, idx, n_replicates, seed):
        state_type = np.min_scalar_type(model.n_states - 1)
        uniforms = np.random.default_rng(seed).random((n_replicates, len(idx)))
        want = _time_major_walk(model, idx, uniforms)
        got = _given(uniforms.shape, state_type)
        assert _chain_states(model, idx, uniforms, got) is None
        assert want.dtype == state_type
        assert got.tobytes() == want.tobytes()
        # the sampler allocates the states the kernel fills
        states = sample_state_paths(model, idx, seed, n_replicates)
        assert states.dtype == state_type and states.shape == uniforms.shape
        assert states.flags.c_contiguous and states.flags.owndata

    @pytest.mark.parametrize("n_terms", [16, 256, 4096])
    def test_chain_pair_index_sets(self, n_terms):
        exp = preset_experiment("chain_pair", (n_terms,), 512)
        uniq, _ = family_indices(exp.family, n_terms)
        self._check(exp.model, uniq, 512, n_terms)

    def test_one_index_takes_no_step(self, triple):
        self._check(triple, np.array([7]), 512, 1)

    def test_wide_states(self):
        model, idx = _random_chain(300)
        assert model.n_states == 300
        self._check(model, idx, 40, 300)

    def test_one_state_fills_zeros(self):
        model, idx = _random_chain(1)
        self._check(model, idx, 40, 1)


def _column_copy_cells(model, idx, uniforms):
    """Reference: the doubling-map walk that copies each column of cells out of its window."""
    L = model.level
    mask = (1 << L) - 1
    gaps = np.diff(idx)
    window = (uniforms[:, 0] * (1 << L)).astype(np.int64)
    cells = np.empty(uniforms.shape, dtype=np.min_scalar_type(mask))
    cells[:, 0] = window
    for t in range(1, idx.size):
        g = int(min(gaps[t - 1], L))
        fresh = (uniforms[:, t] * (1 << g)).astype(np.int64)
        window = ((window << g) | fresh) & mask
        cells[:, t] = window
    return cells


class TestInPlaceCells:
    """The doubling-map walk in place equals the column-copy reference bit for bit."""

    @pytest.mark.parametrize("level", [1, 3, 9])
    def test_gaps_below_at_and_past_the_level(self, level):
        # gaps of 1, L - 1, L, L + 1 and 3L (level 9 needs uint16 cells)
        gaps = [g for g in (1, level - 1, level, level + 1, 3 * level) if g > 0]
        idx = np.cumsum([5] + gaps * 4)
        model = doubling_model(np.linspace(-1.0, 1.0, 1 << level), level)
        for index_set in (idx, idx[:1]):
            uniforms = np.random.default_rng(level).random((300, index_set.size))
            want = _column_copy_cells(model, index_set, uniforms)
            got = _given(uniforms.shape, np.min_scalar_type((1 << level) - 1))
            assert _dyadic_cells(model, index_set, uniforms, got) is None
            assert got.dtype == want.dtype == (np.uint16 if level == 9 else np.uint8)
            assert got.tobytes() == want.tobytes()


class TestWalkLock:
    """Each dependent walk takes the one walk lock once; an i.i.d. draw never does."""

    @pytest.mark.parametrize(
        "preset, takes", [("chain_pair", 1), ("doubling_pwc", 1), ("iid_product", 0)]
    )
    def test_one_sampler_call_takes_the_lock(self, preset, takes, monkeypatch):
        taken = []
        lock = nonconv.processes._WALK_LOCK

        class CountingLock:
            def __enter__(self):
                taken.append(True)
                return lock.__enter__()

            def __exit__(self, *exc):
                return lock.__exit__(*exc)

        monkeypatch.setattr(nonconv.processes, "_WALK_LOCK", CountingLock())
        model = preset_experiment(preset, (64,), 100).model
        sample_state_paths(model, np.arange(1, 129), 3, 16)
        assert len(taken) == takes


class TestSampling:
    def test_batching_invariance(self, pair):
        idx = [1, 2, 5, 9]
        full = sample_paths(pair, idx, 7, 6)
        head = sample_paths(pair, idx, 7, 4)
        tail = sample_paths(pair, idx, 7, 2, first_replicate=4)
        np.testing.assert_array_equal(full, np.concatenate([head, tail]))

    def test_states_agree_with_values(self, pair):
        # one sampler for every model kind: values are the marginal atoms at
        # the integer states drawn from the same streams
        models = (
            pair,
            iid_model([[-1.0], [0.5], [2.0]], [0.2, 0.5, 0.3]),
            doubling_model([1.0, -1.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0], 3),
        )
        idx = [2, 3, 8, 9, 30]
        for model in models:
            states = sample_state_paths(model, idx, 3, 5, first_replicate=2)
            n_states = model.marginal().atoms.shape[0]
            assert states.dtype == np.min_scalar_type(n_states - 1)
            assert states.flags.c_contiguous and states.shape == (5, len(idx))
            vals = sample_paths(model, idx, 3, 5, first_replicate=2)
            np.testing.assert_array_equal(model.marginal().atoms[states], vals)

    @pytest.mark.parametrize("n_states", [1, 3, 5, 300])
    def test_chain_walk_matches_row_gather_reference(self, n_states):
        # reference: per replicate a fresh stream, per step the cumulative
        # row of P^g at the previous state, next = min(#{cum <= u}, S - 1);
        # one state has no thresholds, and 300 (an i.i.d. law's chain, past
        # the cap of a configured chain) walks in uint16
        model, idx = _random_chain(n_states)
        P = model.transition
        cum = {g: np.cumsum(np.linalg.matrix_power(P, g), axis=1) for g in (1, 2, 5)}
        seed, R, first = 2**63 + 5, 40, 9
        want = np.empty((R, idx.size), dtype=np.int64)
        for j in range(R):
            u = replicate_rng(seed, first + j).random(idx.size)
            pi_cum = np.cumsum(model.stationary)
            want[j, 0] = min(np.searchsorted(pi_cum, u[0], side="right"), n_states - 1)
            for t in range(1, idx.size):
                row = cum[int(idx[t] - idx[t - 1])][want[j, t - 1]]
                want[j, t] = min(int(np.sum(row <= u[t])), n_states - 1)
        got = sample_state_paths(model, idx, seed, R, first_replicate=first)
        assert got.dtype == np.min_scalar_type(n_states - 1) and got.flags.c_contiguous
        np.testing.assert_array_equal(got, want)

    def test_doubling_cells_match_bit_window_reference(self):
        # level 9 needs uint16 cells; reference: the int64 bit window, per
        # replicate a fresh stream, shifting min(gap, L) fresh bits in
        L = 9
        model = doubling_model(np.linspace(-1.0, 1.0, 1 << L), L)
        idx = np.array([1, 2, 4, 9, 30, 31, 45])
        seed, R, first = 17, 30, 3
        want = np.empty((R, idx.size), dtype=np.int64)
        for j in range(R):
            u = replicate_rng(seed, first + j).random(idx.size)
            window = int(u[0] * (1 << L))
            want[j, 0] = window
            for t in range(1, idx.size):
                g = min(int(idx[t] - idx[t - 1]), L)
                window = ((window << g) | int(u[t] * (1 << g))) & ((1 << L) - 1)
                want[j, t] = window
        got = sample_state_paths(model, idx, seed, R, first_replicate=first)
        assert got.dtype == np.uint16 and got.flags.c_contiguous
        np.testing.assert_array_equal(got, want)

    def test_sliced_iid_draw_matches_whole_block_reference(self):
        # the i.i.d. draw fills the states one row slice at a time; at block
        # sizes around the slice's row count they are the whole block's
        # inverse-CDF draw from one fresh stream per replicate
        law = iid_model([[-1.0], [0.0], [0.5], [2.0], [3.0]], [0.1, 0.3, 0.2, 0.25, 0.15])
        idx = np.arange(3, 60003, 3)
        rows = slice_rows(10**6, 9 * idx.size)  # a uniform and a mask byte per entry
        assert 1 < rows < 100
        seed, first = 2**63 + 5, 11
        u = np.array([replicate_rng(seed, first + j).random(idx.size) for j in range(3 * rows + 5)])
        want = np.minimum(np.searchsorted(np.cumsum(law.law.probs), u, side="right"), 4)
        for R in (1, rows - 1, rows, rows + 1, 3 * rows + 5):
            got = sample_state_paths(law, idx, seed, R, first_replicate=first)
            assert got.dtype == np.uint8 and got.flags.c_contiguous
            np.testing.assert_array_equal(got, want[:R], err_msg=str(R))

    @pytest.mark.parametrize("kind", ["chain", "iid", "doubling"])
    def test_budget_requests_match_the_peaks(self, kind, monkeypatch):
        # each request is the traced peak of its phase, within 25%, on a warm
        # call at one engine block: sampling 4096 indices, and the lookup of
        # the pair sum at N = 2048 (3072 indices) once the states are drawn
        model = {
            "chain": markov_model(PAIR, PAIR_VALUES),
            "iid": iid_model([[-1.0], [0.5], [2.0]], [0.2, 0.5, 0.3]),
            "doubling": doubling_model([1.0, -1.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0], 3),
        }[kind]
        requests = {}

        def record(nbytes, label):
            requests[label] = nbytes

        monkeypatch.setattr(nonconv.processes, "ensure_within_budget", record)
        monkeypatch.setattr(nonconv.observables, "ensure_within_budget", record)
        R, idx, family = 512, np.arange(1, 4097), linear_family(2)
        centered = center(product_observable(2), model)
        table = centered.table_for(model)
        uniq, positions = family_indices(family, 2048)
        batch_sums(model, centered, family, 2048, 1, R)
        sample_state_paths(model, idx, 1, R)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sample_state_paths(model, idx, 1, R)
            sampling = tracemalloc.get_traced_memory()[1] - base
            sampling_request = requests["state path block"]
            states = sample_state_paths(model, uniq, 1, R)
            tracemalloc.reset_peak()
            lookup_sums(table, states, positions)
            lookup = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert sampling <= sampling_request <= 1.25 * sampling
        assert lookup <= requests["sum evaluation block"] <= 1.25 * lookup

    def test_gap_jumps_match_dense_sampling(self, pair):
        # sampling {1, 4} must give the same joint law as marginalizing {1,..,4};
        # compare exceedance frequencies of the same event under both stencils
        dense = sample_state_paths(pair, [1, 2, 3, 4], 11, 4000)[:, [0, 3]]
        sparse = sample_state_paths(pair, [1, 4], 13, 4000)
        f_dense = np.mean((dense[:, 0] == 0) & (dense[:, 1] == 0))
        f_sparse = np.mean((sparse[:, 0] == 0) & (sparse[:, 1] == 0))
        # P(both in state 0) = pi_0 * P^3[0, 0]
        p = (2 / 3) * np.linalg.matrix_power(np.asarray(PAIR), 3)[0, 0]
        assert abs(f_dense - p) < 0.025
        assert abs(f_sparse - p) < 0.025

    def test_marginal_frequencies(self, pair):
        states = sample_state_paths(pair, [40], 5, 8000)[:, 0]
        assert abs(np.mean(states == 0) - 2 / 3) < 0.02

    def test_iid_moments(self):
        m = iid_model([[0.0], [1.0]], [0.75, 0.25])
        x = sample_paths(m, [1, 2, 3], 2, 8000)
        assert abs(float(np.mean(x)) - 0.25) < 0.02

    def test_doubling_paths_live_on_the_table(self):
        table = [1.0, -1.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0]
        m = doubling_model(table, 3)
        x = sample_paths(m, [1, 2, 7], 2, 200)
        assert set(np.unique(x)) <= {-1.0, 1.0}


class TestThresholdDraw:
    """The threshold count agrees elementwise with the searchsorted inverse CDF."""

    def _check(self, probs, u):
        got = _given(u.shape, np.min_scalar_type(probs.size - 1))
        assert _draw(probs, u, got) is None
        want = np.minimum(np.searchsorted(np.cumsum(probs), u, side="right"), probs.size - 1)
        np.testing.assert_array_equal(got, want)
        return got

    def test_ties_at_every_cumulative_value(self):
        probs = np.array([0.25, 0.125, 0.5, 0.125])
        cum = np.cumsum(probs)
        u = np.concatenate([cum, np.nextafter(cum, 0.0), [0.0]])
        got = self._check(probs, u)
        # a uniform equal to a cumulative value belongs to the next atom
        np.testing.assert_array_equal(got[:3], [1, 2, 3])

    def test_zero_probability_atom_is_never_drawn(self):
        probs = np.array([0.3, 0.0, 0.7])
        u = np.concatenate([np.random.default_rng(0).random(10_000), [0.3, np.nextafter(0.3, 0.0)]])
        got = self._check(probs, u)
        assert not np.any(got == 1)

    def test_cumsum_ending_below_one(self):
        probs = np.full(10, 0.1)
        assert np.cumsum(probs)[-1] < 1.0
        u = np.array([np.cumsum(probs)[-1], np.nextafter(1.0, 0.0), 0.95])
        np.testing.assert_array_equal(self._check(probs, u), [9, 9, 9])

    @pytest.mark.parametrize("n_atoms, dtype", [(256, np.uint8), (257, np.uint16)])
    def test_type_boundary(self, n_atoms, dtype):
        rs = np.random.default_rng(n_atoms)
        probs = rs.random(n_atoms)
        probs /= probs.sum()
        u = np.concatenate([rs.random(20_000), np.cumsum(probs), [np.nextafter(1.0, 0.0)]])
        assert self._check(probs, u).dtype == dtype
        model = iid_model(np.arange(n_atoms, dtype=float)[:, None], probs)
        states = sample_state_paths(model, [1, 3, 4], 5, 64)
        assert states.dtype == dtype and states.flags.c_contiguous and states.flags.owndata


class TestMixingProfile:
    """phi per gap (phi_coefficient) and its certified tail (phi_tail)."""

    def test_chain_profile_is_exact_at_small_gaps(self, pair):
        # the tail beyond n - 1 holds phi(n) itself
        for n in (1, 2, 5):
            assert phi_tail(pair, n - 1) >= phi_coefficient(pair, n) - 1e-12

    def test_iid_profile_vanishes(self):
        chain = as_chain(iid_model([[0.0], [1.0]], [0.5, 0.5]))
        assert phi_coefficient(chain, 1) == 0.0
        assert [phi_tail(chain, c) for c in (0, 1, 64)] == [0.0, 0.0, 0.0]

    def test_phi_at_zero_is_one(self, pair):
        assert phi_coefficient(pair, 0) == 1.0


class TestPhiTail:
    @pytest.mark.parametrize("cutoff", [0, 3, 10, 40])
    def test_dominates_the_summed_exact_phi(self, pair, triple, cutoff):
        for model in (pair, triple):
            # phi decays geometrically; 400 further gaps leave nothing visible
            brute = math.fsum(phi_coefficient(model, n) for n in range(cutoff + 1, cutoff + 400))
            assert phi_tail(model, cutoff) >= brute

    def test_periodic_chain_has_no_certificate(self):
        flip = markov_model([[0.0, 1.0], [1.0, 0.0]], PAIR_VALUES)
        assert phi_coefficient(flip, 7) == 0.5
        with pytest.raises(ConfigError):
            phi_tail(flip, 64)


def _enumerated_weights(P, gaps, start):
    """start[x0] P^g1[x0, x1] ... for every state tuple, one tuple at a time."""
    S = P.shape[0]
    powers = [np.linalg.matrix_power(P, g) for g in gaps]
    out = np.empty((S,) * (len(gaps) + 1))
    for states in itertools.product(range(S), repeat=len(gaps) + 1):
        w = start[states[0]]
        for t, Pg in enumerate(powers):
            w = w * Pg[states[t], states[t + 1]]
        out[states] = w
    return out


class TestPathWeights:
    GAPS = (1, 3, 2)

    def test_matches_enumeration(self, triple):
        pi = triple.stationary
        for start in (None, np.ones(3)):
            got = path_weights(triple, self.GAPS, start)
            want = _enumerated_weights(triple.transition, self.GAPS, pi if start is None else start)
            assert got.shape == (3, 3, 3, 3)
            np.testing.assert_array_equal(got, want)

    def test_joint_law_has_stationary_marginals(self, triple):
        joint = path_weights(triple, self.GAPS)
        assert joint.sum() == pytest.approx(1.0, abs=1e-14)
        for t in range(joint.ndim):
            others = tuple(a for a in range(joint.ndim) if a != t)
            np.testing.assert_allclose(joint.sum(axis=others), triple.stationary, atol=1e-14)

    def test_conditional_rows_sum_to_one(self, triple):
        cond = path_weights(triple, self.GAPS, np.ones(3))
        np.testing.assert_allclose(cond.reshape(3, -1).sum(axis=1), 1.0, atol=1e-14)

    def test_no_gaps_is_the_start(self, triple):
        np.testing.assert_array_equal(path_weights(triple, ()), triple.stationary)


class TestTransitionPower:
    """P^g from the one shared table."""

    def test_equals_matrix_power_bit_for_bit(self, pair, triple):
        for chain in (pair, triple):
            for g in range(71):
                want = np.linalg.matrix_power(chain.transition, g)
                got = transition_power(chain, g)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_table_is_read_only(self, pair):
        for g in (0, 1, 5):
            with pytest.raises(ValueError, match="read-only"):
                transition_power(pair, g)[0, 0] = 0.5
        # at g = 1 the table is a view: the chain's own matrix stays writeable
        assert pair.transition.flags.writeable

    def test_every_reader_builds_each_power_once(self, monkeypatch):
        chain = markov_model(TRIPLE, TRIPLE_VALUES)  # fresh, so nothing is cached yet
        calls = Counter()
        matrix_power = np.linalg.matrix_power

        def counted(a, n):
            calls[id(a), int(n)] += 1
            return matrix_power(a, n)

        monkeypatch.setattr(np.linalg, "matrix_power", counted)
        phi_coefficient(chain, 5)
        phi_tail(chain, 4)
        path_weights(chain, [5])
        _gap_thresholds(chain, 5)
        decomp = MartingaleDecomposition(
            chain=chain,
            centered=center(product_observable(1), chain),
            horizon=8,
            tail_error=0.0,
            delta=1.0,
        )
        positions, _ = decomp._term(1, 6, 1)  # the argument at 6 is reached from 1 through P^5
        assert positions == [1]
        assert calls[id(chain.transition), 5] == 1
        assert max(calls.values()) == 1

    def test_doubling_map_keeps_one_chain(self):
        # the exact centering of a second run reads the powers the first built
        config = preset_experiment("doubling_pwc", (128,), 100)
        assert as_chain(config.model) is as_chain(config.model)
        sums_over_grid(config)
        misses = transition_power.cache_info().misses
        assert sums_over_grid(config)[128].centering == "exact"
        assert transition_power.cache_info().misses == misses

    def test_chain_caches_ask_the_budget_when_full(self, monkeypatch):
        # each cache holds up to 4096 tables of S^2 doubles: 128 MiB at 64 states
        monkeypatch.setenv("NONCONV_BUDGET_MB", "64")
        table = np.arange(64.0)
        wide = doubling_to_markov(doubling_model(table, 6))
        with pytest.raises(BudgetError, match="transition-power cache needs 128.0 MiB"):
            transition_power(wide, 1)
        with pytest.raises(BudgetError, match="gap-threshold cache needs 128.0 MiB"):
            _gap_thresholds(wide, 1)
        narrow = markov_model(PAIR, PAIR_VALUES)
        assert transition_power(narrow, 3).shape == (2, 2)
        assert _gap_thresholds(narrow, 3).shape == (1, 2)
