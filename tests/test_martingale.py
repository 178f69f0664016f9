import hashlib
import math

import numpy as np
import pytest

from nonconv.errors import BudgetError, ConfigError
from nonconv.indexing import linear_family
from nonconv.martingale import (
    MartingaleCheck,
    PathEvaluation,
    build_decomposition,
    check_martingale,
    evaluate_paths,
    telescoping_check,
)
from nonconv.observables import center, lookup_sums, product_observable
from nonconv.processes import (
    as_chain,
    doubling_model,
    iid_model,
    markov_model,
    phi_coefficient,
    phi_tail,
    sample_state_paths,
    transition_power,
)

PAIR = markov_model([[0.9, 0.1], [0.2, 0.8]], [[1.0], [-1.0]])
RADEMACHER = iid_model([[1.0], [-1.0]], [0.5, 0.5])
DOUBLING = doubling_model([1.0, -1.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0], 3)  # doubling_pwc's
_CONDITION_BUDGET = 1_000_000  # cap on enumerated conditions per increment


def _decomp(model):
    """The decomposition of the pair product over the model."""
    c = center(product_observable(2), model)
    return build_decomposition(model, c, linear_family(2))


def _lookup(terms, getcol):
    """Sum of the terms' table entries at the states ``getcol(p)`` returns for their positions."""
    return sum(table[tuple(getcol(p) for p in positions)] for positions, table in terms.values())


def reference_paths(decomp, n_terms, master_seed, n_replicates):
    """The per-step evaluator: every (step, term) pair of ``step`` looked up on its own.

    The oracle for ``evaluate_paths``, which must equal it bit for bit.
    """
    L, N, B = decomp.centered.arity, n_terms, n_replicates
    LN = L * N
    states = sample_state_paths(decomp.chain, np.arange(1, LN + 1), master_seed, B)
    getcol = lambda p: states[:, p - 1]
    positions = np.arange(1, N + 1)[:, None] * np.arange(1, L + 1)[None, :] - 1
    sums = lookup_sums(decomp.centered.table, states, positions)

    increments = np.zeros((B, LN))
    r_start = np.array([decomp.r_start(i) for i in range(1, L + 1)])
    r_prev = [np.full(B, r_start[i - 1]) for i in range(1, L + 1)]
    r_end = np.zeros((B, L))
    for m in range(1, LN + 1):
        for i in range(1, L + 1):
            if m > i * N:
                continue
            predicted, due = decomp.step(i, m)
            r_m = _lookup(predicted, getcol)
            increments[:, m - 1] += r_m - r_prev[i - 1] + _lookup(due, getcol)
            r_prev[i - 1] = r_m
            if m == i * N:
                r_end[:, i - 1] = r_m
    return PathEvaluation(sums, increments.sum(axis=1), r_start, r_end)


def reference_drift_sup(chain, m, term, prior):
    """sup of |E[term | path to m-1] - prior| for one term, by one einsum over its own labels."""
    positions, table = term
    past = sorted({p for p in positions if p != m} | ({m - 1} if m > 1 else set()))
    label = {p: k for k, p in enumerate(past + [m])}
    if m > 1:
        law, law_axes = chain.transition, [label[m - 1], label[m]]
    else:
        law, law_axes = chain.stationary, [label[m]]
    drift = np.einsum(table, [label[p] for p in positions], law, law_axes, list(range(len(past))))
    if prior is not None:
        prior_positions, prior_table = prior
        read = set(prior_positions)
        at_prior = np.einsum(
            prior_table, [label[p] for p in prior_positions], [label[p] for p in sorted(read)]
        )
        drift = drift - at_prior.reshape([chain.n_states if p in read else 1 for p in past])
    return float(np.max(np.abs(drift)))


def reference_check(decomp, n_terms):
    """The term-by-term certificate: every (step, term) pair's drift sup computed on its own.

    The oracle for ``check_martingale``, which must return an equal report.
    """
    worst, worst_at, terms_checked = 0.0, (0, 0), 0
    for i in range(1, decomp.centered.arity + 1):
        before, _ = decomp.step(i, 0)
        for m in range(1, i * n_terms + 1):
            predicted, due = decomp.step(i, m)
            terms = {**due, **predicted}
            bound = math.fsum(
                reference_drift_sup(decomp.chain, m, term, before.get(s))
                for s, term in terms.items()
            )
            terms_checked += len(terms)
            if bound > worst:
                worst, worst_at = bound, (m, i)
            before = predicted
    return MartingaleCheck(
        bound=worst,
        allowance=decomp.tail_error,
        tol=1e-8,
        worst_time=worst_at[0],
        worst_level=worst_at[1],
        terms_checked=terms_checked,
        passed=worst <= 1e-8 + decomp.tail_error,
    )


def exhaustive_offset(decomp, n_terms):
    """Largest |E[W_{i,m} | path to m-1]| over steps m <= i N and every state assignment read.

    The enumeration oracle for ``check_martingale``: every assignment of
    states to the positions an increment reads is enumerated (the kernel
    identity is pointwise, so this is the full conditional-mean check);
    more than 10^6 conditions for one increment raise ConfigError.
    """
    L, N, S = decomp.centered.arity, n_terms, decomp.chain.n_states
    LN = L * N
    P = decomp.chain.transition

    worst = 0.0
    for m in range(1, LN + 1):
        for i in range(1, L + 1):
            if m > i * N:
                continue
            predicted, due = decomp.step(i, m)
            before, _ = decomp.step(i, m - 1)
            # positions the increment reads strictly before the step time
            past = {p for positions, _ in (predicted | due).values() for p in positions if p < m}
            past.update(p for positions, _ in before.values() for p in positions)
            if m > 1:
                past.add(m - 1)
            pos = sorted(past)

            n_prof = S ** len(pos)
            if n_prof * S > _CONDITION_BUDGET:
                raise ConfigError(
                    f"exhaustive check needs {n_prof * S} conditions at step {m}, over budget"
                )
            if n_prof == 1:
                grid = np.zeros((1, 0), dtype=np.int64)
            else:
                mesh = np.meshgrid(*([np.arange(S)] * len(pos)), indexing="ij")
                grid = np.stack([g.ravel() for g in mesh], axis=1)
            B0 = grid.shape[0]
            col_of = {p: grid[:, t] for t, p in enumerate(pos)}

            # batch = (profile, step-state) pairs; the step state integrates out
            def getcol(p, _col_of=col_of, _m=m):
                if p == _m:
                    return np.tile(np.arange(S), B0)
                return np.repeat(_col_of[p], S)

            val = np.zeros(B0 * S) + _lookup(due | predicted, getcol)
            if m == 1:
                weights = np.tile(decomp.chain.stationary, (B0, 1))
            else:
                weights = P[col_of[m - 1]]
            cond = np.einsum("bs,bs->b", weights, val.reshape(B0, S))
            prev = _lookup(before, lambda p: col_of[p])
            worst = max(worst, float(np.max(np.abs(cond - prev))) if B0 else 0.0)
    return worst


@pytest.fixture(scope="module")
def pair_decomp():
    c = center(product_observable(2), PAIR)
    return build_decomposition(PAIR, c, linear_family(2))


def _phi_sum(model):
    """The phi sum delta charges: phi over gaps 0..64 and phi_tail beyond, as a pair."""
    chain = as_chain(model)
    return math.fsum(phi_coefficient(chain, n) for n in range(65)), phi_tail(chain, 64)


class TestVarphiSum:
    """The phi sum in delta: phi over gaps 0..64 plus phi_tail beyond."""

    def test_chain_matches_truncated_geometric(self):
        value, tail = _phi_sum(PAIR)
        # phi(0) = 1 plus the geometric series (7/15) 0.7^(n-1)
        direct = 1.0 + math.fsum((7 / 15) * 0.7 ** (n - 1) for n in range(1, 65))
        assert value == pytest.approx(direct, rel=1e-12)
        assert 0 < tail < 1e-9

    def test_iid_has_zero_tail(self):
        value, tail = _phi_sum(RADEMACHER)
        assert value == 1.0  # only the phi(0) = 1 convention term
        assert tail == 0.0
        assert _decomp(RADEMACHER).delta == 2.0  # K (1 + 0 + 1) with K = 1

    def test_tail_shrinks_with_cutoff(self):
        t32 = phi_tail(PAIR, 32)
        t96 = phi_tail(PAIR, 96)
        assert t96 < t32


class TestBuild:
    def test_constants_frozen_for_the_pair_chain(self, pair_decomp):
        # delta = K (phi sum + r + 1) with K = 1 and r = 0, charging the
        # truncation tail on top of the partial sum, bit for bit
        value, tail = _phi_sum(PAIR)
        assert pair_decomp.centered.base.bound_const == 1.0
        assert pair_decomp.delta == 1.0 * (value + tail + 0 + 1.0)

    def test_constants_pinned_bitwise_at_n8(self):
        # recorded before the phi tail and the path weights were merged
        c = center(product_observable(2), PAIR)
        d = build_decomposition(PAIR, c, linear_family(2))
        assert d.horizon == 128
        assert d.tail_error == 1.084231544565188e-09
        assert _phi_sum(PAIR) == (2.5555555553658444, 4.065868292119452e-10)
        assert d.delta == 3.555555555772431
        got = hashlib.sha256(evaluate_paths(d, 8, 17, 64).martingale.tobytes()).hexdigest()
        assert got == "2e47a25dda689a0dea556c41febc7fb2d364fcdd3e9e6f28cb0561cd787934a5"

    def test_one_decomposition_serves_every_n(self):
        # nothing a decomposition caches depends on N: after N = 64 it
        # evaluates and certifies N = 8 exactly as a fresh one does
        shared, fresh = _decomp(PAIR), _decomp(PAIR)
        evaluate_paths(shared, 64, 17, 64)
        check_martingale(shared, 64)
        got, want = evaluate_paths(shared, 8, 17, 64), evaluate_paths(fresh, 8, 17, 64)
        for name in ("sums", "martingale", "r_start", "r_end"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert check_martingale(shared, 8) == check_martingale(fresh, 8)

    def test_term_count_below_one_refused(self, pair_decomp):
        with pytest.raises(ConfigError, match="need n_terms >= 1"):
            evaluate_paths(pair_decomp, 0, 17, 4)
        with pytest.raises(ConfigError, match="need n_terms >= 1"):
            check_martingale(pair_decomp, 0)

    def test_horizon_certificate(self, pair_decomp):
        # doubling the horizon once more would be pointless: the recorded
        # truncation tail is already below the target
        assert pair_decomp.tail_error <= 1e-8

    def test_nonlinear_family_rejected(self):
        from nonconv.indexing import polynomial_family

        c = center(product_observable(2), PAIR)
        with pytest.raises(ConfigError):
            build_decomposition(PAIR, c, polynomial_family([[1, 0], [1, 0, 1]]))

    def test_doubling_needs_smoothing_radius(self):
        # the radius is the table level, where the smoothed summands are exact;
        # other models need none (see test_constants_frozen_for_the_pair_chain)
        d = _decomp(DOUBLING)
        value, tail = _phi_sum(DOUBLING)
        assert DOUBLING.level == 3
        assert d.delta == d.centered.base.bound_const * (value + tail + 3 + 1.0)
        # the enumeration would need over 10^6 conditions for this chain at N = 8
        assert check_martingale(d, 8).passed


class TestPathIdentities:
    def test_telescoping_identity(self, pair_decomp):
        ev = evaluate_paths(pair_decomp, 16, 3, 128)
        rep = telescoping_check(ev)
        assert rep.passed
        assert rep.max_error <= 1e-9

    def test_gap_equals_boundary_difference(self, pair_decomp):
        ev = evaluate_paths(pair_decomp, 16, 3, 64)
        # S - M = sum_i (R_{i,0} - R_{i,iN}) along every replicate
        boundary = (ev.r_start[None, :] - ev.r_end).sum(axis=1)
        np.testing.assert_allclose(ev.sums - ev.martingale, boundary, atol=1e-9)
        np.testing.assert_allclose(np.abs(boundary), ev.gaps, atol=1e-9)

    def test_r_start_is_deterministic_and_known(self, pair_decomp):
        # the time-zero prediction at depth i sums unconditional term means
        # over the moving window (0, horizon], not over the first N terms:
        # level 1 is exactly centered, level 2 collects the gap-n means
        # (8/9) 0.7^n for every n with 2n <= horizon
        assert pair_decomp.horizon == 128
        r0 = [pair_decomp.r_start(i) for i in (1, 2)]
        assert abs(r0[0]) < 1e-12
        half = pair_decomp.horizon // 2
        oracle = math.fsum((8 / 9) * 0.7**n for n in range(1, half + 1))
        assert math.fsum(r0) == pytest.approx(oracle, abs=1e-12)

    def test_sums_match_plain_batch_on_dense_union(self):
        # streams are consumed positionally, so pathwise agreement with the
        # sampling engine holds exactly when the family's index union is the
        # dense range; arity 1 gives that regime
        from nonconv.observables import batch_sums

        c = center(product_observable(1), PAIR)
        d = build_decomposition(PAIR, c, linear_family(1))
        ev = evaluate_paths(d, 16, 3, 16)
        direct = batch_sums(PAIR, c, linear_family(1), 16, 3, 16)
        np.testing.assert_allclose(ev.sums, direct, atol=1e-12)


def _rounding(decomp):
    # each check sums about `horizon` terms of size at most 2 in its own
    # order, so the two may differ by rounding of that order
    return 2.0 * decomp.horizon * np.finfo(float).eps


class TestIncrementLaw:
    def test_exhaustive_conditional_expectations(self, pair_decomp):
        chk = check_martingale(pair_decomp, 16)
        assert chk.passed
        assert chk.bound <= chk.tol + chk.allowance
        assert exhaustive_offset(pair_decomp, 16) <= chk.bound + _rounding(pair_decomp)
        # out of the enumeration's reach
        assert check_martingale(pair_decomp, 64).passed

    @pytest.mark.parametrize(
        "model, n_terms",
        [(PAIR, 4), (PAIR, 8), (DOUBLING, 4)],
        ids=["pair-4", "pair-8", "doubling-4"],
    )
    def test_termwise_bound_covers_the_exhaustive_offset(self, model, n_terms):
        d = _decomp(model)
        chk = check_martingale(d, n_terms)
        assert chk.passed
        assert exhaustive_offset(d, n_terms) <= chk.bound + _rounding(d)
        assert chk.bound <= chk.tol + chk.allowance

    def test_perturbed_prediction_fails_both_checks(self):
        # 1e-6 on one entry of the level-1 table at gap 2, which both checks
        # read for E[Y_{1,s} | path to s - 2] at every s, breaks the
        # conditional mean far beyond tol = 1e-8
        d = _decomp(PAIR)
        (row,) = d._rows(1, 1, np.array([0]), np.array([2]))  # builds the table
        store = d._table_stores[1, 1].copy()
        store[row].flat[0] += 1e-6
        d._table_stores[1, 1] = store
        chk = check_martingale(d, 4)
        assert not chk.passed
        assert chk.bound >= exhaustive_offset(d, 4) > chk.tol + chk.allowance

    def test_sup_gap_needs_calibrated_b(self, pair_decomp):
        # plain constants undershoot the observed boundary gap for this
        # chain, which is why the Chernoff and MGF displays take a calibrated
        # B; doubling the slack factor clears it
        gap_max = np.max(evaluate_paths(pair_decomp, 16, 3, 128).gaps)
        assert gap_max == pytest.approx(4.378820984154804, rel=1e-9)
        assert gap_max > pair_decomp.delta
        assert gap_max <= 2.0 * pair_decomp.delta

    def test_iid_increments_are_exactly_centered(self):
        d = _decomp(RADEMACHER)
        chk = check_martingale(d, 8)
        assert chk.passed
        assert exhaustive_offset(d, 8) <= chk.bound <= 1e-10


# the shipped presets' models with their pair product: chain_pair, iid_product, doubling_pwc
PRESET_MODELS = {"chain_pair": PAIR, "iid_product": RADEMACHER, "doubling_pwc": DOUBLING}


@pytest.fixture(scope="module")
def preset_decomps():
    return {name: _decomp(model) for name, model in PRESET_MODELS.items()}


class TestAgainstThePerStepReference:
    """``evaluate_paths`` and ``check_martingale`` equal their per-term references bit for bit."""

    @pytest.mark.parametrize("name", sorted(PRESET_MODELS))
    @pytest.mark.parametrize("n_terms", [1, 2, 8, 64])
    @pytest.mark.parametrize("n_replicates", [1, 64])
    def test_paths_equal_the_reference(self, preset_decomps, name, n_terms, n_replicates):
        d = preset_decomps[name]
        got = evaluate_paths(d, n_terms, 17, n_replicates)
        want = reference_paths(d, n_terms, 17, n_replicates)
        for field in ("sums", "martingale", "r_start", "r_end"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field

    @pytest.mark.parametrize("name", sorted(PRESET_MODELS))
    @pytest.mark.parametrize("n_terms", [8, 64])
    def test_check_equals_the_reference(self, preset_decomps, name, n_terms):
        d = preset_decomps[name]
        assert check_martingale(d, n_terms) == reference_check(d, n_terms)

    def test_three_levels_equal_the_reference(self):
        # arity 3 on a three-state chain: two arguments integrated out, the
        # horizon not a multiple of every level, and positions that land on
        # m and m - 1 in every combination
        chain = markov_model(
            [[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.3, 0.3, 0.4]], [[1.0], [-0.5], [2.0]]
        )
        d = build_decomposition(chain, center(product_observable(3), chain), linear_family(3))
        assert d.horizon % 3
        assert check_martingale(d, 12) == reference_check(d, 12)
        got, want = evaluate_paths(d, 12, 5, 16), reference_paths(d, 12, 5, 16)
        for field in ("sums", "martingale", "r_start", "r_end"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field

    def test_blocks_of_steps_equal_the_reference(self, pair_decomp):
        # 1000 replicates split each level into blocks of 8 steps, here with
        # a short last block and due terms on both sides of a boundary
        got = evaluate_paths(pair_decomp, 13, 3, 1000)
        want = reference_paths(pair_decomp, 13, 3, 1000)
        for field in ("sums", "martingale", "r_start", "r_end"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field

    def test_many_states_equal_the_reference(self):
        # 17 states: a flat table index past 255 must not wrap in the states' uint8
        law = iid_model([[float(k)] for k in range(17)], [1 / 17] * 17)
        d = _decomp(law)
        got, want = evaluate_paths(d, 8, 5, 16), reference_paths(d, 8, 5, 16)
        for field in ("sums", "martingale", "r_start", "r_end"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field

    def test_first_replicates_do_not_depend_on_the_batch(self, pair_decomp):
        small = evaluate_paths(pair_decomp, 16, 3, 64)
        large = evaluate_paths(pair_decomp, 16, 3, 128)
        assert large.sums[:64].tobytes() == small.sums.tobytes()
        assert large.martingale[:64].tobytes() == small.martingale.tobytes()
        assert large.r_end[:64].tobytes() == small.r_end.tobytes()

    def test_stacked_tables_equal_the_per_key_product(self, preset_decomps):
        # every table a batch built equals P^gap carried onto its own u, alone
        d = preset_decomps["chain_pair"]
        evaluate_paths(d, 64, 17, 1)
        for (i, j0), (codes, rows) in d._table_index.items():
            for code, row in zip(codes.tolist(), rows.tolist()):
                n0, gap = divmod(code, d.horizon + 1)
                u, ahead = d._u(i, n0, j0), transition_power(d.chain, gap)
                alone = ahead @ u if j0 == 1 else np.einsum("...a,xa->...x", u, ahead)
                assert d._table_stores[i, j0][row].tobytes() == alone.tobytes()


class TestRefusals:
    def test_zero_replicates_refused(self, pair_decomp):
        with pytest.raises(ConfigError, match="need n_replicates >= 1"):
            evaluate_paths(pair_decomp, 8, 17, 0)

    def test_small_budget_refuses_the_path_block(self, pair_decomp, monkeypatch):
        monkeypatch.setenv("NONCONV_BUDGET_MB", "0.05")
        with pytest.raises(BudgetError, match="martingale path block"):
            evaluate_paths(pair_decomp, 64, 17, 64)

    def test_small_budget_refuses_a_table_cache_miss(self, monkeypatch):
        d = _decomp(PAIR)
        monkeypatch.setenv("NONCONV_BUDGET_MB", "1e-6")
        with pytest.raises(BudgetError, match="martingale table cache"):
            d._term(1, 6, 1)

    def test_decomposition_builds_no_table(self):
        # simulate builds one for its Chernoff check, which reads no table
        d = _decomp(PAIR)
        assert d._table_stores == {} and d._u_cache == {}
