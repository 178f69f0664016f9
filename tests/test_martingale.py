import hashlib
import math

import numpy as np
import pytest

from nonconv.errors import ConfigError
from nonconv.indexing import linear_family
from nonconv.martingale import (
    _lookup,
    build_decomposition,
    check_martingale,
    evaluate_paths,
    telescoping_check,
)
from nonconv.observables import center, product_observable
from nonconv.processes import (
    as_chain,
    doubling_model,
    iid_model,
    markov_model,
    phi_coefficient,
    phi_tail,
)

PAIR = markov_model([[0.9, 0.1], [0.2, 0.8]], [[1.0], [-1.0]])
RADEMACHER = iid_model([[1.0], [-1.0]], [0.5, 0.5])
DOUBLING = doubling_model([1.0, -1.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0], 3)  # doubling_pwc's
_CONDITION_BUDGET = 1_000_000  # cap on enumerated conditions per increment


def _decomp(model):
    """The decomposition of the pair product over the model."""
    c = center(product_observable(2), model)
    return build_decomposition(model, c, linear_family(2))


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
        # 1e-6 on one entry of E[Y_{1,4} | path to 2] breaks the conditional
        # mean at steps 2 and 3 far beyond tol = 1e-8
        d = _decomp(PAIR)
        term = d._term

        def perturbed(i, s, m):
            positions, table = term(i, s, m)
            if (i, s, m) == (1, 4, 2):
                table = table.copy()
                table.flat[0] += 1e-6
            return positions, table

        d._term = perturbed
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
