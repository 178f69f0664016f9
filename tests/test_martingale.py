import hashlib
import math

import numpy as np
import pytest

from nonconv.errors import ConfigError
from nonconv.indexing import linear_family
from nonconv.martingale import (
    build_decomposition,
    check_martingale,
    evaluate_paths,
    telescoping_check,
)
from nonconv.observables import center, product_observable
from nonconv.processes import as_chain, iid_model, markov_model, phi_tail, doubling_model

PAIR = markov_model([[0.9, 0.1], [0.2, 0.8]], [[1.0], [-1.0]])
RADEMACHER = iid_model([[1.0], [-1.0]], [0.5, 0.5])


@pytest.fixture(scope="module")
def pair_decomp():
    c = center(product_observable(2), PAIR)
    return build_decomposition(PAIR, c, linear_family(2), 16)


class TestVarphiSum:
    """The phi sum a decomposition records: phi over gaps 0..64 plus phi_tail beyond."""

    def test_chain_matches_truncated_geometric(self, pair_decomp):
        value, tail = pair_decomp.phi_sum_value, pair_decomp.phi_sum_tail
        # phi(0) = 1 plus the geometric series (7/15) 0.7^(n-1)
        direct = 1.0 + math.fsum((7 / 15) * 0.7 ** (n - 1) for n in range(1, 65))
        assert value == pytest.approx(direct, rel=1e-12)
        assert 0 < tail < 1e-9
        assert tail == phi_tail(PAIR, 64)

    def test_iid_has_zero_tail(self):
        c = center(product_observable(2), RADEMACHER)
        d = build_decomposition(RADEMACHER, c, linear_family(2), 8)
        value, tail = d.phi_sum_value, d.phi_sum_tail
        assert value == 1.0  # only the phi(0) = 1 convention term
        assert tail == 0.0

    def test_tail_shrinks_with_cutoff(self):
        t32 = phi_tail(PAIR, 32)
        t96 = phi_tail(PAIR, 96)
        assert t96 < t32


class TestBuild:
    def test_constants_frozen_for_the_pair_chain(self, pair_decomp):
        d = pair_decomp
        assert d.bound_const == pytest.approx(1.0)
        # delta1 = K (phi sum + r + 1) with r = 0, charging the truncation
        # tail on top of the partial sum
        assert d.delta1_plain == pytest.approx(
            1.0 + d.phi_sum_value + d.phi_sum_tail, rel=1e-12
        )
        assert d.delta2_plain == pytest.approx(d.delta1_plain)  # no approximation term
        assert d.beta_term == 0.0

    def test_constants_pinned_bitwise_at_n8(self):
        # recorded before the phi tail and the path weights were merged
        c = center(product_observable(2), PAIR)
        d = build_decomposition(PAIR, c, linear_family(2), 8)
        assert d.horizon == 128
        assert d.tail_error == 1.084231544565188e-09
        assert d.phi_sum_value == 2.5555555553658444
        assert d.phi_sum_tail == 4.065868292119452e-10
        got = hashlib.sha256(evaluate_paths(d, 17, 64).martingale.tobytes()).hexdigest()
        assert got == "2e47a25dda689a0dea556c41febc7fb2d364fcdd3e9e6f28cb0561cd787934a5"

    def test_horizon_certificate(self, pair_decomp):
        # doubling the horizon once more would be pointless: the recorded
        # truncation tail is already below the target
        assert pair_decomp.tail_error <= 1e-8

    def test_nonlinear_family_rejected(self):
        from nonconv.indexing import polynomial_family

        c = center(product_observable(2), PAIR)
        with pytest.raises(ConfigError):
            build_decomposition(PAIR, c, polynomial_family([[1, 0], [1, 0, 1]]), 16)

    def test_doubling_needs_smoothing_radius(self):
        table = [1.0, -1.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0]
        m = doubling_model(table, 3)
        c = center(product_observable(2), m)
        with pytest.raises(ConfigError):
            build_decomposition(m, c, linear_family(2), 8, smoothing_radius=1)
        d = build_decomposition(m, c, linear_family(2), 8, smoothing_radius=3)
        assert d.beta_term == 0.0


class TestPathIdentities:
    def test_telescoping_identity(self, pair_decomp):
        ev = evaluate_paths(pair_decomp, 3, 128)
        rep = telescoping_check(ev)
        assert rep.passed
        assert rep.max_error <= 1e-9

    def test_gap_equals_boundary_difference(self, pair_decomp):
        ev = evaluate_paths(pair_decomp, 3, 64)
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
        d = build_decomposition(PAIR, c, linear_family(1), 16)
        ev = evaluate_paths(d, 3, 16)
        direct = batch_sums(PAIR, c, linear_family(1), 16, 3, 16)
        np.testing.assert_allclose(ev.sums, direct, atol=1e-12)


class TestIncrementLaw:
    def test_exhaustive_conditional_expectations(self, pair_decomp):
        chk = check_martingale(pair_decomp)
        assert chk.passed
        assert chk.max_abs <= chk.tol + chk.allowance

    def test_sup_gap_needs_calibrated_b(self, pair_decomp):
        # plain constants undershoot the observed boundary gap for this
        # chain, which is why the Chernoff and MGF displays take a calibrated
        # B; doubling the slack factor clears it
        gap_max = np.max(evaluate_paths(pair_decomp, 3, 128).gaps)
        assert gap_max == pytest.approx(4.378820984154804, rel=1e-9)
        assert gap_max > pair_decomp.delta2_plain
        assert gap_max <= 2.0 * pair_decomp.delta2_plain

    def test_iid_increments_are_exactly_centered(self):
        c = center(product_observable(2), RADEMACHER)
        d = build_decomposition(RADEMACHER, c, linear_family(2), 8)
        chk = check_martingale(d)
        assert chk.passed
        assert chk.max_abs <= 1e-10
