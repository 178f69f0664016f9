import decimal
import math
import random
import sys
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, strategies as st

import nonconv.bounds
from nonconv.bounds import (
    berry_esseen_bound,
    berry_esseen_constant,
    chernoff_tail_bound,
    chernoff_tail_log,
    chernoff_threshold,
    concentration_bound,
    concentration_log,
    mdp_gaussian_rate,
    mdp_rate,
    mdp_validity,
    mgf_exponent_bound,
    moddev_envelope,
    moddev_window_edge,
    momthm_bound,
    momthm_log,
    variance_envelope,
)
from nonconv.errors import BudgetError, ConfigError, OutOfWindowError


# ---------------------------------------------------------------------------
# 60-digit decimal references: the log of each bound, spelled out
# ---------------------------------------------------------------------------


def _ref_concentration(x, n, c1, c2, g):
    x, n, c1, c2, g = map(Decimal, (x, n, c1, c2, g))
    base = c1 + c2 * x * (-n.ln() / (2 + 4 * g)).exp()
    return -(x * x) / (2 * ((1 + 2 * g) / (1 + g) * base.ln()).exp())


def _ref_chernoff(t, n, arity, d1, b):
    t, n, arity, d1, b = map(Decimal, (t, n, arity, d1, b))
    return -(t * t) / (4 * b * b * n * arity * d1 * d1)


def _ref_moddev(x, n, c5, g, _c4):
    x, n, c5, g = map(Decimal, (x, n, c5, g))
    return c5.ln() + (1 + x**3).ln() - n.ln() / (2 + 4 * g)


def _ref_berry_esseen(delta, g):
    delta, g = map(Decimal, (delta, g))
    return (Decimal(1) / 6).ln() + ((Decimal(2).sqrt() / 6).ln() - delta.ln()) / (1 + 2 * g)


class TestConcentration:
    def test_literal_form(self):
        # -x^2 / (2 (c1 + c2 x N^(-1/(2+4g)))^((1+2g)/(1+g))) spelled out
        x, n, c1, c2, g = 1.5, 4096.0, 0.8, 1.2, 1.0
        base = c1 + c2 * x * n ** (-1.0 / 6.0)
        expect = -(x * x) / (2.0 * base**1.5)
        assert concentration_log(x, n, c1, c2, g) == pytest.approx(expect, rel=1e-14)
        assert concentration_bound(x, n, c1, c2, g) == pytest.approx(
            math.exp(expect), rel=1e-13
        )

    @given(
        x=st.floats(0.1, 20.0),
        bump=st.floats(0.01, 5.0),
    )
    def test_monotone_decreasing_in_x(self, x, bump):
        lo = concentration_log(x + bump, 1000.0, 1.0, 1.0, 1.0)
        hi = concentration_log(x, 1000.0, 1.0, 1.0, 1.0)
        assert lo <= hi

    def test_larger_constants_weaken_the_bound(self):
        base = concentration_log(2.0, 1e4, 1.0, 1.0, 1.0)
        assert concentration_log(2.0, 1e4, 1.5, 1.0, 1.0) > base
        assert concentration_log(2.0, 1e4, 1.0, 1.5, 1.0) > base

    def test_out_of_range_denominators_read_their_limits(self):
        # (c1 + ...)^1.5 past the float range: the bound is 1 instead of an OverflowError
        assert concentration_bound(0.5, 1, 1e308, 1.0, 1.0) == 1.0
        # ... and below it: exp(-1 / (2 (2e-300)^1.5)) = 0
        assert concentration_bound(1.0, 1, 1e-300, 1e-300, 1.0) == 0.0
        assert concentration_bound(0.0, 1, 1e-300, 1e-300, 1.0) == 1.0
        # x^2 and the denominator both overflow, their ratio does not: at N = 1
        # the log is -x^2 / (2 (c1 + x)^e) = -4e308 / (2 (1e308)^e), about -2
        x, c1, g = 2e154, 1e308, 1e-9
        e = (1 + 2 * g) / (1 + g)
        expect = -math.exp(2 * math.log(x) - math.log(2) - e * math.log(c1 + x))
        assert concentration_log(x, 1, c1, 1.0, g) == pytest.approx(expect, rel=1e-12)
        assert -2.0 < expect < -1.99
        # c1 + c2 x overflows as well, its log does not: the bound is about exp(-1)
        with decimal.localcontext(prec=60):
            ref = float(_ref_concentration(x, 1, 1.0, 1e154, g).exp())
        assert concentration_bound(x, 1, 1.0, 1e154, g) == pytest.approx(ref, rel=1e-12)
        assert 0.3678797 < ref < 0.3678798

    def test_domain_errors(self):
        with pytest.raises(ConfigError):
            concentration_log(-0.1, 10, 1, 1, 1)
        with pytest.raises(ConfigError):
            concentration_log(1.0, 10, 1, 1, 0.0)


class TestChernoff:
    def test_doubling_t_quarters_the_log(self):
        one = chernoff_tail_log(1.0, 256, 2, 3.5, 1.8)
        two = chernoff_tail_log(2.0, 256, 2, 3.5, 1.8)
        assert two == pytest.approx(4.0 * one, rel=1e-14)

    def test_literal_form(self):
        t, n, l, d1, b = 2.0, 100.0, 2, 3.0, 1.5
        expect = -(t * t) / (4.0 * b * b * n * l * d1 * d1)
        assert chernoff_tail_log(t, n, l, d1, b) == pytest.approx(expect, rel=1e-14)
        assert chernoff_tail_bound(t, n, l, d1, b) == pytest.approx(math.exp(expect))

    def test_threshold_and_tuning_point(self):
        assert chernoff_threshold(2.0, 3.5, 1.8) == pytest.approx(2.0 + 1.8 * 3.5)

    def test_mgf_exponent_literal(self):
        lam, n, l, d1, d2, b = 0.03, 256.0, 2, 3.5, 3.6, 1.8
        expect = b * lam * lam * n * l * d1 + b * lam * d2
        assert mgf_exponent_bound(lam, n, l, d1, d2, b) == pytest.approx(expect)
        # even in lambda through the absolute value
        assert mgf_exponent_bound(-lam, n, l, d1, d2, b) == pytest.approx(expect)

    def test_bad_arguments(self):
        with pytest.raises(ConfigError):
            chernoff_tail_log(1.0, 10, 2, 0.0, 1.0)

    def test_underflowing_denominator_reads_the_limit(self):
        # delta1^2 underflows to 0: the bound is exp(-1e400 / 4e-400) = 0, not a division error
        assert chernoff_tail_bound(1e200, 1, 1, 1e-200, 1.0) == 0.0
        # both squares leave the float range, their ratio does not: exp(-1/4) either way
        for t, d1, b in ((1e-200, 1e-200, 1.0), (1e200, 1.0, 1e200), (1e-170, 1e-170, 1.0)):
            assert chernoff_tail_bound(t, 1, 1, d1, b) == pytest.approx(math.exp(-0.25), rel=1e-13)
        assert chernoff_tail_bound(0.0, 1, 1, 1e-200, 1.0) == 1.0
        # B^2 goes subnormal and loses digits; its log keeps them
        args = (3.699790396930567e126, 1.010918224343481e162, 1, 6.974184544536242e207,
                8.298415900381758e-162)
        assert chernoff_tail_bound(*args) == pytest.approx(0.9989898601166015, rel=1e-12)


class TestModerateDeviationPieces:
    def test_rate_speed_normalization(self):
        assert mdp_rate(3.0) == pytest.approx(4.5)

    def test_gaussian_rate_frozen_and_falls_to_limit(self):
        # -ln Phi_bar(a) / a^2 at a = 1e4^0.1, the N of the desk-scale check
        assert mdp_gaussian_rate(1.0, 1e4**0.1) == pytest.approx(0.8107148692235909, rel=1e-12)
        ref = np.array([mdp_gaussian_rate(1.0, n**0.1) for n in np.geomspace(1e2, 1e12, 11)])
        assert np.all(np.diff(ref) < 0)
        assert np.all(ref > mdp_rate(1.0))
        assert ref[-1] - mdp_rate(1.0) <= 0.25 * mdp_rate(1.0)
        with pytest.raises(ConfigError):
            mdp_gaussian_rate(1.0, 0.0)

    def test_moddev_window_edge_frozen(self):
        # 4096^(1/6) = 4
        assert moddev_window_edge(4096, 1.0, 1.0) == pytest.approx(4.0)

    def test_envelope_inside_window(self):
        v = moddev_envelope(2.0, 4096, 1.5, 1.0, c4=1.0)
        assert v == pytest.approx(1.5 * 9.0 * 4096 ** (-1 / 6))

    def test_envelope_refuses_outside_window(self):
        with pytest.raises(OutOfWindowError):
            moddev_envelope(4.0, 4096, 1.5, 1.0, c4=1.0)
        # without the edge parameter no window is enforced
        assert moddev_envelope(4.0, 4096, 1.5, 1.0, None) > 0

    def test_envelope_past_the_float_range(self):
        assert moddev_envelope(1e200, 1, 1.0, 1.0, None) == math.inf
        # x^3 overflows, c5 x^3 does not: about 1e30
        with decimal.localcontext(prec=60):
            ref = float(_ref_moddev(1e110, 1, 1e-300, 1.0, None).exp())
        assert moddev_envelope(1e110, 1, 1e-300, 1.0, None) == pytest.approx(ref, rel=1e-12)
        assert 0.99e30 < ref < 1.01e30

    def test_validity_scan_accepts_slow_growth(self):
        v = mdp_validity(0.1, 1.0, np.geomspace(1e2, 1e12, 11))
        assert v.passed and v.grows and v.damped_vanishes

    def test_validity_scan_rejects_bad_sequences(self):
        grid = np.geomspace(1e2, 1e12, 11)
        flat = mdp_validity(0.0, 1.0, grid)
        assert not flat.passed and not flat.grows
        fast = mdp_validity(0.3, 1.0, grid)
        assert not fast.passed and fast.grows and not fast.damped_vanishes

    def test_validity_grid_requirements(self):
        with pytest.raises(ConfigError):
            mdp_validity(1.0, 1.0, np.array([10.0, 5.0, 20.0]))


class TestBerryEsseen:
    def test_constant_frozen_and_limit(self):
        assert berry_esseen_constant(1.0) == pytest.approx(0.10295244508785542, rel=1e-12)
        assert berry_esseen_constant(1e9) == pytest.approx(1 / 6, rel=1e-6)

    def test_scaling_by_eight_halves_at_gamma_one(self):
        b1 = berry_esseen_bound(1.0, 1.0)
        b8 = berry_esseen_bound(8.0, 1.0)
        assert b8 == pytest.approx(0.5 * b1, rel=1e-12)

    def test_decreasing_in_delta(self):
        assert berry_esseen_bound(100.0, 2.0) < berry_esseen_bound(10.0, 2.0)

    def test_overflowing_power(self):
        assert berry_esseen_bound(5e-324, 1e-10) == math.inf
        # Delta^(-1/(1+2 gamma)) overflows, c_gamma times it does not
        with decimal.localcontext(prec=60):
            ref = float(_ref_berry_esseen(1e-309, 1e-12).exp())
        assert berry_esseen_bound(1e-309, 1e-12) == pytest.approx(ref, rel=1e-12)
        assert ref == pytest.approx(3.928371e307, rel=1e-6)


class TestMomentComparison:
    def test_first_two_orders_match_exactly(self):
        assert momthm_log(1, 100, 2.0, 1.0) == -math.inf
        assert momthm_bound(2, 100, 2.0, 1.0) == 0.0

    def test_frozen_values(self):
        # p = 3: 2^3 (3!)^2 * (N p) = 8 * 36 * 300
        assert momthm_bound(3, 100, 2.0, 1.0) == pytest.approx(86400.0, rel=1e-12)
        # p = 5: 2^5 (5!)^2 (N p + N^2 p^2 / 4)
        assert momthm_bound(5, 100, 2.0, 1.0) == pytest.approx(2.90304e10, rel=1e-12)

    def test_small_c0_clamps_to_one(self):
        assert momthm_bound(3, 100, 0.25, 1.0) == pytest.approx(
            momthm_bound(3, 100, 1.0, 1.0)
        )

    def test_monotone_in_n(self):
        assert momthm_log(5, 1e6, 2.0, 1.0) > momthm_log(5, 1e3, 2.0, 1.0)

    def test_overflow_reads_inf(self):
        assert 709.8 < momthm_log(200, 10, 1.0, 1.0) < math.inf
        assert momthm_bound(200, 10, 1.0, 1.0) == math.inf

    def test_terms_request_covers_the_traced_peak(self, monkeypatch):
        requests = []
        monkeypatch.setattr(nonconv.bounds, "ensure_within_budget", lambda b, _: requests.append(b))
        momthm_log(200_001, 10, 1.0, 1.0)
        tracemalloc.start()
        try:
            momthm_log(200_001, 10, 1.0, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert requests[-1] == 48 * 100_000
        assert peak <= requests[-1] <= 1.25 * peak

    def test_terms_refused_over_the_budget(self, monkeypatch):
        # 48 bytes for each of the (p - 1)/2 terms: 21845 fit in 1 MiB, 21846 do not
        monkeypatch.setenv("NONCONV_BUDGET_MB", "1")
        assert math.isfinite(momthm_log(43_691, 10, 1.0, 1.0))
        with pytest.raises(BudgetError, match="moment bound terms needs 1.0 MiB"):
            momthm_log(43_693, 10, 1.0, 1.0)


def test_variance_envelope_is_sqrt_n():
    assert variance_envelope(400.0, 1.25) == pytest.approx(25.0)
    with pytest.raises(ConfigError):
        variance_envelope(0.5, 1.0)


# ---------------------------------------------------------------------------
# sweep over the whole float range against the decimal references
# ---------------------------------------------------------------------------

_TINY = Decimal(5e-324)  # the smallest subnormal, 2^-1074
with decimal.localcontext(prec=60):
    _LN_MAX = Decimal(sys.float_info.max).ln()
    _LN_HALF_TINY = (_TINY / 2).ln()
_LOG_RANGE = (math.log(5e-324), math.log(sys.float_info.max))
_LOG_GAMMA = (math.log(1e-12), math.log(1e12))


def _log_uniform(rng, lo=_LOG_RANGE[0], hi=_LOG_RANGE[1]):
    return math.exp(rng.uniform(lo, hi))


def _agrees(v: float, ln_r: Decimal, tol: float = 2e-12) -> bool:
    """v is inf exactly where the reference exp(ln_r) is past the float max, 0
    where it is below half the smallest subnormal, and otherwise within
    |ln v - ln_r| <= tol max(1, |ln_r|), widened by one subnormal spacing
    because a value below the normal range cannot keep relative precision."""
    if ln_r > _LN_MAX:
        return v == math.inf
    if ln_r < _LN_HALF_TINY:
        return v == 0.0
    if v == math.inf:
        return False
    eps = Decimal(tol) * max(1, abs(ln_r))
    return (ln_r - eps).exp() - _TINY <= Decimal(v) <= (ln_r + eps).exp() + _TINY


# evaluator, reference, and a draw of its arguments: every positive argument
# log-uniform over the floats (subnormals included), N >= 1, gamma in [1e-12, 1e12]
SWEEP = {
    "concentration": (concentration_bound, _ref_concentration, lambda rng: (
        _log_uniform(rng), _log_uniform(rng, 0.0), _log_uniform(rng), _log_uniform(rng),
        _log_uniform(rng, *_LOG_GAMMA),
    )),
    "chernoff": (chernoff_tail_bound, _ref_chernoff, lambda rng: (
        _log_uniform(rng), _log_uniform(rng, 0.0), int(_log_uniform(rng, 0.0, math.log(2.0**62))),
        _log_uniform(rng), _log_uniform(rng),
    )),
    "moddev": (moddev_envelope, _ref_moddev, lambda rng: (
        _log_uniform(rng), _log_uniform(rng, 0.0), _log_uniform(rng),
        _log_uniform(rng, *_LOG_GAMMA), None,
    )),
    "berry-esseen": (berry_esseen_bound, _ref_berry_esseen, lambda rng: (
        _log_uniform(rng), _log_uniform(rng, *_LOG_GAMMA),
    )),
}


@pytest.mark.parametrize("name", SWEEP)
def test_values_match_decimal_references_across_the_float_range(name):
    evaluate, reference, draw = SWEEP[name]
    rng = random.Random(23)
    wrong = []
    with decimal.localcontext(prec=60):
        for _ in range(250):
            args = draw(rng)
            v = evaluate(*args)
            if not _agrees(v, reference(*args)):
                wrong.append((args, v))
    assert wrong == []
