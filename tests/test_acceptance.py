"""End-to-end acceptance battery.

One numbered test per shipped guarantee, in the order they build on each
other; a verbose run reads as a pass/fail report.  Heavy simulation draws
are shared through a module-scoped cache, so the replicate work for the
overlapping presets is paid once.  Each test asserts the scientific claim
first and its runtime budget second.
"""

import filecmp
import math
import subprocess
import sys

import pytest
from scipy.stats import binom

from nonconv import verification
from nonconv.montecarlo import mdp_diagnostic, sums_over_grid
from nonconv.verification import (
    check_berry_esseen,
    check_cumulant_algebra,
    check_cumulant_growth,
    check_determinism,
    check_martingale_construction,
    check_mdp_diagnostic,
    check_mgf_and_tails,
    check_mixing_oracle,
    check_neighborhood_bound,
    check_variance_envelope,
    preset_experiment,
)

WORKERS = 4  # sampling is worker-count invariant (see test_10); 4 keeps budgets loose

DETERMINISM_CFG = """
[model]
kind = markov
transition = [[0.9, 0.1], [0.2, 0.8]]
values = [[1.0], [-1.0]]

[observable]
kind = product
arity = 2

[run]
n_grid = [16, 256]
replicates = 2000
seed = 3
statistics = ["tails"]
"""


@pytest.fixture(scope="module")
def sums_cache():
    return {}


def _report(r):
    print(f"{r.name}: {r.status} | {r.detail} | {r.seconds:.1f}s")


def test_01_mixing_coefficient_oracle(sums_cache):
    # closed-form phi equals windowed brute force within 1e-10 on 2- and
    # 3-state chains, gaps <= 6, windows <= 3; alpha(n) <= phi(n)/2 throughout
    r = check_mixing_oracle()
    _report(r)
    assert r.passed, r.detail
    assert r.seconds < 30.0


def test_02_neighborhood_size_bound():
    # |A_s| <= 3 * arity^2 * s, exhaustively for arity <= 4, N <= 500, s <= 50
    r = check_neighborhood_bound()
    _report(r)
    assert r.passed, r.detail
    assert r.seconds < 10.0


def test_03_cumulant_algebra_round_trip():
    # moments<->cumulants round trip, 200 random vectors to order 12 at
    # rel 1e-9; Gaussian and Poisson closed forms to order 8
    r = check_cumulant_algebra()
    _report(r)
    assert r.passed, r.detail
    assert r.seconds < 5.0


def test_04_martingale_construction():
    # term-wise certificate of the increments' conditional means at N = 256,
    # and on doubling_pwc at N = 64, within 1e-8 plus the truncation tail;
    # observed increment gap below the calibrated budget for N in
    # {8, 64, 512}, with the per-N maxima within 5% of each other
    r = check_martingale_construction()
    _report(r)
    assert r.passed, r.detail
    assert r.seconds < 120.0


def test_05_mgf_and_tail_bounds(sums_cache):
    # calibrated constants never refuted at the conservative CI edge:
    # MGF at lambda in {0.01, 0.05}, tails on a 10-point grid, R = 1e5
    r = check_mgf_and_tails(cache=sums_cache, workers=WORKERS)
    _report(r)
    assert r.passed, r.detail
    assert r.seconds < 300.0


def test_05b_mgf_and_tail_bounds_refute_a_quartered_constant(sums_cache, monkeypatch):
    # B is tested on the half of the draws it was not calibrated on, so a
    # constant a quarter of the calibrated one must be refuted there
    calibrate = verification.calibrate_B
    monkeypatch.setattr(verification, "calibrate_B", lambda *a: calibrate(*a) / 4.0)
    r = check_mgf_and_tails(cache=sums_cache, workers=WORKERS)
    _report(r)
    assert not r.passed and r.status == "fail"


def test_06_variance_growth_envelope(sums_cache):
    # fitted limit rate within 4 SE of the exact product oracle; sqrt-N
    # envelope calibrated on the sub-grid holds at the held-out largest N
    r = check_variance_envelope(cache=sums_cache, workers=WORKERS)
    _report(r)
    assert r.passed, r.detail
    assert r.seconds < 600.0


def test_07_cumulant_growth_envelope(sums_cache):
    # orders 3 and 4 inside the N (k!)^(1+gamma) c0^(k-2) envelope with
    # sub-grid-calibrated c0, including the held-out largest N, on the chain
    # and both iid presets; normalized order-3 log-log slope in [-0.8, -0.2]
    r = check_cumulant_growth(cache=sums_cache, workers=WORKERS)
    _report(r)
    assert r.passed, r.detail
    assert r.seconds < 600.0


def test_08_normal_distance_decay(sums_cache):
    # Kolmogorov distance of the standardized sums falls with log-log
    # slope <= -0.15 across N = 2^8 .. 2^14
    r = check_berry_esseen(cache=sums_cache, workers=WORKERS)
    _report(r)
    assert r.passed, r.detail
    assert r.seconds < 600.0


def test_09_moderate_deviation_rate():
    # normalized log-tail at x = 1 with a_N = N^0.1, N = 1e4, R = 1e6,
    # required within 25% of the finite-N Gaussian rate -ln Phi_bar(a_N)/a_N^2
    # (about 0.81), with that reference falling toward the limit 1/2 on the
    # validity grid.  test_09b pins the estimator to the exact tail and
    # test_09c shows why the limit 1/2 itself is no target at this N.
    r = check_mdp_diagnostic(workers=WORKERS)
    _report(r)
    assert r.passed, r.detail
    assert r.seconds < 600.0


def test_09b_moderate_deviation_estimator_matches_exact_tail():
    # at desk scale the empirical cell must contain the exact binomial
    # value: counts ~ Bin(N, 1/2), threshold ceil(N/2 + x a_N sqrt(N) d)
    n, x, d = 2500, 1.0, 0.5
    a = n**0.1
    config = preset_experiment("iid_bernoulli_mdp", (n,), 100_000, seed=7, workers=WORKERS)
    table = mdp_diagnostic(sums_over_grid(config), 0.1, (x,), d_const=d)
    cell = table.cell(n, x)
    kmin = math.ceil(n / 2 + x * a * math.sqrt(n) * d)
    p_exact = float(binom.sf(kmin - 1, n, 0.5))
    v_exact = -math.log(p_exact) / a**2
    assert p_exact == pytest.approx(0.01461862168261221, rel=1e-12)
    assert cell.status == "ok"
    assert cell.value_lo <= v_exact <= cell.value_hi


def test_09c_moderate_deviation_rate_trend_oracle():
    # exact normalized log-tails shrink toward 1/2 as N grows, entering the
    # 25% band of 1/2 only around N = 1e8; at the prescribed N = 1e4 even the
    # exact value lies outside it, which is why test_09 compares with the
    # finite-N Gaussian rate and keeps 1/2 as the limit of its trend
    def exact_value(n):
        a = n**0.1
        t = a * math.sqrt(n) * 0.5
        p = float(binom.sf(math.ceil(n / 2 + t) - 1, n, 0.5))
        return -math.log(p) / a**2

    values = [exact_value(10**e) for e in (4, 6, 8, 10, 12)]
    assert values[0] == pytest.approx(0.8099177134585377, rel=1e-12)
    assert all(a > b for a, b in zip(values, values[1:]))  # monotone toward 1/2
    assert all(v > 0.5 for v in values)
    assert abs(values[0] - 0.5) > 0.125  # out of band at N = 1e4
    assert abs(values[2] - 0.5) <= 0.125  # in band from N = 1e8 on


def test_10_worker_count_determinism(tmp_path, child_env):
    # replicate vectors and formatted CSV bytes identical for 1 vs 8 workers,
    # both at the engine level and through the command-line pipeline
    r = check_determinism()
    _report(r)
    assert r.passed, r.detail

    cfg = tmp_path / "exp.cfg"
    cfg.write_text(DETERMINISM_CFG, encoding="utf-8")
    outs = {}
    for w in (1, 8):
        out_dir = tmp_path / f"w{w}"
        proc = subprocess.run(
            [sys.executable, "-m", "nonconv.cli", "simulate", str(cfg),
             "--workers", str(w), "--out-dir", str(out_dir)],
            capture_output=True, text=True, timeout=300, env=child_env,
        )
        assert proc.returncode == 0, proc.stderr
        outs[w] = out_dir
    for name in ("sums.csv", "tails.csv"):
        assert filecmp.cmp(outs[1] / name, outs[8] / name, shallow=False), name
