"""Executable verification suites: the quantitative desk-scale checks.

Each check returns a CheckResult and is shared verbatim between the CLI
``verify`` command and the acceptance test module, so a printed verdict and a
test outcome can never disagree.  Checks that need replicated sums draw them
through ``preset_sums``, whose shared cache keeps a suite from resampling the
same preset twice.

Monte Carlo verdicts mean "not refuted at the conservative CI edge"; a
simulation cannot prove an inequality, only fail to falsify it.
"""

from __future__ import annotations

import inspect
import math
import time
from dataclasses import dataclass, field, replace
from itertools import product as iter_product
from pathlib import Path

import numpy as np

from nonconv.bounds import mgf_exponent_bound, mdp_gaussian_rate, mdp_validity
from nonconv.config import build_experiment, load_config
from nonconv.cumulants import (
    cumulants_to_moments,
    moments_to_cumulants,
    noncum_bound,
)
from nonconv.errors import ConfigError
from nonconv.exact import alpha_coefficient, exact_d_squared, phi_bruteforce, phi_coefficient
from nonconv.indexing import neighborhood_cap, neighborhood_sizes
from nonconv.martingale import (
    build_decomposition,
    check_martingale,
    evaluate_paths,
    telescoping_check,
)
from nonconv.montecarlo import (
    FLOOR,
    SAFETY,
    ExperimentConfig,
    calibrate_B,
    calibrate_C1,
    calibrate_c0,
    chernoff_refutations,
    cumulant_scan,
    default_thresholds,
    kolmogorov_distance,
    mdp_diagnostic,
    mgf_estimates,
    sums_over_grid,
    variance_scan,
)
from nonconv.processes import markov_model
from nonconv.rng import substream_rng

GAMMA = 1.0  # bounded presets with exponential mixing: gamma = 1/eta = 1
_NEIGHBORHOOD_N_MAX = 500  # the neighborhood scan's N; it covers every n <= N
_NEIGHBORHOOD_S_MAX = 50  # and every radius s <= 50
_ALGEBRA_TRIALS = 200  # random cumulant vectors in the round-trip check


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float
    values: dict = field(default_factory=dict)

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"


def _result(name, passed, detail, t0, values=None) -> CheckResult:
    return CheckResult(
        name=name,
        passed=bool(passed),
        detail=detail,
        seconds=time.perf_counter() - t0,
        values=values or {},
    )


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

_PRESET_DIR = Path(__file__).resolve().parent / "presets"


def preset_experiment(name, n_grid, n_replicates, seed=None, workers=1) -> ExperimentConfig:
    """The shipped preset ``presets/<name>.cfg`` at the given N grid and replicate count.

    The seed defaults to the preset's own.  The preset's statistics and bound
    checks, and their demands on the grid and replicate count, are left out:
    each check runs and validates its own.
    """
    raw = load_config(str(_PRESET_DIR / f"{name}.cfg"))
    for key in ("statistics", "bound_checks"):
        raw.sections["run"].pop(key, None)
    return build_experiment(
        raw, seed=seed, replicates=n_replicates, n_grid=list(n_grid), workers=workers
    )


def preset_sums(cache: dict | None, name, n_grid, n_replicates, workers=1):
    """(the preset's experiment, {N: its replicate sums}) at its own seed.

    The sums are memoized in ``cache`` on (name, N, R): those and the
    preset's seed fix them, and the worker count never changes them.  The N
    missing from the cache are drawn together, in one ``sums_over_grid``.
    """
    config = preset_experiment(name, n_grid, n_replicates, workers=workers)
    cache = {} if cache is None else cache
    missing = tuple(n for n in config.n_grid if (name, n, n_replicates) not in cache)
    if missing:
        drawn = sums_over_grid(replace(config, n_grid=missing))
        cache.update(((name, n, n_replicates), sample) for n, sample in drawn.items())
    return config, {n: cache[(name, n, n_replicates)] for n in config.n_grid}


# ---------------------------------------------------------------------------
# criterion 1: mixing coefficient oracle equivalence
# ---------------------------------------------------------------------------


def check_mixing_oracle() -> CheckResult:
    """Closed-form phi equals brute-force enumeration; alpha <= phi/2."""
    t0 = time.perf_counter()
    chains = [
        markov_model([[0.9, 0.1], [0.2, 0.8]], [[1.0], [-1.0]]),
        markov_model([[0.6, 0.4], [0.3, 0.7]], [[0.0], [1.0]]),
        markov_model(
            [[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.2, 0.2, 0.6]],
            [[-1.0], [0.0], [1.0]],
        ),
    ]
    worst_gap = 0.0
    worst_alpha = -1.0
    n_pairs = 0
    for model in chains:
        for n in range(1, 7):
            phi = phi_coefficient(model, n)
            for pw, fw in iter_product(range(1, 4), range(1, 4)):
                bf = phi_bruteforce(model, n, pw, fw)
                worst_gap = max(worst_gap, abs(bf - phi))
                alpha = alpha_coefficient(model, n, pw, fw)
                worst_alpha = max(worst_alpha, alpha - phi / 2.0)
                n_pairs += 1
    passed = worst_gap <= 1e-10 and worst_alpha <= 1e-12
    return _result(
        "mixing-oracle",
        passed,
        f"max |phi - bruteforce| = {worst_gap:.2e}, max (alpha - phi/2) = {worst_alpha:.2e} "
        f"over {n_pairs} window/gap pairs",
        t0,
        {"worst_gap": worst_gap, "worst_alpha_excess": worst_alpha},
    )


# ---------------------------------------------------------------------------
# criterion 2: neighborhood size bound
# ---------------------------------------------------------------------------


def check_neighborhood_bound() -> CheckResult:
    """Exhaustive |A_s(n, N)| <= 3 l^2 s for l <= 4, N = 500, n <= N and s <= 50."""
    t0 = time.perf_counter()
    violations = 0
    worst_ratio = 0.0
    for arity in range(1, 5):
        for s in range(1, _NEIGHBORHOOD_S_MAX + 1):
            cap = neighborhood_cap(arity, s)
            sizes = neighborhood_sizes(arity, _NEIGHBORHOOD_N_MAX, s)
            worst_ratio = max(worst_ratio, int(sizes.max()) / cap)
            violations += int(np.count_nonzero(sizes > cap))
    passed = violations == 0
    return _result(
        "neighborhood-bound",
        passed,
        f"{violations} violations over l <= 4, N <= {_NEIGHBORHOOD_N_MAX}, "
        f"s <= {_NEIGHBORHOOD_S_MAX}; max |A_s|/(3 l^2 s) = {worst_ratio:.3f}",
        t0,
        {"violations": violations, "worst_ratio": worst_ratio},
    )


# ---------------------------------------------------------------------------
# criterion 3: cumulant algebra
# ---------------------------------------------------------------------------


def _poisson_raw_moments(lam: float, p_max: int) -> list[float]:
    # independent oracle: m_{n+1} = lam * sum_k C(n, k) m_k
    ms = [1.0]
    for n in range(p_max):
        ms.append(lam * math.fsum(math.comb(n, k) * ms[k] for k in range(n + 1)))
    return ms[1:]


def _gaussian_raw_moments(mu: float, var: float, p_max: int) -> list[float]:
    # independent oracle: binomial expansion with central moments (p-1)!! var^(p/2)
    out = []
    for p in range(1, p_max + 1):
        total = 0.0
        for j in range(0, p + 1, 2):
            central = math.prod(range(j - 1, 0, -2)) * var ** (j // 2) if j else 1.0
            total += math.comb(p, j) * central * mu ** (p - j)
        out.append(total)
    return out


def check_cumulant_algebra() -> CheckResult:
    """Round trips of 200 vectors up to order 12 plus Gaussian/Poisson closed forms (p <= 8)."""
    t0 = time.perf_counter()
    rng = substream_rng(2024, 13)
    max_rel = 0.0
    for _ in range(_ALGEBRA_TRIALS):
        k = int(rng.integers(2, 13))
        # unit scale: order-12 moments stay ~1e6, keeping float conditioning
        # an order of magnitude below the tolerance
        cums = rng.uniform(-1.0, 1.0, size=k)
        moments = cumulants_to_moments(cums)
        back = moments_to_cumulants(moments)
        rel = np.max(np.abs(back - cums) / np.maximum(1.0, np.abs(cums)))
        max_rel = max(max_rel, float(rel))

    mu, var, lam = 0.7, 1.3, 2.0
    gauss_cums = [mu, var] + [0.0] * 6
    gauss_err = np.max(
        np.abs(np.asarray(cumulants_to_moments(gauss_cums)) - _gaussian_raw_moments(mu, var, 8))
    )
    pois_cums = moments_to_cumulants(_poisson_raw_moments(lam, 8))
    pois_err = float(np.max(np.abs(np.asarray(pois_cums) - lam)))

    passed = max_rel <= 1e-9 and gauss_err <= 1e-8 and pois_err <= 1e-8
    return _result(
        "cumulant-algebra",
        passed,
        f"round-trip rel err {max_rel:.2e} over {_ALGEBRA_TRIALS} vectors; "
        f"Gaussian moment err {gauss_err:.2e}; Poisson cumulant err {pois_err:.2e}",
        t0,
        {"max_rel": max_rel, "gauss_err": float(gauss_err), "pois_err": pois_err},
    )


# ---------------------------------------------------------------------------
# criterion 4: martingale construction
# ---------------------------------------------------------------------------


def check_martingale_construction(quick: bool = False) -> CheckResult:
    """Term-wise increment certificate; gap bounded and N-independent.

    Quick certifies chain_pair at N = 8; full certifies it at N = 256 and
    doubling_pwc at N = 64 as well.
    """
    t0 = time.perf_counter()
    base = preset_experiment("chain_pair", (8,), 256, seed=17)
    decomp = build_decomposition(base.model, base.centered, base.family)  # serves every N below
    chk = check_martingale(decomp, 8 if quick else 256)
    certified = (
        f"term-wise offset bound {chk.bound:.2e} (allow {chk.tol:.0e}+{chk.allowance:.0e}) "
        f"over {chk.terms_checked} terms"
    )
    cert_ok, extra = chk.passed, {}
    if not quick:
        dyadic = preset_experiment("doubling_pwc", (8,), 256)
        dyadic = build_decomposition(dyadic.model, dyadic.centered, dyadic.family)
        dchk = check_martingale(dyadic, 64)
        certified += (
            f" at N = 256; doubling_pwc at N = 64: {dchk.bound:.2e} "
            f"(allow {dchk.tol:.0e}+{dchk.allowance:.0e}) over {dchk.terms_checked} terms"
        )
        cert_ok, extra = cert_ok and dchk.passed, {"doubling_offset_bound": dchk.bound}

    n_list = (8, 64) if quick else (8, 64, 512)
    n_rep = 256 if quick else 1024
    gaps, tels = {}, {}
    for n in n_list:
        ev = evaluate_paths(decomp, n, 17, n_rep)
        tels[n] = telescoping_check(ev)
        gaps[n] = float(np.max(ev.gaps))
    tel_ok = all(t.passed for t in tels.values())

    delta = decomp.delta  # the gap bound delta2: N-independent, as beta = 0
    b_cal = SAFETY * max(gaps[8] / delta, FLOOR)
    sup_ok = all(g <= b_cal * delta for g in gaps.values())
    g_lo, g_hi = min(gaps.values()), max(gaps.values())
    spread = (g_hi - g_lo) / g_hi if g_hi > 0 else 0.0
    spread_ok = spread <= 0.05

    passed = cert_ok and tel_ok and sup_ok and spread_ok
    return _result(
        "martingale-construction",
        passed,
        f"{certified}; gaps {dict((n, round(g, 6)) for n, g in gaps.items())} "
        f"vs B*delta2 = {b_cal * delta:.4f} (B = {b_cal:.3f}); spread {spread:.3%}; "
        f"telescoping {'ok' if tel_ok else 'FAILED'}",
        t0,
        {"offset_bound": chk.bound, "worst_time": chk.worst_time, "worst_level": chk.worst_level,
         "gaps": gaps, "b_calibrated": b_cal, "spread": spread,
         "telescoping_error": max(t.max_error for t in tels.values()), **extra},
    )


# ---------------------------------------------------------------------------
# criterion 5: exponential moment and Chernoff tail displays
# ---------------------------------------------------------------------------


def check_mgf_and_tails(cache: dict | None = None, workers: int = 1) -> CheckResult:
    """B calibrated on half of R = 1e5 sums, never refuted on the other half.

    B is sized on the first half's MGF estimates and tail grid, so testing it
    there again could not fail; the held-out half, with its own estimates and
    grid, can refute it.
    """
    t0 = time.perf_counter()
    lambdas = (0.01, 0.05)
    details = []
    all_ok = True
    b_values = {}
    for tag, preset in (("chain-pair", "chain_pair"), ("iid-product", "iid_product")):
        config, sums = preset_sums(cache, preset, (256,), 100_000, workers=workers)
        n = config.n_grid[0]
        sample, half = sums[n], sums[n].n_replicates // 2
        fit = replace(sample, sums=sample.sums[:half])
        held = replace(sample, sums=sample.sums[half:])
        decomp = build_decomposition(config.model, config.centered, config.family)
        b = calibrate_B(decomp, fit, mgf_estimates(fit, lambdas), default_thresholds(fit.centered))
        b_values[tag] = b
        arity, delta = decomp.centered.arity, decomp.delta

        for lam, (point, se) in mgf_estimates(held, lambdas).items():
            bound = math.exp(mgf_exponent_bound(lam, n, arity, delta, delta, b))
            if point - 2.0 * se > bound:
                all_ok = False
                details.append(f"{tag}: MGF at lam={lam} refutes bound")
        n_tail_fail = chernoff_refutations(held, default_thresholds(held.centered), decomp, b)
        if n_tail_fail:
            all_ok = False
            details.append(f"{tag}: {n_tail_fail} tail grid points refute the bound")

    msg = "; ".join(details) if details else (
        f"no refutation on the held-out half at lambda {lambdas}, 10-point tail grids; "
        "B calibrated on the other half "
        + ", ".join(f"{k}={v:.3f}" for k, v in b_values.items())
    )
    return _result("mgf-chernoff", all_ok, msg, t0, {"B": b_values})


# ---------------------------------------------------------------------------
# criterion 6: variance growth and envelope
# ---------------------------------------------------------------------------

_VAR_GRID = (64, 256, 1024, 2048, 4096)


def check_variance_envelope(cache: dict | None = None, workers: int = 1) -> CheckResult:
    """Limit variance matches the product oracle; sqrt-N envelope with holdout."""
    t0 = time.perf_counter()
    config, sums = preset_sums(cache, "iid_product", _VAR_GRID, 100_000, workers=workers)
    fit = variance_scan(sums)
    target = exact_d_squared(config.model, config.centered)
    d2_ok = abs(fit.d_squared - target) <= 4.0 * fit.d_squared_se

    sub_fit = variance_scan({n: sums[n] for n in _VAR_GRID[:-1]})
    c1 = calibrate_C1(sub_fit)
    n_last = _VAR_GRID[-1]
    v_last = fit.variances[-1]
    se_last = fit.std_errors[-1]
    resid = abs(v_last - sub_fit.d_squared * n_last)
    env_ok = resid - 2.0 * se_last <= c1 * math.sqrt(n_last)

    passed = d2_ok and env_ok
    return _result(
        "variance-envelope",
        passed,
        f"D^2 = {fit.d_squared:.5f} +- {fit.d_squared_se:.5f} vs oracle {target} "
        f"({'within' if d2_ok else 'OUTSIDE'} 4 SE); holdout residual {resid:.3f} "
        f"vs C1 sqrt(N) = {c1 * math.sqrt(n_last):.3f} "
        f"({'held' if env_ok else 'VIOLATED'} at N = {n_last})",
        t0,
        {"d_squared": fit.d_squared, "d_squared_se": fit.d_squared_se, "C1": c1},
    )


# ---------------------------------------------------------------------------
# criterion 7: cumulant growth envelope and normalized decay
# ---------------------------------------------------------------------------


def check_cumulant_growth(cache: dict | None = None, workers: int = 1) -> CheckResult:
    """Orders 3 and 4 inside the calibrated envelope, incl. holdout N;
    normalized third-order decay slope in [-0.8, -0.2] on the skewed preset."""
    t0 = time.perf_counter()
    grid = _VAR_GRID
    presets = (
        ("chain-pair", "chain_pair", 100_000),
        ("iid-product", "iid_product", 100_000),
        ("iid-skew", "iid_skew", 400_000),
    )
    details = []
    all_ok = True
    c0_by = {}
    slope = None
    for tag, preset, n_replicates in presets:
        _, sums = preset_sums(cache, preset, grid, n_replicates, workers=workers)
        scan = cumulant_scan(sums)
        sub_rows = [r for r in scan.rows if r.n_terms < grid[-1]]
        sub_scan = replace(scan, rows=tuple(sub_rows))
        c0 = calibrate_c0(sub_scan, GAMMA)
        c0_by[tag] = c0
        # the envelope is checked against the point estimates: calibration
        # already covers the CI edge on the sub-grid, and the jackknife SE of
        # an order-4 cumulant grows like N^2 R^{-1/2}, so at holdout N the
        # edge measures replication budget rather than cumulant size
        bad = [
            (r.n_terms, r.order)
            for r in scan.rows
            if r.order >= 3
            and abs(r.estimate) > math.exp(noncum_bound(r.n_terms, r.order, c0, GAMMA))
        ]
        if bad:
            all_ok = False
            details.append(f"{tag}: envelope violated at {bad}")
        if tag == "iid-skew":
            slope = scan.normalized_slope(3)
            if not (-0.8 <= slope <= -0.2):
                all_ok = False
                details.append(f"iid-skew: normalized order-3 slope {slope:.3f} outside [-0.8, -0.2]")

    msg = "; ".join(details) if details else (
        "envelopes hold incl. holdout N; c0 "
        + ", ".join(f"{k}={v:.3f}" for k, v in c0_by.items())
        + f"; normalized order-3 slope {slope:.3f}"
    )
    return _result("cumulant-growth", all_ok, msg, t0, {"c0": c0_by, "slope3": slope})


# ---------------------------------------------------------------------------
# criterion 8: normal-approximation distance decay
# ---------------------------------------------------------------------------


def check_berry_esseen(cache: dict | None = None, workers: int = 1) -> CheckResult:
    """Kolmogorov distance of standardized sums decays with slope <= -0.15."""
    t0 = time.perf_counter()
    grid = tuple(2**k for k in range(8, 15))
    _, sums = preset_sums(cache, "iid_product", grid, 50_000, workers=workers)
    dists = []
    for n in grid:
        s = sums[n].centered
        dists.append(kolmogorov_distance(s, 0.0, float(np.std(s, ddof=1))))
    slope = float(np.polyfit(np.log(grid), np.log(dists), 1)[0])
    passed = slope <= -0.15
    return _result(
        "berry-esseen-decay",
        passed,
        f"distances {[round(d, 4) for d in dists]} over N = 2^8..2^14; "
        f"log-log slope {slope:.3f} (need <= -0.15)",
        t0,
        {"slope": slope, "distances": dists},
    )


# ---------------------------------------------------------------------------
# criterion 9: moderate-deviation diagnostic
# ---------------------------------------------------------------------------


def check_mdp_diagnostic(cache: dict | None = None, workers: int = 1) -> CheckResult:
    """Normalized log-tail at x = 1, N = 1e4, R = 1e6 against its finite-N rate.

    The moderate-deviation limit x^2/2 = 1/2 is reached only like
    ln(a_N) / a_N^2, so at desk scale the empirical value is compared, within
    25%, with the Gaussian reference -ln Phi_bar(x a_N) / a_N^2 whose log-ratio
    the envelope bounds.  The limit stays part of the verdict through the
    trend: on the validity scan's grid the reference must fall strictly
    toward 1/2, stay above it, and end inside the same 25% band of it.  The
    scaling sequence N^0.1 must also pass the validity scan.
    """
    t0 = time.perf_counter()
    _, sums = preset_sums(cache, "iid_bernoulli_mdp", (10_000,), 1_000_000, workers=workers)
    scan_grid = np.geomspace(1e2, 1e12, 11)
    validity = mdp_validity(0.1, GAMMA, scan_grid)
    table = mdp_diagnostic(sums, 0.1, (1.0,), d_const=0.5)
    cell = table.cell(10_000, 1.0)
    within = abs(cell.value - cell.reference) <= 0.25 * cell.reference
    trend = np.array([mdp_gaussian_rate(cell.x, float(n) ** 0.1) for n in scan_grid])
    toward_limit = bool(np.all(np.diff(trend) < 0) and cell.rate < trend[-1] <= 1.25 * cell.rate)
    passed = validity.passed and cell.status == "ok" and within and toward_limit
    return _result(
        "mdp-diagnostic",
        passed,
        f"normalized log-tail {cell.value:.4f} (CI [{cell.value_lo:.4f}, {cell.value_hi:.4f}], "
        f"{cell.count} exceedances) vs Gaussian reference {cell.reference:.4f}; "
        f"need within 25%; reference falls toward the limit {cell.rate} "
        f"({trend[0]:.4f} at N = 1e2 to {trend[-1]:.4f} at N = 1e12): "
        f"{'ok' if toward_limit else 'FAILED'}; "
        f"a_N validity {'ok' if validity.passed else 'FAILED'}",
        t0,
        {
            "value": cell.value,
            "reference": cell.reference,
            "rate": cell.rate,
            "count": cell.count,
            "validity": {"grows": validity.grows, "damped_vanishes": validity.damped_vanishes,
                         "a_range": validity.a_range, "damped_range": validity.damped_range},
        },
    )


# ---------------------------------------------------------------------------
# criterion 10: worker-count determinism (engine level)
# ---------------------------------------------------------------------------


def check_determinism() -> CheckResult:
    """Identical replicate vectors and CSV bytes for 1 vs 8 workers.

    The sums are compared bit for bit, which is stricter than np.array_equal
    (that treats -0.0 and 0.0 as equal) and implies identical CSV text.
    """
    t0 = time.perf_counter()
    details = []
    for tag, preset in (("chain-pair", "chain_pair"), ("iid-bernoulli", "iid_bernoulli_mdp")):
        s1 = sums_over_grid(preset_experiment(preset, (16, 256), 2000, workers=1))
        s8 = sums_over_grid(preset_experiment(preset, (16, 256), 2000, workers=8))
        differ = [n for n in s1 if s1[n].sums.tobytes() != s8[n].sums.tobytes()]
        details += [f"{tag}: sums differ at N = {n}" for n in differ]
    msg = "; ".join(details) if details else "replicate vectors and CSV bytes identical for 1 vs 8 workers"
    return _result("worker-determinism", not details, msg, t0)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _quick_martingale() -> CheckResult:
    return check_martingale_construction(quick=True)


SUITES = {
    "quick": (
        check_mixing_oracle,
        check_neighborhood_bound,
        check_cumulant_algebra,
        _quick_martingale,
        check_determinism,
    ),
    "full": (
        check_mixing_oracle,
        check_neighborhood_bound,
        check_cumulant_algebra,
        check_martingale_construction,
        check_mgf_and_tails,
        check_variance_envelope,
        check_cumulant_growth,
        check_berry_esseen,
        check_mdp_diagnostic,
        check_determinism,
    ),
    "martingale": (check_martingale_construction, check_mgf_and_tails),
    "cumulants": (check_cumulant_algebra, check_cumulant_growth),
    "mdp": (check_mdp_diagnostic,),
}


def run_suite(name: str, workers: int = 1) -> list[CheckResult]:
    fns = SUITES.get(name)
    if fns is None:
        raise ConfigError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    cache: dict = {}
    out = []
    for fn in fns:
        # the signature, unlike fn.__code__, sees through functools.wraps
        params = inspect.signature(fn).parameters
        kwargs = {k: v for k, v in (("cache", cache), ("workers", workers)) if k in params}
        out.append(fn(**kwargs))
    return out
