"""Replicated simulation engine and the statistics layered on top of it.

Replicates are embarrassingly parallel: replicate j draws from a
counter-based stream keyed by (master seed, j) (one generator per block,
re-keyed per replicate), and blocks of 512 replicates are dispatched to
whatever workers are configured, each block once for the whole N grid.
i.i.d. rows are prefix-stable: an i.i.d. draw ignores the index it lands
on, so a replicate's states at N are the first |uniq(N)| states it draws at
the largest N, and a block draws them once; chains, the doubling map and
the binomial count draw per N inside the block.  Each replicate's path sum
is an np.sum over its own row of a C-contiguous block of terms, a reduction
whose order depends only on N (the binomial-count shortcut is closed form),
so outputs are bit-identical across worker counts, blockings and grids.
Only the mean corrections are compensated: the exact one (``exact_mean_SN``)
and the grand-mean fallback both sum their terms with math.fsum.
Confidence machinery: exact binomial intervals for tail probabilities,
delete-one jackknife for cumulants, a seeded bootstrap for means.  Every
statistic is a function of drawn sums (``{N: SumSample}``) and plain
numbers.  A Monte Carlo run can only fail to refute a bound; the pass
verdicts here all mean "not refuted at the conservative CI edge".
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from nonconv.bounds import chernoff_tail_bound, chernoff_threshold, mdp_gaussian_rate, mdp_rate
from nonconv.budget import ensure_within_budget, slice_rows
from nonconv.cumulants import request_jackknife, sample_cumulants
from nonconv.errors import CheckFailure, ConfigError
from nonconv.indexing import IndexFamily
from nonconv.martingale import MartingaleDecomposition, evaluate_paths
from nonconv.observables import (
    CenteredObservable,
    block_sums,
    exact_mean_SN,
    family_indices,
    request_sum_block,
)
from nonconv.processes import IIDModel, ProcessModel
from nonconv.rng import replicate_streams, substream_rng

BLOCK = 512  # replicate block size; fixed so worker count cannot affect blocking
_ALPHA = 0.05  # tail intervals are two-sided 95% Clopper-Pearson
_N_BOOT = 999  # bootstrap resamples
_BOOT_PURPOSE = 3  # substream of the bootstrap resampling


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a model/observable/family triple, run controls and reports.

    ``statistics`` and ``bound_checks`` name the reports a run writes, and
    ``params`` holds every key of the optional config sections, resolved.
    Construction refuses run controls that the statistics cannot use, and
    asks the budget for the 8 bytes per replicate and per N that the sums
    of ``sums_over_grid`` hold, and for what the jackknife of a cumulant
    scan holds, before any draw.
    """

    model: ProcessModel
    centered: CenteredObservable
    family: IndexFamily
    n_grid: tuple[int, ...]
    n_replicates: int
    master_seed: int
    statistics: tuple[str, ...]
    bound_checks: tuple[str, ...]
    params: dict  # optional section -> key -> value
    workers: int = 1

    def __post_init__(self):
        if not self.n_grid or any(n < 1 for n in self.n_grid):
            raise ConfigError("n_grid must hold positive term counts")
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ConfigError("n_grid must be strictly ascending")
        if self.n_replicates < 100:
            raise ConfigError("need at least 100 replicates for CI-bearing statistics")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if not 0 <= self.master_seed < 1 << 64:
            raise ConfigError("master seed must lie in [0, 2^64)")
        if "variance" in self.statistics:
            require_variance_grid(self.n_grid)
        if "cumulants" in self.statistics:
            require_cumulant_replicates(self.n_replicates)
            request_jackknife(self.n_replicates)
        ensure_within_budget(8 * self.n_replicates * len(self.n_grid), "replicate sums")


# ---------------------------------------------------------------------------
# replicated sums
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SumSample:
    """Replicated values of the centered sum at one N."""

    n_terms: int
    master_seed: int
    sums: np.ndarray  # raw per-replicate sums (terms already centered)
    mean_correction: float  # exact or grand-mean E of the raw sum
    centering: str  # "exact" | "grand-mean"
    method: str  # "path-evaluation" | "binomial-count"

    @property
    def n_replicates(self) -> int:
        return self.sums.size

    @property
    def centered(self) -> np.ndarray:
        return self.sums - self.mean_correction


def _binomial_shortcut(
    model: ProcessModel, centered: CenteredObservable
) -> tuple[float, float, float] | None:
    """Closed-form sampling parameters when the sum is a two-atom i.i.d. count.

    With one argument per term and a two-point law, S_N depends on the path
    only through the count of one atom, a binomial draw; simulating the count
    directly makes million-replicate runs at large N affordable.  Selection
    depends only on the configured model/observable, never on run controls.
    """
    if not isinstance(model, IIDModel) or centered.arity != 1:
        return None
    law = model.law
    if law.atoms.shape[0] != 2:
        return None
    vals = centered.table_for(model)
    return float(law.probs[1]), float(vals[0]), float(vals[1])


def replicate_sums(config: ExperimentConfig, n_terms: int) -> SumSample:
    """All replicate sums at one N: the one-N case of :func:`sums_over_grid`."""
    return _grid_sums(config, (n_terms,))[n_terms]


def sums_over_grid(config: ExperimentConfig) -> dict[int, SumSample]:
    """Replicate sums at every N of the config's grid, deterministic for any worker count.

    The mean correction subtracted to form centered sums is the exact
    enumeration when the model admits one, otherwise the grand mean over
    replicates; which one was used is recorded.
    """
    return _grid_sums(config, config.n_grid)


def _grid_sums(config: ExperimentConfig, n_grid: Sequence[int]) -> dict[int, SumSample]:
    """The engine: each block of replicates is dispatched once for the whole grid.

    ``n_grid`` is strictly ascending.  The budget is asked for the index
    tables and the sum-evaluation block before anything is built.  Then
    each N's index table is built once, and the largest N's gives the exact
    centering of the whole grid, all before the pool starts.  The family
    checks of building a table also guard the binomial count, which assumes
    N distinct draws.  A block draws per N on the count path, and through
    ``block_sums`` otherwise, where an i.i.d. model draws once.
    """
    if any(n < 1 for n in n_grid):
        raise ConfigError("n_terms must be positive")
    R, model = config.n_replicates, config.model
    # the index tables the run holds: uniq and positions, at most arity N int64 each
    ensure_within_budget(16 * config.family.arity * sum(n_grid), "index tables")
    shortcut = _binomial_shortcut(model, config.centered)
    if shortcut is None:
        table = config.centered.table_for(model)
        request_sum_block(table, n_grid[-1], min(BLOCK, R))
    index_tables = [family_indices(config.family, n) for n in n_grid]
    try:
        corrections = exact_mean_SN(model, config.centered, *index_tables[-1], n_grid)
    except (ConfigError, MemoryError):
        corrections = {}
    outs = [np.empty(R) for _ in n_grid]

    if shortcut is not None:
        p1, f0, f1 = shortcut

        def run_block(edge: tuple[int, int]) -> None:
            a, b = edge
            ks = np.empty(b - a)
            for n, out in zip(n_grid, outs):
                for j, gen in enumerate(replicate_streams(config.master_seed, a, b - a)):
                    ks[j] = gen.binomial(n, p1)
                out[a:b] = ks * f1 + (n - ks) * f0

        method = "binomial-count"
    else:
        def run_block(edge: tuple[int, int]) -> None:
            a, b = edge
            sums = block_sums(model, table, index_tables, config.master_seed, b - a, a)
            for out, block in zip(outs, sums):
                out[a:b] = block

        method = "path-evaluation"

    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        list(pool.map(run_block, [(a, min(a + BLOCK, R)) for a in range(0, R, BLOCK)]))

    return {
        n: SumSample(
            n_terms=n,
            master_seed=config.master_seed,
            sums=out,
            mean_correction=corrections[n] if n in corrections else math.fsum(out) / R,
            centering="exact" if n in corrections else "grand-mean",
            method=method,
        )
        for n, out in zip(n_grid, outs)
    }


# ---------------------------------------------------------------------------
# tails
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailEstimate:
    threshold: float
    p_hat: float
    lower: float
    upper: float
    count: int
    n_replicates: int


def tail_estimate(samples: np.ndarray, x: float) -> TailEstimate:
    """Exact-count estimate of P(sample >= x) with a 95% Clopper-Pearson interval."""
    from scipy.special import betaincinv

    s = np.asarray(samples, dtype=float)
    if s.size == 0:
        raise ConfigError("no samples")
    if s.size < 100:
        raise ConfigError("tail estimation needs at least 100 replicates")
    R = s.size
    c = int(np.count_nonzero(s >= x))
    # beta quantiles: betaincinv(a, b, q) equals scipy.stats.beta.ppf(q, a, b) bit for
    # bit (a test pins it); scipy.special loads here, at the first tail estimate, so
    # runs and suites that take none never import scipy
    lower = 0.0 if c == 0 else float(betaincinv(c, R - c + 1, _ALPHA / 2.0))
    upper = 1.0 if c == R else float(betaincinv(c + 1, R - c, 1.0 - _ALPHA / 2.0))
    return TailEstimate(
        threshold=float(x), p_hat=c / R, lower=lower, upper=upper, count=c, n_replicates=R
    )


def kolmogorov_distance(samples: np.ndarray, center: float, scale: float) -> float:
    """Exact sup distance between the empirical CDF and the standard normal.

    The sup over the whole line of |Fhat - ndtr| is attained at a sorted
    sample point, approached from one side or the other, so both one-sided
    gaps are taken at every step point.  The standardized sample is sorted
    in place, and ndtr and the gaps are taken one slice at a time
    (``slice_rows``); a max does not depend on the order it runs in.
    """
    from scipy.special import ndtr

    if scale <= 0:
        raise ConfigError("scale must be positive")
    z = np.asarray(samples, dtype=float) - center
    z /= scale
    z.sort()
    R = z.size
    if R == 0:
        raise ConfigError("no samples")
    rows = slice_rows(R, 5 * 8)  # ndtr, the two step heights and the two gaps
    gaps = []
    for a in range(0, R, rows):
        b = min(a + rows, R)
        cdf = ndtr(z[a:b])
        gaps += [np.max(np.arange(a + 1, b + 1) / R - cdf), np.max(cdf - np.arange(a, b) / R)]
    return float(np.max(gaps))


def bootstrap_se(values: np.ndarray, master_seed: int) -> tuple[float, float]:
    """(mean, its bootstrap standard error over 999 resamples) from a seeded stream."""
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        raise ConfigError("bootstrap needs at least two values")
    rng = substream_rng(master_seed, _BOOT_PURPOSE)
    means = np.empty(_N_BOOT)
    for t in range(_N_BOOT):
        means[t] = np.mean(v[rng.integers(0, v.size, size=v.size)])
    return float(np.mean(v)), float(np.std(means, ddof=1))


def _grid(sums: dict[int, SumSample]) -> tuple[int, ...]:
    """The ascending N grid of a scan's sums."""
    if not sums:
        raise ConfigError("no sums to scan")
    return tuple(sorted(sums))


# ---------------------------------------------------------------------------
# variance scan
# ---------------------------------------------------------------------------


def require_variance_grid(n_grid: Sequence[int]) -> None:
    """Raise ConfigError unless the N grid spans the factor of 16 a variance scan needs."""
    if max(n_grid) < 16 * min(n_grid):
        raise ConfigError("variance scan needs an N grid spanning a factor of 16")


@dataclass(frozen=True)
class VarianceFit:
    n_grid: tuple[int, ...]
    variances: np.ndarray
    std_errors: np.ndarray
    d_squared: float
    d_squared_se: float
    c1_conservative: float
    residuals: np.ndarray


def variance_scan(sums: dict[int, SumSample]) -> VarianceFit:
    """Estimate the linear variance coefficient and the sqrt-N envelope.

    Per N the sample variance of the centered sums carries a moment-formula
    standard error; the slope of variance against N comes from a
    weighted least-squares fit through the origin, and the envelope constant
    is the largest 2-sigma-padded residual over sqrt(N), conservative for
    calibration.
    """
    grid = _grid(sums)
    require_variance_grid(grid)
    variances = np.empty(len(grid))
    ses = np.empty(len(grid))
    for t, n in enumerate(grid):
        s = sums[n].centered
        R = s.size
        v = float(np.var(s, ddof=1))
        m4 = float(np.mean((s - s.mean()) ** 4))
        var_of_var = max(m4 - v * v * (R - 3) / (R - 1), 0.0) / R
        variances[t] = v
        ses[t] = math.sqrt(var_of_var)
    w = 1.0 / np.maximum(ses, 1e-300) ** 2
    ns = np.array(grid, dtype=float)
    denom = float(np.sum(w * ns * ns))
    d2 = float(np.sum(w * ns * variances)) / denom
    d2_se = math.sqrt(1.0 / denom)
    resid = variances - d2 * ns
    c1_cons = float(np.max((np.abs(resid) + 2.0 * ses) / np.sqrt(ns)))
    return VarianceFit(
        n_grid=grid,
        variances=variances,
        std_errors=ses,
        d_squared=max(d2, 0.0),
        d_squared_se=d2_se,
        c1_conservative=c1_cons,
        residuals=resid,
    )


# ---------------------------------------------------------------------------
# moderate-deviation diagnostic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MdpCell:
    n_terms: int
    x: float
    a_n: float
    p_hat: float
    count: int
    value: float
    value_lo: float
    value_hi: float
    rate: float  # the N -> infinity limit x^2/2
    reference: float  # finite-N Gaussian rate -ln Phi_bar(x a_N) / a_N^2
    status: str  # "ok" | "inconclusive"


@dataclass(frozen=True)
class MdpTable:
    cells: tuple[MdpCell, ...]

    def cell(self, n_terms: int, x: float) -> MdpCell:
        for c in self.cells:
            if c.n_terms == n_terms and abs(c.x - x) < 1e-12:
                return c
        raise KeyError((n_terms, x))


def mdp_diagnostic(
    sums: dict[int, SumSample],
    exponent: float,
    x_grid: Sequence[float],
    d_const: float,
    min_count: int = 20,
) -> MdpTable:
    """Empirical normalized log-tails of S_N / (D sqrt(N) a_N), a_N = N^exponent.

    Cell value is -ln(p_hat) / a_N^2 with the interval mapped through the
    same transform.  Each cell carries the limit rate x^2/2 and the finite-N
    Gaussian reference -ln Phi_bar(x a_N) / a_N^2, which the value tracks at
    desk scale long before it nears the limit.  A cell whose exceedance
    count is below ``min_count`` is marked inconclusive (the tail is out of
    reach at this replicate budget) rather than compared.
    """
    if d_const <= 0:
        raise ConfigError("d_const must be positive")
    cells = []
    for n in _grid(sums):
        a = float(n) ** exponent
        z = sums[n].centered / (d_const * math.sqrt(n) * a)
        a2 = a * a
        for x in x_grid:
            te = tail_estimate(z, float(x))
            value = math.inf if te.p_hat == 0.0 else -math.log(te.p_hat) / a2
            v_lo = -math.log(te.upper) / a2 if te.upper > 0 else math.inf
            v_hi = math.inf if te.lower == 0.0 else -math.log(te.lower) / a2
            cells.append(
                MdpCell(
                    n_terms=n,
                    x=float(x),
                    a_n=a,
                    p_hat=te.p_hat,
                    count=te.count,
                    value=value,
                    value_lo=v_lo,
                    value_hi=v_hi,
                    rate=mdp_rate(float(x)),
                    reference=mdp_gaussian_rate(float(x), a),
                    status="ok" if te.count >= min_count else "inconclusive",
                )
            )
    return MdpTable(cells=tuple(cells))


# ---------------------------------------------------------------------------
# cumulant scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CumulantRow:
    n_terms: int
    order: int
    estimate: float
    std_error: float
    upper_abs: float  # |estimate| + 2 SE, the one-sided comparison edge
    normalized: float  # estimate of the same cumulant for N^(-1/2) S
    normalized_se: float


@dataclass(frozen=True)
class CumulantScanReport:
    rows: tuple[CumulantRow, ...]

    def normalized_slope(self, order: int) -> float:
        """Log-log slope of |normalized cumulant| against N (NaN-safe subset)."""
        pts = [
            (r.n_terms, abs(r.normalized))
            for r in self.rows
            if r.order == order and abs(r.normalized) > 0
        ]
        if len(pts) < 2:
            raise ConfigError(f"not enough nonzero points for order {order}")
        ns = np.log([p[0] for p in pts])
        vs = np.log([p[1] for p in pts])
        return float(np.polyfit(ns, vs, 1)[0])


def require_cumulant_replicates(n_replicates: int) -> None:
    """Raise ConfigError below the 10^4 replicates a cumulant scan needs."""
    if n_replicates < 10_000:
        raise ConfigError("cumulant scan needs >= 10^4 replicates for k up to 4")


def cumulant_scan(sums: dict[int, SumSample]) -> CumulantScanReport:
    """Jackknifed cumulant estimates of orders 2..4 of the centered sums over the N grid."""
    grid = _grid(sums)
    require_cumulant_replicates(min(sums[n].n_replicates for n in grid))
    rows = []
    for n in grid:
        vec = sample_cumulants(sums[n].centered)
        for k in range(2, 5):
            est = vec.cumulant(k)
            se = vec.std_error(k)
            scale = n ** (-k / 2.0)
            rows.append(
                CumulantRow(
                    n_terms=n,
                    order=k,
                    estimate=est,
                    std_error=se,
                    upper_abs=abs(est) + 2.0 * se,
                    normalized=est * scale,
                    normalized_se=se * scale,
                )
            )
    return CumulantScanReport(rows=tuple(rows))


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

# Every calibrated constant is floored at FLOOR, then carries the safety factor SAFETY.
SAFETY = 1.5
FLOOR = 1e-3
_GAP_REPLICATES = 256  # replicates of the boundary-gap evaluation in calibrate_B
_B_CAP = 1e6  # calibrate_B's Chernoff scan gives up above this B


def calibrate_c0(scan: CumulantScanReport, gamma: float) -> float:
    """Minimal c0 with |cumulant| upper edges below N (k!)^(1+gamma) c0^(k-2)."""
    req = FLOOR
    for r in scan.rows:
        if r.order < 3:
            continue
        envelope_unit = r.n_terms * math.factorial(r.order) ** (1.0 + gamma)
        if r.upper_abs > 0:
            req = max(req, (r.upper_abs / envelope_unit) ** (1.0 / (r.order - 2)))
    return req * SAFETY


def calibrate_C1(fit: VarianceFit) -> float:
    """Variance envelope constant: the fit's conservative sqrt(N) constant."""
    return max(FLOOR, fit.c1_conservative) * SAFETY


def default_thresholds(samples: np.ndarray) -> np.ndarray:
    """The ten tail thresholds 0.5, 1.0, ..., 5.0 times the sample standard deviation."""
    return np.linspace(0.5, 5.0, 10) * float(np.std(samples, ddof=1))


def chernoff_refutations(
    sample: SumSample,
    t_grid: Sequence[float],
    decomp: MartingaleDecomposition,
    b_const: float,
) -> int:
    """How many t of the grid refute the Chernoff display at the CI edge.

    A point refutes it when the lower Clopper-Pearson edge of P(S_N >= t + B delta)
    lies above exp(-t^2 / (4 B^2 N arity delta^2)), delta the decomposition's.
    """
    delta, s = decomp.delta, sample.centered
    return sum(
        tail_estimate(s, chernoff_threshold(t, delta, b_const)).lower
        > chernoff_tail_bound(t, sample.n_terms, decomp.centered.arity, delta, b_const)
        for t in t_grid
    )


def mgf_estimates(sample: SumSample, lambdas: Sequence[float]) -> dict[float, tuple[float, float]]:
    """lambda -> (mean of exp(lambda S_N), its bootstrap SE) over the centered sums.

    The bootstrap is seeded by the sample's master seed.
    """
    s = sample.centered
    return {lam: bootstrap_se(np.exp(lam * s), sample.master_seed) for lam in lambdas}


def calibrate_B(
    decomp: MartingaleDecomposition,
    sample: SumSample,
    mgf: dict[float, tuple[float, float]],
    t_grid: Sequence[float],
) -> float:
    """Minimal B making gap, MGF, and Chernoff displays hold at the CI edge.

    ``mgf`` is :func:`mgf_estimates` of the same sample.  All three checks
    get weaker as B grows (larger gap allowance, larger MGF exponent, larger
    tail bound with a higher threshold), so the minimal feasible B is found
    by direct inversion for gap and MGF and a geometric scan for the
    threshold-coupled Chernoff part.  No feasible B below the scan cap
    raises CheckFailure: the bound is genuinely refuted, which is a
    scientific failure upstream.
    """
    N, L, delta = sample.n_terms, decomp.centered.arity, decomp.delta
    ev = evaluate_paths(decomp, N, sample.master_seed, _GAP_REPLICATES)
    req = max(FLOOR, float(np.max(ev.gaps)) / delta)

    for lam, (point, se) in mgf.items():
        log_upper = math.log(max(point + 2.0 * se, 1e-300))
        denom = lam * lam * N * L * delta + abs(lam) * delta
        if denom > 0 and log_upper > 0:
            req = max(req, log_upper / denom)

    b = req
    while b <= _B_CAP:
        if chernoff_refutations(sample, t_grid, decomp, b) == 0:
            return b * SAFETY
        b *= 1.25
    raise CheckFailure("no feasible martingale constant B below the scan cap")
