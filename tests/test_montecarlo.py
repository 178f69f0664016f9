import hashlib
import math
import sys
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from scipy.stats import beta, binom

from nonconv.budget import slice_rows
from nonconv.config import build_experiment, parse_config_text
from nonconv.cumulants import sample_cumulants
from nonconv.errors import BudgetError, ConfigError
from nonconv.indexing import linear_family, polynomial_family
from nonconv.montecarlo import (
    CumulantRow,
    CumulantScanReport,
    ExperimentConfig,
    SumSample,
    VarianceFit,
    bootstrap_se,
    calibrate_B,
    calibrate_C1,
    calibrate_c0,
    cumulant_scan,
    kolmogorov_distance,
    mdp_diagnostic,
    mgf_estimates,
    replicate_sums,
    sums_over_grid,
    tail_estimate,
    variance_scan,
)
from nonconv.observables import center, product_observable
from nonconv.processes import _gap_thresholds, doubling_model, iid_model, markov_model
from nonconv.special import ndtr
from nonconv.verification import preset_experiment
from test_special import betaincinv_exact

RADEMACHER = iid_model([[1.0], [-1.0]], [0.5, 0.5])
PAIR = markov_model([[0.9, 0.1], [0.2, 0.8]], [[1.0], [-1.0]])


def _config(model, arity, n_grid, n_replicates, seed=0, workers=1):
    return ExperimentConfig(
        model=model,
        centered=center(product_observable(arity), model),
        family=linear_family(arity),
        n_grid=tuple(n_grid),
        n_replicates=n_replicates,
        master_seed=seed,
        statistics=(),
        bound_checks=(),
        params={},
        workers=workers,
    )


def _standardized(rng_seed, size):
    z = np.random.default_rng(rng_seed).normal(size=size)
    z = z - z.mean()
    return z / z.std(ddof=1)


def _synthetic_sample(n, sums):
    return SumSample(
        n_terms=n,
        master_seed=0,
        sums=sums,
        mean_correction=0.0,
        centering="exact",
        method="path-evaluation",
    )


class TestConfig:
    def test_grid_must_ascend(self):
        with pytest.raises(ConfigError):
            _config(RADEMACHER, 1, (64, 16), 200)
        with pytest.raises(ConfigError, match="strictly ascending"):
            _config(RADEMACHER, 1, (16, 16), 200)

    def test_seed_must_fit_the_philox_key(self):
        # a seed past 2^64 would draw what its value mod 2^64 draws
        assert _config(RADEMACHER, 1, (16,), 200, seed=2**64 - 1).master_seed == 2**64 - 1
        with pytest.raises(ConfigError, match=r"\[0, 2\^64\)"):
            _config(RADEMACHER, 1, (16,), 200, seed=2**64)

    def test_replicate_floor(self):
        with pytest.raises(ConfigError):
            _config(RADEMACHER, 1, (16,), 50)

    def test_workers_positive(self):
        with pytest.raises(ConfigError):
            _config(RADEMACHER, 1, (16,), 200, workers=0)


class TestReplicateSums:
    def test_two_atom_single_argument_takes_count_path(self):
        s = replicate_sums(_config(RADEMACHER, 1, (100,), 2048), 100)
        assert s.method == "binomial-count"
        assert s.centering == "exact"
        assert s.mean_correction == 0.0
        # every sum lives on the lattice N - 2k with k in 0..N
        assert np.all((s.sums + 100) % 2 == 0)
        assert np.all(np.abs(s.sums) <= 100)

    def test_worker_count_cannot_change_draws(self):
        # fixed 512-replicate blocks make the stream assignment identical
        a = replicate_sums(_config(RADEMACHER, 1, (100,), 2048, workers=1), 100)
        b = replicate_sums(_config(RADEMACHER, 1, (100,), 2048, workers=4), 100)
        assert np.array_equal(a.sums, b.sums)
        c = replicate_sums(_config(PAIR, 2, (32,), 1100, workers=1), 32)
        d = replicate_sums(_config(PAIR, 2, (32,), 1100, workers=3), 32)
        assert d.method == "path-evaluation"
        assert np.array_equal(c.sums, d.sums)

    def test_count_path_agrees_with_path_evaluation_in_law(self):
        # a three-atom law collapsing to two values forces the generic path
        # while leaving the distribution of the sums unchanged
        mimic = iid_model([[1.0], [-1.0], [-1.0]], [0.5, 0.25, 0.25])
        fast = replicate_sums(_config(RADEMACHER, 1, (100,), 20_000, seed=5), 100)
        slow = replicate_sums(_config(mimic, 1, (100,), 20_000, seed=5), 100)
        assert slow.method == "path-evaluation"
        se = math.sqrt(100.0 / 20_000)
        assert abs(fast.sums.mean() - slow.sums.mean()) < 5 * se * math.sqrt(2)
        assert fast.sums.std() == pytest.approx(slow.sums.std(), rel=0.05)

    def test_doubling_model_still_enumerates_exactly(self):
        m = doubling_model([1.0, -1.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0], 3)
        s = replicate_sums(_config(m, 2, (32,), 256), 32)
        assert s.centering == "exact"

    def test_doubling_map_past_the_chain_cap_centers_by_grand_mean(self):
        # 128 cells: above level 6 the map has no chain to enumerate
        m = doubling_model(np.resize([1.0, -1.0, -1.0, 1.0], 128), 7)
        assert replicate_sums(_config(m, 2, (32,), 256), 32).centering == "grand-mean"

    def test_grand_mean_fallback_when_enumeration_fails(self, monkeypatch):
        import nonconv.montecarlo as mc

        def refuse(*a, **k):
            raise ConfigError("enumeration budget")

        monkeypatch.setattr(mc, "exact_mean_SN", refuse)
        s = replicate_sums(_config(PAIR, 2, (32,), 256), 32)
        assert s.centering == "grand-mean"
        assert s.mean_correction == pytest.approx(float(np.mean(s.sums)), abs=1e-12)
        assert abs(float(np.mean(s.centered))) < 1e-10

    @pytest.mark.parametrize(
        "coeffs", [[[1, 0, 0], [2, 0]], [[2, 0], [1, 0]]], ids=["square-meets-double", "descending"]
    )
    def test_unordered_family_is_rejected(self, coeffs):
        # exact centering needs q_1(n) < q_2(n); such a family is refused
        # instead of falling back to grand-mean centering
        cfg = replace(_config(PAIR, 2, (8,), 256), family=polynomial_family(coeffs))
        with pytest.raises(ConfigError, match="strictly ordered"):
            replicate_sums(cfg, 8)

    def test_count_path_refuses_a_stalling_family_before_drawing(self, monkeypatch):
        # n^2 - 3n + 3 maps n = 1 and 2 to index 1, so S_2 = 2 F(xi_1) is no
        # count of N distinct draws
        import nonconv.montecarlo as mc

        def no_draws(*a, **k):
            raise AssertionError("drew before checking the family")

        monkeypatch.setattr(mc, "replicate_streams", no_draws)
        cfg = replace(_config(RADEMACHER, 1, (8,), 256), family=polynomial_family([[1, -3, 3]]))
        with pytest.raises(ConfigError, match="at n = 2: q_1"):
            replicate_sums(cfg, 8)

    def test_ordered_polynomial_family_centers_exactly(self):
        cfg = replace(_config(PAIR, 2, (8,), 256), family=polynomial_family([[1, 0], [1, 1, 0]]))
        assert replicate_sums(cfg, 8).centering == "exact"

    @pytest.mark.parametrize(
        "model, arity", [(PAIR, 2), (RADEMACHER, 1)], ids=["path-evaluation", "binomial-count"]
    )
    def test_index_table_built_once_per_n(self, monkeypatch, model, arity):
        # the three 512-replicate blocks, the exact centering and the count
        # path's family check of one N share one table
        from nonconv.indexing import IndexFamily

        built = []
        columns = IndexFamily.columns
        monkeypatch.setattr(IndexFamily, "columns", lambda fam, n: built.append(n) or columns(fam, n))
        by_n = sums_over_grid(_config(model, arity, (16, 32), 1100))
        assert built == [16, 32]
        assert {s.centering for s in by_n.values()} == {"exact"}

    def test_two_workers_build_each_index_table_once(self, monkeypatch):
        # iid_product's five-N grid: the family check's max-N columns, then one
        # table per N; the blocks that two workers run at once share the
        # tables built before the pool starts
        from nonconv.indexing import IndexFamily

        built = []
        columns = IndexFamily.columns
        monkeypatch.setattr(IndexFamily, "columns", lambda fam, n: built.append(n) or columns(fam, n))
        grid = (64, 256, 1024, 2048, 4096)
        for _ in range(3):
            built.clear()
            sums_over_grid(preset_experiment("iid_product", grid, 10_000, workers=2))
            assert built == [4096, *grid]

    def test_two_workers_build_each_chain_index_table_once(self, monkeypatch):
        # chain_pair draws per N inside each block; the family check's max-N
        # columns, then one table per N, all built before the pool starts
        from nonconv.indexing import IndexFamily

        built = []
        columns = IndexFamily.columns
        monkeypatch.setattr(IndexFamily, "columns", lambda fam, n: built.append(n) or columns(fam, n))
        by_n = sums_over_grid(preset_experiment("chain_pair", (16, 256), 1100, workers=2))
        assert built == [256, 16, 256]
        assert {s.centering for s in by_n.values()} == {"exact"}

    @pytest.mark.parametrize("walk", ["chain_pair", "doubling_pwc"])
    def test_concurrent_chain_walks_equal_one_worker(self, walk):
        # five workers on two or fewer cores, switching as often as they can,
        # walk five chain or doubling-map blocks per N: the sums are the
        # one-worker bytes
        model = PAIR if walk == "chain_pair" else preset_experiment(walk, (16,), 100).model
        one = sums_over_grid(_config(model, 2, (16, 256), 2100, seed=5))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many = sums_over_grid(_config(model, 2, (16, 256), 2100, seed=5, workers=5))
        finally:
            sys.setswitchinterval(interval)
        for n in (16, 256):
            assert many[n].sums.tobytes() == one[n].sums.tobytes()

    def test_refused_block_builds_nothing(self, monkeypatch):
        # the sum-evaluation block is asked for before any index table or
        # exact centering: a refused run costs no enumeration
        import nonconv.montecarlo as mc
        from nonconv.indexing import IndexFamily

        def built(*a):
            raise AssertionError("built before the budget refused the block")

        monkeypatch.setattr(mc, "exact_mean_SN", built)
        monkeypatch.setattr(IndexFamily, "columns", built)
        monkeypatch.setenv("NONCONV_BUDGET_MB", "10")  # the 0.3 MiB of index tables fit
        with pytest.raises(BudgetError, match="sum evaluation block needs"):
            replicate_sums(_config(PAIR, 2, (10_000,), 1000), 10_000)

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize(
        "arity, coeffs, ray_start",
        [(3, [[1, 0], [2, 0], [3, 0]], 1), (2, [[1, 0], [1, 0, 0]], 2)],
        ids=["linear-arity-3", "n-and-n-squared"],
    )
    def test_iid_grid_equals_each_n_drawn_alone(self, monkeypatch, arity, coeffs, ray_start, workers):
        # the grid draws each block once, at the largest index set, and every
        # N reads a prefix of those columns; the (n, n^2) index sets are not
        # prefixes of each other, only their draws are
        import nonconv.observables as obs

        law = iid_model([[1.0], [-0.5], [2.0]], [0.2, 0.5, 0.3])
        cfg = replace(
            _config(law, arity, (4, 16, 64), 1100, seed=9, workers=workers),
            family=polynomial_family(coeffs, ray_start=ray_start),
        )
        alone = {n: replicate_sums(cfg, n) for n in cfg.n_grid}
        widest = obs.family_indices(cfg.family, 64)[0]
        drawn = []
        sample = obs.sample_state_paths

        def recorded(model, indices, seed, n_replicates, first_replicate):
            drawn.append((tuple(indices), n_replicates, first_replicate))
            return sample(model, indices, seed, n_replicates, first_replicate)

        monkeypatch.setattr(obs, "sample_state_paths", recorded)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # workers switch as often as they can
        try:
            by_n = sums_over_grid(cfg)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(drawn, key=lambda d: d[2]) == [
            (tuple(widest), 512, 0), (tuple(widest), 512, 512), (tuple(widest), 76, 1024)
        ]
        for n, sample_n in alone.items():
            assert by_n[n].method == sample_n.method == "path-evaluation"
            assert by_n[n].sums.tobytes() == sample_n.sums.tobytes()
            assert by_n[n].mean_correction == sample_n.mean_correction
        assert by_n[4].sums.tobytes() != by_n[64].sums.tobytes()

    def test_grid_helper_covers_all_n(self):
        cfg = _config(RADEMACHER, 1, (16, 64), 256)
        by_n = sums_over_grid(cfg)
        assert sorted(by_n) == [16, 64]
        assert by_n[64].n_terms == 64


class TestGoldenBytes:
    """Replicate sums pinned to the byte for every shipped preset.

    R = 1024 spans two 512-replicate blocks on the path-evaluation presets,
    R = 2048 four blocks of re-keyed streams on the binomial-count ones, and
    each preset keeps its own seed.  A digest moves only when the drawn sums
    themselves change, which the determinism contract forbids without saying
    which draws changed.
    """

    @pytest.mark.parametrize(
        "name, n_terms, digest",
        [
            ("chain_pair", 256, "c040a0e48a26f541ff7bb0b095feb19f619bed0a48492437160996b2f82cd933"),
            ("iid_product", 1024, "dbed9fa31a14c154ff6d8e4a4c5ece1a3a2076eba6986258a3992b6cdb74439a"),
            ("doubling_pwc", 128, "13def2b3b0d2f512b4a807761b0de6bc76c26b52dda14a38f0aae5f38ec66f69"),
            # the benchmark's largest index set: 6144 indices at N = 4096
            ("iid_product", 4096, "133ae240b82332b8ca0b9c8e6c047f754ba58c5e478b142f085bff53b54b0c07"),
        ],
        ids=["chain_pair", "iid_product", "doubling_pwc", "iid_product_4096"],
    )
    def test_preset_sums_digest(self, name, n_terms, digest):
        cfg = preset_experiment(name, (n_terms,), 1024)
        sample = replicate_sums(cfg, n_terms)
        assert sample.method == "path-evaluation"
        assert hashlib.sha256(sample.sums.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "name, n_terms, digest",
        [
            ("iid_bernoulli_mdp", 10_000, "f21540421aae34dba76c1a2d9c228bfc5f3f3053e6c08c9b5482541ba23b6684"),
            ("iid_skew", 64, "efcb51ff0e239ac61ce003f3b66215c53ad5cad0a2c480546afa49f85b52bd22"),
            ("iid_skew", 4096, "5cf747f3444ec574e4dc519dc5cefdbcf0d04ce1d5a3f3eaeb87eb80012f0117"),
        ],
        ids=["iid_bernoulli_mdp", "iid_skew_64", "iid_skew_4096"],
    )
    def test_count_preset_sums_digest(self, name, n_terms, digest):
        cfg = preset_experiment(name, (n_terms,), 2048)
        sample = replicate_sums(cfg, n_terms)
        assert sample.method == "binomial-count"
        assert hashlib.sha256(sample.sums.tobytes()).hexdigest() == digest


    def test_chain_gap_tables_are_cached_without_moving_a_byte(self):
        # (n, n^2) walks about a thousand distinct gaps at N = 1024; a second
        # run on the same chain reads every gap table from the cache, and a
        # freshly built chain builds them all again
        text = (resources.files("nonconv") / "presets" / "chain_pair.cfg").read_text(encoding="utf-8")
        text = text.replace('statistics = ["tails", "cumulants"]\nbound_checks = ["chernoff"]\n', "") + (
            "\n[family]\nkind = polynomial\ncoeffs = [[1, 0], [1, 0, 0]]\nray_start = 2\n"
        )

        def fresh_config():
            return build_experiment(parse_config_text(text, path="chain_poly"), replicates=1024)

        def tables_built(run):
            before = _gap_thresholds.cache_info().misses
            sums = run()
            return sums, _gap_thresholds.cache_info().misses - before

        cfg = fresh_config()
        first, built = tables_built(lambda: replicate_sums(cfg, 1024).sums)
        cached, none = tables_built(lambda: replicate_sums(cfg, 1024).sums)
        rebuilt, again = tables_built(lambda: replicate_sums(fresh_config(), 1024).sums)
        assert (built, none, again) == (994, 0, 994)
        assert first.tobytes() == cached.tobytes() == rebuilt.tobytes()
        # recorded before the cache existed, when every block built its own tables
        digest = "b59e2c373ad29c4200944720c7193792b2ca5a4292fab7c74793e92eb9c78d54"
        assert hashlib.sha256(cached.tobytes()).hexdigest() == digest


class TestTailEstimate:
    def test_exact_count_and_interval(self):
        samples = np.concatenate([np.zeros(95), np.ones(5)])
        te = tail_estimate(samples, 0.5)
        assert te.count == 5 and te.p_hat == 0.05
        assert te.lower == pytest.approx(0.016431879182052155, rel=1e-10)
        assert te.upper == pytest.approx(0.11283491110546275, rel=1e-10)

    def test_threshold_is_inclusive(self):
        samples = np.concatenate([np.zeros(99), np.ones(1)])
        assert tail_estimate(samples, 1.0).count == 1

    def test_zero_count_rule_of_three(self):
        te = tail_estimate(np.zeros(1000), 1.0)
        assert te.lower == 0.0
        assert te.upper == pytest.approx(0.00368208389686564, rel=1e-12)
        assert te.upper == pytest.approx(3.69 / 1000, rel=0.01)

    def test_full_count_upper_is_one(self):
        te = tail_estimate(np.ones(200), 0.5)
        assert te.p_hat == 1.0 and te.upper == 1.0

    def test_needs_replicates(self):
        with pytest.raises(ConfigError):
            tail_estimate(np.ones(50), 0.5)

    @pytest.mark.parametrize("R", [100, 100_000, 1_000_000])
    def test_edges_equal_the_exact_beta_quantiles(self, R):
        # the Clopper-Pearson edges are beta quantiles; tail_estimate must land
        # within 1e-14 of the 50-digit roots of the binomial tail sums
        cs = {0, 1, R - 1, R} | set(np.random.default_rng(R).integers(0, R + 1, 12).tolist())
        for c in sorted(cs):
            te = tail_estimate(np.arange(R) >= R - c, 0.5)
            assert te.count == c
            if c > 0:
                exact = betaincinv_exact(c, R - c + 1, 0.025, te.lower)
                assert abs(te.lower - exact) <= 1e-14 * exact, c
                # second opinion: scipy.stats.beta.ppf, itself up to 1.0e-8 off
                assert te.lower == pytest.approx(beta.ppf(0.025, c, R - c + 1), rel=2e-8)
            else:
                assert te.lower == 0.0
            if c < R:
                exact = betaincinv_exact(c + 1, R - c, 0.975, te.upper)
                assert abs(te.upper - exact) <= 1e-14 * exact, c
                assert te.upper == pytest.approx(beta.ppf(0.975, c + 1, R - c), rel=2e-8)
            else:
                assert te.upper == 1.0


class TestKolmogorovDistance:
    def test_three_point_oracle(self):
        # sup gap of the empirical CDF of {-1, 0, 1} against ndtr sits at the
        # outer points: 1/3 - ndtr(-1) on both sides by symmetry
        d = kolmogorov_distance(np.array([-1.0, 0.0, 1.0]), 0.0, 1.0)
        assert d == pytest.approx(0.1746780794018763, rel=1e-12)

    def test_affine_invariance(self):
        s = np.array([-2.0, -0.5, 0.1, 1.7, 2.2])
        assert kolmogorov_distance(2.0 * s + 3.0, 3.0, 2.0) == pytest.approx(
            kolmogorov_distance(s, 0.0, 1.0), rel=1e-14
        )

    def test_small_for_actual_normals(self):
        z = np.random.default_rng(42).normal(size=4000)
        assert kolmogorov_distance(z, 0.0, 1.0) < 0.04

    def test_scale_must_be_positive(self):
        with pytest.raises(ConfigError):
            kolmogorov_distance(np.ones(10), 0.0, 0.0)

    def test_sliced_distance_equals_the_whole_array_form(self):
        # ndtr and both gaps go one slice at a time; a max ignores the order,
        # so the distance is the whole-array one bit for bit, ties included
        rows = slice_rows(10**6, 5 * 8)
        rng = np.random.default_rng(43)
        for R in (rows - 1, rows, rows + 1, 2 * rows + 5):
            s = np.round(rng.standard_normal(R) * 1.3 + 0.2, 2)
            z = np.sort((s - 0.2) / 1.3)
            cdf = ndtr(z)
            want = max(np.max(np.arange(1, R + 1) / R - cdf), np.max(cdf - np.arange(0, R) / R))
            assert kolmogorov_distance(s, 0.2, 1.3) == float(want), R


ORACLE_N, ORACLE_R = 64, 20_000


@pytest.fixture(scope="module")
def iid_product_sums():
    """iid_product's centered sums at N = 64, R = 2e4 and the preset's own seed."""
    config = preset_experiment("iid_product", (ORACLE_N,), ORACLE_R)
    return replicate_sums(config, ORACLE_N).centered


class TestBinomialOracles:
    """The statistics against iid_product's exact law.

    The pair products along each dyadic chain m, 2m, 4m, ... are independent
    fair signs, so S_N is exactly 2 Bin(N, 1/2) - N.  Every bound is a fixed
    number of standard errors or a DKW radius, so it holds at any seed.
    """

    def test_jackknife_cumulants_cover_the_exact_values(self, iid_product_sums):
        # a sum of N fair signs: kappa_2 = N, kappa_3 = 0, kappa_4 = -2N
        vec = sample_cumulants(iid_product_sums)
        for k, exact in ((2, ORACLE_N), (3, 0.0), (4, -2.0 * ORACLE_N)):
            assert abs(vec.cumulant(k) - exact) <= 4.0 * vec.std_error(k), k

    @pytest.mark.parametrize("t", [0, 8, 16])
    def test_tail_estimate_covers_the_exact_tail(self, iid_product_sums, t):
        # S_N >= t exactly when the count of +1 signs is at least (N + t) / 2
        exact = float(binom.sf(math.ceil((ORACLE_N + t) / 2) - 1, ORACLE_N, 0.5))
        te = tail_estimate(iid_product_sums, float(t))
        assert abs(te.p_hat - exact) <= 4.0 * math.sqrt(exact * (1.0 - exact) / ORACLE_R)

    def test_kolmogorov_distance_tracks_the_exact_lattice_distance(self, iid_product_sums):
        # the lattice CDF is flat between the points 2k - N, so its sup
        # distance to the normal sits at a point, from one side or the other
        k = np.arange(ORACLE_N + 1)
        phi = ndtr((2.0 * k - ORACLE_N) / math.sqrt(ORACLE_N))
        exact = max(
            np.max(np.abs(binom.cdf(k, ORACLE_N, 0.5) - phi)),
            np.max(np.abs(binom.cdf(k - 1, ORACLE_N, 0.5) - phi)),
        )
        got = kolmogorov_distance(iid_product_sums, 0.0, math.sqrt(ORACLE_N))
        # DKW: the empirical CDF strays more than eps with probability <= 1e-6
        eps = math.sqrt(math.log(2.0 / 1e-6) / (2.0 * ORACLE_R))
        assert abs(got - exact) <= eps


class TestBootstrap:
    def test_deterministic_and_point_exact(self):
        v = np.random.default_rng(1).normal(size=500)
        stat = lambda x: float(np.mean(x))
        p1, se1 = bootstrap_se(v, master_seed=9)
        p2, se2 = bootstrap_se(v, master_seed=9)
        assert p1 == stat(v)
        assert (p1, se1) == (p2, se2)

    def test_se_tracks_the_analytic_rate(self):
        v = np.random.default_rng(2).normal(size=2000)
        _, se = bootstrap_se(v, master_seed=9)
        analytic = v.std(ddof=1) / math.sqrt(v.size)
        assert se == pytest.approx(analytic, rel=0.15)

    def test_needs_two_values(self):
        with pytest.raises(ConfigError):
            bootstrap_se(np.ones(1), master_seed=0)


class TestVarianceScan:
    def test_recovers_planted_coefficient(self):
        # sample variance of sqrt(2n + sqrt(n)) z is exactly that factor when
        # z is standardized, so the fit sees a clean linear-plus-root law
        z = _standardized(3, 400)
        grid = (16, 64, 256)
        by_n = {n: _synthetic_sample(n, math.sqrt(2 * n + math.sqrt(n)) * z) for n in grid}
        fit = variance_scan(by_n)
        assert fit.d_squared == pytest.approx(2.0, abs=0.15)
        # the padded envelope constant exceeds the bare residual one, which is positive
        c1_bare = float(np.max(np.abs(fit.residuals) / np.sqrt(grid)))
        assert 0 < c1_bare < fit.c1_conservative
        assert fit.residuals.shape == (3,)

    def test_zero_standard_errors_weigh_alike_without_a_warning(self):
        # at a scale of 1e-100 the fourth moment underflows, so every standard
        # error is 0; the weights stay finite and the fit is the plain one
        z = _standardized(3, 400)
        grid = (16, 64, 256)
        by_n = {n: _synthetic_sample(n, 1e-100 * math.sqrt(2 * n) * z) for n in grid}
        fit = variance_scan(by_n)
        assert np.all(fit.std_errors == 0.0)
        assert fit.d_squared == pytest.approx(2e-200, rel=1e-12)
        assert math.isfinite(fit.d_squared_se) and math.isfinite(fit.c1_conservative)

    def test_rejects_narrow_grid(self):
        z = _standardized(3, 400)
        with pytest.raises(ConfigError):
            variance_scan({n: _synthetic_sample(n, z) for n in (100, 800)})
        with pytest.raises(ConfigError):
            variance_scan({})


class TestCumulantScan:
    def test_normalized_slope_on_planted_power_law(self):
        # sums scaled as n^(3/4) z give second cumulant n^(3/2) exactly, so
        # the normalized cumulant is n^(1/2) and the log-log slope is 1/2
        z = _standardized(4, 10_000)
        grid = (16, 64, 256)
        by_n = {n: _synthetic_sample(n, n**0.75 * z) for n in grid}
        rep = cumulant_scan(by_n)
        assert [(r.n_terms, r.order) for r in rep.rows] == [(n, k) for n in grid for k in (2, 3, 4)]
        assert rep.rows[0].estimate == pytest.approx(16.0**1.5, rel=1e-10)
        assert rep.normalized_slope(2) == pytest.approx(0.5, abs=1e-9)

    def test_replicate_gate_for_high_orders(self):
        z = _standardized(4, 2000)
        with pytest.raises(ConfigError):
            cumulant_scan({n: _synthetic_sample(n, z) for n in (16, 256)})
        with pytest.raises(ConfigError):
            cumulant_scan({})


def _rademacher_2500():
    return sums_over_grid(_config(RADEMACHER, 1, (2500,), 100_000, seed=7))


class TestMdpDiagnostic:
    def test_matches_exact_binomial_tail(self):
        # the count path makes the exceedance law a pure binomial tail, so
        # the reported interval must cover the exactly computed value
        tab = mdp_diagnostic(_rademacher_2500(), 0.1, [1.0, 3.0], 1.0)
        a = 2500**0.1
        kmin = math.ceil((2500 + math.sqrt(2500) * a) / 2)
        exact = -math.log(float(binom.sf(kmin - 1, 2500, 0.5))) / a**2
        cell = tab.cell(2500, 1.0)
        assert cell.status == "ok"
        assert cell.value_lo <= exact <= cell.value_hi
        assert cell.rate == pytest.approx(0.5)

    def test_reference_band_rejects_wrong_normalization(self):
        # with the true D = 1 the cell tracks the finite-N Gaussian rate;
        # halving D (the variance passed for the standard deviation) lowers
        # the threshold and must leave the 25% band
        sums = _rademacher_2500()
        for d_const, inside in ((1.0, True), (0.5, False)):
            cell = mdp_diagnostic(sums, 0.1, [1.0], d_const).cell(2500, 1.0)
            assert cell.status == "ok"
            assert cell.reference == pytest.approx(0.8870838263883658, rel=1e-12)
            assert (abs(cell.value - cell.reference) <= 0.25 * cell.reference) is inside

    def test_unreachable_tail_marked_inconclusive(self):
        tab = mdp_diagnostic(_rademacher_2500(), 0.1, [3.0], 1.0)
        cell = tab.cell(2500, 3.0)
        assert cell.status == "inconclusive"
        assert cell.count < 20
        with pytest.raises(KeyError):
            tab.cell(2500, 2.0)

    def test_rejects_bad_normalization(self):
        with pytest.raises(ConfigError):
            mdp_diagnostic({400: _synthetic_sample(400, np.zeros(200))}, 0.1, [1.0], 0.0)


class TestCalibration:
    def test_cumulant_envelope_constant(self):
        rows = (
            CumulantRow(10, 2, 1.0, 0.1, 1.2, 0.1, 0.01),
            CumulantRow(10, 3, 3000.0, 300.0, 3600.0, 0.0, 0.0),
        )
        scan = CumulantScanReport(rows=rows)
        # envelope unit at k = 3 is 10 * 36; 3600 over that is 10, times safety
        assert calibrate_c0(scan, 1.0) == pytest.approx(15.0, rel=1e-12)

    def test_cumulant_constant_floors(self):
        rows = (CumulantRow(10, 3, 0.0, 0.0, 1e-12, 0.0, 0.0),)
        scan = CumulantScanReport(rows=rows)
        assert calibrate_c0(scan, 1.0) == pytest.approx(1.5e-3, rel=1e-12)

    def test_variance_constant_from_fit(self):
        fit = VarianceFit(
            n_grid=(16, 256),
            variances=np.array([16.0, 256.0]),
            std_errors=np.array([1.0, 1.0]),
            d_squared=1.0,
            d_squared_se=0.1,
            c1_conservative=0.4,
            residuals=np.zeros(2),
        )
        assert calibrate_C1(fit) == pytest.approx(0.6)

    def test_mgf_estimates_are_the_seeded_bootstrap(self):
        sample = replicate_sums(_config(PAIR, 2, (16,), 256, seed=3), 16)
        got = mgf_estimates(sample, (0.02, 0.1))
        for lam in (0.02, 0.1):
            want = bootstrap_se(np.exp(lam * sample.centered), 3)
            assert got[lam] == want

    def test_martingale_constant_covers_observed_gap(self):
        from nonconv.martingale import build_decomposition, evaluate_paths

        c = center(product_observable(2), PAIR)
        decomp = build_decomposition(PAIR, c, linear_family(2))
        sample = replicate_sums(_config(PAIR, 2, (16,), 256, seed=3), 16)
        b = calibrate_B(decomp, sample, mgf_estimates(sample, (0.02,)), t_grid=(1.0, 2.0))
        ev = evaluate_paths(decomp, 16, 3, 256)
        assert b > float(np.max(ev.gaps)) / decomp.delta
