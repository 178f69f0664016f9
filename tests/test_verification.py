import functools
import json

import numpy as np

from nonconv import verification
from nonconv.cli import main
from nonconv.montecarlo import replicate_sums
from nonconv.verification import preset_sums


def test_cache_keeps_models_apart():
    # same N and replicate count, different presets: each gets its own sums
    cache = {}
    chain, got_chain = preset_sums(cache, "chain_pair", (16,), 200)
    iid, got_iid = preset_sums(cache, "iid_product", (16,), 200)
    assert len(cache) == 2
    np.testing.assert_array_equal(got_chain[16].sums, replicate_sums(chain, 16).sums)
    np.testing.assert_array_equal(got_iid[16].sums, replicate_sums(iid, 16).sums)
    assert not np.array_equal(got_chain[16].sums, got_iid[16].sums)


def test_equal_presets_built_separately_are_sampled_once(monkeypatch):
    # the acceptance checks ask for their presets independently and still
    # share draws; the worker count never changes the sums, so it is no key
    calls = []
    sample = verification.sums_over_grid

    def counted(config):
        calls.append(config.n_grid)
        return sample(config)

    monkeypatch.setattr(verification, "sums_over_grid", counted)
    cache = {}
    _, first = preset_sums(cache, "chain_pair", (16,), 200, workers=1)
    _, again = preset_sums(cache, "chain_pair", (16,), 200, workers=2)
    assert calls == [(16,)]
    assert again[16] is first[16]


def test_missing_grid_points_are_drawn_together(monkeypatch):
    # the N missing from the cache go through one grid draw, and each equals
    # its own one-N draw byte for byte
    calls = []
    sample = verification.sums_over_grid

    def counted(config):
        calls.append(config.n_grid)
        return sample(config)

    monkeypatch.setattr(verification, "sums_over_grid", counted)
    cache = {}
    preset_sums(cache, "iid_product", (16,), 200)
    config, sums = preset_sums(cache, "iid_product", (4, 16, 64), 200)
    assert calls == [(16,), (4, 64)]
    for n in (4, 16, 64):
        assert sums[n].sums.tobytes() == replicate_sums(config, n).sums.tobytes()


def test_run_suite_fills_cache_and_workers_through_a_wrapper(monkeypatch):
    # a functools.wraps wrapper, such as a timing tracer installs, hides the
    # parameters from fn.__code__; every check must still share one cache
    seen = []

    def check(cache=None, workers=1):
        seen.append((cache, workers))
        return workers

    @functools.wraps(check)
    def wrapped(*args, **kwargs):
        return check(*args, **kwargs)

    monkeypatch.setitem(verification.SUITES, "wrapped", (wrapped, wrapped))
    assert verification.run_suite("wrapped", workers=3) == [3, 3]
    (first, _), (second, _) = seen
    assert isinstance(first, dict) and second is first


def test_martingale_construction_builds_one_decomposition(monkeypatch):
    # the N = 8 certificate and every N of the gap list share one decomposition
    built = []
    build = verification.build_decomposition
    monkeypatch.setattr(verification, "build_decomposition", lambda *a: built.append(a) or build(*a))
    assert verification.check_martingale_construction(quick=True).passed
    assert len(built) == 1


def test_full_martingale_certificate_runs_at_real_sizes():
    # full certifies chain_pair at N = 256 and the doubling map's chain at
    # N = 64; quick stays at N = 8 (QUICK_SUITE_TEXT)
    r = verification.check_martingale_construction(quick=False)
    assert r.passed
    assert r.detail.startswith(
        "term-wise offset bound 7.59e-11 (allow 1e-08+1e-09) over 66048 terms at N = 256; "
        "doubling_pwc at N = 64: 0.00e+00 (allow 1e-08+0e+00) over 1152 terms; "
    )
    assert r.values["doubling_offset_bound"] == 0.0


QUICK_SUITE_TEXT = [
    (
        "mixing-oracle",
        "pass",
        "max |phi - bruteforce| = 1.18e-16, max (alpha - phi/2) = -2.98e-05 "
        "over 162 window/gap pairs",
    ),
    (
        "neighborhood-bound",
        "pass",
        "0 violations over l <= 4, N <= 500, s <= 50; max |A_s|/(3 l^2 s) = 1.000",
    ),
    (
        "cumulant-algebra",
        "pass",
        "round-trip rel err 1.03e-10 over 200 vectors; Gaussian moment err 5.68e-13; "
        "Poisson cumulant err 0.00e+00",
    ),
    (
        "martingale-construction",
        "pass",
        "term-wise offset bound 7.59e-11 (allow 1e-08+1e-09) over 2064 terms; "
        "gaps {8: 4.370726, 64: 4.392157} vs B*delta2 = 6.5561 (B = 1.844); "
        "spread 0.488%; telescoping ok",
    ),
    (
        "worker-determinism",
        "pass",
        "replicate vectors and CSV bytes identical for 1 vs 8 workers",
    ),
]


def test_quick_suite_prints_pinned_text():
    # what `nonconv verify quick` prints, apart from the seconds; any change
    # to a check's kernels must leave every name, status and detail as is
    got = [(r.name, r.status, r.detail) for r in verification.run_suite("quick")]
    assert got == QUICK_SUITE_TEXT


def test_quick_suite_json_lists_every_result(capsys):
    # `verify --json` prints one JSON list of the results and keeps the exit code
    assert main(["verify", "quick", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [(r["name"], r["status"], r["detail"]) for r in rows] == QUICK_SUITE_TEXT
    assert all(set(r) == {"name", "status", "detail", "seconds", "values"} for r in rows)
    assert all(r["seconds"] >= 0 for r in rows)
    assert rows[1]["values"] == {"violations": 0, "worst_ratio": 1.0}


def test_json_keeps_the_failing_exit_code(monkeypatch, capsys):
    failing = verification.CheckResult("x", False, "refuted", 0.5, {"n": np.int64(3)})
    monkeypatch.setitem(verification.SUITES, "failing", (lambda: failing,))
    assert main(["verify", "failing", "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == [
        {"name": "x", "status": "fail", "detail": "refuted", "seconds": 0.5, "values": {"n": 3}}
    ]


def test_neighborhood_check_fails_below_the_attained_cap(monkeypatch):
    # the scan attains |A_s| = 3 l^2 s, so a cap of 2.9 l^2 s must be refuted
    monkeypatch.setattr(verification, "neighborhood_cap", lambda arity, s: 2.9 * arity * arity * s)
    result = verification.check_neighborhood_bound()
    assert not result.passed and result.status == "fail"
    assert result.values["violations"] > 0
    assert result.values["worst_ratio"] > 1.0
