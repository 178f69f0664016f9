import hashlib
import json
import math
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

import nonconv
from nonconv import cli, config
from nonconv.budget import slice_rows
from nonconv.cli import main
from nonconv.montecarlo import sums_over_grid

PRESETS = Path(nonconv.__file__).resolve().parent / "presets"

TINY_IID = """
[model]
kind = iid
atoms = [[1.0], [-1.0]]
probs = [0.5, 0.5]

[observable]
kind = product
arity = 1

[run]
n_grid = [50]
replicates = 300
seed = 5
statistics = ["tails"]
"""

TINY_CHAIN = """
[model]
kind = markov
transition = [[0.9, 0.1], [0.2, 0.8]]
values = [[1.0], [-1.0]]

[observable]
kind = product
arity = 2

[run]
n_grid = [16]
replicates = 200
seed = 3
statistics = ["tails"]
bound_checks = ["chernoff"]

[martingale]
b = 2.0
"""


# manifest.json of a TINY_CHAIN run, with its wall-clock field zeroed
MANIFEST_OF_TINY_CHAIN = """{
  "config_hash": "fb634433f13287266066aee77c7c0eafc706554d91067177f002e160fabffa6f",
  "master_seed": 3,
  "n_grid": [
    16
  ],
  "n_replicates": 200,
  "notes": {
    "chernoff_refuted_points": 0
  },
  "outputs": [
    "sums.csv",
    "tails.csv"
  ],
  "sampling": [
    {
      "centering": "exact",
      "method": "path-evaluation",
      "n_terms": 16
    }
  ],
  "verdicts": {
    "chernoff": "pass"
  },
  "version": "VERSION",
  "wall_clock_s": 0.0
}
"""


# a one-argument sum over the chain, whose [family] section, appended, starts on line 20
TINY_CHAIN_SINGLE = TINY_CHAIN.replace("arity = 2", "arity = 1").replace(
    'bound_checks = ["chernoff"]\n', ""
)


PERIODIC_CHAIN = "kind = markov\ntransition = [[0.0, 1.0], [1.0, 0.0]]\nvalues = [[1.0], [-1.0]]"


def _write(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


class TestBoundsCommand:
    def test_berry_esseen_value(self, capsys):
        rc = main(["bounds", "berry-esseen", "--delta", "1", "--gamma", "1"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "0.10295244508785543"

    def test_momthm_value(self, capsys):
        rc = main(["bounds", "momthm", "--p", "3", "--n", "100", "--c0", "2"])
        assert rc == 0
        # value passes through a log/exp round trip, so compare numerically
        assert float(capsys.readouterr().out) == pytest.approx(86400.0, rel=1e-12)

    def test_chernoff_value(self, capsys):
        rc = main([
            "bounds", "chernoff", "--t", "2", "--n", "100", "--arity", "2",
            "--delta1", "1", "--b", "1",
        ])
        assert rc == 0
        got = float(capsys.readouterr().out)
        assert got == pytest.approx(math.exp(-4.0 / 800.0), rel=1e-15)

    def test_variance_and_rate(self, capsys):
        assert main(["bounds", "variance", "--n", "400", "--c", "1.25"]) == 0
        assert capsys.readouterr().out.strip() == "25"
        assert main(["bounds", "mdp-rate", "--x", "3"]) == 0
        assert capsys.readouterr().out.strip() == "4.5"

    def test_moddev_window_refusal_is_printed_not_raised(self, capsys):
        rc = main([
            "bounds", "moddev", "--x", "4", "--n", "4096", "--c5", "1.5", "--c4", "1",
        ])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "OUT_OF_WINDOW"
        rc = main([
            "bounds", "moddev", "--x", "2", "--n", "4096", "--c5", "1.5", "--c4", "1",
        ])
        assert rc == 0
        assert float(capsys.readouterr().out) == pytest.approx(
            1.5 * 9.0 * 4096 ** (-1 / 6), rel=1e-12
        )

    def test_concentration_value(self, capsys):
        rc = main([
            "bounds", "concentration", "--x", "2", "--n", "100", "--c1", "1", "--c2", "1",
            "--gamma", "1",
        ])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "0.47383346083868927"

    def test_bad_arguments_exit_two(self, capsys):
        rc = main(["bounds", "chernoff", "--delta1", "0"])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, printed",
        [
            (["momthm", "--p", "200", "--n", "10"], "inf"),
            (["moddev", "--x", "1e200", "--n", "1"], "inf"),
            (["chernoff", "--t", "1e200", "--n", "1", "--delta1", "1e-200"], "0"),
        ],
        ids=["momthm-overflow", "moddev-overflow", "chernoff-underflow"],
    )
    def test_values_past_the_float_range_print_their_limit(self, capsys, argv, printed):
        assert main(["bounds", *argv]) == 0
        assert capsys.readouterr().out.strip() == printed

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["chernoff", "--n", "nan"], "--n must be a finite number, got nan"),
            (["moddev", "--x=inf"], "--x must be a finite number, got inf"),
            (["concentration", "--c1=-inf"], "--c1 must be a finite number, got -inf"),
            (["chernoff", "--arity", "1" + "0" * 400], "--arity must lie in the float range"),
        ],
        ids=["nan", "inf", "minus-inf", "int-past-float-range"],
    )
    def test_non_finite_option_exits_two(self, capsys, argv, message):
        assert main(["bounds", *argv]) == 2
        assert f"config error: {message}" in capsys.readouterr().err

    def test_moment_terms_over_the_budget_exit_three(self, capsys):
        # (p - 1)/2 = 5e8 terms of 64 bytes each
        assert main(["bounds", "momthm", "--p", "1000000001", "--n", "10"]) == 3
        assert "budget error: moment bound terms needs 30517.6 MiB" in capsys.readouterr().err

    def test_chernoff_takes_no_delta2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "chernoff", "--delta2", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --delta2 1" in capsys.readouterr().err

    @pytest.mark.parametrize("evaluator", tuple(cli._BOUNDS))
    def test_no_option_is_inert(self, capsys, evaluator):
        # at --n 100 and the other defaults, doubling any option that has a
        # default (adding 1 to an int option) changes the printed value
        _, options = cli._BOUNDS[evaluator]
        base = {"n": 100.0} if "n" in options else {}

        def printed(values):
            assert main(["bounds", evaluator, *(f"--{k}={v!r}" for k, v in values.items())]) == 0
            return capsys.readouterr().out

        reference = printed(base)
        for name in options:
            kind, default = cli._BOUND_OPTIONS[name]
            if default is None:
                continue
            value = base.get(name, default)
            bumped = value + 1 if kind is int else 2 * value
            assert printed({**base, name: bumped}) != reference, name


class TestSimulateCommand:
    def test_tiny_run_writes_reports(self, tmp_path, capsys):
        cfg = _write(tmp_path, TINY_IID)
        out = tmp_path / "out"
        rc = main(["simulate", cfg, "--out-dir", str(out)])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        sums = (out / "sums.csv").read_text().splitlines()
        assert sums[0] == "n_terms,replicate,sum"
        assert len(sums) == 1 + 300
        assert (out / "tails.csv").exists()
        man = json.loads((out / "manifest.json").read_text())
        assert man["master_seed"] == 5
        assert man["verdicts"] == {}
        assert sorted(man["outputs"]) == ["sums.csv", "tails.csv"]

    def test_manifest_records_package_version(self, tmp_path, capsys):
        cfg = _write(tmp_path, TINY_IID)
        out = tmp_path / "out"
        assert main(["simulate", cfg, "--out-dir", str(out)]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["version"] == nonconv.__version__

    def test_manifest_records_effective_run(self, tmp_path, capsys):
        cfg = _write(tmp_path, TINY_CHAIN)
        out = tmp_path / "out"
        main(["simulate", cfg, "--out-dir", str(out), "--replicates", "150", "--n-grid", "8,16"])
        man = json.loads((out / "manifest.json").read_text())
        assert man["n_replicates"] == 150
        assert man["n_grid"] == [8, 16]
        assert man["sampling"] == [
            {"n_terms": n, "method": "path-evaluation", "centering": "exact"} for n in (8, 16)
        ]
        cfg = _write(tmp_path, TINY_IID, name="iid.cfg")
        assert main(["simulate", cfg, "--out-dir", str(out)]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert (man["n_replicates"], man["n_grid"]) == (300, [50])
        assert man["sampling"] == [{"n_terms": 50, "method": "binomial-count", "centering": "exact"}]

    def test_config_hash_covers_overrides_but_not_workers(self, tmp_path, capsys):
        cfg = _write(tmp_path, TINY_IID)

        def hash_of(*extra):
            out = tmp_path / "-".join(extra or ("plain",))
            assert main(["simulate", cfg, "--out-dir", str(out), *extra]) == 0
            return json.loads((out / "manifest.json").read_text())["config_hash"]

        plain = hash_of()
        assert hash_of("--replicates", "300") == plain  # the file's own value
        assert hash_of("--replicates", "400") != plain
        assert hash_of("--seed", "6") != plain
        assert hash_of("--n-grid", "32") != plain
        assert hash_of("--workers", "1") == hash_of("--workers", "2") == plain

    def test_chain_run_records_chernoff_verdict(self, tmp_path, capsys):
        cfg = _write(tmp_path, TINY_CHAIN)
        out = tmp_path / "out"
        rc = main(["simulate", cfg, "--out-dir", str(out)])
        man = json.loads((out / "manifest.json").read_text())
        assert "chernoff" in man["verdicts"]
        assert rc == (1 if man["verdicts"]["chernoff"] == "fail" else 0)
        assert "chernoff_refuted_points" in man["notes"]

    def test_manifest_bytes_pinned(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", _write(tmp_path, TINY_CHAIN), "--out-dir", str(out)]) == 0
        text = (out / "manifest.json").read_text(encoding="utf-8")
        text = re.sub(r'"wall_clock_s": [0-9.e+-]+', '"wall_clock_s": 0.0', text)
        assert text == MANIFEST_OF_TINY_CHAIN.replace("VERSION", nonconv.__version__)

    def test_overflowing_concentration_constant_passes(self, tmp_path, capsys):
        # (c1 + ...)^1.5 leaves the float range: the bound reads 1, never refuted
        text = TINY_IID.replace(
            'statistics = ["tails"]', 'statistics = ["tails"]\nbound_checks = ["concentration"]'
        ) + "\n[bounds]\nc1 = 1e308\n"
        out = tmp_path / "out"
        assert main(["simulate", _write(tmp_path, text), "--out-dir", str(out)]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["verdicts"] == {"concentration": "pass"}
        assert man["notes"]["concentration_refuted_points"] == 0

    def test_chernoff_grid_shares_one_decomposition(self, tmp_path, capsys, monkeypatch):
        built = []
        build = cli.build_decomposition
        monkeypatch.setattr(cli, "build_decomposition", lambda *a: built.append(a) or build(*a))
        out = tmp_path / "out"
        main(["simulate", _write(tmp_path, TINY_CHAIN), "--n-grid", "8,16,32", "--out-dir", str(out)])
        assert len(built) == 1
        assert "chernoff" in json.loads((out / "manifest.json").read_text())["verdicts"]

    def test_linear_family_spelled_as_polynomials_keeps_the_preset_bytes(self, tmp_path, capsys):
        preset = PRESETS / "chain_pair.cfg"
        spelled = _write(
            tmp_path, preset.read_text() + "\n[family]\nkind = polynomial\ncoeffs = [[1, 0], [2, 0]]\n"
        )
        for tag, cfg in (("preset", str(preset)), ("spelled", spelled)):
            out = tmp_path / tag
            assert main(["simulate", cfg, "--replicates", "10000", "--out-dir", str(out)]) == 0
            assert "PASS chernoff" in capsys.readouterr().out
        assert (tmp_path / "preset" / "sums.csv").read_bytes() == (
            tmp_path / "spelled" / "sums.csv"
        ).read_bytes()

    def test_square_family_at_the_float_exact_boundary(self, tmp_path, capsys):
        # n^2 from 94906265 on: 9007199136250225 < 2^53 runs, one step later is refused
        def run(ray_start):
            text = TINY_CHAIN_SINGLE.replace("n_grid = [16]", "n_grid = [1]") + (
                f"\n[family]\nkind = polynomial\ncoeffs = [[1, 0, 0]]\nray_start = {ray_start}\n"
            )
            out = tmp_path / str(ray_start)
            return main(["simulate", _write(tmp_path, text), "--out-dir", str(out)]), out

        rc, out = run(94906265)
        assert rc == 0 and (out / "sums.csv").exists()
        rc, out = run(94906266)
        assert rc == 2 and not out.exists()
        assert "exp.cfg:20: family values must stay in [1, 2^53)" in capsys.readouterr().err

    def test_worker_count_leaves_bytes_unchanged(self, tmp_path, capsys):
        cfg = _write(tmp_path, TINY_IID)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", cfg, "--out-dir", str(a), "--workers", "1"]) == 0
        assert main(["simulate", cfg, "--out-dir", str(b), "--workers", "2"]) == 0
        for name in ("sums.csv", "tails.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_empty_threshold_grid_writes_no_tail_rows(self, tmp_path, capsys):
        cfg = _write(tmp_path, TINY_IID + "\n[tails]\nthresholds = []\n")
        out = tmp_path / "out"
        assert main(["simulate", cfg, "--out-dir", str(out)]) == 0
        assert (out / "tails.csv").read_text().splitlines() == [
            "n_terms,threshold,p_hat,lower,upper,count"
        ]

    def test_grid_override(self, tmp_path, capsys):
        cfg = _write(tmp_path, TINY_IID)
        out = tmp_path / "out"
        assert main(["simulate", cfg, "--out-dir", str(out), "--n-grid", "32"]) == 0
        first_data = (out / "sums.csv").read_text().splitlines()[1]
        assert first_data.startswith("32,")

    @pytest.mark.parametrize("arity", [1, 2], ids=["binomial-count", "path-evaluation"])
    def test_flat_iid_atoms_read_as_one_coordinate(self, tmp_path, capsys, arity):
        # like a flat markov values list: [1.0, -1.0] is [[1.0], [-1.0]]
        nested = TINY_IID.replace("arity = 1", f"arity = {arity}")
        flat = nested.replace("atoms = [[1.0], [-1.0]]", "atoms = [1.0, -1.0]")
        outs = [tmp_path / "nested", tmp_path / "flat"]
        for text, out in zip((nested, flat), outs):
            assert main(["simulate", _write(tmp_path, text), "--out-dir", str(out)]) == 0
        assert (outs[0] / "sums.csv").read_bytes() == (outs[1] / "sums.csv").read_bytes()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--n-grid", "16,16", "exp.cfg:11: n_grid must be strictly ascending"),
            ("--seed", "18446744073709551616", "exp.cfg:11: master seed must lie in [0, 2^64)"),
        ],
    )
    def test_override_refused_at_run(self, tmp_path, capsys, flag, value, message):
        # a repeated N would be drawn twice; a seed of 2^64 draws the sums of seed 0
        out = tmp_path / "out"
        assert main(["simulate", _write(tmp_path, TINY_IID), "--out-dir", str(out), flag, value]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_statistic_exits_two(self, tmp_path, capsys):
        cfg = _write(tmp_path, TINY_IID.replace('["tails"]', '["entropy"]'))
        rc = main(["simulate", cfg, "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert "unknown statistic" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "coeffs", ["[[1, 0, 0], [2, 0]]", "[[2, 0], [1, 0]]"], ids=["square-meets-double", "descending"]
    )
    def test_unordered_family_exits_two(self, tmp_path, capsys, coeffs):
        # no Chernoff check, which needs a linear family: the map order alone
        # must stop the run
        text = TINY_CHAIN.replace('bound_checks = ["chernoff"]\n', "")
        cfg = _write(tmp_path, text + f"\n[family]\nkind = polynomial\ncoeffs = {coeffs}\n")
        rc = main(["simulate", cfg, "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert "strictly ordered" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                # (n, n^2 + 1): (n, 2n) spelled as polynomials is the linear family
                TINY_CHAIN + "\n[family]\nkind = polynomial\ncoeffs = [[1, 0], [1, 0, 1]]\n",
                "exp.cfg:21: martingale construction needs the linear family",
            ),
            (
                TINY_IID.replace("n_grid = [50]", "n_grid = [16, 64]").replace(
                    '["tails"]', '["variance"]'
                ),
                "variance scan needs an N grid spanning a factor of 16",
            ),
            (
                TINY_IID.replace('["tails"]', '["tails", "cumulants"]'),
                "cumulant scan needs >= 10^4 replicates",
            ),
            (
                TINY_CHAIN.replace("b = 2.0", "b = 0.0"),
                "[martingale] b must be positive for the chernoff check",
            ),
            (
                TINY_CHAIN + "\n[tails]\nthresholds = [1.0, -0.5]\n",
                "[tails] thresholds must be nonnegative for the chernoff check",
            ),
            (
                # no threshold would be tested: a PASS would be vacuous
                TINY_CHAIN + "\n[tails]\nthresholds = []\n",
                "exp.cfg:21: [tails] thresholds must not be empty for the chernoff check",
            ),
            (
                TINY_IID.replace("statistics", 'bound_checks = ["concentration"]\nstatistics')
                + "\n[bounds]\nc1 = 1.0\nc2 = 0.0\n",
                "[bounds] c1 and c2 must be positive for the concentration check",
            ),
            (
                TINY_IID.replace('["tails"]', '["mdp"]') + "\n[mdp]\nd_const = -0.5\n",
                "[mdp] d_const must be positive",
            ),
            *(
                (
                    TINY_IID.replace('["tails"]', '["mdp"]') + f"\n[mdp]\nexponent = {e}\n",
                    "exp.cfg:17: [mdp] exponent must lie in the moderate-deviation window (0, 1/2)",
                )
                for e in ("-0.5", "0", "0.5", "0.7")
            ),
            (
                # n^2 - 3n + 3 maps n = 1, 2 to index 1; the count path must not
                # sample it as N distinct draws
                TINY_IID + "\n[family]\nkind = polynomial\ncoeffs = [[1, -3, 3]]\n",
                "index maps must be strictly increasing, but at n = 2",
            ),
            (
                # (2^32 + 1)^2 used to wrap in int64 to 2^33 + 1 and run
                TINY_CHAIN_SINGLE
                + "\n[family]\nkind = polynomial\ncoeffs = [[1, 0, 0]]\nray_start = 4294967297\n",
                "exp.cfg:20: family values must stay in [1, 2^53), but q_1 cannot be evaluated",
            ),
            (
                TINY_CHAIN_SINGLE
                + "\n[family]\nkind = polynomial\ncoeffs = [[1, 0]]\nray_start = 18446744073709551616\n",
                "exp.cfg:20: family coefficients and ray start must fit in int64",
            ),
            (
                TINY_CHAIN_SINGLE
                + "\n[family]\nkind = polynomial\ncoeffs = [[18446744073709551616, 0]]\n",
                "exp.cfg:20: family coefficients and ray start must fit in int64",
            ),
            (
                # the last argument, 2^63 + 7, used to wrap in np.arange to a
                # negative start and be refused as below the ray start
                TINY_CHAIN.replace('bound_checks = ["chernoff"]\n', "")
                + "\n[family]\nkind = polynomial\ncoeffs = [[1, 0], [2, 0]]\n"
                + "ray_start = 9223372036854775800\n",
                "exp.cfg:20: family values must stay in [1, 2^53), but q_1 cannot be evaluated "
                "exactly at |n| up to 9223372036854775815: sum |a_k| |n|^k reaches 2^62",
            ),
            (
                TINY_CHAIN.replace("kind = markov", "kind = markov\nholder_exp = 5"),
                "exp.cfg:2: unknown key 'holder_exp' in [model]",
            ),
            (
                TINY_CHAIN.replace("b = 2.0", "b = 2.0\nsmoothing_radus = 3"),
                "exp.cfg:18: unknown key 'smoothing_radus' in [martingale]",
            ),
            (
                # a misspelled header must not leave the check at the default b = 1
                TINY_CHAIN.replace("[martingale]\nb = 2.0", "[martingle]\nb = 0.0"),
                "exp.cfg:18: unknown section [martingle]",
            ),
            (
                TINY_IID.replace('["tails"]', '["entropy"]'),
                "exp.cfg:11: bad value in [run]: unknown statistic 'entropy'",
            ),
            # every integer key refuses what int() would truncate, and a bool
            (
                TINY_IID.replace(
                    "kind = iid\natoms = [[1.0], [-1.0]]\nprobs = [0.5, 0.5]",
                    "kind = doubling\ntable = [1.0, -1.0]\nlevel = 1.5",
                ),
                "exp.cfg:2: bad value in [model]: expected an integer, got 1.5",
            ),
            (
                TINY_IID.replace("arity = 1", "arity = 1.5"),
                "exp.cfg:7: bad value in [observable]: expected an integer, got 1.5",
            ),
            (
                TINY_IID + "\n[family]\nkind = linear\narity = 1.5\n",
                "exp.cfg:17: bad value in [family]: expected an integer, got 1.5",
            ),
            (
                TINY_CHAIN.replace('bound_checks = ["chernoff"]\n', "")
                + "\n[family]\nkind = polynomial\ncoeffs = [[1.5, 0], [2, 0]]\n",
                "exp.cfg:20: bad value in [family]: expected an integer, got 1.5",
            ),
            (
                TINY_CHAIN_SINGLE + "\n[family]\nkind = polynomial\ncoeffs = [[1, 0]]\nray_start = 2.5\n",
                "exp.cfg:20: bad value in [family]: expected an integer, got 2.5",
            ),
            (
                TINY_IID.replace("n_grid = [50]", "n_grid = [64.7]"),
                "exp.cfg:11: bad value in [run]: expected an integer, got 64.7",
            ),
            (
                TINY_IID.replace("replicates = 300", "replicates = 200.9"),
                "exp.cfg:11: bad value in [run]: expected an integer, got 200.9",
            ),
            (
                TINY_IID.replace("seed = 5", "seed = 3.5"),
                "exp.cfg:11: bad value in [run]: expected an integer, got 3.5",
            ),
            (
                TINY_IID.replace("seed = 5", "seed = true"),
                "exp.cfg:11: bad value in [run]: expected an integer, got True",
            ),
            (
                TINY_IID.replace("seed = 5", "seed = 5\nworkers = 1.9"),
                "exp.cfg:11: bad value in [run]: expected an integer, got 1.9",
            ),
            (
                TINY_IID.replace('["tails"]', '["mdp"]') + "\n[mdp]\nmin_count = 20.5\n",
                "exp.cfg:17: bad value in [mdp]: expected an integer, got 20.5",
            ),
            (
                # the Chernoff check's martingale construction, refused at [model]
                TINY_CHAIN.replace("[[0.9, 0.1], [0.2, 0.8]]", "[[0.0, 1.0], [1.0, 0.0]]"),
                "exp.cfg:2: no decay certificate to bound the phi tail",
            ),
            (
                TINY_CHAIN.replace(
                    "kind = markov\ntransition = [[0.9, 0.1], [0.2, 0.8]]\nvalues = [[1.0], [-1.0]]",
                    f"kind = doubling\ntable = {[1.0, -1.0] * 64}\nlevel = 7",
                ),
                "exp.cfg:2: chain conversion needs level <= 6",
            ),
        ],
        ids=[
            "chernoff-on-polynomial-family",
            "narrow-variance-grid",
            "few-cumulant-replicates",
            "chernoff-b-zero",
            "chernoff-negative-threshold",
            "chernoff-empty-thresholds",
            "concentration-c2-zero",
            "mdp-d-const-negative",
            "mdp-exponent--0.5",
            "mdp-exponent-0",
            "mdp-exponent-0.5",
            "mdp-exponent-0.7",
            "stalling-family-on-count-path",
            "square-past-int64",
            "ray-start-past-int64",
            "coefficient-past-int64",
            "ray-start-near-2^63",
            "unknown-model-key",
            "misspelled-martingale-key",
            "misspelled-martingale-section",
            "unknown-statistic",
            "integer-model-level",
            "integer-observable-arity",
            "integer-linear-family-arity",
            "integer-family-coeffs",
            "integer-family-ray-start",
            "integer-run-n-grid",
            "integer-run-replicates",
            "integer-run-seed",
            "integer-run-seed-bool",
            "integer-run-workers",
            "integer-mdp-min-count",
            "chernoff-on-periodic-chain",
            "chernoff-on-doubling-map-past-level-6",
        ],
    )
    def test_config_only_failure_precedes_every_draw_and_file(
        self, tmp_path, capsys, text, message
    ):
        out = tmp_path / "out"
        rc = main(["simulate", _write(tmp_path, text), "--out-dir", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert list(out.glob("*")) == []

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                TINY_CHAIN + "\n[bounds]\ngamma = Infinity\n",
                "exp.cfg:22: cannot parse value: expected a finite number, got 'Infinity'",
            ),
            (
                TINY_CHAIN + "\n[bounds]\nc2 = Infinity\n",
                "exp.cfg:22: cannot parse value: expected a finite number, got 'Infinity'",
            ),
            (
                TINY_CHAIN.replace("b = 2.0", "b = Infinity"),
                "exp.cfg:19: cannot parse value: expected a finite number, got 'Infinity'",
            ),
            (
                TINY_IID.replace("probs = [0.5, 0.5]", "probs = [NaN, 0.5]"),
                "exp.cfg:5: cannot parse value: expected a finite number, got 'NaN'",
            ),
            (
                TINY_CHAIN.replace("[[0.9, 0.1]", "[[NaN, 0.1]"),
                "exp.cfg:4: cannot parse value: expected a finite number, got 'NaN'",
            ),
            (
                TINY_IID.replace("atoms = [[1.0], [-1.0]]", 'atoms = [["inf"], [-1.0]]'),
                "exp.cfg:2: law atoms and probabilities must be finite",
            ),
            (
                TINY_IID.replace("probs = [0.5, 0.5]", "probs = [1e400, 0.5]"),
                "exp.cfg:2: law atoms and probabilities must be finite",
            ),
            (
                TINY_CHAIN.replace("[[0.9, 0.1]", '[["nan", 0.1]'),
                "exp.cfg:2: transition matrix and values must be finite",
            ),
            (
                TINY_CHAIN.replace("values = [[1.0], [-1.0]]", 'values = [[1.0], ["-inf"]]'),
                "exp.cfg:2: transition matrix and values must be finite",
            ),
            (
                TINY_IID.replace(
                    "kind = iid\natoms = [[1.0], [-1.0]]\nprobs = [0.5, 0.5]",
                    'kind = doubling\ntable = [1.0, "inf"]\nlevel = 1',
                ),
                "exp.cfg:2: value table must be finite",
            ),
            (
                TINY_CHAIN + "\n[bounds]\nc1 = inf\n",
                "exp.cfg:21: bad value in [bounds]: expected a finite number, got 'inf'",
            ),
            (
                TINY_CHAIN.replace("b = 2.0", "b = 1e400"),
                "exp.cfg:18: bad value in [martingale]: expected a finite number, got inf",
            ),
            (
                TINY_IID + "\n[mdp]\nexponent = nan\n",
                "exp.cfg:17: bad value in [mdp]: expected a finite number, got 'nan'",
            ),
            (
                TINY_IID + '\n[tails]\nthresholds = [1.0, "inf"]\n',
                "exp.cfg:17: bad value in [tails]: expected a finite number, got 'inf'",
            ),
        ],
        ids=[
            "json-infinity-bounds-gamma",
            "json-infinity-bounds-c2",
            "json-infinity-martingale-b",
            "json-nan-probs",
            "json-nan-transition",
            "bare-inf-atom",
            "overflowing-prob",
            "bare-nan-transition",
            "bare-minus-inf-value",
            "bare-inf-doubling-table",
            "bare-inf-bounds-c1",
            "overflowing-martingale-b",
            "bare-nan-mdp-exponent",
            "quoted-inf-threshold",
        ],
    )
    def test_non_finite_config_numbers_exit_two(self, tmp_path, capfd, text, message):
        # refused where the value is read, before LAPACK or a draw sees it
        out = tmp_path / "out"
        rc = main(["simulate", _write(tmp_path, text), "--out-dir", str(out)])
        captured = capfd.readouterr()
        assert rc == 2
        assert message in captured.err
        assert "DLASCL" not in captured.out + captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "observable, message",
        [
            (
                "kind = clipped-polynomial\narity = 1\ncoeffs = [1e400]\ndegrees = [1]\nclip = 1.0",
                "expected a finite number, got inf",
            ),
            (
                'kind = indicator-product\narity = 2\nthresholds = ["nan", 0]',
                "expected a finite number, got 'nan'",
            ),
            (
                "kind = clipped-polynomial\narity = 1\ncoeffs = [1.0]\ndegrees = [1]\nclip = 1e400",
                "expected a finite number, got inf",
            ),
            (
                "kind = product\narity = 1\nvalue_bound = 1e400",
                "expected a finite number, got inf",
            ),
            (
                "kind = sum\narity = 1\nbound_const = 1e400",
                "expected a finite number, got inf",
            ),
            (
                "kind = clipped-polynomial\narity = 2\ncoeffs = [1.0, 1.0]\ndegrees = [1.5, 1]\n"
                "clip = 1.0",
                "expected an integer, got 1.5",
            ),
        ],
        ids=["coeffs", "thresholds", "clip", "value-bound", "bound-const", "degrees"],
    )
    def test_observable_numbers_exit_two(self, tmp_path, capsys, observable, message):
        # a nan sums.csv, an indicator that never fires, an infinite K or a
        # truncated degree, each read with exit 0 before
        text = TINY_IID.replace(
            "atoms = [[1.0], [-1.0]]", "atoms = [[0.0], [1.0]]"
        ).replace("kind = product\narity = 1", observable)
        out = tmp_path / "out"
        rc = main(["simulate", _write(tmp_path, text), "--out-dir", str(out)])
        assert rc == 2
        assert f"exp.cfg:7: bad value in [observable]: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_observable_overflowing_on_finite_atoms_exits_two(self, tmp_path, capsys):
        # x^3 overflows at 1e110 and inf - inf is nan, which np.clip keeps: the
        # run used to write a sums.csv of nan and exit 0, with numpy warnings
        text = TINY_IID.replace("atoms = [[1.0], [-1.0]]", "atoms = [[1e110], [-1e110]]").replace(
            "kind = product\narity = 1",
            "kind = clipped-polynomial\narity = 2\ncoeffs = [1.0, -1.0]\ndegrees = [3, 3]\nclip = 1.0",
        )
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["simulate", _write(tmp_path, text), "--out-dir", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "exp.cfg:7: observable F, its mean and its components must be finite on the atoms" in err
        assert not out.exists()

    @pytest.mark.parametrize("below", ["", "sub"], ids=["over-a-file", "under-a-file"])
    def test_out_dir_over_or_under_a_file_exits_two(self, tmp_path, capsys, below):
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        out = taken / below if below else taken
        rc = main(["simulate", _write(tmp_path, TINY_IID), "--out-dir", str(out)])
        assert rc == 2
        assert f"config error: cannot create --out-dir {out}" in capsys.readouterr().err
        assert taken.read_text() == "kept\n"

    def test_config_not_in_utf8_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_bytes(TINY_IID.replace("kind = iid", "kind = iid  # d\xe9j\xe0").encode("latin-1"))
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out-dir", str(out)]) == 2
        assert f"config error: cannot read config {cfg}: 'utf-8' codec" in capsys.readouterr().err
        assert not out.exists()

    def test_integral_floats_read_as_integers(self, tmp_path, capsys):
        # 3e2 replicates at N = 5e1 is the run of 300 at N = 50, byte for byte
        spelled = TINY_IID.replace("replicates = 300", "replicates = 3e2")
        outs = []
        for k, text in enumerate((TINY_IID, spelled.replace("n_grid = [50]", "n_grid = [5e1]"))):
            out = tmp_path / f"o{k}"
            assert main(["simulate", _write(tmp_path, text, f"{k}.cfg"), "--out-dir", str(out)]) == 0
            man = json.loads((out / "manifest.json").read_text())
            outs.append(((out / "sums.csv").read_bytes(), man["config_hash"], man["n_replicates"]))
        assert outs[0] == outs[1]

    def test_term_grid_too_large_to_tabulate_exits_three(self, tmp_path, capsys):
        # N = 1e12 used to reach np.arange and fail on 7.28 TiB with a traceback
        out = tmp_path / "out"
        rc = main([
            "simulate", str(PRESETS / "iid_bernoulli_mdp.cfg"), "--n-grid", "1000000000000",
            "--replicates", "200", "--out-dir", str(out),
        ])
        assert rc == 3
        assert "budget error: index family columns needs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("replicates", ["1e30", str(10**30)], ids=["float", "integer"])
    def test_replicate_count_too_large_to_hold_exits_three(self, tmp_path, capsys, replicates):
        # np.empty(R) used to fail on it with a traceback, after the out dir was made
        text = TINY_IID.replace("replicates = 300", f"replicates = {replicates}")
        out = tmp_path / "out"
        assert main(["simulate", _write(tmp_path, text), "--out-dir", str(out)]) == 3
        assert "budget error: replicate sums needs" in capsys.readouterr().err
        assert not out.exists()

    def test_iid_block_runs_under_a_budget_below_its_unsliced_peak(
        self, tmp_path, capsys, monkeypatch
    ):
        # iid_product at N = 4096 and one 512-replicate block: its lookups
        # once held 24.3 MiB of terms and indices at a time, and its draw
        # 30.4 MiB of uniforms and masks; one row slice of each now fits 12 MiB
        argv = [
            "simulate", str(PRESETS / "iid_product.cfg"),
            "--n-grid", "256,4096", "--replicates", "512",
        ]
        free, capped = tmp_path / "free", tmp_path / "capped"
        assert main([*argv, "--out-dir", str(free)]) == 0
        monkeypatch.setenv("NONCONV_BUDGET_MB", "12")
        assert main([*argv, "--out-dir", str(capped)]) == 0
        assert (capped / "sums.csv").read_bytes() == (free / "sums.csv").read_bytes()

    def test_jackknife_over_the_budget_exits_three_before_drawing(
        self, tmp_path, capsys, monkeypatch
    ):
        # iid_skew's 4e5 replicates: their sums over five N (15.3 MiB) fit
        # 20 MiB, the jackknife of one N (26.5 MiB) does not
        monkeypatch.setenv("NONCONV_BUDGET_MB", "20")
        out = tmp_path / "out"
        assert main(["simulate", str(PRESETS / "iid_skew.cfg"), "--out-dir", str(out)]) == 3
        assert "budget error: jackknife cumulants needs 26.5 MiB" in capsys.readouterr().err
        assert not out.exists()

    def test_streamed_sums_equal_the_one_string_join(self, tmp_path, capsys):
        # sums.csv goes out one slice of lines at a time; at a slice less
        # one, one, one more and two plus five, over three N, its bytes are
        # those of the whole file joined into one string
        chunk = slice_rows(10**6, 256)
        grid = (16, 64, 256)
        cfg = _write(tmp_path, TINY_IID)
        raw = config.load_config(cfg)
        sums = sums_over_grid(
            config.build_experiment(raw, replicates=2 * chunk + 5, n_grid=list(grid))
        )
        for R in (chunk - 1, chunk, chunk + 1, 2 * chunk + 5):
            out = tmp_path / f"r{R}"
            argv = ["simulate", cfg, "--replicates", str(R), "--n-grid", "16,64,256"]
            assert main([*argv, "--out-dir", str(out)]) == 0
            blocks = [
                "\n".join(map(("%d,%%d,%%.17g" % n).__mod__, enumerate(sums[n].sums[:R].tolist())))
                for n in grid
            ]
            joined = "\n".join(["n_terms,replicate,sum", *blocks]) + "\n"
            assert (out / "sums.csv").read_bytes() == joined.encode("utf-8"), R

    def test_cumulant_scan_and_sums_emission_stay_under_twelve_mib(self, tmp_path, capsys):
        # at R = 1e5 the jackknife once held 26 MiB of whole-array
        # temporaries, and sums.csv its whole text and every line at once
        text = TINY_IID.replace('statistics = ["tails"]', 'statistics = ["cumulants"]')
        cfg = _write(tmp_path, text)
        warm = ["simulate", cfg, "--replicates", "10000", "--out-dir", str(tmp_path / "warm")]
        assert main(warm) == 0
        tracemalloc.start()
        try:
            rc = main(["simulate", cfg, "--replicates", "100000", "--out-dir", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < 12 * 2**20, peak / 2**20

    @pytest.mark.parametrize(
        "model, n_grid, statistic, n",
        [
            ("kind = iid\natoms = [[1.0]]\nprobs = [1.0]", "[4, 64]", "variance", 4),
            ("kind = iid\natoms = [[1.0]]\nprobs = [1.0]", "[4]", "kolmogorov", 4),
            # the chain alternates, so every even N sums each state equally often
            (PERIODIC_CHAIN, "[3, 48]", "variance", 48),
            (PERIODIC_CHAIN, "[3, 4]", "kolmogorov", 4),
        ],
        ids=["constant-variance", "constant-kolmogorov", "periodic-variance", "periodic-kolmogorov"],
    )
    def test_sums_without_spread_exit_two_naming_statistic_and_n(
        self, tmp_path, capsys, model, n_grid, statistic, n
    ):
        text = (
            TINY_IID.replace("kind = iid\natoms = [[1.0], [-1.0]]\nprobs = [0.5, 0.5]", model)
            .replace("kind = product", "kind = sum")
            .replace("n_grid = [50]", f"n_grid = {n_grid}")
            .replace('["tails"]', f'["{statistic}"]')
        )
        out = tmp_path / "o"
        assert main(["simulate", _write(tmp_path, text), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{statistic} needs sums that spread, but every sum at N = {n} is the same" in err
        assert not (out / "manifest.json").exists()

    def test_missing_config_exits_two(self, capsys):
        assert main(["simulate", "/nope/missing.cfg"]) == 2

    def test_dispatch_tables_match_the_schema(self):
        # config validates the names; the CLI must run every name it lets through
        assert tuple(cli._STATS) == config.STATISTICS
        assert tuple(cli._BOUND_CHECKS) == config.BOUND_CHECKS


def test_start_up_leaves_scipy_stats_unimported(child_env):
    # scipy.stats costs most of a run's start-up; nothing the CLI or the
    # verification suite loads may import it
    code = "import sys, nonconv.cli, nonconv.verification; print('scipy.stats' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env=child_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# runs the CLI on its arguments, then reports whether scipy was ever imported
_RUN_AND_REPORT_SCIPY = (
    "import sys; from nonconv.cli import main; rc = main(sys.argv[1:]); "
    "print('scipy loaded:', 'scipy' in sys.modules); sys.exit(rc)"
)


def _cli_child(child_env, *argv):
    """(exit code, whether the run imported scipy) of one `nonconv` child process."""
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_AND_REPORT_SCIPY, *argv],
        capture_output=True, text=True, timeout=300, env=child_env,
    )
    *_, last = ["", *proc.stdout.splitlines()]
    assert last.startswith("scipy loaded:"), proc.stderr
    return proc.returncode, last.endswith("True")


def test_start_up_leaves_scipy_unimported(child_env):
    # scipy.special loads only inside the statistics that call it
    code = "import sys, nonconv.cli, nonconv.verification; print('scipy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env=child_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (("verify", "quick"), 0),
        # a cumulants-only preset at the fewest replicates its scan accepts
        (("simulate", "iid_skew.cfg", "--replicates", "10000"), 0),
        (("simulate", "iid_skew.cfg", "--replicates", "10"), 2),
    ],
    ids=["verify-quick", "iid-skew", "config-error"],
)
def test_runs_without_special_functions_never_import_scipy(child_env, tmp_path, argv, exit_code):
    if argv[0] == "simulate":
        argv = ("simulate", str(PRESETS / argv[1]), *argv[2:], "--out-dir", str(tmp_path))
    assert _cli_child(child_env, *argv) == (exit_code, False)


def test_tail_statistics_import_scipy_and_keep_their_bytes(child_env, tmp_path):
    code, loaded = _cli_child(
        child_env, "simulate", str(PRESETS / "chain_pair.cfg"), "--replicates", "10000",
        "--out-dir", str(tmp_path),
    )
    assert code == 0 and loaded
    # recorded when scipy.special was still imported at module level
    digest = hashlib.sha256((tmp_path / "tails.csv").read_bytes()).hexdigest()
    assert digest == "d67e57d7464d6327ebace70f90e14fa3766393ad63cf1e326a111d816d1cf355"


class TestVerifyCommand:
    def test_unknown_suite_exits_two(self, capsys):
        assert main(["verify", "nonexistent-suite"]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["quick", "full"])
    def test_workers_below_one_exit_two_naming_the_flag(self, capsys, suite):
        assert main(["verify", suite, "--workers", "0"]) == 2
        assert "config error: --workers must be >= 1" in capsys.readouterr().err
