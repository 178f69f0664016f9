from importlib import resources

import pytest

from nonconv.config import (
    build_experiment,
    build_family,
    build_model,
    load_config,
    parse_config_text,
)
from nonconv.errors import ConfigError
from nonconv.processes import IIDModel, MarkovChainModel

BASIC = """
# comment line
[model]
kind = markov   # trailing comment
transition = [[0.9, 0.1], [0.2, 0.8]]
values = [[1.0], [-1.0]]

[observable]
kind = product
arity = 2

[run]
n_grid = [16, 64]
replicates = 500
seed = 7
"""


class TestParser:
    def test_value_kinds(self):
        # the parser keeps any key; build_experiment decides which ones it knows
        raw = parse_config_text(BASIC + 'label = "with # inside"\nflag = true\n')
        run = raw.section("run")
        assert run["n_grid"] == [16, 64]
        assert run["replicates"] == 500
        assert run["label"] == "with # inside"
        assert run["flag"] is True
        assert raw.section("model")["kind"] == "markov"
        assert raw.section("model")["transition"][1] == [0.2, 0.8]

    def test_section_headers_are_case_folded(self):
        raw = parse_config_text("[Model]\nkind = iid\n")
        assert raw.section("model")["kind"] == "iid"

    def test_duplicate_key_cites_line(self):
        text = "[run]\nseed = 1\nseed = 2\n"
        with pytest.raises(ConfigError, match=":3: duplicate key 'seed'"):
            parse_config_text(text)

    def test_duplicate_section_cites_line(self):
        with pytest.raises(ConfigError, match=":2: duplicate section"):
            parse_config_text("[run]\n[run]\n")

    def test_key_before_section(self):
        with pytest.raises(ConfigError, match="key before any"):
            parse_config_text("seed = 1\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match=":2: expected"):
            parse_config_text("[run]\njust words\n")

    def test_unparseable_value(self):
        with pytest.raises(ConfigError, match="cannot parse value"):
            parse_config_text("[run]\nx = [1, oops\n")

    def test_missing_key_cites_header_line(self):
        raw = parse_config_text("\n\n[model]\nkind = markov\n", path="f.cfg")
        with pytest.raises(ConfigError, match="f.cfg:3: section \\[model\\]"):
            raw.require("model", "transition")

    def test_missing_section(self):
        raw = parse_config_text("[run]\nseed = 1\n")
        with pytest.raises(ConfigError, match="missing \\[model\\]"):
            raw.section("model")
        assert raw.section("bounds", required=False) is None

    def test_unreadable_path(self):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config("/nonexistent/nowhere.cfg")


class TestBuilders:
    def test_markov_model(self):
        m = build_model(parse_config_text(BASIC))
        assert isinstance(m, MarkovChainModel)
        assert m.n_states == 2

    def test_iid_model(self):
        raw = parse_config_text("[model]\nkind = iid\natoms = [[1.0], [-1.0]]\nprobs = [0.5, 0.5]\n")
        assert isinstance(build_model(raw), IIDModel)

    def test_unknown_model_kind(self):
        raw = parse_config_text("[model]\nkind = quantum\n")
        with pytest.raises(ConfigError, match="unknown model kind"):
            build_model(raw)

    def test_family_defaults_to_linear(self):
        fam = build_family(parse_config_text(BASIC), 2)
        assert fam.linear and fam.arity == 2

    def test_family_arity_mismatch(self):
        raw = parse_config_text("[family]\nkind = polynomial\ncoeffs = [[1, 0]]\n")
        with pytest.raises(ConfigError, match="family arity 1 != observable arity 2"):
            build_family(raw, 2)

    def test_linear_family_arity_is_compared_before_building(self):
        # a linear family holds one map per unit of arity: never build 10^12 of them
        raw = parse_config_text("[family]\nkind = linear\narity = 1000000000000\n")
        with pytest.raises(ConfigError, match="family arity 1000000000000 != observable arity 2"):
            build_family(raw, 2)

    def test_unknown_family_kind(self):
        # q(n^p) is written as its expanded polynomial: no power-sparse kind
        for kind in ("fibonacci", "power-sparse"):
            raw = parse_config_text(f"[family]\nkind = {kind}\n")
            with pytest.raises(ConfigError, match="unknown family kind"):
                build_family(raw, 2)

    def test_unknown_observable_kind(self):
        text = BASIC.replace("kind = product", "kind = mystery")
        with pytest.raises(ConfigError, match="unknown observable kind"):
            build_experiment(parse_config_text(text))


class TestExperimentAssembly:
    def test_defaults_and_sections(self):
        exp = build_experiment(parse_config_text(BASIC))
        assert exp.n_grid == (16, 64)
        assert exp.n_replicates == 500
        assert exp.master_seed == 7
        assert exp.statistics == ("tails",)
        assert exp.bound_checks == ()
        # every key of every optional section is filled with its default
        assert exp.params == {
            "tails": {"thresholds": None},
            "mdp": {"exponent": 0.1, "x_grid": (1.0,), "d_const": 1.0, "min_count": 20},
            "martingale": {"b": 1.0},
            "bounds": {"gamma": 1.0, "c1": 1.0, "c2": 1.0},
        }

    def test_overrides_win(self):
        exp = build_experiment(
            parse_config_text(BASIC), seed=99, replicates=256, n_grid=[32], workers=2
        )
        assert exp.master_seed == 99
        assert exp.n_replicates == 256
        assert exp.n_grid == (32,)
        assert exp.workers == 2

    def test_scalar_grid_promoted(self):
        text = BASIC.replace("n_grid = [16, 64]", "n_grid = 64")
        assert build_experiment(parse_config_text(text)).n_grid == (64,)

    def test_string_statistics_promoted(self):
        text = BASIC + 'statistics = "kolmogorov"\n'
        exp = build_experiment(parse_config_text(text))
        assert exp.statistics == ("kolmogorov",)

    def test_gamma_from_bounds_section(self):
        text = BASIC + "\n[bounds]\ngamma = 0.5\n"
        assert build_experiment(parse_config_text(text)).params["bounds"]["gamma"] == 0.5

    def test_nonpositive_gamma_rejected(self):
        text = BASIC + "\n[bounds]\ngamma = -1\n"
        with pytest.raises(ConfigError, match="gamma must be positive"):
            build_experiment(parse_config_text(text))

    @pytest.mark.parametrize(
        "section, key",
        [
            ("model", "holder_exp"),
            ("run", "label"),
            ("family", "power"),  # the key of the former power-sparse kind
            ("martingale", "smoothing_radus"),
            ("tails", "threshold"),
            ("mdp", "x"),
            ("bounds", "c3"),
        ],
    )
    def test_unknown_key_cites_section_line(self, section, key):
        header = f"[{section}]"
        text = BASIC if header in BASIC else BASIC + f"\n{header}\n"
        text = text.replace(header, f"{header}\n{key} = 5")
        line = text.splitlines().index(header) + 1
        with pytest.raises(ConfigError, match=rf"^f\.cfg:{line}: unknown key '{key}' in \[{section}\]"):
            build_experiment(parse_config_text(text, path="f.cfg"))

    def test_unknown_section_cites_its_line(self):
        text = BASIC + "\n[martingle]\nb = 0.0\n"
        line = text.splitlines().index("[martingle]") + 1
        with pytest.raises(
            ConfigError,
            match=rf"^f\.cfg:{line}: unknown section \[martingle\]; expected one of bounds, ",
        ):
            build_experiment(parse_config_text(text, path="f.cfg"))

    def test_extras_carry_optional_sections(self):
        text = (
            BASIC
            + "\n[martingale]\nb = 2\n\n[mdp]\nx_grid = 1.5\nmin_count = 5\n"
            + "\n[tails]\nthresholds = []\n"
        )
        exp = build_experiment(parse_config_text(text))
        # given values converted, the rest of each section at its default
        assert exp.params["martingale"] == {"b": 2.0}
        assert exp.params["mdp"] == {
            "exponent": 0.1, "x_grid": (1.5,), "d_const": 1.0, "min_count": 5
        }
        # an empty grid stays empty (no tails rows), unlike the None default
        assert exp.params["tails"] == {"thresholds": ()}
        assert exp.params["bounds"] == {"gamma": 1.0, "c1": 1.0, "c2": 1.0}


PRESETS = [
    "chain_pair.cfg",
    "doubling_pwc.cfg",
    "iid_bernoulli_mdp.cfg",
    "iid_product.cfg",
    "iid_skew.cfg",
]


@pytest.mark.parametrize("name", PRESETS)
def test_shipped_presets_build(name):
    text = (resources.files("nonconv") / "presets" / name).read_text(encoding="utf-8")
    # the fewest replicates every preset's statistics accept; assembly draws nothing
    exp = build_experiment(parse_config_text(text, path=name), replicates=10_000)
    assert exp.n_replicates == 10_000
    assert exp.n_grid[0] >= 1
    assert exp.centered.arity == exp.family.arity
