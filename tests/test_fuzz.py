"""Fuzzing of the config parser and the simulate command.

Bad input must end in a ConfigError naming the file and line (parser) or in
one of the CLI's exit codes 0-3, never in a traceback; a config holding a
non-finite number must exit 2 before writing any sums.  The examples are
derandomized so the suite runs the same inputs, in the same time, every run;
raise max_examples and drop derandomize to search further.
"""

import json
import re

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nonconv.cli import main
from nonconv.config import parse_config_text
from nonconv.errors import ConfigError

MODELS = (
    {"kind": "markov", "transition": [[0.9, 0.1], [0.2, 0.8]], "values": [[1.0], [-1.0]]},
    {"kind": "iid", "atoms": [[1.0], [-1.0], [0.5]], "probs": [0.3, 0.3, 0.4]},
    {"kind": "doubling", "table": [1.0, -1.0, -1.0, 1.0], "level": 2},
)
RUN = {
    "n_grid": [16], "replicates": 200, "seed": 3,
    "statistics": ["tails", "variance", "kolmogorov", "mdp"],
    "bound_checks": ["chernoff", "concentration"],
}
SECTIONS = ("model", "observable", "family", "run", "martingale", "bounds", "mdp", "tails")
KEYS = (
    "kind", "transition", "values", "atoms", "probs", "table", "level", "holder_const",
    "holder_exp", "arity", "coeffs", "degrees", "clip", "value_bound", "coord", "power",
    "ray_start", "n_grid", "replicates", "seed", "workers", "statistics", "bound_checks",
    "b", "smoothing_radius", "gamma", "c1", "c2", "exponent", "x_grid", "d_const",
    "min_count", "thresholds",
)
WORDS = (
    "markov", "iid", "doubling", "product", "sum", "linear", "polynomial", "power-sparse",
    "tails", "variance", "cumulants", "kolmogorov", "mdp", "chernoff", "concentration",
)

scalars = st.one_of(
    st.integers(-3, 40),
    st.floats(allow_infinity=True, allow_nan=True),
    st.sampled_from(WORDS),
    st.booleans(),
    st.none(),
)
values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=4), max_leaves=12)
DELETE = object()
mutations = st.lists(
    st.tuples(st.sampled_from(SECTIONS), st.sampled_from(KEYS), st.one_of(st.just(DELETE), values)),
    max_size=4,
)


def _render(sections, deleted):
    lines = []
    for name, sec in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {json.dumps(v)}" for k, v in sec.items() if (name, k) not in deleted)
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.text())
@example("[a]\nk = " + "[" * 100_000)  # nesting deeper than the JSON decoder's recursion
@example("[a]\nk = " + "1" * 5000)  # more digits than int() converts
def test_any_text_parses_or_names_its_line(text):
    try:
        parse_config_text(text, path="fuzz.cfg")
    except ConfigError as exc:
        assert re.match(r"fuzz\.cfg:\d+: ", str(exc)), str(exc)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.one_of(
    st.from_regex(r"\[[a-z ]{0,6}\]", fullmatch=True),
    st.builds(lambda k, v: f"{k} = {v}", st.sampled_from(KEYS), st.text(max_size=12)),
    st.builds(lambda k, v: f"{k} = {json.dumps(v)}", st.sampled_from(KEYS), values),
    st.text(max_size=12),
), max_size=8))
def test_config_like_lines_parse_or_name_their_line(lines):
    try:
        parse_config_text("\n".join(lines), path="fuzz.cfg")
    except ConfigError as exc:
        assert re.match(r"fuzz\.cfg:\d+: ", str(exc)), str(exc)


@settings(
    max_examples=60, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.sampled_from(MODELS), st.integers(1, 2), mutations)
def test_simulate_exits_with_a_documented_code(tmp_path, capsys, model, arity, muts):
    sections = {
        "model": dict(model),
        "observable": {"kind": "product", "arity": arity},
        "run": dict(RUN),
        "martingale": {"b": 2.0},
    }
    deleted = set()
    for name, key, value in muts:
        if value is DELETE:
            deleted.add((name, key))
        else:
            sections.setdefault(name, {})[key] = value
    text = _render(sections, deleted)
    path = tmp_path / "fuzz.cfg"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    rc = main([
        "simulate", str(path), "--out-dir", str(out),
        "--replicates", "100", "--n-grid", "4,64",
    ])
    capsys.readouterr()
    assert rc in (0, 1, 2, 3)
    # json.dumps renders nan and the infinities as NaN, Infinity and -Infinity
    if "NaN" in text or "Infinity" in text:
        assert rc == 2
        assert not (out / "sums.csv").exists()
