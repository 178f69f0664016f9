"""Flat configuration files and the builders that turn them into experiments.

Format: `[section]` headers, one `key = value` per line, `#` comments.
Values are JSON (numbers, strings, booleans, bracketed lists; matrices as
lists of row lists; not NaN or Infinity); a bare word falls back to a string
so `kind = markov` works unquoted.  No nesting beyond the one section level.  Every parse or
validation error carries a line number, using the section header's line for
missing keys, for keys the section does not know and for sections the schema
does not know: a misspelled optional key or section is an error, never a
silent default.  This module holds the whole run schema: the CLI reads only
resolved, validated values.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass

from nonconv.errors import ConfigError
from nonconv.indexing import IndexFamily, as_int, linear_family, polynomial_family
from nonconv.montecarlo import ExperimentConfig
from nonconv.observables import CATALOG, Observable, center, family_indices
from nonconv.processes import ProcessModel, doubling_model, iid_model, markov_model

_BARE_WORD_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-.")


@dataclass(frozen=True)
class RawConfig:
    """Parsed sections with the line number of each section header."""

    sections: dict
    header_lines: dict
    path: str = "<string>"

    def section(self, name: str, required: bool = True) -> dict | None:
        got = self.sections.get(name)
        if got is None and required:
            raise ConfigError(f"{self.path}: missing [{name}] section")
        return got

    def require(self, sec_name: str, key: str):
        sec = self.section(sec_name)
        if key not in sec:
            line = self.header_lines[sec_name]
            raise ConfigError(
                f"{self.path}:{line}: section [{sec_name}] is missing key '{key}'"
            )
        return sec[key]


def _strip_comment(line: str) -> str:
    out = []
    in_str = False
    for ch in line:
        if ch == '"':
            in_str = not in_str
        if ch == "#" and not in_str:
            break
        out.append(ch)
    return "".join(out)


def _number(value) -> float:
    """``value`` as a float, refusing a string (such as a bare ``inf``), nan and infinity."""
    if isinstance(value, str) or not math.isfinite(float(value)):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _parse_value(raw: str, path: str, lineno: int):
    text = raw.strip()
    if not text:
        raise ConfigError(f"{path}:{lineno}: empty value")
    try:
        return json.loads(text, parse_constant=_number)  # NaN, Infinity, -Infinity
    except json.JSONDecodeError:
        if all(c in _BARE_WORD_OK for c in text):
            return text
        raise ConfigError(f"{path}:{lineno}: cannot parse value {text!r}")
    except (ValueError, RecursionError) as exc:  # too many digits, too deeply nested
        raise ConfigError(f"{path}:{lineno}: cannot parse value: {exc}") from exc


def parse_config_text(text: str, path: str = "<string>") -> RawConfig:
    sections: dict = {}
    header_lines: dict = {}
    current: dict | None = None
    current_name = ""
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = _strip_comment(rawline).strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if not name:
                raise ConfigError(f"{path}:{lineno}: empty section name")
            if name in sections:
                raise ConfigError(f"{path}:{lineno}: duplicate section [{name}]")
            current = {}
            current_name = name
            sections[name] = current
            header_lines[name] = lineno
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value' or '[section]'")
        if current is None:
            raise ConfigError(f"{path}:{lineno}: key before any [section] header")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in current:
            raise ConfigError(f"{path}:{lineno}: duplicate key '{key}' in [{current_name}]")
        current[key] = _parse_value(value, path, lineno)
    return RawConfig(sections=sections, header_lines=header_lines, path=path)


def load_config(path: str) -> RawConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}")
    return parse_config_text(text, path=path)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _only_keys(raw: RawConfig, name: str, known) -> None:
    """Raise ConfigError at section ``name``'s header line for its first key outside ``known``."""
    for key in raw.sections.get(name, {}):
        if key not in known:
            line = raw.header_lines[name]
            raise ConfigError(
                f"{raw.path}:{line}: unknown key '{key}' in [{name}]; "
                f"expected one of {', '.join(sorted(known))}"
            )


_MODEL_KEYS = {
    "markov": ("kind", "transition", "values"),
    "iid": ("kind", "atoms", "probs"),
    "doubling": ("kind", "table", "level"),
}
_FAMILY_KEYS = {
    "linear": ("kind", "arity"),
    "polynomial": ("kind", "coeffs", "ray_start"),
}
_RUN_KEYS = ("n_grid", "replicates", "seed", "statistics", "bound_checks", "workers")


def build_model(raw: RawConfig) -> ProcessModel:
    kind = raw.require("model", "kind")
    keys = _MODEL_KEYS.get(kind) if isinstance(kind, str) else None
    if keys is None:
        line = raw.header_lines["model"]
        raise ConfigError(f"{raw.path}:{line}: unknown model kind {kind!r}")
    _only_keys(raw, "model", keys)
    if kind == "markov":
        return markov_model(raw.require("model", "transition"), raw.require("model", "values"))
    if kind == "iid":
        return iid_model(raw.require("model", "atoms"), raw.require("model", "probs"))
    return doubling_model(raw.require("model", "table"), as_int(raw.require("model", "level")))


# the number readers of the CATALOG makers' parameters, applied to a value or each list entry
_OBSERVABLE_NUMBERS = {
    "coeffs": _number,
    "degrees": as_int,
    "thresholds": _number,
    "clip": _number,
    "value_bound": _number,
    "bound_const": _number,
    "coord": as_int,
}


def build_observable(raw: RawConfig, dim: int) -> Observable:
    kind = raw.require("observable", "kind")
    sec = dict(raw.section("observable"))
    sec.pop("kind")
    arity = as_int(raw.require("observable", "arity"))
    sec.pop("arity")
    for key, read in _OBSERVABLE_NUMBERS.items():
        if key in sec:
            value = sec[key]
            sec[key] = [read(v) for v in value] if isinstance(value, list) else read(value)
    maker = CATALOG.get(kind)
    if maker is None:
        line = raw.header_lines["observable"]
        raise ConfigError(f"{raw.path}:{line}: unknown observable kind {kind!r}")
    try:
        return maker(arity, dim=dim, **sec)
    except TypeError as e:
        line = raw.header_lines["observable"]
        raise ConfigError(f"{raw.path}:{line}: bad observable parameters: {e}")


def build_family(raw: RawConfig, arity: int) -> IndexFamily:
    sec = raw.section("family", required=False)
    if sec is None:
        return linear_family(arity)
    kind = sec.get("kind", "linear")
    line = raw.header_lines["family"]
    keys = _FAMILY_KEYS.get(kind) if isinstance(kind, str) else None
    if keys is None:
        raise ConfigError(f"{raw.path}:{line}: unknown family kind {kind!r}")
    _only_keys(raw, "family", keys)
    if kind == "linear":
        # built at the observable's arity: a linear family holds a map per unit of arity
        fam, n_maps = linear_family(arity), as_int(sec.get("arity", arity))
    else:
        fam = polynomial_family(raw.require("family", "coeffs"), ray_start=sec.get("ray_start", 1))
        n_maps = fam.arity
    if n_maps != arity:
        raise ConfigError(f"{raw.path}:{line}: family arity {n_maps} != observable arity {arity}")
    return fam


@contextmanager
def _reading(raw: RawConfig, name: str):
    """Report a value of section ``name`` that its reader cannot use as a ConfigError.

    Readers convert and validate values (as_int, float(), numpy arrays, model
    and family constructors); a TypeError, ValueError, LookupError (a wrong
    shape) or ArithmeticError they raise means a malformed value, and is
    reported at the section's header line, as is a ConfigError that names no
    file yet.  A section the file leaves out is reported at [run]'s line.
    """
    line = raw.header_lines.get(name, raw.header_lines.get("run", 0))
    try:
        yield
    except ConfigError as exc:
        if str(exc).startswith(f"{raw.path}:"):
            raise
        raise ConfigError(f"{raw.path}:{line}: {exc}") from exc
    except (TypeError, ValueError, LookupError, ArithmeticError) as exc:
        raise ConfigError(f"{raw.path}:{line}: bad value in [{name}]: {exc}") from exc


def _floats(value) -> tuple[float, ...]:
    return tuple(_number(v) for v in (value if isinstance(value, list) else [value]))


def _names(value, known: tuple[str, ...], kind: str) -> tuple[str, ...]:
    names = value if isinstance(value, list) else [value]
    if not all(isinstance(v, str) for v in names):
        raise TypeError(f"expected names, got {value!r}")
    for name in names:
        if name not in known:
            raise ValueError(f"unknown {kind} {name!r}; choose from {sorted(known)}")
    return tuple(names)


STATISTICS = ("tails", "variance", "cumulants", "kolmogorov", "mdp")
BOUND_CHECKS = ("chernoff", "concentration")

# the optional sections, each key -> (converter, default); build_experiment
# fills every key, so a run reads resolved values only.  A threshold grid of
# None means the data-driven montecarlo.default_thresholds.
OPTIONAL_SECTIONS = {
    "tails": {"thresholds": (_floats, None)},
    "mdp": {
        "exponent": (_number, 0.1),
        "x_grid": (_floats, (1.0,)),
        "d_const": (_number, 1.0),
        "min_count": (as_int, 20),
    },
    "martingale": {"b": (_number, 1.0)},
    "bounds": {"gamma": (_number, 1.0), "c1": (_number, 1.0), "c2": (_number, 1.0)},
}
_SECTIONS = ("model", "observable", "family", "run", *OPTIONAL_SECTIONS)


def build_experiment(
    raw: RawConfig,
    seed: int | None = None,
    replicates: int | None = None,
    n_grid: list | None = None,
    workers: int | None = None,
) -> ExperimentConfig:
    """Assemble a validated experiment, applying CLI overrides when given.

    Every unknown section, unknown key, unknown statistic or bound-check
    name, malformed value, index family that the run's N grid would take
    out of order, past int64 or past 2^53, and every parameter the requested
    statistics or bound checks would refuse ends in a ConfigError carrying
    the file and line, before any draw.
    """
    for name, line in raw.header_lines.items():
        if name not in _SECTIONS:
            raise ConfigError(
                f"{raw.path}:{line}: unknown section [{name}]; "
                f"expected one of {', '.join(sorted(_SECTIONS))}"
            )
    with _reading(raw, "model"):
        model = build_model(raw)
    with _reading(raw, "observable"):
        obs = build_observable(raw, model.dim)
        centered = center(obs, model)
    with _reading(raw, "family"):
        family = build_family(raw, obs.arity)

    params = {}
    for name, keys in OPTIONAL_SECTIONS.items():
        _only_keys(raw, name, keys)
        sec = raw.sections.get(name, {})
        with _reading(raw, name):
            params[name] = {
                key: convert(sec[key]) if key in sec else default
                for key, (convert, default) in keys.items()
            }
    run = raw.section("run")
    _only_keys(raw, "run", _RUN_KEYS)
    with _reading(raw, "run"):
        grid = n_grid if n_grid is not None else raw.require("run", "n_grid")
        if isinstance(grid, (int, float)):
            grid = [grid]
        statistics = _names(run.get("statistics", ["tails"]), STATISTICS, "statistic")
        bound_checks = _names(run.get("bound_checks", []), BOUND_CHECKS, "bound check")
        config = ExperimentConfig(
            model=model,
            centered=centered,
            family=family,
            n_grid=tuple(as_int(n) for n in grid),
            n_replicates=as_int(replicates if replicates is not None else run.get("replicates", 10_000)),
            master_seed=as_int(seed if seed is not None else run.get("seed", 0)),
            statistics=statistics,
            bound_checks=bound_checks,
            params=params,
            workers=as_int(workers if workers is not None else run.get("workers", 1)),
        )
    with _reading(raw, "family"):
        # every value the run will take: unordered, stalling or inexact maps stop here
        family_indices(family, max(config.n_grid))

    # values the statistics and bound checks would refuse only after the draws
    bounds, chernoff = params["bounds"], "chernoff" in bound_checks
    for name, refused, message in (
        ("family", chernoff and not family.linear,
         "martingale construction needs the linear family q_i(n) = i n for the chernoff check"),
        ("bounds", not bounds["gamma"] > 0, "gamma must be positive"),
        ("mdp", "mdp" in statistics and not params["mdp"]["d_const"] > 0,
         "[mdp] d_const must be positive"),
        # a_N = N^exponent must grow and a_N / sqrt(N) must vanish
        ("mdp", not 0.0 < params["mdp"]["exponent"] < 0.5,
         "[mdp] exponent must lie in the moderate-deviation window (0, 1/2)"),
        ("martingale", chernoff and not params["martingale"]["b"] > 0,
         "[martingale] b must be positive for the chernoff check"),
        ("tails", chernoff and any(t < 0 for t in params["tails"]["thresholds"] or ()),
         "[tails] thresholds must be nonnegative for the chernoff check"),
        ("bounds", "concentration" in bound_checks and not (bounds["c1"] > 0 and bounds["c2"] > 0),
         "[bounds] c1 and c2 must be positive for the concentration check"),
    ):
        if refused:
            line = raw.header_lines.get(name, raw.header_lines["run"])
            raise ConfigError(f"{raw.path}:{line}: {message}")
    return config


def effective_sections(raw: RawConfig, config: ExperimentConfig) -> dict:
    """The parsed sections as the run uses them, which the manifest's config hash covers.

    The [run] keys that command-line overrides can change (seed, replicates,
    n_grid) hold their effective values.  ``workers`` is dropped: it never
    changes an output byte, so runs differing only in it share a hash.
    """
    run = {k: v for k, v in raw.sections["run"].items() if k != "workers"}
    run.update(
        seed=config.master_seed,
        replicates=config.n_replicates,
        n_grid=list(config.n_grid),
    )
    return {**raw.sections, "run": run}
