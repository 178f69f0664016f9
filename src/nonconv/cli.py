"""Command-line entry point: simulate, bounds, verify.

Exit codes: 0 success, 1 a check or bound verdict failed, 2 configuration
problem, 3 memory budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

import nonconv
from nonconv.bounds import (
    berry_esseen_bound,
    chernoff_tail_bound,
    concentration_bound,
    mdp_rate,
    moddev_envelope,
    momthm_bound,
    variance_envelope,
)
from nonconv.budget import slice_rows
from nonconv.config import build_experiment, effective_sections, load_config
from nonconv.errors import BudgetError, CheckFailure, ConfigError, OutOfWindowError
from nonconv.martingale import build_decomposition
from nonconv.montecarlo import (
    chernoff_refutations,
    cumulant_scan,
    default_thresholds,
    kolmogorov_distance,
    mdp_diagnostic,
    require_spread,
    sums_over_grid,
    tail_estimate,
    variance_scan,
)
from nonconv.reports import RunManifest, config_hash, fmt, write_csv, write_manifest


def _version() -> str:
    return nonconv.__version__


def _parse_grid(text: str | None) -> list[int] | None:
    if text is None:
        return None
    try:
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad n grid {text!r}: comma-separated integers expected") from exc


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _threshold_grid(exp, centered: np.ndarray) -> np.ndarray:
    thresholds = exp.params["tails"]["thresholds"]
    return default_thresholds(centered) if thresholds is None else np.asarray(thresholds)


def _stat_tails(exp, sums, out, manifest):
    rows = []
    for n in exp.n_grid:
        s = sums[n].centered
        for t in _threshold_grid(exp, s):
            te = tail_estimate(s, float(t))
            rows.append((n, te.threshold, te.p_hat, te.lower, te.upper, te.count))
    _emit(out, "tails.csv", ("n_terms", "threshold", "p_hat", "lower", "upper", "count"), rows, manifest)


def _stat_variance(exp, sums, out, manifest):
    fit = variance_scan(sums)
    rows = [
        (n, fit.variances[i], fit.std_errors[i], fit.residuals[i])
        for i, n in enumerate(fit.n_grid)
    ]
    _emit(out, "variance.csv", ("n_terms", "variance", "std_error", "residual"), rows, manifest)
    manifest.notes["d_squared"] = fit.d_squared
    manifest.notes["d_squared_se"] = fit.d_squared_se
    manifest.notes["c1_conservative"] = fit.c1_conservative


def _stat_cumulants(exp, sums, out, manifest):
    scan = cumulant_scan(sums)
    rows = [
        (r.n_terms, r.order, r.estimate, r.std_error, r.normalized, r.normalized_se)
        for r in scan.rows
    ]
    _emit(
        out,
        "cumulants.csv",
        ("n_terms", "order", "estimate", "std_error", "normalized", "normalized_se"),
        rows,
        manifest,
    )


def _stat_kolmogorov(exp, sums, out, manifest):
    require_spread(sums, "kolmogorov")
    rows = []
    for n in exp.n_grid:
        s = sums[n].centered
        scale = float(np.std(s, ddof=1))
        rows.append((n, kolmogorov_distance(s, 0.0, scale), scale))
    _emit(out, "kolmogorov.csv", ("n_terms", "distance", "scale"), rows, manifest)


def _stat_mdp(exp, sums, out, manifest):
    mdp = exp.params["mdp"]
    table = mdp_diagnostic(
        sums, mdp["exponent"], mdp["x_grid"], mdp["d_const"], min_count=mdp["min_count"]
    )
    rows = [
        (
            c.n_terms, c.x, c.a_n, c.p_hat, c.count, c.value, c.value_lo, c.value_hi,
            c.rate, c.reference, c.status,
        )
        for c in table.cells
    ]
    _emit(
        out,
        "mdp.csv",
        (
            "n_terms", "x", "a_n", "p_hat", "count", "value", "value_lo", "value_hi",
            "rate", "reference", "status",
        ),
        rows,
        manifest,
    )


_STATS = {
    "tails": _stat_tails,
    "variance": _stat_variance,
    "cumulants": _stat_cumulants,
    "kolmogorov": _stat_kolmogorov,
    "mdp": _stat_mdp,
}


def _check_chernoff(exp, sums, decomp, manifest):
    b = exp.params["martingale"]["b"]
    refuted = sum(
        chernoff_refutations(sums[n], _threshold_grid(exp, sums[n].centered), decomp, b)
        for n in exp.n_grid
    )
    manifest.record("chernoff", "fail" if refuted else "pass")
    manifest.notes["chernoff_refuted_points"] = refuted


def _check_concentration(exp, sums, decomp, manifest):
    bounds = exp.params["bounds"]
    refuted = 0
    for n in exp.n_grid:
        s = sums[n].centered
        for x in np.linspace(0.5, 5.0, 10):
            bound = concentration_bound(float(x), n, bounds["c1"], bounds["c2"], bounds["gamma"])
            if tail_estimate(s, float(x) * math.sqrt(n)).lower > bound:
                refuted += 1
    manifest.record("concentration", "fail" if refuted else "pass")
    manifest.notes["concentration_refuted_points"] = refuted


_BOUND_CHECKS = {"chernoff": _check_chernoff, "concentration": _check_concentration}


def _emit(out_dir, name, header, rows, manifest):
    path = os.path.join(out_dir, name)
    write_csv(path, header, rows)
    manifest.outputs.append(name)


def _cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    raw = load_config(args.config)
    exp = build_experiment(
        raw,
        seed=args.seed,
        replicates=args.replicates,
        n_grid=_parse_grid(args.n_grid),
        workers=args.workers,
    )
    decomp = None  # the martingale decomposition every N of the Chernoff check shares
    if "chernoff" in exp.bound_checks:
        try:
            decomp = build_decomposition(exp.model, exp.centered, exp.family)
        except ConfigError as exc:  # the model admits no certified construction
            raise ConfigError(f"{raw.path}:{raw.header_lines['model']}: {exc}") from exc

    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:  # a file at the path or above it
        raise ConfigError(f"cannot create --out-dir {args.out_dir}: {exc.strerror}") from exc
    manifest = RunManifest(
        config_hash=config_hash(effective_sections(raw, exp)),
        master_seed=exp.master_seed,
        version=_version(),
        n_replicates=exp.n_replicates,
        n_grid=list(exp.n_grid),
    )
    sums = sums_over_grid(exp)
    manifest.sampling = [
        {"n_terms": n, "method": sums[n].method, "centering": sums[n].centering}
        for n in exp.n_grid
    ]
    rows = slice_rows(exp.n_replicates, 256)  # at most about 256 bytes per line while printed
    _emit(
        args.out_dir,
        "sums.csv",
        ("n_terms", "replicate", "sum"),
        # each N's rows in slices of lines, printed as fmt prints ints and floats
        (
            "\n".join(
                map(("%d,%%d,%%.17g" % n).__mod__, enumerate(sums[n].sums[a : a + rows].tolist(), a))
            )
            for n in exp.n_grid
            for a in range(0, exp.n_replicates, rows)
        ),
        manifest,
    )
    for name in exp.statistics:
        _STATS[name](exp, sums, args.out_dir, manifest)
    for name in exp.bound_checks:
        _BOUND_CHECKS[name](exp, sums, decomp, manifest)

    manifest.wall_clock_s = time.perf_counter() - t0
    write_manifest(os.path.join(args.out_dir, "manifest.json"), manifest)
    for name, verdict in manifest.verdicts.items():
        print(f"{verdict.upper():4s} {name}")
    print(f"wrote {len(manifest.outputs)} files to {args.out_dir}")
    return 1 if manifest.failed else 0


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


# evaluator -> (bounds function, the options it takes, in argument order)
_BOUNDS = {
    "berry-esseen": (berry_esseen_bound, ("delta", "gamma")),
    "moddev": (moddev_envelope, ("x", "n", "c5", "gamma", "c4")),
    "momthm": (momthm_bound, ("p", "n", "c0", "gamma")),
    "concentration": (concentration_bound, ("x", "n", "c1", "c2", "gamma")),
    "chernoff": (chernoff_tail_bound, ("t", "n", "arity", "delta1", "b")),
    "variance": (variance_envelope, ("n", "c")),
    "mdp-rate": (mdp_rate, ("x",)),
}
# option -> (type, default) for every option of `nonconv bounds`, in the parser's order
_BOUND_OPTIONS = {
    "x": (float, 1.0),
    "t": (float, 1.0),
    "n": (float, 1.0),
    "p": (int, 3),
    "arity": (int, 1),
    "gamma": (float, 1.0),
    "delta": (float, 0.1),
    "delta1": (float, 1.0),
    "b": (float, 1.0),
    "c": (float, 1.0),
    "c0": (float, 1.0),
    "c1": (float, 1.0),
    "c2": (float, 1.0),
    "c4": (float, None),
    "c5": (float, 1.0),
}


def _cmd_bounds(args) -> int:
    bound, options = _BOUNDS[args.evaluator]
    values = {name: getattr(args, name) for name in options}
    for name, value in values.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"--{name} must be a finite number, got {value}")
        if isinstance(value, int) and abs(value) > sys.float_info.max:
            raise ConfigError(f"--{name} must lie in the float range")
    try:
        print(fmt(bound(*values.values())))
    except OutOfWindowError:  # moddev past its window edge with --c4
        print("OUT_OF_WINDOW")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    from nonconv.verification import run_suite

    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    results = run_suite(args.suite, workers=args.workers)
    failed = sum(r.status == "fail" for r in results)
    if args.json:
        rows = [
            {"name": r.name, "status": r.status, "detail": r.detail, "seconds": r.seconds,
             "values": r.values}
            for r in results
        ]
        print(json.dumps(rows, indent=2, default=_json_default))
    else:
        width = max(len(r.name) for r in results)
        for r in results:
            print(f"{r.status.upper():4s} {r.name:<{width}s} ({r.seconds:7.2f}s)  {r.detail}")
        print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def _json_default(value):
    # numpy scalars and arrays among a check's values
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="nonconv", description=__doc__)
    p.add_argument("--version", action="version", version=_version())
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a configured experiment and write CSV reports")
    sim.add_argument("config", help="path to the experiment config file")
    sim.add_argument("--out-dir", default="nonconv-out")
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--replicates", type=int, default=None)
    sim.add_argument("--n-grid", default=None, help="comma-separated term counts")
    sim.add_argument("--workers", type=int, default=None)
    sim.set_defaults(func=_cmd_simulate)

    b = sub.add_parser("bounds", help="evaluate one closed-form bound and print the value")
    b.add_argument("evaluator", choices=tuple(_BOUNDS))
    for name, (kind, default) in _BOUND_OPTIONS.items():
        b.add_argument(f"--{name}", type=kind, default=default)
    b.set_defaults(func=_cmd_bounds)

    v = sub.add_parser("verify", help="run a self-check suite")
    v.add_argument("suite", help="quick, full, martingale, cumulants, or mdp")
    v.add_argument("--workers", type=int, default=1)
    v.add_argument("--json", action="store_true", help="print the results as one JSON list")
    v.set_defaults(func=_cmd_verify)
    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 3
    except CheckFailure as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
