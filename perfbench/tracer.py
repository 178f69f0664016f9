"""Call tracing for the benchmark's traced runs.

The tracer replaces chosen public functions of the nonconv modules with timing
wrappers at every binding site: a function bound into another module by
``from ... import`` is replaced there too, because wrapping only the defining
module would miss every call made through the importing module's name.  The
program's own code is not changed.

Each call records a span (name, start, end, causing span, thread id) kept in
memory.  The two hot calls, ``replicate_rng`` and ``neighborhood`` (up to
about 1e5 calls per run), only update aggregate counters.  A span's self time
is its duration minus the time spent in traced calls it made on its own
thread.  Work handed to the engine's thread pool runs inside a
``montecarlo.pool`` span, so waiting for the pool is not counted as the
caller's self time.  A root span on a pool thread names as its cause the
innermost open span of the main thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time

# (module, function, hot): the functions timed at every binding site.
TRACED = (
    ("nonconv.rng", "replicate_rng", True),
    ("nonconv.rng", "substream_rng", False),
    ("nonconv.processes", "sample_paths", False),
    ("nonconv.processes", "sample_state_paths", False),
    ("nonconv.observables", "batch_sums", False),
    ("nonconv.observables", "exact_mean_SN", False),
    ("nonconv.observables", "center", False),
    ("nonconv.config", "build_experiment", False),
    ("nonconv.montecarlo", "replicate_sums", False),
    ("nonconv.montecarlo", "tail_estimate", False),
    ("nonconv.montecarlo", "kolmogorov_distance", False),
    ("nonconv.montecarlo", "variance_scan", False),
    ("nonconv.montecarlo", "cumulant_scan", False),
    ("nonconv.montecarlo", "mdp_diagnostic", False),
    ("nonconv.cumulants", "sample_cumulants", False),
    ("nonconv.martingale", "build_decomposition", False),
    ("nonconv.martingale", "evaluate_paths", False),
    ("nonconv.martingale", "check_martingale", False),
    ("nonconv.indexing", "neighborhood", True),
    ("nonconv.reports", "write_csv", False),
    ("nonconv.budget", "ensure_within_budget", False),
)

# Statistics whose self time makes up montecarlo.stats.busy_s.
STATS = ("tail_estimate", "kolmogorov_distance", "variance_scan", "cumulant_scan", "mdp_diagnostic")

# Functions of the quick verification suite, by the check name the CLI prints.
QUICK_CHECKS = {
    "check_mixing_oracle": "mixing-oracle",
    "check_neighborhood_bound": "neighborhood-bound",
    "check_cumulant_algebra": "cumulant-algebra",
    "_quick_martingale": "martingale-construction",
    "check_determinism": "worker-determinism",
}

_MAX_COUNTERS = ("budget.peak_request_bytes",)


class _ThreadLog:
    """What one thread recorded; only that thread writes to it."""

    def __init__(self, ident: int):
        self.ident = ident
        self.stack: list[list] = []  # [span id, seconds in traced children] per open span
        self.calls: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs: list[_ThreadLog] = []
        self._ids = itertools.count(1)
        self._origin = time.perf_counter()
        self._main = self._log()
        self.sites: dict[str, int] = {}

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog(threading.get_ident())
            with self._lock:
                self._logs.append(log)
            self._local.log = log
        return log

    def begin(self) -> tuple[_ThreadLog, float]:
        log = self._log()
        log.stack.append([next(self._ids), 0.0])
        return log, time.perf_counter()

    def end(self, log: _ThreadLog, start: float, name: str, hot: bool) -> float:
        end = time.perf_counter()
        span_id, child_s = log.stack.pop()
        duration = end - start
        if log.stack:
            log.stack[-1][1] += duration
            cause = log.stack[-1][0]
        elif log is not self._main and self._main.stack:
            cause = self._main.stack[-1][0]
        else:
            cause = None
        rec = log.calls.setdefault(name, [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += duration
        rec[2] += duration - child_s
        if not hot:
            log.spans.append(
                (span_id, cause, name, start - self._origin, end - self._origin, log.ident)
            )
        return duration

    def wrap(self, name: str, fn, hot: bool = False, after=None):
        """Timing wrapper; ``after(counters, arguments, result, seconds)`` records counts."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            log, start = self.begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = self.end(log, start, name, hot)
            if after is not None:
                after(log.counters, signature.bind(*args, **kwargs).arguments, result, seconds)
            return result

        return traced

    def patch(self, module_name: str, func_name: str, hot: bool = False, after=None) -> None:
        """Replace one function at every nonconv binding site, under any alias."""
        original = getattr(importlib.import_module(module_name), func_name)
        name = f"{module_name.rsplit('.', 1)[-1]}.{func_name}"
        traced = self.wrap(name, original, hot, after)
        sites = 0
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("nonconv"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, traced)
                    sites += 1
        self.sites[name] = sites

    def install(self) -> None:
        """Trace every function in TRACED, the bounds module and the quick suite."""
        import nonconv.cli  # noqa: F401  (binds the CLI's imports before patching)
        import nonconv.verification as verification
        import nonconv.bounds as bounds
        import nonconv.montecarlo as montecarlo

        hooks = {
            "sample_paths": _count_draws,
            "sample_state_paths": _count_draws,
            "batch_sums": _count_terms,
            "replicate_sums": _count_replicate_sums,
            "ensure_within_budget": _count_budget,
            "write_csv": _count_csv,
        }
        for module_name, func_name, hot in TRACED:
            self.patch(module_name, func_name, hot, hooks.get(func_name))
        for func_name, fn in list(vars(bounds).items()):
            if inspect.isfunction(fn) and fn.__module__ == bounds.__name__ and not func_name.startswith("_"):
                self.patch(bounds.__name__, func_name)

        quick = verification.SUITES["quick"]
        verification.SUITES["quick"] = tuple(
            self.wrap(f"verification.{QUICK_CHECKS.get(fn.__name__, fn.__name__)}", fn)
            for fn in quick
        )
        montecarlo.ThreadPoolExecutor = self._pool_class(montecarlo.ThreadPoolExecutor)

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            def __enter__(self):
                self._span = tracer.begin()
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.end(*self._span, "montecarlo.pool", False)

        return TracedPool

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def merged(self) -> tuple[dict, dict]:
        calls: dict[str, list] = {}
        counters: dict[str, float] = {}
        for log in self._logs:
            for name, (n, total, own) in log.calls.items():
                rec = calls.setdefault(name, [0, 0.0, 0.0])
                rec[0] += n
                rec[1] += total
                rec[2] += own
            for key, value in log.counters.items():
                if key in _MAX_COUNTERS:
                    counters[key] = max(counters.get(key, 0), value)
                else:
                    counters[key] = counters.get(key, 0) + value
        return calls, counters

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of this process, named as in BENCHMARK.json."""
        calls, counters = self.merged()

        def n_calls(name):
            return calls.get(name, (0, 0.0, 0.0))[0]

        def total(name):
            return calls.get(name, (0, 0.0, 0.0))[1]

        def busy(*names):
            return sum((calls.get(n, (0, 0.0, 0.0))[2] for n in names), 0.0)

        n_values = counters.get("montecarlo.n_values", 0)
        worker_s = counters.get("montecarlo.worker_seconds", 0.0)
        out = {
            "rng.streams": n_calls("rng.replicate_rng"),
            "rng.busy_s": busy("rng.replicate_rng", "rng.substream_rng"),
            "processes.sample_paths.busy_s": busy("processes.sample_paths"),
            "processes.draws": counters.get("processes.draws", 0),
            "processes.sample_state_paths.busy_s": busy("processes.sample_state_paths"),
            "observables.batch_sums.busy_s": busy("observables.batch_sums"),
            "observables.terms": counters.get("observables.terms", 0),
            "observables.exact_mean_SN.busy_s": busy("observables.exact_mean_SN"),
            "observables.center.busy_s": busy("observables.center"),
            "config.build_experiment.busy_s": busy("config.build_experiment"),
            "montecarlo.replicate_sums.busy_s": busy("montecarlo.replicate_sums"),
            "montecarlo.terms": counters.get("montecarlo.terms", 0),
            "montecarlo.stats.busy_s": busy(*(f"montecarlo.{s}" for s in STATS)),
            "montecarlo.tail_estimate.calls": n_calls("montecarlo.tail_estimate"),
            "montecarlo.exact_centering_ratio": (
                counters.get("montecarlo.exact_values", 0) / n_values if n_values else 0.0
            ),
            "montecarlo.parallel_efficiency": (
                total("observables.batch_sums") / worker_s if worker_s else 0.0
            ),
            "cumulants.sample_cumulants.busy_s": busy("cumulants.sample_cumulants"),
            "martingale.build_decomposition.busy_s": busy("martingale.build_decomposition"),
            "martingale.evaluate_paths.busy_s": busy("martingale.evaluate_paths"),
            "martingale.check_martingale.busy_s": busy("martingale.check_martingale"),
            "indexing.neighborhood.calls": n_calls("indexing.neighborhood"),
            "indexing.neighborhood.busy_s": busy("indexing.neighborhood"),
            "bounds.busy_s": busy(*(n for n in calls if n.startswith("bounds."))),
            "reports.write_csv.busy_s": busy("reports.write_csv"),
            "reports.rows": counters.get("reports.rows", 0),
            "reports.bytes": counters.get("reports.bytes", 0),
            "budget.peak_request_mb": counters.get("budget.peak_request_bytes", 0) / 2**20,
            "budget.checks": n_calls("budget.ensure_within_budget"),
        }
        for check in QUICK_CHECKS.values():
            out[f"verification.{check}.busy_s"] = busy(f"verification.{check}")
        return out

    def write(self, path: str) -> None:
        """Write spans, per-function aggregates, counters and binding-site counts."""
        calls, counters = self.merged()
        spans = sorted(s for log in self._logs for s in log.spans)
        payload = {
            "span_fields": ["id", "cause", "name", "start_s", "end_s", "thread"],
            "spans": spans,
            "calls": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]} for k, v in sorted(calls.items())},
            "counters": counters,
            "binding_sites": self.sites,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _count_draws(counters, arguments, result, seconds):
    counters["processes.draws"] = counters.get("processes.draws", 0) + result.shape[0] * result.shape[1]


def _count_terms(counters, arguments, result, seconds):
    terms = result.shape[0] * arguments["n_terms"]
    counters["observables.terms"] = counters.get("observables.terms", 0) + terms


def _count_replicate_sums(counters, arguments, result, seconds):
    config = arguments["config"]
    counters["montecarlo.terms"] = counters.get("montecarlo.terms", 0) + result.n_replicates * result.n_terms
    counters["montecarlo.n_values"] = counters.get("montecarlo.n_values", 0) + 1
    if result.centering == "exact":
        counters["montecarlo.exact_values"] = counters.get("montecarlo.exact_values", 0) + 1
    counters["montecarlo.worker_seconds"] = counters.get("montecarlo.worker_seconds", 0.0) + config.workers * seconds


def _count_csv(counters, arguments, result, seconds):
    # rows may arrive as a generator, so count them in the written file
    with open(arguments["path"], "rb") as fh:
        lines = sum(1 for _ in fh)
    counters["reports.rows"] = counters.get("reports.rows", 0) + lines - 1  # less the header
    counters["reports.bytes"] = counters.get("reports.bytes", 0) + os.path.getsize(arguments["path"])


def _count_budget(counters, arguments, result, seconds):
    key = "budget.peak_request_bytes"
    counters[key] = max(counters.get(key, 0), float(arguments["nbytes"]))
