"""Benchmark of the nonconv command-line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it needs ``src/nonconv`` there and
nothing installed.  This process runs no work itself: it starts one fresh
child process per run of the unchanged ``nonconv`` CLI (a closed loop, one
run at a time) and checks every run's outputs.  Workloads are defined in
``perfbench/workloads.json``; metric names and units come from
``BENCHMARK.json``.

``--trace 0`` runs the workload repeatedly for about S seconds, then runs
set-up-only children until at least five set-up times are in, and reports
the medians of the end-to-end metrics:

* ``wall_s``      wall time of the child process, start to exit
* ``setup_s``     child start until nonconv is imported and the experiment built
* ``terms_per_s`` R x N summed over the workload's replicate sums, per ``wall_s``
* ``peak_rss_mb`` peak resident memory of the child

``--trace 1`` runs the workload once untraced and once under the tracer
(``perfbench/tracer.py``), plus once at ``--workers 1`` when the workload uses
more workers, and reports the per-layer metrics with ``trace_overhead_s``.

The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (child runs; a run fails on an unexpected exit
code or a failed output check) and ``metrics``.  Scratch files go to
``.perfbench_work/`` in the checkout; the last trace of each workload stays
there as ``trace-<workload>.json``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib.metadata import version
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
RUN_LIMIT_S = 170.0  # every run ends inside the 180 s a run may take
MIN_SETUPS = 5


@dataclass
class Child:
    mode: str
    wall_s: float
    setup_s: float | None = None
    rss_mb: float | None = None
    trace: dict | None = None
    sums_sha256: str | None = None
    problems: list = field(default_factory=list)


class Runner:
    """Starts child runs of one workload at one seed, one at a time."""

    def __init__(self, name: str, spec: dict, seed: int, digests: dict, deadline: float):
        self.name, self.spec, self.seed = name, spec, seed
        self.digests = digests
        self.deadline = deadline
        self.children: list[Child] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )

    def run(self, mode: str, extra: tuple = ()) -> Child:
        tag = f"{self.name}-{os.getpid()}-{len(self.children)}"
        out_dir = WORK / tag
        result_path = WORK / f"{tag}.json"
        cli_args = list(self.spec["argv"])
        if cli_args[0] == "simulate":
            cli_args += ["--seed", str(self.seed), "--out-dir", str(out_dir)]
        cli_args += list(extra)
        trace_path = [str(WORK / f"trace-{self.name}.json")] if mode == "trace" else []
        t0 = time.monotonic()
        cmd = [sys.executable, str(BENCH / "child.py"), str(result_path), repr(t0), mode, *trace_path, "--", *cli_args]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - t0),
            )
        except subprocess.TimeoutExpired:
            child = Child(mode, time.monotonic() - t0, problems=["timed out"])
        else:
            child = Child(mode, time.monotonic() - t0)
            self._read(child, result_path, proc)
            sums = out_dir / "sums.csv"
            if sums.is_file():
                child.sums_sha256 = hashlib.sha256(sums.read_bytes()).hexdigest()
            if mode != "setup" and not child.problems:
                expected = self.digests.get(self.name, {}).get(str(self.seed))
                child.problems = checks.check(
                    self.spec, proc.stdout, out_dir, ROOT, child.sums_sha256, expected
                )
        shutil.rmtree(out_dir, ignore_errors=True)
        result_path.unlink(missing_ok=True)
        self.children.append(child)
        for p in child.problems:
            print(f"FAILED {mode} run {len(self.children)}: {p}")
        return child

    def _read(self, child: Child, result_path: Path, proc) -> None:
        if proc.returncode != 0:
            tail = (proc.stderr or proc.stdout).strip().splitlines()[-1:] or [""]
            child.problems.append(f"exit code {proc.returncode}: {tail[0]}")
        if not result_path.is_file():
            child.problems.append("child wrote no result")
            return
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if not Path(result["module"]).resolve().is_relative_to(ROOT / "src"):
            child.problems.append(f"imported nonconv from {result['module']}, not from this checkout")
        if result["setup_s"] is None:
            child.problems.append("set-up never finished")
        child.setup_s, child.rss_mb, child.trace = result["setup_s"], result["rss_mb"], result.get("trace")


def sum_terms(spec: dict) -> int:
    """R x N summed over the replicate sums the workload computes."""
    if "sum_terms" in spec:
        return spec["sum_terms"]
    return spec["replicates"] * sum(spec["n_grid"])


def timed_run(runner: Runner, seconds: float) -> dict[str, list[float]]:
    """Samples of each end-to-end metric from about ``seconds`` of child runs."""
    start = time.monotonic()
    end = start + seconds
    while True:
        child = runner.run("run")
        if time.monotonic() + child.wall_s > end or time.monotonic() > runner.deadline:
            break
    estimate = 0.0
    while time.monotonic() < runner.deadline - estimate:
        n_setups = sum(c.setup_s is not None for c in runner.children)
        if n_setups >= MIN_SETUPS and time.monotonic() + estimate > end:
            break
        estimate = runner.run("setup").wall_s

    # failed children are left out of the timings unless no other run is left
    ok = [c for c in runner.children if not c.problems] or runner.children
    runs = [c for c in ok if c.mode == "run"] or [c for c in runner.children if c.mode == "run"]
    return {
        "wall_s": [c.wall_s for c in runs],
        "setup_s": [c.setup_s for c in ok if c.setup_s is not None] or [0.0],
        "terms_per_s": [sum_terms(runner.spec) / c.wall_s for c in runs],
        "peak_rss_mb": [c.rss_mb for c in runs if c.rss_mb is not None] or [0.0],
    }


def traced_run(runner: Runner) -> dict:
    plain = runner.run("run")
    traced = runner.run("trace")
    speedup = 1.0  # by definition when the workload already runs one worker
    if runner.spec.get("workers", 1) > 1:
        single = runner.run("run", ("--workers", "1"))
        speedup = single.wall_s / plain.wall_s
    metrics = dict(traced.trace or {})
    metrics["montecarlo.worker_speedup"] = speedup
    metrics["trace_overhead_s"] = traced.wall_s - plain.wall_s
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "nonconv" / "cli.py").is_file():
        print(f"no nonconv sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))["workloads"]
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be nonnegative", file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(ROOT / "src"), quiet=1) or not compileall.compile_dir(str(BENCH), quiet=1):
        print("compiling the sources failed", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)

    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}; nproc {os.cpu_count()}, "
        f"python {sys.version.split()[0]}, numpy {version('numpy')}, scipy {version('scipy')}"
    )
    runner = Runner(args.workload, workloads[args.workload], args.seed, reference["digests"], deadline)
    if args.trace:
        samples = {}
        measured = traced_run(runner)
        wanted = bench["per_layer"]
    else:
        samples = timed_run(runner, args.seconds)
        measured = {name: statistics.median(values) for name, values in samples.items()}
        wanted = bench["end_to_end"]
    # a metric a failed child never produced reads 0; the run is then reported incorrect
    metrics = {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        values = samples.get(name, ())
        spread = ""
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = f"  (median of {len(values)}; q1 {q1:.6g}, q3 {q3:.6g})"
        print(f"  {name:<44s} {m['value']:.6g} {m['unit']}{spread}")
    failed = sum(bool(c.problems) for c in runner.children)
    attempted = len(runner.children)
    print(f"  fail_ratio {failed / attempted:.6g} ({failed} of {attempted} child runs failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
