"""Self-test of the benchmark, and one command for every metric of every workload.

    python3 perfbench/selftest.py [--seed N] [--seconds S] [--workloads a,b]

For each workload it runs ``run.py --trace 0`` once, which prints every
end-to-end metric with its unit, and ``run.py --trace 1`` twice.  It then
asserts that

* every run reports ``correct``;
* the count metrics are identical in the two traced runs;
* they equal the values the workload's configuration fixes, for example
  ``rng.streams`` = R x the number of N values of a simulate workload;
* layers the workload bypasses read 0 and its invariants hold.

It exits 1 if any assertion fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import BENCH

COUNTS = (
    "rng.streams",
    "processes.draws",
    "observables.terms",
    "montecarlo.terms",
    "reports.rows",
    "reports.bytes",
    "indexing.neighborhood.calls",
    "budget.peak_request_mb",
    "budget.checks",
    "montecarlo.tail_estimate.calls",
)

BLOCK = 512  # replicates per engine block, which sizes the largest budget request
ARITY = 2  # pair observables along the linear family (n, 2n)

# verify quick's counts follow from the suite's fixed sizes:
# worker-determinism runs 2 presets x 2 worker counts x 2000 replicates at
# N = 16 and 256 (chain pair by path evaluation, Bernoulli by binomial count);
# martingale-construction samples 256 state paths of length 2N at N = 8 and 64;
# cumulant-algebra opens one auxiliary stream; neighborhood-bound scans
# arity 1..4 x s 1..50 x n 1..500.
VERIFY_QUICK = {
    "rng.streams": 2 * 2 * 2000 * 2 + 2 * 256 + 1,
    "processes.draws": 2 * 2000 * (24 + 384) + 256 * (2 * 8 + 2 * 64),
    "observables.terms": 2 * 2000 * (16 + 256),
    "montecarlo.terms": 2 * 2 * 2000 * (16 + 256),
    "reports.rows": 0,
    "reports.bytes": 0,
    "indexing.neighborhood.calls": 4 * 50 * 500,
    "budget.peak_request_mb": BLOCK * (384 + ARITY * 256) * 16 / 2**20,
}


def distinct_indices(n: int) -> int:
    """Size of {n, 2n : n = 1..N}, the indices a pair sum samples."""
    return len(set(range(1, n + 1)) | set(range(2, 2 * n + 1, 2)))


def expected_counts(name: str, spec: dict) -> dict:
    if name == "verify_quick":
        return VERIFY_QUICK
    R, grid = spec["replicates"], spec["n_grid"]
    paths = spec["method"] == "path-evaluation"
    block = min(BLOCK, R)
    if paths:
        peak = max(block * (distinct_indices(n) + ARITY * n) * 16 for n in grid)
    else:
        peak = 2 * 8  # the centering grid of two scalar atoms
    return {
        "rng.streams": R * len(grid),
        "processes.draws": R * sum(distinct_indices(n) for n in grid) if paths else 0,
        "observables.terms": R * sum(grid) if paths else 0,
        "montecarlo.terms": R * sum(grid),
        "reports.rows": R * len(grid) + spec["stat_rows"],
        "indexing.neighborhood.calls": 0,
        "budget.peak_request_mb": peak / 2**20,
    }


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    print(proc.stdout, end="")
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    workloads = json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))["workloads"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--workloads", default=",".join(workloads))
    args = parser.parse_args()

    failures = []
    for name in args.workloads.split(","):
        spec = workloads[name]
        results = [run(name, args.seed, args.seconds, 0), run(name, args.seed, 0, 1), run(name, args.seed, 0, 1)]
        failures += [f"{name}: a run is not correct" for r in results if not r["correct"]]
        first, second = ({k: m["value"] for k, m in r["metrics"].items()} for r in results[1:])
        for key in COUNTS:
            if first[key] != second[key]:
                failures.append(f"{name}: {key} differs between traced runs: {first[key]} vs {second[key]}")
        for key, want in expected_counts(name, spec).items():
            if first[key] != want:
                failures.append(f"{name}: {key} = {first[key]}, the configuration fixes {want}")
        for key in spec["bypass"]:
            if first[key] != 0:
                failures.append(f"{name}: bypassed {key} = {first[key]}, want 0")
        for key, want in spec["invariant"].items():
            if first[key] != want:
                failures.append(f"{name}: {key} = {first[key]}, want {want}")
    for f in failures:
        print("SELFTEST FAILED", f)
    print("selftest:", "FAILED" if failures else "passed", f"({len(failures)} problems)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
