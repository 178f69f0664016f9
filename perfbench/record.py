"""Record perfbench/reference.json: the environment and the sums.csv digests.

    python3 perfbench/record.py [--seeds 0-23]

Run it from the root of a git checkout of the commit whose outputs are the
reference.  For every workload with a ``digest`` check it runs the workload
once per seed and records the sha256 of ``sums.csv``; later runs at those
seeds must reproduce the bytes.  It also records where the digests came from:
the git revision, CPU count and Python, numpy and scipy versions.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from importlib.metadata import version

from run import BENCH, ROOT, WORK, Runner


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-23", help="inclusive range, e.g. 0-23")
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    workloads = json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))["workloads"]

    def git(*cmd):
        return subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()

    environment = {
        "git_revision": git("rev-parse", "HEAD"),
        "src_modified": bool(git("status", "--porcelain", "--", "src")),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "seeds": f"{lo}-{hi}",
    }
    WORK.mkdir(exist_ok=True)
    digests = {}
    for name, spec in workloads.items():
        if "digest" not in spec["checks"]:
            continue
        digests[name] = {}
        for seed in range(lo, hi + 1):
            runner = Runner(name, spec, seed, {}, deadline=time.monotonic() + 600.0)
            child = runner.run("run")
            if child.problems or child.sums_sha256 is None:
                print(f"{name} seed {seed}: {child.problems}", file=sys.stderr)
                return 1
            digests[name][str(seed)] = child.sums_sha256
            print(f"{name} seed {seed}: {child.sums_sha256}", flush=True)
    payload = {"environment": environment, "digests": digests}
    (BENCH / "reference.json").write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
