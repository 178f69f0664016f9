"""Output checks of the benchmark's child runs; any problem counts the run as failed.

Seed-independent checks hold at any seed up to sampling error; each is a
5-standard-error test, so a correct program fails one about once in 1.7
million tries.  Byte digests of ``sums.csv`` recorded from the reference
commit (``reference.json``) pin the exact draws wherever the seed has one.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

Z = 5.0  # standard errors allowed by every statistical check


def read_sums(path: Path, n_grid, replicates) -> tuple[dict, list[str]]:
    """sums.csv as {N: raw sums in replicate order}, with any layout problems."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "n_terms,replicate,sum":
            return {}, [f"sums.csv header {header!r}"]
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    out, problems = {}, []
    for n in n_grid:
        rows = data[data[:, 0] == n]
        if rows.shape[0] != replicates or not np.array_equal(rows[:, 1], np.arange(replicates)):
            problems.append(f"sums.csv has {rows.shape[0]} rows at N = {n}, want {replicates}")
        out[n] = rows[:, 2]
    if data.shape[0] != replicates * len(n_grid):
        problems.append(f"sums.csv has {data.shape[0]} rows, want {replicates * len(n_grid)}")
    return out, problems


def variance_se(s: np.ndarray) -> tuple[float, float]:
    """Sample variance and its moment-formula standard error."""
    r = s.size
    v = float(np.var(s, ddof=1))
    m4 = float(np.mean((s - s.mean()) ** 4))
    return v, math.sqrt(max(m4 - v * v * (r - 3) / (r - 1), 0.0) / r)


def chain_pair_mean(preset: Path, n_terms: int) -> float:
    """Exact E S_N of the raw pair sum for a chain started from stationarity.

    Terms are F(x_n, x_2n) = x_n x_2n minus the product-law mean (pi . v)^2,
    so E S_N = sum_n (pi v)^T P^n v - (pi . v)^2 over n = 1..N.  Computed
    here from the preset's transition matrix, independently of nonconv.
    """
    model, section = {}, None
    for line in preset.read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line.strip("[] ")
        elif section == "model" and "=" in line:
            key, value = line.split("=", 1)
            model[key.strip()] = value.strip()
    p = np.array(json.loads(model["transition"]), dtype=float)
    v = np.array(json.loads(model["values"]), dtype=float)[:, 0]
    w, vecs = np.linalg.eig(p.T)
    pi = np.real(vecs[:, np.argmin(np.abs(w - 1.0))])
    pi /= pi.sum()
    mean_sq = float(pi @ v) ** 2
    total, pn = 0.0, np.eye(p.shape[0])
    for _ in range(n_terms):
        pn = pn @ p
        total += float((pi * v) @ pn @ v) - mean_sq
    return total


def check(spec: dict, stdout: str, out_dir: Path, root: Path, digest: str | None, expected: str | None) -> list[str]:
    """Problems with one workload run's outputs; empty when every check passes.

    ``digest`` is the sha256 of the run's sums.csv, ``expected`` the recorded
    one for this workload and seed, if any.
    """
    problems = []
    wanted = spec["checks"]
    if "suite_pass" in wanted:
        passes = sum(line.startswith("PASS ") for line in stdout.splitlines())
        if passes != 5 or "5/5 checks passed" not in stdout:
            problems.append(f"verify quick: {passes}/5 PASS lines")
        return problems

    if "chernoff_pass" in wanted and "PASS chernoff" not in stdout.splitlines():
        problems.append("no 'PASS chernoff' line")
    sums_path = out_dir / "sums.csv"
    if not sums_path.is_file():
        return problems + ["no sums.csv"]
    if "digest" in wanted and expected is not None and digest != expected:
        problems.append(f"sums.csv sha256 {digest[:16]}... differs from the recorded {expected[:16]}...")

    R = spec["replicates"]
    sums, layout = read_sums(sums_path, spec["n_grid"], R)
    problems += layout
    if layout:
        return problems
    if "chain_mean" in wanted:
        (n, s), = sums.items()
        exact = chain_pair_mean(root / spec["argv"][1], n)
        se = float(np.std(s, ddof=1)) / math.sqrt(R)
        if abs(float(s.mean()) - exact) > Z * se:
            problems.append(f"N = {n}: mean {s.mean():.5f} vs exact {exact:.5f} (SE {se:.5f})")
    if "count_moments" in wanted:
        # centered Bernoulli(1/2) count: mean 0, variance N/4
        for n, s in sums.items():
            se_mean = math.sqrt(n / 4.0 / R)
            if abs(float(s.mean())) > Z * se_mean:
                problems.append(f"N = {n}: mean {s.mean():.5f} vs 0 (SE {se_mean:.5f})")
            v, se = variance_se(s)
            if abs(v - n / 4.0) > Z * se:
                problems.append(f"N = {n}: variance {v:.3f} vs N/4 = {n / 4.0} (SE {se:.3f})")
    if "pair_variance" in wanted:
        # symmetric +-1 pair products along (n, 2n) are uncorrelated: Var S_N = N
        for n, s in sums.items():
            v, se = variance_se(s)
            if abs(v - n) > Z * se:
                problems.append(f"N = {n}: variance {v:.3f} vs N (SE {se:.3f})")
    return problems
