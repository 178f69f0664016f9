"""Report files: CSV tables and the run manifest.

Numbers are printed with 17 significant digits so every value round-trips
exactly; files are UTF-8 with LF endings regardless of platform.  ``fmt``
defines how a cell prints, and ``write_csv`` prints every cell through it.
The manifest is a single JSON object; its wall-clock field is
the only part of a run's output allowed to differ between identical runs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field


def fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def write_csv(path, header, rows) -> None:
    """Write a header and rows, every cell as fmt prints it, each line as it arrives.

    A row is a str of whole lines already printed so (sums.csv's slices of
    replicate sums), or a sequence of cells that each go through fmt.  Rows
    may come from a generator: only the row in hand is held, never the file.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        print(",".join(header), file=fh)
        for row in rows:
            print(row if isinstance(row, str) else ",".join(map(fmt, row)), file=fh)


def config_hash(sections: dict) -> str:
    """Stable hash of parsed config content, invariant to key order."""
    canon = json.dumps(sections, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


@dataclass
class RunManifest:
    config_hash: str  # of the effective config, after command-line overrides
    master_seed: int
    version: str
    n_replicates: int = 0
    n_grid: list = field(default_factory=list)
    sampling: list = field(default_factory=list)  # per N: n_terms, method, centering
    verdicts: dict = field(default_factory=dict)  # check name -> pass|fail
    outputs: list = field(default_factory=list)
    wall_clock_s: float = 0.0
    notes: dict = field(default_factory=dict)

    def record(self, name: str, verdict: str) -> None:
        if verdict not in ("pass", "fail"):
            raise ValueError(f"bad verdict {verdict!r}")
        self.verdicts[name] = verdict

    @property
    def failed(self) -> bool:
        return any(v == "fail" for v in self.verdicts.values())


def write_manifest(path, manifest: RunManifest) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(asdict(manifest), fh, indent=2, sort_keys=True)
        fh.write("\n")
