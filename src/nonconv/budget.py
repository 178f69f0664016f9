"""Memory budget guard.

The engine refuses single allocations that would blow past the cap in
``NONCONV_BUDGET_MB`` (default 4096) instead of letting the OS kill the run.
"""

from __future__ import annotations

import os

from nonconv.errors import BudgetError

_DEFAULT_MB = 4096.0


def budget_mb() -> float:
    raw = os.environ.get("NONCONV_BUDGET_MB")
    if raw is None:
        return _DEFAULT_MB
    try:
        value = float(raw)
    except ValueError as exc:
        raise BudgetError(f"NONCONV_BUDGET_MB is not a number: {raw!r}") from exc
    if value <= 0:
        raise BudgetError(f"NONCONV_BUDGET_MB must be positive, got {value}")
    return value


def block_bytes(n_replicates: int, row_bytes: int, n_columns: int) -> int:
    """Peak bytes of a block phase whose arrays hold ``row_bytes`` per replicate.

    On top come 64 bytes per replicate and per column for per-step buffers,
    gap lists and index copies, and numpy's 64 KiB ufunc buffer.
    """
    return n_replicates * row_bytes + 64 * (n_replicates + n_columns) + 2**16


def ensure_within_budget(nbytes: float, label: str) -> None:
    cap = budget_mb() * 2**20
    if nbytes > cap:
        raise BudgetError(
            f"{label} needs {nbytes / 2**20:.1f} MiB, over the {cap / 2**20:.1f} MiB budget"
        )
