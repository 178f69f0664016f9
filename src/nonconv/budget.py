"""Memory budget guard.

The engine refuses single allocations that would blow past the cap in
``NONCONV_BUDGET_MB`` (default 4096) instead of letting the OS kill the run.
Kernels that work row by row hold their float temporaries for one slice of
at most ``SLICE_BYTES`` at a time, so a block's working set does not grow
with its replicate count times its index count.
"""

from __future__ import annotations

import os

from nonconv.errors import BudgetError

_DEFAULT_MB = 4096.0
SLICE_BYTES = 2**21  # float working set of one row slice, about one core's L2 cache


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


def slice_rows(n_rows: int, row_bytes: int) -> int:
    """Rows per slice of a row-by-row kernel that holds ``row_bytes`` per row.

    As many rows as fit in ``SLICE_BYTES``, at least one and at most ``n_rows``.
    """
    return max(1, min(n_rows, SLICE_BYTES // row_bytes))


def ensure_within_budget(nbytes: float, label: str) -> None:
    cap = budget_mb() * 2**20
    if nbytes > cap:
        raise BudgetError(
            f"{label} needs {nbytes / 2**20:.1f} MiB, over the {cap / 2**20:.1f} MiB budget"
        )
