"""Index families q_1 < q_2 < ... < q_l and the neighborhood counting bound.

The dilation distance between times n, m is the smallest |i*n - j*m| over
coefficient pairs 1 <= i, j <= l.  The neighborhood of n is every m within
distance s of it, a union of l^2 integer intervals; its size is at most
3 l^2 s, the counting bound the verification battery checks exhaustively.
``neighborhood`` lists one neighborhood, and ``neighborhood_sizes`` counts
all of n = 1..N at once from the same intervals.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from nonconv.budget import ensure_within_budget
from nonconv.errors import ConfigError

_VALUE_CAP = 1 << 53  # keep family values exactly representable as floats
_PARTIAL_CAP = 1 << 62  # ceiling on every Horner partial: int64 arithmetic stays exact
_INT64 = range(-(1 << 63), 1 << 63)


@dataclass(frozen=True, eq=False)
class IndexFamily:
    """Ordered family of strictly increasing integer polynomial index maps.

    ``coeffs`` holds one tuple of integer coefficients per map, highest
    degree first, each with a positive leading coefficient; q_i(n) = i n is
    (i, 0).  ``ray_start`` is the first argument from which ordering and
    growth are certified; families are only evaluated from there on, and
    ``columns`` rejects maps that are not strictly ordered or not strictly
    increasing there.
    """

    coeffs: tuple[tuple[int, ...], ...]
    ray_start: int = 1

    def __post_init__(self):
        if not self.coeffs:
            raise ConfigError("a family needs at least one map")
        for coeffs in self.coeffs:
            if not coeffs or coeffs[0] <= 0:
                raise ConfigError("polynomials need a positive leading coefficient")
        if self.ray_start not in _INT64 or any(c not in _INT64 for cs in self.coeffs for c in cs):
            raise ConfigError("family coefficients and ray start must fit in int64")

    @property
    def arity(self) -> int:
        return len(self.coeffs)

    @property
    def linear(self) -> bool:
        """Whether the maps are q_i(n) = i n, i = 1..arity, from ray start 1."""
        return self.ray_start == 1 and self.coeffs == linear_family(self.arity).coeffs

    def columns(self, n_terms: int) -> np.ndarray:
        """All maps at the arguments ray_start, ..., ray_start + n_terms - 1: shape (n_terms, arity).

        Each map is evaluated by Horner's rule in int64.  First every map is
        checked in Python integers at reach = max(1, last argument,
        -ray_start): once sum_k |a_k| reach^k reaches 2^62 the map is refused,
        and below that no Horner partial p x + a at |x| <= reach can wrap,
        so one past int64 meets this bound instead of wrapping in np.arange.
        Then the budget is asked for 16 arity + 17 bytes per term
        (tracemalloc: at most 32 at arity 1, 16 arity + 8 above it).  Values
        outside [1, 2^53) are refused; then the first argument n where the
        maps are not strictly ordered, q_1(n) < q_2(n) < ... < q_l(n), naming
        that n and the offending pair, then the first n where a map fails to
        increase, q_i(n) <= q_i(n - 1), naming that n and i.
        """
        last = self.ray_start + n_terms - 1
        reach = max(1, last, -self.ray_start)
        for i, coeffs in enumerate(self.coeffs, start=1):
            bound = 0
            for c in coeffs:
                bound = min(bound * reach + abs(c), _PARTIAL_CAP)  # small ints at any degree
            if bound >= _PARTIAL_CAP:
                raise ConfigError(
                    f"family values must stay in [1, 2^53), but q_{i} cannot be evaluated exactly "
                    f"at |n| up to {reach}: sum |a_k| |n|^k reaches 2^62"
                )
        ensure_within_budget(n_terms * (16 * self.arity + 17), "index family columns")
        arr = np.arange(self.ray_start, last + 1, dtype=np.int64)

        def horner(coeffs) -> np.ndarray:
            out = np.zeros_like(arr)
            for c in coeffs:
                out = out * arr + c
            if np.any(out < 1) or np.any(np.abs(out) >= _VALUE_CAP):
                raise ConfigError("family values must stay in [1, 2^53)")
            return out

        # the per-map arrays live only until stacked, not through the checks below
        cols = np.stack([horner(coeffs) for coeffs in self.coeffs], axis=1)
        unordered = cols[:, 1:] <= cols[:, :-1]
        if unordered.any():
            row, i = np.argwhere(unordered)[0]
            raise ConfigError(
                f"index maps must be strictly ordered, but at n = {arr[row]}: "
                f"q_{i + 1}(n) = {cols[row, i]} >= q_{i + 2}(n) = {cols[row, i + 1]}"
            )
        stalled = cols[1:] <= cols[:-1]
        if stalled.any():
            row, i = np.argwhere(stalled)[0]
            raise ConfigError(
                f"index maps must be strictly increasing, but at n = {arr[row + 1]}: "
                f"q_{i + 1}(n) = {cols[row + 1, i]} <= q_{i + 1}(n - 1) = {cols[row, i]}"
            )
        return cols


def linear_family(arity: int) -> IndexFamily:
    """q_i(n) = i n for i = 1..arity."""
    return IndexFamily(tuple((i, 0) for i in range(1, arity + 1)))


def polynomial_family(coeff_lists: Sequence[Sequence[int]], ray_start: int = 1) -> IndexFamily:
    """Integer polynomial maps, one coefficient list per map, highest degree first."""
    return IndexFamily(tuple(tuple(as_int(c) for c in cs) for cs in coeff_lists), as_int(ray_start))


def as_int(value) -> int:
    """``value`` as an exact int: an integer, or a float with no fractional part such as 1e5.

    A bool, a non-number or a value with a fractional part raises
    TypeError or ValueError; nothing is truncated.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"expected an integer, got {value!r}")
    if not isinstance(value, numbers.Integral) and not float(value).is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


# ---------------------------------------------------------------------------
# neighborhoods
# ---------------------------------------------------------------------------


def _spans(arity: int, n, n_max: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Ends (lo, hi) of the arity^2 intervals whose union is the neighborhood of n.

    |i m - j n| <= s holds exactly for the integers m in
    [ceil((j n - s) / i), floor((j n + s) / i)]; each is clipped to
    [1, n_max] and may come out empty (lo > hi).  ``n`` is a scalar or an
    array; the coefficient pairs (i, j) run along a new last axis.
    """
    if s < 0 or n_max < 1:
        raise ConfigError("need s >= 0 and n_max >= 1")
    n = np.asarray(n, dtype=np.int64)
    if arity < 1 or np.any(n < 1):
        raise ConfigError("need arity and n >= 1")
    coef = np.arange(1, arity + 1, dtype=np.int64)
    i = np.repeat(coef, arity)
    jn = n[..., None] * np.tile(coef, arity)
    return np.maximum(-((s - jn) // i), 1), np.minimum((jn + s) // i, n_max)


def neighborhood(arity: int, n: int, n_max: int, s: int) -> np.ndarray:
    """All m in [1, n_max] within dilation distance s of n, as a sorted int64 array.

    The union of the intervals of :func:`_spans`, merged one point at a
    time; :func:`neighborhood_sizes` counts the same union for every n.
    """
    lo, hi = _spans(arity, n, n_max, s)
    merged: list[list[int]] = []
    for a, b in sorted(zip(lo.tolist(), hi.tolist())):
        if a > b:
            continue
        if merged and a <= merged[-1][1] + 1:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return np.concatenate(
        [np.empty(0, dtype=np.int64)] + [np.arange(a, b + 1, dtype=np.int64) for a, b in merged]
    )


def neighborhood_sizes(arity: int, n_max: int, s: int) -> np.ndarray:
    """|A_s(n)| = neighborhood(arity, n, n_max, s).size for n = 1..n_max, as int64.

    Sorted by lower end, interval k adds the points above both lo_k - 1 and
    the highest upper end before it (a running maximum), so the union's
    size is one pass over the (n_max, arity^2) interval table.  Empty
    intervals add nothing and, lying below every later lower end, never
    raise the running maximum past a point they do not cover.
    """
    lo, hi = _spans(arity, np.arange(1, n_max + 1), n_max, s)
    order = np.argsort(lo, axis=1, kind="stable")
    lo = np.take_along_axis(lo, order, axis=1)
    hi = np.take_along_axis(hi, order, axis=1)
    reach = np.zeros_like(hi)
    np.maximum.accumulate(hi[:, :-1], axis=1, out=reach[:, 1:])
    return np.maximum(hi - np.maximum(lo - 1, reach), 0).sum(axis=1)


def neighborhood_cap(arity: int, s: int) -> float:
    """Closed-form ceiling 3 * arity^2 * s on neighborhood sizes (s >= 1)."""
    return 3.0 * arity * arity * max(s, 1)
