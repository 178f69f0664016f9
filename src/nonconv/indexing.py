"""Index families q_1 < q_2 < ... < q_l and the neighborhood counting bound.

The dilation distance between times n, m is the smallest |i*n - j*m| over
coefficient pairs 1 <= i, j <= l.  The neighborhood of n is every m within
distance s of it, a union of l^2 integer intervals; its size is at most
3 l^2 s, the counting bound the verification battery checks exhaustively.
``neighborhood`` lists one neighborhood, and ``neighborhood_sizes`` counts
all of n = 1..N at once from the same intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from nonconv.errors import ConfigError

_VALUE_CAP = 1 << 53  # keep family values exactly representable as floats


def _poly_eval(coeffs: Sequence[int], x: np.ndarray) -> np.ndarray:
    # Horner in int64; coeffs ordered highest degree first
    out = np.zeros_like(x)
    for c in coeffs:
        out = out * x + int(c)
    return out


@dataclass(frozen=True, eq=False)
class IndexFamily:
    """Ordered family of strictly increasing integer index maps.

    kind is one of "linear" (q_i(n) = i*n), "polynomial" (integer-coefficient
    polynomials), or "power-sparse" (polynomials evaluated at n**power).
    ``ray_start`` is the first argument from which ordering and growth are
    certified; families are only evaluated from there on, and ``columns``
    rejects maps that are not strictly ordered or not strictly increasing
    there.
    """

    arity: int
    kind: str
    ray_start: int = 1
    poly_coeffs: tuple[tuple[int, ...], ...] | None = None
    power: int | None = None

    def __post_init__(self):
        if self.arity < 1:
            raise ConfigError("arity must be >= 1")
        if self.kind not in ("linear", "polynomial", "power-sparse"):
            raise ConfigError(f"unknown family kind {self.kind!r}")
        if self.kind in ("polynomial", "power-sparse"):
            if self.poly_coeffs is None or len(self.poly_coeffs) != self.arity:
                raise ConfigError("need one coefficient list per map")
            for coeffs in self.poly_coeffs:
                if not coeffs or coeffs[0] <= 0:
                    raise ConfigError("polynomials need a positive leading coefficient")
        if self.kind == "power-sparse" and (self.power is None or self.power < 1):
            raise ConfigError("power-sparse families need a positive integer power")

    def evaluate(self, i: int, n) -> np.ndarray:
        """q_i at one or many arguments; i is 1-based."""
        if not (1 <= i <= self.arity):
            raise ConfigError(f"map index {i} outside 1..{self.arity}")
        arr = np.asarray(n, dtype=np.int64)
        if np.any(arr < self.ray_start):
            raise ConfigError(f"family evaluated below its ray start {self.ray_start}")
        if self.kind == "linear":
            out = i * arr
        elif self.kind == "polynomial":
            out = _poly_eval(self.poly_coeffs[i - 1], arr)
        else:
            out = _poly_eval(self.poly_coeffs[i - 1], arr**self.power)
        if np.any(out < 1) or np.any(np.abs(out) >= _VALUE_CAP):
            raise ConfigError("family values must stay in [1, 2^53)")
        return out

    def columns(self, n_terms: int) -> np.ndarray:
        """All maps at the arguments ray_start, ..., ray_start + n_terms - 1: shape (n_terms, arity).

        Raises at the first argument n where the maps are not strictly
        ordered, q_1(n) < q_2(n) < ... < q_l(n), naming that n and the
        offending pair, then at the first n where a map fails to increase,
        q_i(n) <= q_i(n - 1), naming that n and i.
        """
        arr = np.arange(self.ray_start, self.ray_start + n_terms, dtype=np.int64)
        cols = np.stack([self.evaluate(i, arr) for i in range(1, self.arity + 1)], axis=1)
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
    return IndexFamily(arity=arity, kind="linear")


def polynomial_family(coeff_lists: Sequence[Sequence[int]], ray_start: int = 1) -> IndexFamily:
    return IndexFamily(
        arity=len(coeff_lists),
        kind="polynomial",
        ray_start=ray_start,
        poly_coeffs=tuple(tuple(int(c) for c in cs) for cs in coeff_lists),
    )


def power_sparse_family(
    coeff_lists: Sequence[Sequence[int]], power: int, ray_start: int = 1
) -> IndexFamily:
    return IndexFamily(
        arity=len(coeff_lists),
        kind="power-sparse",
        ray_start=ray_start,
        poly_coeffs=tuple(tuple(int(c) for c in cs) for cs in coeff_lists),
        power=power,
    )


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
