"""Multi-argument observables, centering, and the telescoping decomposition.

An observable F takes an ordered tuple of `arity` process values.  Its
centering constant is the mean under the product of marginals, and the
decomposition writes F minus that constant as a sum of components F_i, where
F_i depends on the first i arguments only and integrates to zero in its last
argument.  Everything here is exact for finite discrete marginals; nothing is
estimated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from nonconv.budget import block_bytes, ensure_within_budget, slice_rows
from nonconv.errors import ConfigError
from nonconv.indexing import IndexFamily
from nonconv.processes import (
    FiniteLaw,
    IIDModel,
    ProcessModel,
    _tuples,
    as_chain,
    path_weights,
    sample_state_paths,
)


@dataclass(frozen=True, eq=False)
class Observable:
    """Vectorized observable with a declared bound constant.

    ``fn`` maps an array of argument tuples, shape (n, arity, dim), to (n,)
    values.  ``bound_const`` (K) is the constant the martingale bounds scale by.
    """

    arity: int
    dim: int
    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    bound_const: float

    def __post_init__(self):
        if self.arity < 1 or self.dim < 1:
            raise ConfigError("arity and dim must be >= 1")
        if not 0 < self.bound_const < math.inf:
            raise ConfigError("need a finite K > 0")

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 3 or pts.shape[1:] != (self.arity, self.dim):
            raise ConfigError(f"expected (n, {self.arity}, {self.dim}) argument tuples")
        out = np.asarray(self.fn(pts), dtype=float)
        if out.shape != (pts.shape[0],):
            raise ConfigError("observable evaluator must return one value per tuple")
        return out


@dataclass(frozen=True, eq=False)
class CenteredObservable:
    """Observable with its centering constant, centered table and telescoping components.

    ``table`` holds F - mean on every tuple of atoms of ``law``, shape
    (n_atoms,) * arity, so a tuple of integer states (atom indices) looks up
    its centered term.  components[i-1] is the table of F_i on (n_atoms,) * i
    atom tuples; broadcast over the trailing axes, the components sum to
    ``table``, and each integrates to zero over its last axis under the
    marginal law used for the decomposition.
    """

    base: Observable
    law: FiniteLaw
    mean: float
    table: np.ndarray = field(repr=False)
    components: tuple[np.ndarray, ...] = field(repr=False)
    component_sups: tuple[float, ...] = ()

    @property
    def arity(self) -> int:
        return self.base.arity

    def table_for(self, model: ProcessModel) -> np.ndarray:
        """``table``, after checking that ``model``'s states index the same atoms."""
        atoms = model.marginal().atoms
        if atoms.shape != self.law.atoms.shape or not np.array_equal(atoms, self.law.atoms):
            raise ConfigError("observable was centered against another alphabet than the model's")
        return self.table


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def product_observable(arity: int, dim: int = 1, coord: int = 0, value_bound: float = 1.0) -> Observable:
    """F = product of one coordinate across arguments; K for the box |x| <= value_bound."""
    b = float(value_bound)

    def fn(pts):
        return np.prod(pts[:, :, coord], axis=1)

    return Observable(
        arity=arity,
        dim=dim,
        fn=fn,
        bound_const=max(b, 1.0) ** arity,
    )


def sum_observable(
    arity: int, dim: int = 1, coord: int = 0, bound_const: float = 1.0
) -> Observable:
    """F = sum of one coordinate across arguments."""

    def fn(pts):
        return np.sum(pts[:, :, coord], axis=1)

    return Observable(
        arity=arity,
        dim=dim,
        fn=fn,
        bound_const=bound_const,
    )


def indicator_product_observable(
    arity: int, thresholds: Sequence[float], dim: int = 1, coord: int = 0
) -> Observable:
    """F = product of 1[x_i >= t_i]; meaningful for finite-alphabet models,
    where the declared regularity is never exercised between atoms."""
    t = np.asarray(thresholds, dtype=float)
    if t.shape != (arity,):
        raise ConfigError("need one threshold per argument")

    def fn(pts):
        return np.prod(pts[:, :, coord] >= t[None, :], axis=1).astype(float)

    return Observable(arity=arity, dim=dim, fn=fn, bound_const=1.0)


def clipped_poly_observable(
    arity: int,
    coeffs: Sequence[float],
    degrees: Sequence[int],
    clip: float,
    dim: int = 1,
    coord: int = 0,
    value_bound: float = 1.0,
) -> Observable:
    """F = clip(sum_i c_i x_i^d_i, [-clip, clip]) with K sized for the box."""
    c = np.asarray(coeffs, dtype=float)
    d = np.asarray(degrees, dtype=int)
    if c.shape != (arity,) or d.shape != (arity,) or np.any(d < 1) or clip <= 0:
        raise ConfigError("need per-argument coefficients, degrees >= 1, clip > 0")
    b = float(value_bound)
    lip = float(np.max(np.abs(c) * d * np.maximum(b, 1.0) ** (d - 1)))

    def fn(pts):
        x = pts[:, :, coord]
        return np.clip(np.sum(c[None, :] * x ** d[None, :], axis=1), -clip, clip)

    return Observable(arity=arity, dim=dim, fn=fn, bound_const=max(clip, lip, 1e-12))


CATALOG = {
    "product": product_observable,
    "sum": sum_observable,
    "indicator-product": indicator_product_observable,
    "clipped-polynomial": clipped_poly_observable,
}


# ---------------------------------------------------------------------------
# centering and decomposition
# ---------------------------------------------------------------------------


def _product_weights(law: FiniteLaw, length: int) -> np.ndarray:
    """Product-law weight of every atom tuple of a given length, in table order."""
    return np.prod(law.probs[_tuples(law.atoms.shape[0], length)], axis=1)


def decompose(obs: Observable, law: FiniteLaw) -> CenteredObservable:
    """Telescoping decomposition of F - mean into per-coordinate component tables.

    F is evaluated once on every atom tuple.  G_i, the average of F over its
    last arity - i arguments, is that table reshaped to
    (n_atoms**i, n_atoms**(arity - i)) times the product weights of the
    trailing tuples, so G_arity = F and G_0 = mean.  The i-th component is
    G_i - G_{i-1}; the first one absorbs the centering constant.  Component
    sup norms are taken over these exact tables, and F - mean is kept as the
    centered table.  F is evaluated with float overflow and invalid results
    silenced: a centered table, mean or component that is not finite
    everywhere raises ConfigError instead, before any sum is drawn from it.
    """
    n_atoms = law.atoms.shape[0]
    pts = law.atoms[_tuples(n_atoms, obs.arity)]
    ensure_within_budget(pts.nbytes, "centering grid")
    with np.errstate(over="ignore", invalid="ignore"):
        vals = obs(pts)
        mean = float(vals @ _product_weights(law, obs.arity))
        averages = [np.array(mean)]
        for keep in range(1, obs.arity):
            averages.append(vals.reshape(n_atoms**keep, -1) @ _product_weights(law, obs.arity - keep))
        averages.append(vals)
        components = tuple(
            (averages[i].reshape(-1, n_atoms) - averages[i - 1].reshape(-1, 1)).reshape((n_atoms,) * i)
            for i in range(1, obs.arity + 1)
        )
        table = (vals - mean).reshape((n_atoms,) * obs.arity)
    if not all(np.isfinite(a).all() for a in (table, mean, *components)):
        raise ConfigError("observable F, its mean and its components must be finite on the atoms")
    return CenteredObservable(
        base=obs,
        law=law,
        mean=mean,
        table=table,
        components=components,
        component_sups=tuple(float(np.max(np.abs(c))) for c in components),
    )


def center(obs: Observable, model: ProcessModel) -> CenteredObservable:
    """Decompose against the marginal law of a model."""
    return decompose(obs, model.marginal())


# ---------------------------------------------------------------------------
# sums along an index family
# ---------------------------------------------------------------------------


def family_indices(family: IndexFamily, n_terms: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted unique index set for terms 1..n_terms and the (term, slot) -> position map.

    ``uniq[positions]`` is ``family.columns(n_terms)``.
    """
    cols = family.columns(n_terms)  # (N, arity)
    uniq, inverse = np.unique(cols, return_inverse=True)
    return uniq, inverse.reshape(cols.shape)


def _flat_type(table: np.ndarray, state_type: np.dtype) -> np.dtype:
    """Smallest unsigned type that holds a flat table index, or the states' type if wider."""
    return np.promote_types(state_type, np.min_scalar_type(table.size - 1))


def _term_bytes(table: np.ndarray, state_type: np.dtype) -> int:
    """Bytes a lookup holds per (replicate, term): a state column entry, the flat index, the term."""
    return np.dtype(state_type).itemsize + _flat_type(table, state_type).itemsize + 8


def lookup_terms(table: np.ndarray, states: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Table lookups table[states[:, positions[n]]], shape (R, N): the one lookup kernel.

    ``states`` is (R, n_positions), integer states as the sampler returns
    them (uint8 for up to 256 atoms), and ``positions`` (N, arity) maps each
    term's slots to state columns.  The flat index of every (replicate,
    term) is built by Horner's rule over the slots in the smallest unsigned
    type that holds a flat table index (or the states' type, if wider):
    every partial value is below table.size, so it never overflows.  Each
    slot's state columns are gathered by np.take into one preallocated
    column buffer.  The flat index is C-contiguous, so the terms are too.
    """
    n_atoms = table.shape[0]
    shape = (states.shape[0], positions.shape[0])
    column = np.empty(shape, dtype=states.dtype)
    # positions are always in range; "clip" writes into ``out`` unbuffered
    np.take(states, positions[:, 0], axis=1, out=column, mode="clip")
    flat = column.astype(_flat_type(table, states.dtype))
    for j in range(1, positions.shape[1]):
        np.take(states, positions[:, j], axis=1, out=column, mode="clip")
        flat *= n_atoms
        flat += column
    return table.ravel()[flat]


def lookup_sums(table: np.ndarray, states: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Row sums of :func:`lookup_terms`, every row reduced in the same fixed order.

    The terms are looked up one row slice at a time (``slice_rows``), so the
    lookup holds one slice's column, flat index and terms; each row is
    reduced alone, so the sums do not depend on the slicing.
    """
    R = states.shape[0]
    rows = slice_rows(R, positions.shape[0] * _term_bytes(table, states.dtype))
    sums = np.empty(R)
    for a in range(0, R, rows):
        sums[a : a + rows] = np.sum(lookup_terms(table, states[a : a + rows], positions), axis=1)
    return sums


def request_sum_block(table: np.ndarray, n_terms: int, n_replicates: int) -> None:
    """Ask the budget for the peak of a block's lookups at up to ``n_terms`` terms.

    The lookup holds per replicate the states at no more than arity N indices
    and the sum, and one row slice of :func:`lookup_sums` at N terms (arity
    is ``table.ndim``).  It is asked before any index table or draw exists;
    sample_state_paths requests its own.
    """
    state_type = np.min_scalar_type(table.shape[0] - 1)
    held = table.ndim * n_terms * state_type.itemsize + 8
    sliced = n_terms * _term_bytes(table, state_type)
    ensure_within_budget(
        block_bytes(n_replicates, held, n_terms) + slice_rows(n_replicates, sliced) * sliced,
        "sum evaluation block",
    )


def block_sums(
    model: ProcessModel,
    table: np.ndarray,
    index_tables: Sequence[tuple[np.ndarray, np.ndarray]],
    master_seed: int,
    n_replicates: int,
    first_replicate: int,
) -> list[np.ndarray]:
    """Centered sums of one block of replicates at each (uniq, positions) index table.

    ``table`` is the centered table, checked against ``model`` by the caller.
    A chain's or the doubling map's states depend on the index gaps, so each
    index table draws its own.  An i.i.d. draw ignores the index it lands
    on: a replicate's states at any index set are the atoms of the first
    |uniq| uniforms of its stream, so the block draws once at the largest set
    and every index table reads a prefix of those columns, the bytes its own
    draw would give.  Each sum reduces its terms in fixed index order.
    """
    if isinstance(model, IIDModel):
        widest = max((uniq for uniq, _ in index_tables), key=len)
        states = sample_state_paths(model, widest, master_seed, n_replicates, first_replicate)
        return [lookup_sums(table, states[:, : uniq.size], positions) for uniq, positions in index_tables]
    return [
        lookup_sums(
            table,
            sample_state_paths(model, uniq, master_seed, n_replicates, first_replicate),
            positions,
        )
        for uniq, positions in index_tables
    ]


def batch_sums(
    model: ProcessModel,
    centered: CenteredObservable,
    family: IndexFamily,
    n_terms: int,
    master_seed: int,
    n_replicates: int,
    first_replicate: int = 0,
) -> np.ndarray:
    """Centered sums S_N for a block of replicates, shape (n_replicates,).

    The one-N case of :func:`block_sums`: each replicate draws the process
    states at the union of family indices from its own counter-based stream,
    looks up the centered table at the per-term state tuples, and reduces in
    fixed index order.  The budget request of :func:`request_sum_block` is
    made before the index table is built.
    """
    table = centered.table_for(model)
    request_sum_block(table, n_terms, n_replicates)
    index_table = family_indices(family, n_terms)
    (sums,) = block_sums(model, table, [index_table], master_seed, n_replicates, first_replicate)
    return sums


def exact_mean_SN(
    model: ProcessModel,
    centered: CenteredObservable,
    uniq: np.ndarray,
    positions: np.ndarray,
    n_grid: Sequence[int],
) -> dict[int, float]:
    """E S_N at every N of ``n_grid`` by exact enumeration of the per-term joint laws.

    ``(uniq, positions)`` is the index table of the largest N: term n's
    indices do not depend on N, so each term's mean is computed once and
    E S_N is the math.fsum of the first N of them, correctly rounded and so
    bitwise the sum of an N enumerated alone.  For a chain the joint law of
    the states at one term's indices (``path_weights`` over the term's index
    gaps) reweights the centered table.  For i.i.d. models every term has
    mean equal to the centering constant, so E S_N = 0.  The tabulated
    doubling map goes through its exact chain representation.
    """
    if isinstance(model, IIDModel):
        return {n: 0.0 for n in n_grid}
    chain = as_chain(model)
    f_vals = centered.table_for(chain).reshape(-1)  # (S**arity,)
    means = [float(path_weights(chain, np.diff(row)).reshape(-1) @ f_vals) for row in uniq[positions]]
    return {n: math.fsum(means[:n]) for n in n_grid}


def exact_d_squared(model: ProcessModel, centered: CenteredObservable) -> float | None:
    """Exact limiting variance D^2 of S_N / sqrt(N) when a closed form applies, else None.

    The closed form holds for an i.i.d. model whose telescoping components
    F_1, ..., F_{arity-1} all vanish (sup at most 1e-12), on any family:
    IndexFamily.columns admits only strictly increasing maps.  Then two distinct
    terms are uncorrelated: the later term's last index exceeds every other
    index of both terms, and integrating that independent value out leaves
    G_{arity-1} - mean = F_1 + ... + F_{arity-1} = 0.  So Var S_N is N times
    the product-law mean of the centered table squared, which is D^2 (at
    arity 1, the marginal variance of F).  Chains, and i.i.d. models with a
    live lower component, get None.
    """
    if not isinstance(model, IIDModel):
        return None
    if max(centered.component_sups[:-1], default=0.0) > 1e-12:
        return None
    table = centered.table_for(model).ravel()
    return float(table**2 @ _product_weights(model.law, centered.arity))
