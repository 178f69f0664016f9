"""Stationary process models, path sampling, and mixing coefficients.

Three model kinds share one sampler of integer states, each an index into
the model's finite marginal alphabet:

* finite-state Markov chains (started from the stationary law): chain states,
* the dyadic shift ("doubling map") driven by an integer bit reservoir:
  dyadic cells of the value table,
* i.i.d. draws from a finite discrete law: atoms.

Uniform-mixing and strong-mixing coefficients come with exact brute-force
enumeration oracles over cylinder events, so the closed forms used by the
bound evaluators are checkable on small instances.  ``transition_power`` is
the one source of the n-step kernels P^g, ``path_weights`` chains them
along sorted times (exact centering, the oracles' window laws and the
martingale tables read it), and ``phi_tail`` certifies the summed phi tail.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import Sequence, Union

import numpy as np

from nonconv.budget import block_bytes, ensure_within_budget, slice_rows
from nonconv.errors import ConfigError
from nonconv.rng import replicate_streams

_ENUM_BUDGET = 1_000_000  # cap on enumerated state tuples for exact oracles
_TV_NOISE = 1e-12  # float matrix powers cannot resolve TV mass below this
_TABLE_CAP = 4096  # (chain, gap) entries each chain table cache holds
# One dependent walk at a time, chain or doubling map: each step is a few
# short numpy calls that release the GIL, so concurrent walks spend their time
# handing it back and forth.  sample_state_paths is the one site that takes it.
_WALK_LOCK = threading.Lock()


# ---------------------------------------------------------------------------
# laws and models
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FiniteLaw:
    """Discrete law on finitely many vector atoms."""

    atoms: np.ndarray  # (n_atoms, dim)
    probs: np.ndarray  # (n_atoms,)

    def __post_init__(self):
        atoms = np.atleast_2d(np.asarray(self.atoms, dtype=float))
        probs = np.asarray(self.probs, dtype=float)
        if atoms.ndim != 2 or probs.ndim != 1 or atoms.shape[0] != probs.shape[0]:
            raise ConfigError("law atoms and probabilities have mismatched shapes")
        if not (np.isfinite(atoms).all() and np.isfinite(probs).all()):
            raise ConfigError("law atoms and probabilities must be finite")
        if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-12:
            raise ConfigError("law probabilities must be nonnegative and sum to 1")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "probs", probs)

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]


@dataclass(frozen=True, eq=False)
class MarkovChainModel:
    """Stationary finite-state chain with a value vector attached to each state."""

    transition: np.ndarray  # (S, S) row-stochastic
    values: np.ndarray  # (S, dim)
    stationary: np.ndarray  # (S,)

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def marginal(self) -> FiniteLaw:
        return FiniteLaw(self.values, self.stationary)


@dataclass(frozen=True, eq=False)
class DoublingMapModel:
    """Dyadic shift observed through a value table on the level-`level` grid.

    The random point is an infinite bit string held as a sliding integer
    window (the bit reservoir); one shift consumes one fresh bit.  Values are
    the table entries, i.e. the underlying function evaluated at dyadic cell
    midpoints.
    """

    table: np.ndarray  # (2**level, dim)
    level: int

    @property
    def dim(self) -> int:
        return self.table.shape[1]

    def marginal(self) -> FiniteLaw:
        n = self.table.shape[0]
        return FiniteLaw(self.table, np.full(n, 1.0 / n))

    @cached_property
    def chain(self) -> MarkovChainModel:
        """The bit-window chain, built once so every reader shares its cached powers."""
        return doubling_to_markov(self)


@dataclass(frozen=True, eq=False)
class IIDModel:
    """Independent draws from a finite discrete law."""

    law: FiniteLaw

    @property
    def dim(self) -> int:
        return self.law.dim

    def marginal(self) -> FiniteLaw:
        return self.law


ProcessModel = Union[MarkovChainModel, DoublingMapModel, IIDModel]


def stationary_distribution(transition: np.ndarray) -> np.ndarray:
    """Stationary law of an irreducible row-stochastic matrix.

    Solved as the null vector of (P^T - I) with the mass constraint appended;
    residual is checked to 1e-10.
    """
    P = np.asarray(transition, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ConfigError("transition matrix must be square")
    S = P.shape[0]
    if S > 64:
        raise ConfigError(f"chain has {S} states, cap is 64")
    if np.any(P < -1e-14) or np.any(np.abs(P.sum(axis=1) - 1.0) > 1e-10):
        raise ConfigError("transition matrix must be row-stochastic")
    reach = _reachability(P)
    if not reach.all():
        raise ConfigError("chain is not irreducible")
    A = np.vstack([P.T - np.eye(S), np.ones(S)])
    b = np.zeros(S + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    pi = np.clip(pi, 0.0, None)
    pi = pi / pi.sum()
    if np.max(np.abs(pi @ P - pi)) > 1e-10:
        raise ConfigError("stationary solve did not converge")
    return pi


def _reachability(P: np.ndarray) -> np.ndarray:
    adj = P > 0
    reach = adj | np.eye(P.shape[0], dtype=bool)
    for _ in range(P.shape[0]):
        new = reach @ reach
        if (new == reach).all():
            break
        reach = new
    return reach


def markov_model(transition, values) -> MarkovChainModel:
    P = np.asarray(transition, dtype=float)
    vals = np.asarray(values, dtype=float)
    if not (np.isfinite(P).all() and np.isfinite(vals).all()):
        raise ConfigError("transition matrix and values must be finite")
    pi = stationary_distribution(P)
    if vals.ndim == 1:
        vals = vals[:, None]
    if vals.shape[0] != P.shape[0]:
        raise ConfigError("need one value vector per state")
    return MarkovChainModel(transition=P, values=vals, stationary=pi)


def doubling_model(table: Sequence[float] | np.ndarray, level: int) -> DoublingMapModel:
    """Dyadic shift observed through a value table with one row per level-``level`` cell."""
    if not (1 <= level <= 30):
        raise ConfigError("dyadic level must be in [1, 30]")
    n = 1 << level
    table = np.asarray(table, dtype=float)
    if table.ndim == 1:
        table = table[:, None]
    if table.shape[0] != n:
        raise ConfigError(f"value table must have 2**level = {n} rows")
    if not np.isfinite(table).all():
        raise ConfigError("value table must be finite")
    return DoublingMapModel(table=table, level=level)


def iid_model(atoms, probs) -> IIDModel:
    """i.i.d. draws from a finite law; a flat atoms list is one coordinate per atom."""
    atoms = np.asarray(atoms, dtype=float)
    if atoms.ndim == 1:
        atoms = atoms[:, None]
    return IIDModel(FiniteLaw(atoms, np.asarray(probs, dtype=float)))


def doubling_to_markov(model: DoublingMapModel) -> MarkovChainModel:
    """Exact chain representation of the tabulated dyadic shift.

    The sliding window of `level` bits is itself a Markov chain on 2**level
    states (shift one bit in, uniform), stationary law uniform.  Valid for
    small levels only; chain operations cap the state count at 64.
    """
    L = model.level
    if L > 6:
        raise ConfigError("chain conversion needs level <= 6 (state cap 64)")
    S = 1 << L
    P = np.zeros((S, S))
    mask = S - 1
    for s in range(S):
        nxt = (s << 1) & mask
        P[s, nxt] += 0.5
        P[s, nxt | 1] += 0.5
    return MarkovChainModel(transition=P, values=model.table.copy(), stationary=np.full(S, 1.0 / S))


def as_chain(model: ProcessModel) -> MarkovChainModel:
    """The model as a finite chain whose states index its marginal atoms.

    An i.i.d. law becomes the chain whose every row is that law; the doubling
    map becomes its bit-window chain (levels up to 6), one per model.
    """
    if isinstance(model, MarkovChainModel):
        return model
    if isinstance(model, IIDModel):
        n_atoms = model.law.atoms.shape[0]
        return MarkovChainModel(
            transition=np.tile(model.law.probs, (n_atoms, 1)),
            values=model.law.atoms.copy(),
            stationary=model.law.probs.copy(),
        )
    if isinstance(model, DoublingMapModel):
        return model.chain
    raise ConfigError(f"unknown model kind: {model!r}")


# ---------------------------------------------------------------------------
# path sampling
# ---------------------------------------------------------------------------


def _check_indices(indices) -> np.ndarray:
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1 or idx.size == 0:
        raise ConfigError("need a nonempty 1-d index array")
    if idx[0] < 1 or np.any(np.diff(idx) <= 0):
        raise ConfigError("indices must be strictly increasing positive integers")
    return idx


def _draw(probs: np.ndarray, u: np.ndarray, states: np.ndarray) -> None:
    """Fill ``states`` with atoms drawn from one law by inverse CDF, elementwise in ``u``.

    The atom is the number of thresholds k < S - 1 with cumsum(probs)[k] <= u,
    counted straight into ``states``, an unsigned array (or view) of u's shape
    that holds S - 1.  It equals min(searchsorted(cumsum(probs), u, "right"),
    S - 1) because the cumulative sums are nondecreasing.
    """
    states[...] = 0
    hit = np.empty(u.shape, dtype=bool)
    for c in np.cumsum(probs)[:-1]:
        np.less_equal(c, u, out=hit)
        states += hit


def sample_state_paths(
    model: ProcessModel,
    indices,
    master_seed: int,
    n_replicates: int,
    first_replicate: int = 0,
) -> np.ndarray:
    """Integer states of the process at the requested indices, one row per replicate.

    Returns a C-contiguous array of shape (n_replicates, n_indices) whose
    entries index ``model.marginal().atoms``: chain states, i.i.d. atoms, or
    dyadic cells.  Its type, chosen here only, is the narrowest unsigned one
    that holds ``n_states - 1``: uint8 for up to 256 states.  The kernel of
    the model's kind fills it in place: an i.i.d. draw one row slice at a
    time (``slice_rows``), its float uniforms in one reused slice buffer; a
    chain or doubling-map walk on the whole block, under ``_WALK_LOCK``.
    Replicate ``first_replicate + j`` consumes only its own counter-based
    stream, one uniform per index (the call's ``replicate_streams``), so any
    batching of replicates reproduces the same rows.  Work and memory scale
    with the number of requested indices, not with the largest index: gaps in
    the index set are jumped with precomputed multi-step transition kernels
    (chains) or by discarding reservoir bits (doubling map).  The budget
    request is the peak of the model's kind, asked before any array exists.
    """
    idx = _check_indices(indices)
    R, T = n_replicates, idx.size
    state_type = np.min_scalar_type(model.marginal().atoms.shape[0] - 1)
    # an i.i.d. draw holds a uniform and a comparison mask per entry, one row
    # slice at a time; a walk's cost per step is mostly fixed, so it takes
    # the whole block's uniforms
    if isinstance(model, IIDModel):
        walk, rows, entry_bytes = None, slice_rows(R, 9 * T), 9
    elif isinstance(model, MarkovChainModel):
        walk, rows, entry_bytes = _chain_states, max(R, 1), 8
    elif isinstance(model, DoublingMapModel):
        walk, rows, entry_bytes = _dyadic_cells, max(R, 1), 8
    else:
        raise ConfigError(f"unknown model kind: {model!r}")
    ensure_within_budget(
        block_bytes(R, T * state_type.itemsize, T) + entry_bytes * T * rows, "state path block"
    )
    streams = replicate_streams(master_seed, first_replicate, R)
    states = np.empty((R, T), dtype=state_type)
    uniforms = np.empty((rows, T))
    for a in range(0, R, rows):
        u, out = uniforms[: min(rows, R - a)], states[a : a + rows]
        for row, gen in zip(u, streams):
            gen.random(out=row)
        if walk is None:
            _draw(model.law.probs, u, out)
        else:
            with _WALK_LOCK:
                walk(model, idx, u, out)
    return states


def sample_paths(
    model: ProcessModel,
    indices,
    master_seed: int,
    n_replicates: int,
    first_replicate: int = 0,
) -> np.ndarray:
    """Values of the process at the requested indices, shape (n_replicates, n_indices, dim).

    The atoms of ``model.marginal()`` at the states of sample_state_paths,
    drawn from the same streams.
    """
    states = sample_state_paths(model, indices, master_seed, n_replicates, first_replicate)
    ensure_within_budget(states.size * model.dim * 8, "path value block")
    return model.marginal().atoms[states]


@lru_cache(maxsize=_TABLE_CAP)
def transition_power(chain: MarkovChainModel, g: int) -> np.ndarray:
    """P^g of the chain, read-only, cached per (chain, g) for every reader.

    A miss first asks the budget for the full cache: _TABLE_CAP tables of S^2 doubles.
    """
    ensure_within_budget(_TABLE_CAP * chain.n_states**2 * 8, "transition-power cache")
    # a view: at g = 1 matrix_power returns the chain's own matrix
    power = np.linalg.matrix_power(chain.transition, g).view()
    power.flags.writeable = False
    return power


@lru_cache(maxsize=_TABLE_CAP)
def _gap_thresholds(model: MarkovChainModel, gap: int) -> np.ndarray:
    """Read-only table whose row k holds cumsum(P^gap)[:, k] for every source state.

    Cached per (chain, gap), so the blocks of one run and the grid points
    that share a gap build each table once.  A miss asks the budget as
    ``transition_power`` does.
    """
    ensure_within_budget(_TABLE_CAP * model.n_states**2 * 8, "gap-threshold cache")
    table = np.ascontiguousarray(np.cumsum(transition_power(model, gap), axis=1)[:, :-1].T)
    table.flags.writeable = False
    return table


def _chain_states(
    model: MarkovChainModel, idx: np.ndarray, uniforms: np.ndarray, states: np.ndarray
) -> None:
    """Fill ``states`` with chain states by inverse CDF, one index column at a time.

    A gap of g steps draws from P^g: the next state is the number of
    thresholds k < S - 1 with cumsum(P^g)[prev, k] <= u, which equals
    min(#{cum <= u}, S - 1) because every cumulative row is nondecreasing.
    Step t reads column t of the uniforms and writes column t of ``states``,
    the sampler's C-contiguous (replicates, indices) array, both as strided
    views: no block is copied.  The head threshold row's count, 0 or 1, is
    written straight into the step's states: as bools where states are one
    byte wide (up to 256 states, every chain a config builds), cast into
    wider ones.
    """
    if model.n_states == 1:  # no thresholds: the one state is 0
        states.fill(0)
        return
    diffs = np.diff(idx).tolist()
    tables = {g: _gap_thresholds(model, g) for g in set(diffs)}
    rows = {g: (table[0], list(table[1:])) for g, table in tables.items()}  # head, tails
    gaps = [rows[g] for g in diffs]
    cols = states.T
    _draw(model.stationary, uniforms[:, 0], cols[0])
    first = (states.view(bool) if states.itemsize == 1 else states).T
    thr = np.empty(states.shape[0])
    hit = np.empty(states.shape[0], dtype=bool)
    for prev, nxt, head, u, (head_row, tail_rows) in zip(
        cols, cols[1:], first[1:], uniforms.T[1:], gaps
    ):
        # states are always in range; "clip" writes into ``out`` unbuffered
        head_row.take(prev, out=thr, mode="clip")
        np.less_equal(thr, u, out=head, casting="unsafe")
        for row in tail_rows:
            row.take(prev, out=thr, mode="clip")
            np.less_equal(thr, u, out=hit)
            nxt += hit


def _dyadic_cells(
    model: DoublingMapModel, idx: np.ndarray, uniforms: np.ndarray, cells: np.ndarray
) -> None:
    """Fill ``cells`` with dyadic cells, walked in place one index column at a time.

    The window at index k holds the L bits after position k; a gap of g
    shifts g fresh bits in (all L refreshed once g >= L).
    """
    L = model.level
    mask = (1 << L) - 1
    window = (uniforms[:, 0] * (1 << L)).astype(np.int64)
    cells.T[0] = window
    for g, u, cell in zip(np.minimum(np.diff(idx), L).tolist(), uniforms.T[1:], cells.T[1:]):
        window = ((window << g) | (u * (1 << g)).astype(np.int64)) & mask
        cell[...] = window


# ---------------------------------------------------------------------------
# joint laws along times
# ---------------------------------------------------------------------------


def path_weights(
    chain: MarkovChainModel, gaps: Sequence[int], start: np.ndarray | None = None
) -> np.ndarray:
    """start[x0] P^g1[x0, x1] ... P^gk[x_{k-1}, x_k] for every state tuple, shape (S,) * (k + 1).

    The factors multiply left to right.  The default start is the stationary
    law, which makes the result the joint law of the chain at times
    t, t + g1, ..., t + g1 + ... + gk; a start of ones gives the law of the
    later states conditional on x0.
    """
    weights = chain.stationary if start is None else start
    for g in gaps:
        weights = weights[..., None] * transition_power(chain, int(g))
    return weights


# ---------------------------------------------------------------------------
# mixing coefficients
# ---------------------------------------------------------------------------


def phi_coefficient(model: MarkovChainModel, n: int) -> float:
    """Uniform-mixing coefficient of a chain at gap ``n``; by convention the value at 0 is 1.

    This is the worst total-variation distance between an n-step row and the
    stationary law: conditioning on any positive-probability past event
    reduces to conditioning on the current state, and the supremum over
    future events of the conditional-minus-marginal gap is the TV distance,
    which is invariant under extending the future window.  Other models go
    through ``as_chain`` first; an i.i.d. law's chain has identical rows, so
    its phi vanishes at every positive gap.
    """
    if n < 0:
        raise ConfigError("gap must be nonnegative")
    if n == 0:
        return 1.0
    Pn = transition_power(model, n)
    tv = float(0.5 * np.max(np.abs(Pn - model.stationary[None, :]).sum(axis=1)))
    # below _TV_NOISE the residual is rounding debris that stops shrinking
    # with n; snap to 0 so decay certificates downstream can terminate
    return 0.0 if tv < _TV_NOISE else tv


def _tuples(n_states: int, length: int) -> np.ndarray:
    if n_states**length > _ENUM_BUDGET:
        raise ConfigError(
            f"enumeration of {n_states}^{length} tuples exceeds the {_ENUM_BUDGET} cap"
        )
    grids = np.indices((n_states,) * length)
    return grids.reshape(length, -1).T  # (n_states**length, length)


def _cylinder_conditional(
    model: MarkovChainModel, n: int, past_window: int, future_window: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Window laws and P(future atom | past atom) for windows separated by gap ``n``.

    Returns the stationary probabilities of the past-window and future-window
    state tuples and the (n_past, n_future) matrix of conditionals.
    """
    if not isinstance(model, MarkovChainModel):
        raise ConfigError("cylinder enumeration needs a finite-state chain")
    if n < 1 or past_window < 1 or future_window < 1:
        raise ConfigError("gap and windows must be >= 1")
    past = _tuples(model.n_states, past_window)
    future = _tuples(model.n_states, future_window)
    # n-step kernel assembled by repeated single-step products, kept local to
    # the oracle
    gap_kernel = reduce(np.matmul, [model.transition] * n)
    cond_start = gap_kernel[past[:, -1]][:, future[:, 0]]  # (n_past, n_future)
    internal = path_weights(model, [1] * (future_window - 1), np.ones(model.n_states)).ravel()
    return (
        path_weights(model, [1] * (past_window - 1)).ravel(),
        path_weights(model, [1] * (future_window - 1)).ravel(),
        cond_start * internal[None, :],
    )


def phi_bruteforce(model: MarkovChainModel, n: int, past_window: int, future_window: int) -> float:
    """Exact sup of |P(B|A) - P(B)| over unions of cylinder events.

    A ranges over unions of past-window atoms and B over unions of
    future-window atoms, the windows separated by gap ``n``.  The conditional
    P(B|A) is a convex combination of the single-atom conditionals, so the
    supremum over A is attained at an atom; for fixed A the supremum over
    unions B is the positive part of the signed atom measure.  Both are
    enumerated exactly here; nothing is sampled.
    """
    p_past, p_future, cond = _cylinder_conditional(model, n, past_window, future_window)
    diffs = cond[p_past > 0] - p_future[None, :]
    return float(np.max(np.sum(np.where(diffs > 0, diffs, 0.0), axis=1)))


def alpha_coefficient(
    model: MarkovChainModel, n: int, past_window: int = 1, future_window: int = 1
) -> float:
    """Strong-mixing coefficient over windowed cylinder events, by enumeration.

    The supremum of |P(A and B) - P(A)P(B)| runs over single cylinder pairs.
    It is a lower bound for the unrestricted coefficient and obeys
    alpha(n) <= phi(n)/2.
    """
    p_past, p_future, cond = _cylinder_conditional(model, n, past_window, future_window)
    m = p_past[:, None] * cond - p_past[:, None] * p_future[None, :]
    val = float(np.max(np.abs(m)))
    return 0.0 if val < _TV_NOISE else val


def phi_tail(chain: MarkovChainModel, cutoff: int) -> float:
    """Certified bound on sum of phi(n) over gaps n > cutoff.

    Zero when phi(cutoff + 1) is exactly zero (phi is nonincreasing in the
    gap).  Otherwise the certificate is the Dobrushin contraction coefficient
    beta_k < 1 of the first power P^k, k <= S^2, that contracts:
    phi(n) <= beta_k^floor(n/k) <= d exp(-a n) with a = ln(1/beta_k)/k and
    d = 1/beta_k (a = 1 and d = e^k when P^k has identical rows), summed as
    a geometric series.  Raises ConfigError when no such power contracts,
    as for a periodic chain.
    """
    if cutoff < 0:
        raise ConfigError("cutoff must be nonnegative")
    if phi_coefficient(chain, cutoff + 1) == 0.0:
        return 0.0
    for k in range(1, chain.n_states**2 + 1):
        Pk = transition_power(chain, k)
        beta = float(np.max(0.5 * np.abs(Pk[:, None, :] - Pk[None, :, :]).sum(axis=2)))
        if beta < 1.0 - 1e-12:
            if beta <= 0:
                # exact independence after k steps; cover the first k gaps too
                a, d = 1.0, math.exp(k)
            else:
                a, d = math.log(1.0 / beta) / k, 1.0 / beta
            return d * math.exp(-a * (cutoff + 1)) / (-math.expm1(-a))
    raise ConfigError("no decay certificate to bound the phi tail")
