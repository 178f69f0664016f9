"""Martingale approximation of nonconventional sums over finite-state chains.

With linear index maps the centered sum splits into per-level streams
Y_{i,m} = F_i(xi_{m/i}, xi_{2m/i}, ..., xi_m) living at times m divisible by
i, where F_i is the telescoping component whose last-coordinate marginal mean
vanishes.  Adding the predicted future R_{i,m} = sum over the next `horizon`
times s of E[Y_{i,s} | path up to m] and differencing gives increments
W_{i,m} = Y_{i,m} + R_{i,m} - R_{i,m-1} whose conditional mean given the past
is zero up to the certified truncation error, so the running sum M over
increments with m <= i*N is a martingale approximating S_N.

Every conditional expectation is an exact chain computation.  A term Y_{i,s}
has arguments at positions j*n' with n' = s/i; the positions at or before
the conditioning time m are read off the path, the rest are integrated out
with the chain's path weights (``exact.path_weights``).  Each term is
one lookup in a small table over the positions it reads, and that table
depends on m only through j0, the first argument ahead, and the gap from m
to it: it is keyed by (i, j0, gap) when j0 = i and by (i, j0, n', gap) when
later arguments are integrated out.  The tables of one (i, j0) are one
dense read-only array indexed [n', gap] (n' read as 0 once j0 = i) that
holds every key a retained term can have; it is built once per
decomposition, on first use, in one stacked product.

Path batches evaluate by term rank: for each level, every step and every
replicate at once, looping only over a term's rank k within the horizon,
and the increments follow in one array pass per level.  The martingale
check certifies each term's one-step drift (its table contracted with one
transition row, minus its table one step earlier) once per distinct pair
of tables and reading pattern.

The truncation certificate: |E[Y_{i,s} | path to m]| <= 2 sup|F_i| phi(g)
with g = s - max(m, (i-1)s/i), because the conditional expectation given
everything before the last argument is a plain mixing bound against the
vanishing marginal mean.  Summing the dropped terms s > m + horizon and
splitting the min over the two gap shapes bounds the tail by
2 sup|F_i| (phi_tail(floor(horizon/i)) + phi_tail(horizon)), uniformly in m,
where phi_tail is the Dobrushin geometric certificate of
``exact.phi_tail``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from nonconv.budget import block_bytes, ensure_within_budget
from nonconv.errors import ConfigError
from nonconv.exact import path_weights, phi_coefficient, phi_tail
from nonconv.indexing import IndexFamily
from nonconv.observables import CenteredObservable, lookup_sums, lookup_terms
from nonconv.processes import (
    DoublingMapModel,
    MarkovChainModel,
    ProcessModel,
    as_chain,
    sample_state_paths,
    transition_power,
)

_TAIL_TARGET = 1e-8  # certified truncation tail the horizon doubling must reach
_HORIZON_CAP = 4096  # largest horizon tried before the construction gives up
_TOL = 1e-8  # conditional-mean offset allowed on top of the truncation tail
_TELESCOPING_TOL = 1e-9  # relative rounding allowed in the telescoping identity


# ---------------------------------------------------------------------------
# decomposition object
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class MartingaleDecomposition:
    """Precomputed tables for the increment construction, shared by every N.

    The n-step kernels P^g its terms read come from ``processes.transition_power``.

    ``delta`` = K (phi_sum + r + 1) is both the difference bound delta1 and
    the gap bound delta2 = K N beta + delta1, as the approximation rate beta
    is 0 for every model ``build_decomposition`` accepts.  phi_sum is phi over
    gaps 0..64 plus the certified tail, and the smoothing radius r, the least
    at which the smoothed summands are exact, is the doubling map's table
    level and 0 for every other model.  The calibrated B that scales delta in
    the MGF and Chernoff displays comes from ``montecarlo.calibrate_B``.
    """

    chain: MarkovChainModel
    centered: CenteredObservable
    horizon: int
    tail_error: float
    delta: float
    # per (i, j0): every term table of level i whose first argument ahead is
    # j0, read-only, indexed [n0, gap] (see ``_store``)
    _stores: dict = field(default_factory=dict, repr=False)

    # -- internal tables ---------------------------------------------------

    def _u(self, i: int, nprime: int, j0: int) -> np.ndarray:
        """F_i with arguments j0+1..i integrated forward from the one at
        position j0*nprime; j0 axes (the arguments up to that one)."""
        ahead = path_weights(self.chain, [nprime] * (i - j0), np.ones(self.chain.n_states))
        F = self.centered.components[i - 1]
        return np.einsum(F, range(i), ahead, range(j0 - 1, i), range(j0))

    def _store(self, i: int, j0: int) -> np.ndarray:
        """Every term table of level i whose first argument ahead is j0, indexed [n0, gap].

        A term's table depends on its step only through n0 (n' when j0 < i,
        0 once j0 = i) and the gap from m to its argument j0: it is ``_u``
        with its last axis carried back through P^gap to the state at m.  A
        retained term has i n' <= m + H, and one with j0 < i also
        (i - 1) n' > m, so n' < H; every gap is at most H.  So the shape
        (H or 1, H + 1, S, ..., S) holds every key, and a key beyond it
        raises instead of reading another key's table.  The store is built
        on first use in one stacked product over the repeated (n0, gap)
        grid, after one budget request; that product equals the per-key one
        bit for bit.
        """
        store = self._stores.get((i, j0))
        if store is None:
            H, S = self.horizon, self.chain.n_states
            n0s = range(H if j0 < i else 1)
            keys = len(n0s) * (H + 1)
            # the repeated u and P^gap, and the store
            ensure_within_budget(8 * keys * (2 * S**j0 + S**2), "martingale term table")
            u = np.stack([self._u(i, n, j0) for n in n0s]).repeat(H + 1, axis=0)
            powers = np.stack([transition_power(self.chain, g) for g in range(H + 1)])
            ahead = np.tile(powers, (len(n0s), 1, 1))
            if j0 == 1:
                built = (ahead @ u[..., None])[..., 0]
            else:
                built = np.einsum("k...a,kxa->k...x", u, ahead)
            store = built.reshape(len(n0s), H + 1, *built.shape[1:])
            store.flags.writeable = False
            self._stores[i, j0] = store
        return store

    def _term(self, i: int, s: int, m: int) -> tuple[list[int], np.ndarray]:
        """E[Y_{i,s} | path to m] (= Y_{i,s} itself once s <= m) as positions and a table.

        The term is the table's entry at the states the path holds at the
        positions.  Arguments at or before m are read off the path; when one
        lies ahead, the state at m is read too, and the table is the
        ``_store`` entry at the term's key.  At m = 0 nothing is read and
        the table is the unconditional mean.
        """
        nprime = s // i
        j0 = m // nprime + 1
        known = [j * nprime for j in range(1, min(j0, i + 1))]
        if j0 > i:
            return known, self.centered.components[i - 1]
        n0 = 0 if j0 == i else nprime
        if m == 0:
            return known, self.chain.stationary @ self._u(i, n0, 1)
        return known + [m], self._store(i, j0)[n0, j0 * nprime - m]

    def _ranks(self, i: int, steps: np.ndarray) -> tuple[np.ndarray, ...]:
        """The retained terms of R_{i,m} at ``steps``, as (steps, K) arrays over rank k.

        The rank-k term's time is i n' with n' = floor(m/i) + 1 + k; the
        arrays are n', j0 (its first argument ahead), the gap from m to that
        argument, and whether the term is retained.  R_{i,m} holds
        floor((m mod i + horizon) / i) terms, so only the last rank can be
        missing.
        """
        m = steps[:, None]
        nprime = m // i + 1 + np.arange(-(-self.horizon // i))
        j0 = m // nprime + 1
        return nprime, j0, j0 * nprime - m, i * nprime <= m + self.horizon

    def step(self, i: int, m: int) -> tuple[dict, dict]:
        """Terms of the increment at step m on level i, each as ``_term`` returns it.

        Both dicts are keyed by the term's time s.  The first holds the
        retained predictions whose sum is R_{i,m}; the second holds Y_{i,m}
        when 0 < m and i divides m, else nothing.
        """
        predicted = {s: self._term(i, s, m) for s in self.r_times(i, m)}
        due = {m: self._term(i, m, m)} if m and m % i == 0 else {}
        return predicted, due

    def r_times(self, i: int, m: int) -> range:
        """Times of the retained future terms of R_{i,m}."""
        first = m + 1 + (-(m + 1)) % i
        return range(first, m + self.horizon + 1, i)

    def r_start(self, i: int) -> float:
        """R_{i,0}: the trivially-conditioned sum of unconditional means."""
        return math.fsum(table for _, table in self.step(i, 0)[0].values())


def build_decomposition(
    model: ProcessModel,
    centered: CenteredObservable,
    family: IndexFamily,
) -> MartingaleDecomposition:
    """Assemble the increment machinery for one (model, observable, family) triple.

    Only linear index families are supported (the per-level streams need the
    arithmetic-progression structure).  Every model goes through its exact
    chain (``as_chain``): an i.i.d. law as the chain whose rows are that law,
    the doubling map as its bit-window chain.  The constant ``delta`` is
    K (phi_sum + r + 1), as :class:`MartingaleDecomposition` states.  The horizon
    starts at 8 and doubles until the certified truncation tail is at most
    1e-8; a tail still above that at horizon 4096 raises ConfigError.  No
    term table is built here: each is built on first use.
    """
    if not family.linear or family.arity != centered.arity:
        raise ConfigError("martingale construction needs the linear family of matching arity")
    chain = as_chain(model)
    centered.table_for(chain)  # the component tables index the chain's states
    sups = centered.component_sups

    def tail_at(H: int) -> float:
        if max(sups, default=0.0) <= 0:
            return 0.0
        return max(
            2.0 * sups[i - 1] * (phi_tail(chain, H // i) + phi_tail(chain, H))
            for i in range(1, centered.arity + 1)
        )

    H = 8
    while (tail := tail_at(H)) > _TAIL_TARGET and H < _HORIZON_CAP:
        H *= 2
    if tail > _TAIL_TARGET:
        raise ConfigError(
            f"truncation tail {tail:.3e} above target {_TAIL_TARGET:.1e} "
            f"at horizon cap {_HORIZON_CAP}"
        )

    # phi over gaps 0..64 (phi(0) = 1 by convention) plus the certified rest
    phi_sum = math.fsum(phi_coefficient(chain, n) for n in range(65)) + phi_tail(chain, 64)
    r = model.level if isinstance(model, DoublingMapModel) else 0
    return MartingaleDecomposition(
        chain=chain,
        centered=centered,
        horizon=H,
        tail_error=float(tail),
        delta=centered.base.bound_const * (phi_sum + r + 1.0),
    )


# ---------------------------------------------------------------------------
# path evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PathEvaluation:
    """Per-replicate sums, terminal martingale values, and boundary predictions."""

    sums: np.ndarray  # (B,) S_N
    martingale: np.ndarray  # (B,) terminal M
    r_start: np.ndarray  # (arity,) deterministic R_{i,0}
    r_end: np.ndarray  # (B, arity) R_{i, i*N}

    @property
    def gaps(self) -> np.ndarray:
        return np.abs(self.sums - self.martingale)


_BLOCK = 2**13  # (step, replicate) entries an evaluation block holds per array


def _predictions(
    decomp: MartingaleDecomposition, i: int, by_time: np.ndarray, first: int, last: int
) -> np.ndarray:
    """R_{i,m} for m = first..last on every replicate, shape (last - first + 1, B).

    ``by_time`` holds the states at position p in row p - 1.  The terms are
    added rank by rank from zeros, so each entry is the same left-to-right
    sum in time order as Python's ``sum`` over ``step``.  A rank gathers all
    its (step, replicate) values at once from the level's table stores laid
    end to end: the flat index is the table's offset plus the Horner value
    of the states the term reads, the state at m last.  For fixed k, a run
    of steps whose terms read the same number of earlier arguments (the
    same j0) is one band of rows.
    """
    S = decomp.chain.n_states
    nprime, j0, gap, kept = decomp._ranks(i, np.arange(first, last + 1))
    offset = np.zeros(nprime.shape, dtype=np.intp)
    stores = []
    for j in range(1, i + 1):
        sel = kept & (j0 == j)
        if sel.any():
            store = decomp._store(i, j)
            key = np.ravel_multi_index((nprime[sel] * (j < i), gap[sel]), store.shape[:2])
            offset[sel] = sum(s.size for s in stores) + key * S**j
            stores.append(store.ravel())
    flat = np.concatenate(stores)
    at_m = by_time[first - 1 : last]
    if i == 1:
        # every term reads only the state at m, through the table at gap k + 1
        # whatever m is: sum the tables rank by rank, then look the sum up
        per_state = np.zeros(S)
        for k in range(nprime.shape[1]):
            per_state += flat[offset[0, k] : offset[0, k] + S]
        return per_state[at_m]

    R = np.zeros(at_m.shape)
    for k in range(nprime.shape[1]):
        index = offset[:, k, None] + at_m
        bands = np.flatnonzero(np.diff(j0[:, k])) + 1
        for lo, hi in zip([0, *bands.tolist()], [*bands.tolist(), len(R)]):
            ahead = int(j0[lo, k])
            for j in range(1, ahead):  # argument j, at position j n'
                at_j = by_time[j * nprime[lo:hi, k] - 1]
                index[lo:hi] += np.multiply(at_j, S ** (ahead - j), dtype=np.intp)
        if kept[:, k].all():
            R += flat[index]
        else:
            R[kept[:, k]] += flat[index[kept[:, k]]]
    return R


def evaluate_paths(
    decomp: MartingaleDecomposition, n_terms: int, master_seed: int, n_replicates: int
) -> PathEvaluation:
    """Evaluate S_N, all increments, and the terminal martingale on replicates 0..n-1.

    Replicate j samples every position 1..arity*N from the same
    counter-based stream as plain path sampling.  The sampling engine draws
    only the family's index union, so the sums agree with its sums for the
    same seed only when that union is the dense range 1..arity*N, i.e. at
    arity 1 (at seed 17 they agree at N = 1 and differ at N = 2 and 8 for
    the pair chain and the i.i.d. product).

    Each level goes through its steps in blocks of about 2^13 (step,
    replicate) entries (``_predictions``), and the increments add up level
    by level from zeros, as the per-step loop over ``step`` adds them.
    """
    if n_terms < 1:
        raise ConfigError("need n_terms >= 1")
    if n_replicates < 1:
        raise ConfigError("need n_replicates >= 1")
    L, N, B = decomp.centered.arity, n_terms, n_replicates
    LN = L * N
    # per replicate and step: the increments (8 bytes), the state path and
    # its time-major copy (1 each) and at most 17 of the sums' lookup; on
    # top, six arrays of 8-byte entries per block of steps
    ensure_within_budget(
        block_bytes(B, 27 * LN, LN) + 6 * 8 * _BLOCK, "martingale path block"
    )
    states = sample_state_paths(decomp.chain, np.arange(1, LN + 1), master_seed, B)

    # term n reads positions n, 2n, ..., Ln, i.e. state columns i*n - 1
    positions = np.arange(1, N + 1)[:, None] * np.arange(1, L + 1)[None, :] - 1
    sums = lookup_sums(decomp.centered.table, states, positions)

    by_time = np.ascontiguousarray(states.T)
    increments = np.zeros((B, LN))
    r_start = np.array([decomp.r_start(i) for i in range(1, L + 1)])
    r_end = np.zeros((B, L))
    per_block = max(1, _BLOCK // B)
    for i in range(1, L + 1):
        before = np.full(B, r_start[i - 1])  # R_{i,m-1} at the block's first step m
        for lo in range(0, i * N, per_block):
            hi = min(lo + per_block, i * N)
            R = _predictions(decomp, i, by_time, lo + 1, hi)
            W = np.empty_like(R)
            np.subtract(R[0], before, out=W[0])
            np.subtract(R[1:], R[:-1], out=W[1:])
            # Y_{i,m} at m = i n' in the block, read at positions n', 2n', ..., i n'
            n = np.arange(lo // i + 1, hi // i + 1)
            component = decomp.centered.components[i - 1]
            W[i * n - 1 - lo] += lookup_terms(component, states, positions[n - 1, :i]).T
            increments[:, lo:hi] += W.T
            before = R[-1]
        r_end[:, i - 1] = before
    martingale = increments.sum(axis=1)
    return PathEvaluation(
        sums=sums,
        martingale=martingale,
        r_start=r_start,
        r_end=r_end,
    )


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MartingaleCheck:
    bound: float
    allowance: float
    tol: float
    worst_time: int
    worst_level: int
    terms_checked: int
    passed: bool


def _drift_sups(
    chain: MarkovChainModel,
    m: int,
    positions: list,
    tables: np.ndarray,
    prior_positions: list | None,
    prior_tables: np.ndarray | None,
) -> np.ndarray:
    """Per stacked term, the sup of |E[term | path to m-1] - prior| over the states they read.

    The terms are predictions at step m and the priors the same times'
    predictions at m - 1, stacked along a first axis; they all read the
    positions given (one term's), or positions that land on m and m - 1
    alike, so one labelling serves the stack.  A term entering at the
    horizon has no prior and is bounded by its whole conditional mean.  The
    state at m is integrated out against P[x_{m-1}, .] (the stationary law
    at m = 1) in one einsum, where a position read twice takes one label,
    and the prior is broadcast over the positions it does not read.  The
    stacked einsums equal the per-term ones bit for bit.
    """
    past = sorted({p for p in positions if p != m} | ({m - 1} if m > 1 else set()))
    label = {p: k for k, p in enumerate(past + [m])}
    batch = len(label)
    if m > 1:
        law, law_axes = chain.transition, [label[m - 1], label[m]]
    else:
        law, law_axes = chain.stationary, [label[m]]
    out = [batch, *range(len(past))]
    drift = np.einsum(tables, [batch] + [label[p] for p in positions], law, law_axes, out)
    if prior_positions is not None:
        read = set(prior_positions)
        at_prior = np.einsum(
            prior_tables,
            [batch] + [label[p] for p in prior_positions],
            [batch] + [label[p] for p in sorted(read)],
        )
        shape = [len(tables)] + [chain.n_states if p in read else 1 for p in past]
        drift = drift - at_prior.reshape(shape)
    return np.abs(drift).reshape(len(tables), -1).max(axis=1)


def _drift_bounds(decomp: MartingaleDecomposition, i: int, n_steps: int) -> tuple[list, int]:
    """The per-step offset bounds on level i for m = 1..n_steps, and the terms they cover.

    A step's bound is the fsum of its terms' drift sups, the due term
    Y_{i,m} included; fsum is exact, so the order of the sups does not
    matter.  A drift sup depends only on the term's table key, its prior's
    table key, and which read positions land on m or m - 1, and n' enters
    that pattern only through such a landing.  So each distinct pattern is
    computed once, on its first term, and the patterns that read alike go
    through ``_drift_sups`` together.
    """
    H = decomp.horizon
    # about 14 arrays of 8-byte entries per (step, rank) pair
    ensure_within_budget(112 * n_steps * -(-H // i), "martingale check grid")
    grid, _, _, kept = decomp._ranks(i, np.arange(1, n_steps + 1))
    rows, ranks = np.nonzero(kept)
    # the due term Y_{i,m} takes one more column, at the steps i divides
    due = np.arange(i, n_steps + 1, i)
    m = np.concatenate([rows + 1, due])
    nprime = np.concatenate([grid[rows, ranks], due // i])
    column = np.concatenate([ranks, np.full(due.size, grid.shape[1])])
    j0 = m // nprime + 1
    gap = np.where(j0 > i, 0, j0 * nprime - m)  # a due term reads its table at any gap
    has_prior = i * nprime <= m - 1 + H
    j0_before = np.where(has_prior, (m - 1) // nprime + 1, 0)
    gap_before = np.where(has_prior, j0_before * nprime - (m - 1), 0)
    # the last position a term reads besides m, relative to m, and the prior's
    # relative to m - 1 (-2: none; below -1 it lands on neither)
    last = np.where((j0 > 1) & (j0 <= i), gap - nprime, -2)
    last_before = np.where(j0_before > 1, gap_before - nprime, -2)
    lands = (last >= -1) | (last_before == 0) | (nprime == 1)
    keyed = (j0 < i) | (has_prior & (j0_before < i))
    n_key = np.where(lands | keyed, nprime, 0)
    dims = (i + 2, i + 1, H + 1, H + 1, 2, int(nprime.max()) + 1)
    codes = np.ravel_multi_index((j0, j0_before, gap, gap_before, m == 1, n_key), dims)
    _, first, pattern = np.unique(codes, return_index=True, return_inverse=True)

    # the patterns that read alike: same table shapes, same landings on m and m - 1
    at, n_at, prior_at = m[first], nprime[first], has_prior[first]
    reading = np.stack(
        [a[first] for a in (j0, j0_before, m == 1, last, last_before, nprime == 1)], axis=1
    )
    _, alike = np.unique(np.maximum(reading, -2), axis=0, return_inverse=True)

    def stacked(members, when):
        """The members' terms conditioned at ``when`` (their m or m - 1), tables stacked."""
        if when[0] == 0:
            return np.stack([decomp._term(i, i * n, 0)[1] for n in n_at[members].tolist()])
        n = n_at[members]
        ahead = int(when[0] // n[0]) + 1
        if ahead > i:
            return np.repeat(decomp.centered.components[i - 1][None], len(members), axis=0)
        return decomp._store(i, ahead)[n * (ahead < i), ahead * n - when]

    sups = np.empty(first.size)
    for group in range(alike.max() + 1):
        members = np.flatnonzero(alike == group)
        t, s, prior = int(at[members[0]]), i * int(n_at[members[0]]), prior_at[members[0]]
        sups[members] = _drift_sups(
            decomp.chain,
            t,
            decomp._term(i, s, t)[0],
            stacked(members, at[members]),
            decomp._term(i, s, t - 1)[0] if prior else None,
            stacked(members, at[members] - 1) if prior else None,
        )
    per_step = np.zeros((n_steps, grid.shape[1] + 1))
    per_step[m - 1, column] = sups[pattern]
    return [math.fsum(row) for row in per_step.tolist()], m.size


def check_martingale(decomp: MartingaleDecomposition, n_terms: int) -> MartingaleCheck:
    """Certify E[W_{i,m} | path to m-1] = 0 up to the certified truncation, term by term.

    R_{i,m-1} and the terms of W_{i,m} share their times s, except the one
    entering at the horizon, so the conditional mean of W_{i,m} is the sum
    over s of E[E[Y_{i,s} | path to m] | path to m-1] - E[Y_{i,s} | path to
    m-1] plus the entering term's conditional mean.  The sups of these
    drifts over every state assignment of the positions each reads (at
    most arity + 2) sum to a bound on the offset at every conditioning
    path.  The report carries the largest per-step bound, the step and
    level it occurs at, and the allowance it is compared against: tol =
    1e-8 plus the certified truncation tail.
    """
    if n_terms < 1:
        raise ConfigError("need n_terms >= 1")
    worst = 0.0
    worst_at = (0, 0)
    terms_checked = 0
    for i in range(1, decomp.centered.arity + 1):
        bounds, count = _drift_bounds(decomp, i, i * n_terms)
        terms_checked += count
        for m, bound in enumerate(bounds, start=1):
            if bound > worst:
                worst = bound
                worst_at = (m, i)

    return MartingaleCheck(
        bound=worst,
        allowance=decomp.tail_error,
        tol=_TOL,
        worst_time=worst_at[0],
        worst_level=worst_at[1],
        terms_checked=terms_checked,
        passed=worst <= _TOL + decomp.tail_error,
    )


@dataclass(frozen=True)
class TelescopingReport:
    max_error: float
    tol: float
    passed: bool


def telescoping_check(evaluation: PathEvaluation) -> TelescopingReport:
    """The summed increments must reproduce S_N minus the boundary predictions.

    Collapsing the increment sum stream by stream leaves the per-stream Y
    total plus R at the final stream time minus R at time zero, so
    S_N - M = sum_i (R_{i,0} - R_{i,i*N}) exactly; this checks the
    implementation only for accumulated rounding, scaled by the batch max,
    against tol = 1e-9.
    """
    lhs = evaluation.sums - evaluation.martingale
    rhs = (evaluation.r_start[None, :] - evaluation.r_end).sum(axis=1)
    scale = max(1.0, float(np.max(np.abs(evaluation.sums))))
    err = float(np.max(np.abs(lhs - rhs))) / scale
    return TelescopingReport(max_error=err, tol=_TELESCOPING_TOL, passed=err <= _TELESCOPING_TOL)
