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
has arguments at positions j*(s/i); the positions at or before the
conditioning time are read off the path, the rest are integrated out with
the chain's path weights (``processes.path_weights``).  Each term is one
lookup in a small table over the positions it reads, so path batches
evaluate vectorized, and the martingale check certifies one term at a
time: a term's one-step drift is its table contracted with one transition
row, minus its table one step earlier.

The truncation certificate: |E[Y_{i,s} | path to m]| <= 2 sup|F_i| phi(g)
with g = s - max(m, (i-1)s/i), because the conditional expectation given
everything before the last argument is a plain mixing bound against the
vanishing marginal mean.  Summing the dropped terms s > m + horizon and
splitting the min over the two gap shapes bounds the tail by
2 sup|F_i| (phi_tail(floor(horizon/i)) + phi_tail(horizon)), uniformly in m,
where phi_tail is the Dobrushin geometric certificate of
``processes.phi_tail``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from nonconv.errors import ConfigError
from nonconv.indexing import IndexFamily
from nonconv.observables import CenteredObservable, lookup_sums
from nonconv.processes import (
    DoublingMapModel,
    MarkovChainModel,
    ProcessModel,
    as_chain,
    path_weights,
    phi_coefficient,
    phi_tail,
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
    _u_cache: dict = field(default_factory=dict, repr=False)

    # -- internal tables ---------------------------------------------------

    def _u(self, i: int, nprime: int, j0: int) -> np.ndarray:
        """F_i with arguments j0+1..i integrated forward from the one at
        position j0*nprime; j0 axes (the arguments up to that one)."""
        key = (i, nprime, j0)
        got = self._u_cache.get(key)
        if got is None:
            ahead = path_weights(self.chain, [nprime] * (i - j0), np.ones(self.chain.n_states))
            F = self.centered.components[i - 1]
            got = np.einsum(F, range(i), ahead, range(j0 - 1, i), range(j0))
            self._u_cache[key] = got
        return got

    def _term(self, i: int, s: int, m: int) -> tuple[list[int], np.ndarray]:
        """E[Y_{i,s} | path to m] (= Y_{i,s} itself once s <= m) as positions and a table.

        The term is the table's entry at the states the path holds at the
        positions.  Arguments at or before m are read off the path; when one
        lies ahead, the state at m is read too, the first argument ahead is
        reached from it through P^gap and the later ones are integrated out
        by ``_u``.  At m = 0 nothing is read and the table is the
        unconditional mean.
        """
        nprime = s // i
        j0 = m // nprime + 1
        known = [j * nprime for j in range(1, min(j0, i + 1))]
        if j0 > i:
            return known, self.centered.components[i - 1]
        u = self._u(i, nprime, j0)
        if m == 0:
            return known, self.chain.stationary @ u
        ahead = transition_power(self.chain, j0 * nprime - m)
        table = ahead @ u if j0 == 1 else np.einsum("...a,xa->...x", u, ahead)
        return known + [m], table

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


def _lookup(terms: dict, getcol) -> np.ndarray | float:
    """Sum of the terms' table entries at the states ``getcol(p)`` returns for their positions."""
    return sum(table[tuple(getcol(p) for p in positions)] for positions, table in terms.values())


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
    1e-8; a tail still above that at horizon 4096 raises ConfigError.
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
    """
    if n_terms < 1:
        raise ConfigError("need n_terms >= 1")
    L, N = decomp.centered.arity, n_terms
    LN = L * N
    states = sample_state_paths(decomp.chain, np.arange(1, LN + 1), master_seed, n_replicates)
    getcol = lambda p: states[:, p - 1]
    B = n_replicates

    # term n reads positions n, 2n, ..., Ln, i.e. state columns i*n - 1
    positions = np.arange(1, N + 1)[:, None] * np.arange(1, L + 1)[None, :] - 1
    sums = lookup_sums(decomp.centered.table, states, positions)

    increments = np.zeros((B, LN))
    r_start = np.array([decomp.r_start(i) for i in range(1, L + 1)])
    r_prev = [np.full(B, r_start[i - 1]) for i in range(1, L + 1)]
    r_end = np.zeros((B, L))
    for m in range(1, LN + 1):
        for i in range(1, L + 1):
            if m > i * N:
                continue
            predicted, due = decomp.step(i, m)
            r_m = _lookup(predicted, getcol)
            increments[:, m - 1] += r_m - r_prev[i - 1] + _lookup(due, getcol)
            r_prev[i - 1] = r_m
            if m == i * N:
                r_end[:, i - 1] = r_m
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


def _drift_sup(chain: MarkovChainModel, m: int, term: tuple, prior: tuple | None) -> float:
    """sup of |E[term | path to m-1] - prior| over the states at the positions they read.

    ``term`` is a prediction at step m and ``prior`` the same time's
    prediction at m - 1, both as ``_term`` returns them; the term entering
    at the horizon has no prior and is bounded by its whole conditional
    mean.  The state at m is integrated out against P[x_{m-1}, .] (the
    stationary law at m = 1) in one einsum, where a position read twice
    takes one label, and the prior is broadcast over the positions it
    does not read.
    """
    positions, table = term
    past = sorted({p for p in positions if p != m} | ({m - 1} if m > 1 else set()))
    label = {p: k for k, p in enumerate(past + [m])}
    if m > 1:
        law, law_axes = chain.transition, [label[m - 1], label[m]]
    else:
        law, law_axes = chain.stationary, [label[m]]
    drift = np.einsum(table, [label[p] for p in positions], law, law_axes, list(range(len(past))))
    if prior is not None:
        prior_positions, prior_table = prior
        read = set(prior_positions)
        at_prior = np.einsum(
            prior_table, [label[p] for p in prior_positions], [label[p] for p in sorted(read)]
        )
        drift = drift - at_prior.reshape([chain.n_states if p in read else 1 for p in past])
    return float(np.max(np.abs(drift)))


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
        before, _ = decomp.step(i, 0)
        for m in range(1, i * n_terms + 1):
            predicted, due = decomp.step(i, m)
            terms = {**due, **predicted}
            bound = math.fsum(
                _drift_sup(decomp.chain, m, term, before.get(s)) for s, term in terms.items()
            )
            terms_checked += len(terms)
            if bound > worst:
                worst = bound
                worst_at = (m, i)
            before = predicted

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
