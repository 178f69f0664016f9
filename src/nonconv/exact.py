"""The exact core: joint laws along times, mixing coefficients and the limit variance.

``path_weights`` chains the kernels of ``processes.transition_power`` along
sorted times; exact centering, the mixing oracles and the martingale tables
read it.  Nothing here is sampled, and nothing imports scipy.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import TYPE_CHECKING, Sequence

import numpy as np

from nonconv.errors import ConfigError
from nonconv.processes import FiniteLaw, IIDModel, MarkovChainModel, ProcessModel, transition_power

if TYPE_CHECKING:  # observables imports this module
    from nonconv.observables import CenteredObservable

_ENUM_BUDGET = 1_000_000  # cap on enumerated state tuples for exact oracles
_TV_NOISE = 1e-12  # float matrix powers cannot resolve TV mass below this


# ---------------------------------------------------------------------------
# joint laws along times and the limit variance
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


def _tuples(n_states: int, length: int) -> np.ndarray:
    if n_states**length > _ENUM_BUDGET:
        raise ConfigError(
            f"enumeration of {n_states}^{length} tuples exceeds the {_ENUM_BUDGET} cap"
        )
    grids = np.indices((n_states,) * length)
    return grids.reshape(length, -1).T  # (n_states**length, length)


def _product_weights(law: FiniteLaw, length: int) -> np.ndarray:
    """Product-law weight of every atom tuple of a given length, in table order."""
    return np.prod(law.probs[_tuples(law.atoms.shape[0], length)], axis=1)


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
