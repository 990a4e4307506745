"""The histogram sweep: exact kernel matrices polynomial in N.

For one entry P(x, y) of the iterated-pass kernel, the pass is collapsed to
the counts of the N-1 free particles over S+1 categories: one per last
state for particles off y's prefix, and one for particles on y_1..y_t.  The
pinned particle carries the fixed flag f_t = [x_1..x_t = y_1..y_t].  Free
children are i.i.d. given the counts, so each time is one multinomial over
the categories, whose probabilities are sums of non-negative terms, and

    P(x, y) = E[(c_on G_T(y_T) + f_T G_T(x_T)) / W_T],

with c_on the on-prefix count and W_T the total terminal weight.  The work,
T P^2 H^2 transition entries for P paths and H = C(N-1+S, S) histograms per
time, is known before any array is built
(:func:`pmcmc_lab.exact_oracle.exact_pn_matrix` picks its engine from it).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import OutcomeSpaceTooLarge
from .fk_model import DiscreteFK
from .smc_core import _path_rows, _pin_schedule

# A histogram block holds whole kernel rows, as many as keep its largest
# temporary near this many floats (at least one row).  On the benchmark's
# matrices 2^15 (256 KB) kept peak resident memory at the multiset sweep's
# and ran as fast as 2^16, which added about 1 MB; 2^14 was no faster.
_HISTOGRAM_BLOCK = 2**15


def _histogram_work(S: int, N: int, T: int, n_paths: int) -> int:
    """Transition entries of a histogram sweep over n_paths paths: T P^2 H^2,
    with H = C(N-1+S, S) histograms of the free particles per time."""
    H = math.comb(max(N, 1) - 1 + S, S)
    return T * n_paths**2 * H**2


def histogram_sweep(model: DiscreteFK, N: int, paths, guard: int = 10**7) -> np.ndarray:
    """The kernel entries P(x, y) for x, y in ``paths``, as a (P, P) array;
    rows sum to one when ``paths`` holds every positive-mass path.

    Past ``guard`` transition entries it raises OutcomeSpaceTooLarge before
    any array is built.  The paths are checked as one batched pin, as
    :func:`pmcmc_lab.exact_oracle.multiset_sweep` checks them.
    """
    paths = [tuple(x) for x in paths]
    T, S, P = model.T, model.n_states, len(paths)
    if P:
        xs = _path_rows(paths, T)
        _pin_schedule(model.tables, [((0,) * T, xs.T)], N)
    work = _histogram_work(S, N, T, P)
    if work > guard:
        raise OutcomeSpaceTooLarge(
            f"histogram sweep needs {work} transition entries, past the guard of {guard}"
        )
    if N == 1 or not P:
        return np.eye(P)
    n = N - 1
    counts = np.array(
        [np.bincount(c, minlength=S + 1) for c in itertools.combinations_with_replacement(range(S + 1), n)]
    )
    coef = np.array([math.exp(math.lgamma(N) - sum(math.lgamma(c + 1) for c in row)) for row in counts])
    H = len(counts)
    # The largest temporaries per pair: the (H, H) transition entries and
    # the (H, S+1, N) powers of the category probabilities.
    rows = max(1, _HISTOGRAM_BLOCK // (P * H * max(H, (S + 1) * N)))
    K = np.empty((P, P))
    for lo in range(0, P, rows):
        hi = min(lo + rows, P)
        x = np.repeat(xs[lo:hi], P, axis=0)
        y = np.tile(xs, (hi - lo, 1))
        K[lo:hi] = _histogram_block(model, counts, coef, x, y).reshape(hi - lo, P)
    return K


def _multinomial(q, counts, coef):
    """Multinomial probabilities of every histogram: q (B, H, S+1) category
    probabilities per current histogram -> (B, H, H'), with 0**0 = 1."""
    powers = q[..., None] ** np.arange(counts[0].sum() + 1)
    out = coef * powers[:, :, 0, counts[:, 0]]
    for k in range(1, counts.shape[1]):
        out *= powers[:, :, k, counts[:, k]]
    return out


def _histogram_block(model: DiscreteFK, counts, coef, x, y) -> np.ndarray:
    """P(x_b, y_b) for B pairs of paths x, y (B, T)."""
    T, S = model.T, model.n_states
    B, H = len(x), len(counts)
    b = np.arange(B)
    # Time 1: a free particle is on y's prefix when it draws y_1.
    q = np.empty((B, 1, S + 1))
    q[:, 0, :S] = model.m1
    q[b, 0, y[:, 0]] = 0.0
    q[:, 0, S] = model.m1[y[:, 0]]
    law = _multinomial(q, counts, coef)[:, 0, :]
    flag = x[:, 0] == y[:, 0]
    for t in range(1, T):
        g, M = model.potentials[t - 1], model.transitions[t - 1]
        total, on_prefix = _histogram_weights(g, counts, x[:, t - 1], y[:, t - 1], flag)
        leave = M[y[:, t - 1]].copy()
        leave[b, y[:, t]] = 0.0
        # Off-prefix children: of the free off-prefix particles, of the pin
        # while it is off the prefix, and of on-prefix parents leaving y.
        q = np.empty((B, H, S + 1))
        q[:, :, :S] = (counts[:, :S] * g) @ M
        q[:, :, :S] += ((~flag) * g[x[:, t - 1]])[:, None, None] * M[x[:, t - 1]][:, None, :]
        q[:, :, :S] += on_prefix[:, :, None] * leave[:, None, :]
        q[:, :, S] = on_prefix * M[y[:, t - 1], y[:, t]][:, None]
        q /= total[:, :, None]
        law = np.einsum("bh,bhk->bk", law, _multinomial(q, counts, coef))
        flag &= x[:, t] == y[:, t]
    total, on_prefix = _histogram_weights(model.potentials[T - 1], counts, x[:, -1], y[:, -1], flag)
    return np.einsum("bh,bh->b", law, on_prefix / total)


def _histogram_weights(g, counts, x_t, y_t, flag):
    """Total weight and on-prefix weight, (B, H) each, of every histogram at
    one time.  The on-prefix weight is that of the free on-prefix particles
    plus the pin's while it is on the prefix; the total adds the free
    off-prefix particles and the pin, so it is at least the pin's weight,
    which the pin check made positive."""
    S = len(g)
    gx, free_on = g[x_t][:, None], counts[:, S] * g[y_t][:, None]
    return gx + counts[:, :S] @ g + free_on, free_on + flag[:, None] * gx
