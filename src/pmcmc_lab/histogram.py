"""The count engine: exact kernel entries polynomial in N, without lineages.

For one entry P(x, y) of the iterated-pass kernel, the pass is collapsed to
the counts of the n = N-1 free particles over categories: one per state of
positive mass at that time (the sparse support R_t, below), for particles
off y's prefix, and one for particles on y_1..y_t.  At t=1 the on-prefix
category is the state y_1 itself, so the time-1 law is one multinomial over
the support of m1, the same for every y.  The pinned particle carries the
flag f_t = [x_1..x_t = y_1..y_t].  Free children are i.i.d. given the
counts, so each time t < T is one multinomial over the categories.

The last time is summed by weight sums.  Given the counts at T-1, a free
child's terminal weight G_T has one law over the distinct values of G_T,
and with W_k the sum of k i.i.d. such weights

    P(x, y) = E[n q_on G_T(y_T) E[1/(G_T(x_T) + G_T(y_T) + W_{n-1})]
                + f_T G_T(x_T) E[1/(G_T(x_T) + W_n)]],

with q_on the chance that a child lands on y_1..y_T.  The retained share,
the chance that the terminal draw picks the pinned particle, is
E[G_T(x_T) E[1/(G_T(x_T) + W_n)]].  The law of W_k lives on the distinct
sums of k weights, one grid for every pair, and is a convolution.

Up to the terminal draw the pass sees a pair only through its prefix pair
(x_1..x_{T-1}, y_1..y_{T-1}), so the engine runs once per distinct prefix
pair.  Its work is counted before any array is built (:class:`_Plan`, the
one object of an engine call), in law entries:

    U sum_{t=2}^{T-1} H_{t-1} H_t + H_{T-1} (U sum_{k<n} G_k + U_x G_n)
      + D sum_{k<=n} G_{k-1} + B G_{n-1} + Q G_n,

for U prefix pairs, U_x of them with equal halves (the pins' shares), B
pairs, Q shares, H_1 = C(n-1+|R_1|, n) and H_t = C(n+|R_t|, n) histograms,
D distinct terminal weights and G_k distinct sums of k of them (G_0 = 1,
H_0 = 1).  :func:`pmcmc_lab.exact_oracle.exact_pn_matrix` picks its engine
from the same count.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import OutcomeSpaceTooLarge
from .fk_model import DiscreteFK
from .smc_core import _check_paths, _checked_pins, _path_rows

# The default work bound of every exact engine, each in its own unit (law
# entries here, outcome-tree and slot-sweep entries, multinomial terms),
# and the guard that the oracle and sticky kinds write to their manifests.
_GUARD = 10**7
# A block holds whole prefix pairs, as many as keep its largest temporary
# near this many floats (256 KB; at least one pair), so that the engine's
# temporaries stay small beside the process's resident memory.
_HISTOGRAM_BLOCK = 2**15


class _Layout:
    """The distinct prefix pairs of a set of (x, y) pairs, the one each pair
    reads, and the one with equal halves each pin's share reads.

    With ``ys`` None the pairs are every (x, y) in ``xs`` squared (a kernel
    matrix), else (xs[b], ys[b]).  Prefix pairs are found without building
    an array over the pairs of a matrix.
    """

    def __init__(self, xs: np.ndarray, ys):
        T = xs.shape[1]
        self.xs, self.matrix = xs, ys is None
        if self.matrix:
            self.prefixes, self.pin_prefix = _distinct_rows(xs[:, : T - 1])
            p = len(self.prefixes)
            self.n_prefix_pairs, self.n_shared = p * p, p
            self.n_pairs, self.n_shares = len(xs) ** 2, len(xs)
        else:
            pairs = np.hstack([xs[:, : T - 1], ys[:, : T - 1]])
            own = np.hstack([xs[:, : T - 1], xs[:, : T - 1]])
            keys, inv = _distinct_rows(np.vstack([pairs, own]))
            self.keys, self.pair_prefix = keys, inv[: len(xs)]
            shared = np.flatnonzero(np.all(keys[:, : T - 1] == keys[:, T - 1 :], axis=1))
            self.share_row = np.full(len(keys), -1)
            self.share_row[shared] = np.arange(len(shared))
            self.pin_prefix = self.share_row[inv[len(xs) :]]
            self.n_prefix_pairs, self.n_shared = len(keys), len(shared)
            self.n_pairs = self.n_shares = len(xs)

    def block(self, lo: int, hi: int):
        """Prefix pairs lo..hi-1 as (x halves, y halves, rows of shares)."""
        T = self.xs.shape[1]
        u = np.arange(lo, hi)
        if self.matrix:
            p = len(self.prefixes)
            i, j = u // p, u % p
            return self.prefixes[i], self.prefixes[j], np.where(i == j, i, -1)
        return self.keys[u, : T - 1], self.keys[u, T - 1 :], self.share_row[u]


def _distinct_rows(rows: np.ndarray):
    """The distinct rows of an integer array in first-seen order, and the
    index of each row among them."""
    index: dict = {}
    inv = np.array([index.setdefault(row, len(index)) for row in map(tuple, rows.tolist())])
    return np.array(list(index), dtype=int).reshape(len(index), rows.shape[1]), inv


class _Plan:
    """One count-engine call on the pairs of ``xs``: every (x, y) in xs^2
    when ``ys`` is None (a kernel matrix), else (xs[b], ys[b]).

    It checks the pins xs as one batched pin and the ys against the
    alphabet, lays out the prefix pairs and counts the work before any
    array is built.  Counting stops once the work passes ``guard``; the
    plan is then not complete, and :meth:`matrix` and :meth:`entries`
    refuse it.
    """

    def __init__(self, model: DiscreteFK, N: int, xs, ys=None, guard=math.inf):
        T, n = model.T, N - 1
        self.model, self.n, self.guard = model, n, guard
        self.ys = None if ys is None else _path_rows(ys, T)
        self.xs = _checked_pins(model, N, xs)
        if self.ys is not None and len(self.xs):
            _check_paths(self.ys.T, T, model.n_states)
        self.work, self.complete, self.layout = 0, True, None
        if n < 1 or not len(self.xs):
            return
        self.layout = layout = _Layout(self.xs, self.ys)
        self.supports = _supports(model, self.xs)
        # Histograms at times 1..T-1.  A one-time model reads none (its
        # children draw from m1): one empty histogram stands before time 1.
        self.sizes = [math.comb(n - 1 + len(self.supports[0]), n)]
        self.sizes += [math.comb(n + len(r), n) for r in self.supports[1 : T - 1]]
        U, last = layout.n_prefix_pairs, self.sizes[-1] if T > 1 else 1
        self.work = U * sum(a * b for a, b in zip(self.sizes, self.sizes[1 : T - 1]))
        self.complete = False
        if self.work > guard:
            return
        R_T = self.supports[T - 1]
        # Distinct values by a set: np.unique would load numpy.ma (0.75 MB).
        self.values = np.array(sorted(set(model.potentials[T - 1][R_T].tolist())))
        # Grid k: the distinct sums of k terminal weights; the (sum of k-1,
        # weight) candidates in sorted order, as the two indices that make
        # each; and the start of each run of equal candidates.
        self.grids = [(np.zeros(1), None, None, None)]
        for k in range(1, n + 1):
            sums = self.grids[-1][0]
            self.work += len(sums) * len(self.values)
            if self.work > guard:
                return
            cand = (sums[:, None] + self.values).ravel()
            order = np.argsort(cand, kind="stable")
            ordered = cand[order]
            starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
            self.grids.append((ordered[starts], order // len(self.values), order % len(self.values), starts))
            self.work += last * len(starts) * (U if k < n else layout.n_shared)
            if self.work > guard:
                return
        self.work += layout.n_pairs * len(self.grids[n - 1][0]) + layout.n_shares * len(self.grids[n][0])
        self.complete = self.work <= guard

    def _refuse_incomplete(self) -> None:
        if not self.complete:
            raise OutcomeSpaceTooLarge(
                f"count engine passes the guard of {self.guard} law entries (counted {self.work})"
            )

    def matrix(self) -> np.ndarray:
        """P(x, y) for x, y in xs, as a (P, P) array (the identity at N = 1)."""
        self._refuse_incomplete()
        xs, layout, P = self.xs, self.layout, len(self.xs)
        if layout is None:
            return np.eye(P)
        A1, A2 = _prefix_sums(self)
        p = len(layout.prefixes)
        K = np.empty((P, P))
        rows = max(1, _HISTOGRAM_BLOCK // (P * A1.shape[1]))
        for lo in range(0, P, rows):
            u = layout.pin_prefix[lo : lo + rows, None] * p + layout.pin_prefix[None, :]
            K[lo : lo + rows] = _free_part(self, A1[u], xs[lo : lo + rows, None], xs[None])
        K[np.diag_indices(P)] += _shares(self, A2[layout.pin_prefix], xs)
        return K

    def entries(self):
        """(P(xs[b], ys[b]), retained share of xs[b]) per pair, as two arrays."""
        self._refuse_incomplete()
        xs, ys, layout = self.xs, self.ys, self.layout
        if layout is None:
            same = np.all(xs == ys, axis=1) if len(xs) else np.zeros(0, bool)
            return same.astype(float), np.ones(len(xs))
        A1, A2 = _prefix_sums(self)
        shares = _shares(self, A2[layout.pin_prefix], xs)
        return _free_part(self, A1[layout.pair_prefix], xs, ys) + np.all(xs == ys, axis=1) * shares, shares


def _supports(model: DiscreteFK, xs: np.ndarray) -> list:
    """R_t for t = 1..T: the states a free particle can hold.  R_1 is the
    support of m1; R_t the successors of the positive-weight states of
    R_{t-1} and of the pins' states at t-1 (a free child may descend from
    the pin, whose path need not have positive mass)."""
    out = [np.flatnonzero(model.m1)]
    for t in range(1, model.T):
        parents = np.zeros(model.n_states, dtype=bool)
        parents[out[-1]] = parents[xs[:, t - 1]] = True
        parents &= model.potentials[t - 1] > 0
        out.append(np.flatnonzero((model.transitions[t - 1][parents] > 0).any(axis=0)))
    return out


def _histograms(n: int, n_categories: int):
    """Every histogram of n particles over the categories, (H, C), with its
    multinomial coefficient n! / prod c! (from lgamma: n! passes int64)."""
    picks = np.array(list(itertools.combinations_with_replacement(range(n_categories), n)), dtype=int)
    H = len(picks)
    cells = (np.arange(H)[:, None] * n_categories + picks).ravel()
    counts = np.bincount(cells, minlength=H * n_categories).reshape(H, n_categories)
    log_fact = np.array([math.lgamma(c + 1) for c in range(n + 1)])
    return counts, np.exp(log_fact[n] - log_fact[counts].sum(axis=1))


def histogram_sweep(model: DiscreteFK, N: int, paths, guard: int = _GUARD) -> np.ndarray:
    """The kernel entries P(x, y) for x, y in ``paths``, as a (P, P) array;
    rows sum to one when ``paths`` holds every positive-mass path.

    Past ``guard`` law entries it raises OutcomeSpaceTooLarge before any
    array is built.  The paths are checked as one batched pin, as
    :func:`pmcmc_lab.exact_oracle.multiset_sweep` checks them.
    """
    return _Plan(model, N, [tuple(x) for x in paths], guard=guard).matrix()


def histogram_entries(model: DiscreteFK, N: int, pairs, guard: int = _GUARD):
    """(P(x_b, y_b), retained share of x_b) for each pair (x_b, y_b), as two
    arrays; the share is the chance that the terminal draw picks the pinned
    particle, E[G_T(x_T) / sum_j G_T(Z_T^j)].

    Past ``guard`` law entries it raises OutcomeSpaceTooLarge before any
    array is built; the pins x_b are checked as one batched pin.
    """
    pairs = [(tuple(x), tuple(y)) for x, y in pairs]
    return _Plan(model, N, [x for x, _ in pairs], [y for _, y in pairs], guard).entries()


def _free_part(plan: _Plan, A1, xs, ys) -> np.ndarray:
    """n q_on G_T(y_T) E[1/(G_T(x_T) + G_T(y_T) + W_{n-1})], the chance that
    a free particle on y is drawn, from the prefix pairs' sums A1 (..., G)
    and paths xs, ys (..., T) broadcast to A1's leading shape.  q_on is the
    prefix sums' on-prefix share times the chance to move on to y_T."""
    model = plan.model
    g = model.potentials[model.T - 1]
    gx, gy = g[xs[..., -1]], g[ys[..., -1]]
    if model.T == 1:
        land = model.m1[ys[..., 0]]
    else:
        land = model.transitions[model.T - 2][ys[..., -2], ys[..., -1]]
    inv = 1.0 / ((gx + gy)[..., None] + plan.grids[plan.n - 1][0])
    return plan.n * gy * land * np.einsum("...g,...g->...", A1, inv)


def _shares(plan: _Plan, A2, xs) -> np.ndarray:
    """G_T(x_T) E[1/(G_T(x_T) + W_n)] per pin from its prefix's sums A2."""
    gx = plan.model.potentials[plan.model.T - 1][xs[:, -1]]
    return gx * np.einsum("bg,bg->b", A2, 1.0 / (gx[:, None] + plan.grids[plan.n][0]))


def _prefix_sums(plan: _Plan):
    """Per prefix pair, the law of W_{n-1} weighted by the on-prefix weight
    share at T-1, (U, G_{n-1}); per prefix pair with equal halves, the law
    of W_n, (U_x, G_n)."""
    model, layout = plan.model, plan.layout
    T, n, N = model.T, plan.n, plan.n + 1
    U = layout.n_prefix_pairs
    A1 = np.empty((U, len(plan.grids[n - 1][0])))
    A2 = np.empty((layout.n_shared, len(plan.grids[n][0])))
    if T == 1:
        r = _by_value(plan, model.m1)[None, None, :]
        A1[:], A2[:] = _weight_sums(np.ones((1, 1)), np.ones((1, 1)), r, plan, np.array([True]))
        return A1, A2
    counts1, coef1 = _histograms(n, len(plan.supports[0]))
    law1 = _multinomial(model.m1[plan.supports[0]][None, None, :], counts1, coef1)[0, 0]
    steps = [_histograms(n, len(r) + 1) for r in plan.supports[1 : T - 1]]
    # The largest temporaries per prefix pair: the (H, H') transition entries
    # and (H, C', N) powers of a step, and at T-1 the (H, S) parent weights
    # and the (H, G_{k-1} D) products merged onto grid k < n.
    widest = max([model.n_states] + [len(s) * len(plan.values) for s, *_ in plan.grids[: n - 1]])
    per_pair = max([plan.sizes[-1] * widest] + [
        a * max(b, (len(R) + 1) * N)
        for a, b, R in zip(plan.sizes, plan.sizes[1:], plan.supports[1 : T - 1])
    ])
    rows = max(1, _HISTOGRAM_BLOCK // per_pair)
    for lo in range(0, U, rows):
        hi = min(lo + rows, U)
        bx, by, share_row = layout.block(lo, hi)
        law, lead, r = _terminal_law(plan, bx, by, law1, counts1, steps)
        a1, a2 = _weight_sums(law, lead, r, plan, share_row >= 0)
        A1[lo:hi] = a1
        A2[share_row[share_row >= 0]] = a2
    return A1, A2


def _terminal_law(plan: _Plan, bx, by, law1, counts1, steps):
    """For B prefix pairs: the law of the histograms at T-1 (B, H), its
    on-prefix weight share (B, H), and a child's terminal weight law over
    the distinct values (B, H, D)."""
    model = plan.model
    T, S = model.T, model.n_states
    B, b = len(bx), np.arange(len(bx))
    # Time 1: the counts over R_1 are the state counts; the on-prefix count
    # is y_1's, and the off-prefix counts are the others.
    full = np.zeros((len(counts1), S))
    full[:, plan.supports[0]] = counts1
    on = full[:, by[:, 0]].T
    off = full * (np.arange(S) != by[:, 0, None])[:, None, :]
    law = np.broadcast_to(law1, (B, len(law1)))
    flag = bx[:, 0] == by[:, 0]
    for t in range(1, T - 1):
        g, M, R = model.potentials[t - 1], model.transitions[t - 1], plan.supports[t]
        xp, yp, yc = bx[:, t - 1], by[:, t - 1], by[:, t]
        off_w, on_free, gx = off * g, on * g[yp][:, None], g[xp]
        on_w = on_free + (flag * gx)[:, None]
        total = off_w.sum(axis=-1) + on_free + gx[:, None]
        leave = M[yp].copy()
        leave[b, yc] = 0.0
        # Off-prefix children: of the free off-prefix particles, of the pin
        # while it is off the prefix, and of on-prefix parents leaving y.
        q = np.empty((B, law.shape[1], len(R) + 1))
        q[..., :-1] = off_w @ M[:, R]
        q[..., :-1] += ((~flag) * gx)[:, None, None] * M[xp][:, None, R]
        q[..., :-1] += on_w[..., None] * leave[:, None, R]
        q[..., -1] = on_w * M[yp, yc][:, None]
        q /= total[..., None]
        counts, coef = steps[t - 1]
        law = np.einsum("bh,bhk->bk", law, _multinomial(q, counts, coef))
        flag &= bx[:, t] == by[:, t]
        off = np.zeros((1, len(counts), S))
        off[0][:, R] = counts[:, :-1]
        on = np.broadcast_to(counts[:, -1], (B, len(counts)))
    g = model.potentials[T - 2]
    xp, yp = bx[:, -1], by[:, -1]
    a = np.multiply(off, g, out=np.empty((B, law.shape[1], S)))
    on_free = on * g[yp][:, None]
    a[b, :, yp] += on_free
    a[b, :, xp] += g[xp][:, None]
    total = a.sum(axis=-1)
    lead = law * (on_free + (flag * g[xp])[:, None]) / total
    r = _by_value(plan, a, model.transitions[T - 2]) / total[..., None]
    return law, lead, r


def _by_value(plan: _Plan, weights, M=None):
    """Child mass by distinct terminal weight: ``weights`` over the parents'
    states moved by M (or, at T=1, the initial law), summed per value."""
    model = plan.model
    g, R = model.potentials[model.T - 1], plan.supports[model.T - 1]
    onto = np.zeros((model.n_states, len(plan.values)))
    onto[R, np.searchsorted(plan.values, g[R])] = 1.0
    return weights @ (onto if M is None else M @ onto)


def _weight_sums(law, lead, r, plan: _Plan, shared):
    """Summed over the histograms: the law of W_{n-1} weighted by ``lead``,
    (B, G_{n-1}), and for the rows in ``shared`` the law of W_n weighted by
    ``law``, (B_x, G_n).  W_n's law is merged straight from the (W_{n-1},
    last weight) products, so no (B, H, G_n) array is built."""
    L = np.ones(r.shape[:-1] + (1,))
    for _, i, d, starts in plan.grids[1 : plan.n]:
        L = np.add.reduceat(np.take(L, i, axis=-1) * np.take(r, d, axis=-1), starts, axis=-1)
    a1 = np.einsum("bh,bhg->bg", lead, L)
    _, i, d, starts = plan.grids[plan.n]
    pairs = np.matmul((law[shared, :, None] * L[shared]).transpose(0, 2, 1), r[shared])
    return a1, np.add.reduceat(pairs[:, i, d], starts, axis=-1)


def _multinomial(q, counts, coef):
    """Multinomial probabilities of every histogram: q (B, H, C) category
    probabilities per current histogram -> (B, H, H'), with 0**0 = 1."""
    powers = q[..., None] ** np.arange(counts[0].sum() + 1)
    out = coef * powers[:, :, 0, counts[:, 0]]
    for k in range(1, counts.shape[1]):
        out *= powers[:, :, k, counts[:, k]]
    return out
