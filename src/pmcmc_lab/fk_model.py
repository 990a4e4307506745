"""Reweighted Markov-chain models on finite alphabets.

A model couples a time-inhomogeneous Markov chain (initial law ``m1`` and
one transition matrix per later time) with one non-negative weight vector
per time.  The normalised law of the weighted paths is the sampling target;
the total weighted path mass is the model's normalising constant.

Conventions
-----------
* Time indices are 1-based in every public signature: potentials live at
  times ``1..T`` and transition matrices carry the chain into times ``2..T``.
  Storage is 0-based (``potentials[t-1]``, ``transitions[t-2]``); this is the
  single place where the conversion is defined.
* States are 0-based indices into ``alphabet``.  The alphabet entries are
  labels only; all computations use indices.
* Weighted two-time mass functions use the convention that the weight at
  the *left* end is included and the right end is open, with a unit weight
  at the virtual time ``T+1``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NegativePotential,
    NonStochasticRow,
    PathSpaceTooLarge,
    ZeroPotential,
)
from .smc_core import PassTables, categorical_cdf

_ROW_TOL = 1e-9
_SUPPORT_TOL = 1e-15


@dataclass(frozen=True)
class DiscreteFK:
    """A validated finite model; immutable and safe to share across threads.

    :func:`build_discrete_model` stores read-only copies of the tables, so
    the cumulative draw tables cached in :attr:`tables` cannot go stale.
    """

    alphabet: tuple
    m1: np.ndarray
    transitions: tuple      # transitions[t-2] is the matrix into time t
    potentials: tuple       # potentials[t-1] is the weight vector at time t

    @property
    def T(self) -> int:
        return len(self.potentials)

    @property
    def n_states(self) -> int:
        return len(self.alphabet)

    def transition(self, t: int) -> np.ndarray:
        """Transition matrix M_t into time t, for 2 <= t <= T."""
        if not 2 <= t <= self.T:
            raise IndexOutOfRange(f"transition time {t} outside [2, {self.T}]")
        return self.transitions[t - 2]

    def potential_vector(self, t: int) -> np.ndarray:
        if not 1 <= t <= self.T:
            raise IndexOutOfRange(f"potential time {t} outside [1, {self.T}]")
        return self.potentials[t - 1]

    def potential(self, t: int, state: int) -> float:
        return float(self.potential_vector(t)[state])

    @cached_property
    def tables(self) -> PassTables:
        """Cumulative initial and transition laws and stacked potentials,
        built on first use: what every particle pass over this model reads."""
        return PassTables.build((self,))

    # -- generative interface -------------------------------------------------

    def sample_initial(self, rng: np.random.Generator) -> int:
        return int(categorical_cdf(self.tables.m1_cdf, rng.random((1, 1)))[0, 0])

    def sample_transition(self, t: int, state: int, rng: np.random.Generator) -> int:
        self.transition(t)  # raises IndexOutOfRange for t outside [2, T]
        cdf = self.tables.move_cdf[t - 2][state]
        return int(categorical_cdf(cdf[None], rng.random((1, 1)))[0, 0])

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "T": self.T,
            "alphabet": list(self.alphabet),
            "m1": self.m1.tolist(),
            "m": [m.tolist() for m in self.transitions],
            "g": [g.tolist() for g in self.potentials],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())


def build_discrete_model(alphabet, m1, m, g, T: int | None = None) -> DiscreteFK:
    """Validate raw tables and assemble a model.

    ``m`` is a list of T-1 transition matrices, ``g`` a list of T weight
    vectors.  Rejects dimension mismatches, rows that do not sum to one
    (beyond 1e-9) and negative weights.  The model keeps read-only copies:
    a later edit of the caller's arrays does not reach it.
    """
    alphabet = tuple(alphabet)
    S = len(alphabet)
    m1 = _frozen(m1)
    ms = tuple(_frozen(mat) for mat in m)
    gs = tuple(_frozen(vec) for vec in g)

    horizon = len(gs)
    if T is not None and T != horizon:
        raise DimensionMismatch(f"declared T={T} but {horizon} potentials given")
    if horizon < 1:
        raise DimensionMismatch("at least one potential vector is required")
    if len(ms) != horizon - 1:
        raise DimensionMismatch(f"expected {horizon - 1} transition matrices, got {len(ms)}")
    if m1.shape != (S,):
        raise DimensionMismatch(f"m1 has shape {m1.shape}, expected ({S},)")
    for t, mat in enumerate(ms, start=2):
        if mat.shape != (S, S):
            raise DimensionMismatch(f"transition into time {t} has shape {mat.shape}")
    for t, vec in enumerate(gs, start=1):
        if vec.shape != (S,):
            raise DimensionMismatch(f"potential at time {t} has shape {vec.shape}")

    _check_prob_vector(m1, "m1")
    for t, mat in enumerate(ms, start=2):
        _check_prob_vector(mat, f"m[{t}]")
    for t, vec in enumerate(gs, start=1):
        if np.any(vec < 0) or not np.all(np.isfinite(vec)):
            raise NegativePotential(f"potential at time {t} has a negative or non-finite entry")

    model = DiscreteFK(alphabet=alphabet, m1=m1, transitions=ms, potentials=gs)
    _check_reachable_mass(model)
    return model


def _frozen(values) -> np.ndarray:
    """A read-only float copy of ``values``."""
    out = np.array(values, dtype=float)
    out.setflags(write=False)
    return out


def _check_prob_vector(row: np.ndarray, label: str) -> None:
    """Refuse a probability vector, or a stack of them on the last axis,
    with a negative or non-finite entry or a sum off 1 by more than _ROW_TOL."""
    if np.any(row < 0) or not np.all(np.isfinite(row)):
        raise NonStochasticRow(f"{label} has a negative or non-finite entry")
    sums = row.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > _ROW_TOL):
        raise NonStochasticRow(f"{label} sums to {sums!r}, not 1")


def _check_reachable_mass(model: DiscreteFK) -> None:
    """Every time must carry positive potential somewhere reachable."""
    reach = model.m1 > 0
    for t in range(1, model.T + 1):
        if t >= 2:
            reach = (reach @ model.transition(t)) > 0
        if not np.any(reach & (model.potential_vector(t) > 0)):
            raise ZeroPotential(f"no reachable state has positive weight at time {t}")


def model_from_dict(d: dict) -> DiscreteFK:
    return build_discrete_model(d["alphabet"], d["m1"], d["m"], d["g"], T=d.get("T"))


def load_model(path) -> DiscreteFK:
    with open(path) as fh:
        return model_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Exact target law
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TargetLaw:
    """The normalised weighted path law, fully enumerated."""

    paths: tuple                 # tuple of length-T index tuples
    probabilities: np.ndarray
    gamma_t: float
    n_states: int                # alphabet size, including massless states
    _index: dict = field(repr=False, default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "_index", {p: i for i, p in enumerate(self.paths)})

    def prob(self, path) -> float:
        i = self._index.get(tuple(path))
        return float(self.probabilities[i]) if i is not None else 0.0

    def index(self, path) -> int:
        if tuple(path) not in self._index:
            raise IndexOutOfRange(f"{tuple(path)} is not a positive-mass path")
        return self._index[tuple(path)]

    def marginal(self, t: int) -> np.ndarray:
        """Single-time marginal of the target, as a probability vector."""
        T = len(self.paths[0])
        if not 1 <= t <= T:
            raise IndexOutOfRange(f"time {t} outside [1, {T}]")
        out = np.zeros(self.n_states)
        for p, pr in zip(self.paths, self.probabilities):
            out[p[t - 1]] += pr
        return out


def exact_target(model: DiscreteFK, guard: int = 10**7) -> TargetLaw:
    """Enumerate all S^T paths: weighted mass per path and its total.

    Raises PathSpaceTooLarge beyond ``guard`` paths.  Only paths with
    strictly positive mass are retained.
    """
    S, T = model.n_states, model.T
    if S**T > guard:
        raise PathSpaceTooLarge(f"{S}^{T} paths exceed the guard of {guard}")
    paths = []
    masses = []

    def rec(t, path, mass):
        if mass == 0.0:
            return
        if t > T:
            paths.append(tuple(path))
            masses.append(mass)
            return
        row = model.m1 if t == 1 else model.transition(t)[path[-1]]
        g = model.potential_vector(t)
        for s in np.flatnonzero(row):
            rec(t + 1, path + [int(s)], mass * float(row[s]) * float(g[s]))

    rec(1, [], 1.0)
    gamma = float(np.sum(masses))
    if gamma <= 0:
        raise ZeroPotential("the model carries zero total weighted mass")
    return TargetLaw(
        paths=tuple(paths), probabilities=np.array(masses) / gamma, gamma_t=gamma, n_states=S
    )


# ---------------------------------------------------------------------------
# Two-time weighted mass functions and predictive laws
# ---------------------------------------------------------------------------


def q_operator(model: DiscreteFK, p: int, q: int):
    """Backward-propagated weighted mass between times p and q.

    Returns the vector ``z -> E[ prod_{k=p}^{q-1} G_k(Z_k) | Z_p = z ]`` for
    ``p >= 1``; for ``p == 0`` the chain is entered through the initial law
    and a scalar is returned.  ``q`` may be ``T+1`` (unit terminal weight).
    """
    T = model.T
    if not (0 <= p < q <= T + 1):
        raise IndexOutOfRange(f"need 0 <= p < q <= {T + 1}, got ({p}, {q})")
    v = np.ones(model.n_states)
    for k in range(q - 1, max(p, 1) - 1, -1):
        if k + 1 <= T:
            v = model.transition(k + 1) @ v
        v = model.potential_vector(k) * v
    if p == 0:
        return float(model.m1 @ v)
    return v


def predictive_law(model: DiscreteFK, p: int) -> np.ndarray:
    """Normalised law of the state at time p under weights strictly before p."""
    if not 1 <= p <= model.T:
        raise IndexOutOfRange(f"time {p} outside [1, {model.T}]")
    u = model.m1.copy()
    for k in range(2, p + 1):
        u = (u * model.potential_vector(k - 1)) @ model.transition(k)
    total = float(u.sum())
    if total <= 0:
        raise ZeroPotential(f"predictive mass at time {p} is zero")
    return u / total


def pi_marginal(model: DiscreteFK, t: int) -> np.ndarray:
    """Time-t marginal of the target, by forward/backward products (no path
    enumeration): the predictive law times the backward weighted mass."""
    w = predictive_law(model, t) * q_operator(model, t, model.T + 1)
    return w / float(w.sum())


def sup_potentials(model: DiscreteFK) -> np.ndarray:
    """Per-time suprema of the weights over the support of the target marginal.

    On a finite alphabet the essential supremum is the maximum over states
    carrying target mass above 1e-15.
    """
    out = np.empty(model.T)
    for t in range(1, model.T + 1):
        mask = pi_marginal(model, t) > _SUPPORT_TOL
        out[t - 1] = float(np.max(model.potential_vector(t)[mask]))
    return out
