"""Two-stage Gibbs samplers, their pinned-particle approximations, and the
exact comparison machinery between the two.

A :class:`JointModel` couples a finite parameter set with one path model per
parameter value.  The ideal sampler alternates exact draws of the parameter
given the path and of the path given the parameter; the particle version
replaces the path draw by one pinned-particle pass.  Because the parameter
set and every path space are finite here, both kernels are enumerated
exactly, and the Dirichlet-form / spectral-gap / asymptotic-variance
orderings between them are checked as matrix inequalities.

``rho_constants`` computes the weighted-gap constant governing those
orderings: the infimum over functions of the gap-weighted conditional
variance ratio, solved as a generalized eigenvalue problem on the range of
the average conditional covariance.

PIMH, PMMH and particle Gibbs each have one move on the state and its
uniform blocks (PIMH is PMMH on one parameter value: :func:`_mh_move`),
wired with its plan and reads into one :class:`~pmcmc_lab.csmc.Sampler`
(:func:`_mh`, :func:`_pgibbs`): ``*_step`` is the step of one built for the
given state, ``*_sampler`` one at its start state for ``run_chain``.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .bounds import _bounded_eps
from .csmc import ChainState, Sampler, StepTable, _path_walk, _reference_plan, _row, _row_blocks, _rows
from .fk_model import _check_prob_vector, exact_target, model_from_dict
from .errors import (
    AssertionFailure,
    ConstantOutOfRange,
    DegenerateB,
    DimensionMismatch,
    IndexOutOfRange,
    StateSpaceTooLarge,
    ZeroPathMass,
)
from .exact_oracle import (
    FiniteChain,
    asymptotic_variance_general,
    _variances,
    dirichlet_form,
    exact_asymptotic_variance,
    exact_minorization,
    exact_pn_matrix,
    spectral_summary,
)
from .rng import SITE_ACCEPT, SITE_THETA, _words, as_substream
from .smc_core import PassTables, _check_paths, _fold, _PassPlan, _path_rows, categorical_cdf

_JOINT_GUARD = 10**4  # most (parameter, path) pairs enumerate_joint enumerates
# Eigenvalues of the average conditional covariance below this share of the
# largest (or of 1) are zero: rho is solved on the range of the rest.
_RANK_TOL = 1e-12
# The identity suite checks k = 1.._K_MAX step shifts to _TOL_IDENTITY and the
# variance relations to _TOL_VARIANCE.
_K_MAX, _TOL_IDENTITY, _TOL_VARIANCE = 10, 1e-10, 1e-9


@dataclass(frozen=True)
class JointModel:
    """Finite parameter set, prior, and one path model per parameter value."""

    thetas: tuple
    prior: np.ndarray
    models: tuple

    def __post_init__(self):
        if len(self.thetas) != len(self.models) or len(self.thetas) != len(self.prior):
            raise DimensionMismatch("one model and one prior weight per parameter value")
        base = self.models[0]
        for m in self.models[1:]:
            if m.T != base.T or m.alphabet != base.alphabet:
                raise DimensionMismatch("all path models must share horizon and alphabet")
        if abs(float(self.prior.sum()) - 1.0) > 1e-12 or np.any(self.prior < 0):
            raise DimensionMismatch("prior must be a probability vector")

    @property
    def J(self) -> int:
        return len(self.thetas)

    @property
    def T(self) -> int:
        return self.models[0].T

    @cached_property
    def tables(self) -> PassTables:
        """The draw tables of all path models, stacked once for the passes
        that run a parameter value per replicate."""
        return PassTables.build(self.models)

    @cached_property
    def mass_tables(self) -> tuple:
        """The initial laws (J, S), potentials (J, T, S) and transition
        matrices (J, T-1, S, S) of all path models, stacked once for the
        closed-form parameter law (:func:`theta_given_paths`)."""
        stacked = tuple(
            np.array([getattr(m, name) for m in self.models])
            for name in ("m1", "potentials", "transitions")
        )
        for table in stacked:
            table.setflags(write=False)
        return stacked


def build_joint_model(thetas, prior, models) -> JointModel:
    """Assemble a joint model around a read-only copy of ``prior``."""
    prior = np.array(prior, dtype=float)
    prior.setflags(write=False)
    return JointModel(thetas=tuple(thetas), prior=prior, models=tuple(models))


def joint_model_from_dict(d: dict) -> JointModel:
    models = [
        model_from_dict({"T": d.get("T"), "alphabet": d["alphabet"], **md}) for md in d["models"]
    ]
    return build_joint_model(d["thetas"], d["prior"], models)


def load_joint_model(path) -> JointModel:
    with open(path) as fh:
        return joint_model_from_dict(json.load(fh))


@dataclass(frozen=True)
class JointEnumeration:
    """Exact joint, conditional and marginal laws of a joint model."""

    jm: JointModel
    paths: tuple                 # union of per-parameter support paths
    joint: np.ndarray            # (J, n_paths) joint probabilities
    theta_marginal: np.ndarray   # (J,)
    x_marginal: np.ndarray       # (n_paths,)
    cond_paths: np.ndarray       # (J, n_paths): path law given the parameter
    cond_theta: np.ndarray       # (n_paths, J): parameter law given the path
    gammas: np.ndarray           # (J,) per-parameter normalizing constants

    def path_index(self, path) -> int:
        if tuple(path) not in self.paths:
            raise IndexOutOfRange(f"{tuple(path)} is not a path of the joint enumeration")
        return self.paths.index(tuple(path))


def enumerate_joint(jm: JointModel) -> JointEnumeration:
    targets = [exact_target(m) for m in jm.models]
    paths = sorted({p for t in targets for p in t.paths})
    if len(paths) * jm.J > _JOINT_GUARD:
        raise StateSpaceTooLarge("joint state space exceeds the enumeration guard")
    index = {p: i for i, p in enumerate(paths)}
    n = len(paths)
    cond = np.zeros((jm.J, n))
    gammas = np.array([t.gamma_t for t in targets])
    for j, t in enumerate(targets):
        for p, pr in zip(t.paths, t.probabilities):
            cond[j, index[p]] = pr
    joint = (jm.prior * gammas)[:, None] * cond
    joint /= joint.sum()
    theta_marginal = joint.sum(axis=1)
    x_marginal = joint.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        cond_theta = np.where(x_marginal[None, :] > 0, joint / x_marginal[None, :], 0.0).T
    return JointEnumeration(
        jm=jm,
        paths=tuple(paths),
        joint=joint,
        theta_marginal=theta_marginal,
        x_marginal=x_marginal,
        cond_paths=cond,
        cond_theta=cond_theta,
        gammas=gammas,
    )


# ---------------------------------------------------------------------------
# Exact kernels
# ---------------------------------------------------------------------------


def exact_gibbs_matrices(jm: JointModel):
    """The ideal two-stage sampler on the joint space and its path marginal."""
    enum = enumerate_joint(jm)
    return _compose_kernels(enum), enum


def exact_phi_matrices(jm: JointModel, N: int):
    """The particle version: the path draw is one pinned pass of N particles
    per parameter value, enumerated by :func:`exact_pn_matrix`."""
    enum = enumerate_joint(jm)
    return _compose_kernels(enum, _particle_kernels(jm, N)), enum


def _particle_kernels(jm: JointModel, N: int) -> list:
    """The enumerated pinned-pass kernel of each parameter value."""
    return [exact_pn_matrix(m, N, target=exact_target(m)) for m in jm.models]


def _compose_kernels(enum: JointEnumeration, kernels=None):
    """Build the joint kernel and its path-marginal kernel.

    The path updates form a (J, n, n) array: given parameter j, the next
    path is drawn from the exact conditional law (ideal sampler, ``kernels``
    None) or from the pinned-pass kernel ``kernels[j]``, scattered into the
    union path index.  The path chain weights them by pi(j | x) and sums over
    j; the joint chain keeps the (parameter, path) pairs of positive mass.
    """
    J, n = enum.cond_paths.shape
    if kernels is None:
        updates = np.broadcast_to(enum.cond_paths[:, None, :], (J, n, n))
    else:
        index = {p: i for i, p in enumerate(enum.paths)}
        updates = np.zeros((J, n, n))
        for j, chain in enumerate(kernels):
            idx = [index[p] for p in chain.states]
            updates[j][np.ix_(idx, idx)] = chain.kernel
    w = enum.cond_theta.T  # (J, n): weight of parameter j given path i
    kx = (w[:, :, None] * updates).sum(axis=0)
    mask = enum.x_marginal > 0
    chain_x = FiniteChain(
        states=tuple(p for p, keep in zip(enum.paths, mask) if keep),
        kernel=kx[np.ix_(mask, mask)],
        stationary=enum.x_marginal[mask],
    )
    js, xs = np.nonzero(enum.joint > 0)
    chain_joint = FiniteChain(
        states=tuple((enum.jm.thetas[j], enum.paths[i]) for j, i in zip(js, xs)),
        kernel=w[js[None, :], xs[:, None]] * updates[js[None, :], xs[:, None], xs[None, :]],
        stationary=enum.joint[js, xs],
    )
    return chain_joint, chain_x


def _compared(jm: JointModel, N: int):
    """What both check suites compare: the joint enumeration, the particle
    kernels, the ideal and particle (joint, path) chains, and rho."""
    enum = enumerate_joint(jm)
    kernels = _particle_kernels(jm, N)
    ideal, particle = _compose_kernels(enum), _compose_kernels(enum, kernels)
    return enum, kernels, ideal, particle, _rho_from(enum, kernels)


# ---------------------------------------------------------------------------
# The weighted-gap constant
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RhoEstimate:
    rho_exact: float
    rho_lower: float

    def __post_init__(self):
        if not -1e-10 <= self.rho_lower <= self.rho_exact + 1e-10:
            raise ConstantOutOfRange("weighted-gap constant below its lower bound")
        if self.rho_exact > 1.0 + 1e-10:
            raise ConstantOutOfRange("weighted-gap constant above 1")


def _conditional_covariance(enum: JointEnumeration, j: int) -> np.ndarray:
    p = enum.cond_paths[j]
    return np.diag(p) - np.outer(p, p)


def rho_constants(jm: JointModel, N: int) -> RhoEstimate:
    """Exact weighted-gap constant and its min-gap lower bound.

    rho = inf_f sum_j pi(j) var_j(f) gap_j / sum_j pi(j) var_j(f), computed
    as the smallest generalized eigenvalue of (A, B) on the range of B with
    A, B the gap-weighted and plain averages of conditional covariances.
    """
    return _rho_from(enumerate_joint(jm), _particle_kernels(jm, N))


def _rho_from(enum: JointEnumeration, kernels) -> RhoEstimate:
    """:func:`rho_constants` from the joint enumeration and the particle kernels."""
    jm = enum.jm
    gaps = np.array([spectral_summary(chain).gap_right for chain in kernels])
    a = np.zeros((len(enum.paths),) * 2)
    b = np.zeros_like(a)
    for j in range(jm.J):
        c = _conditional_covariance(enum, j)
        a += enum.theta_marginal[j] * gaps[j] * c
        b += enum.theta_marginal[j] * c
    lam, vecs = np.linalg.eigh(b)
    keep = lam > _RANK_TOL * max(lam.max(), 1.0)
    if not np.any(keep):
        raise DegenerateB("every conditional law is a point mass")
    w = vecs[:, keep] / np.sqrt(lam[keep])
    reduced = w.T @ a @ w
    rho_exact = float(np.min(np.linalg.eigvalsh((reduced + reduced.T) / 2.0)))
    return RhoEstimate(rho_exact=min(rho_exact, 1.0 + 1e-12), rho_lower=float(gaps.min()))


# ---------------------------------------------------------------------------
# Ordering checks
# ---------------------------------------------------------------------------


@dataclass
class CheckReport:
    """Outcome of one inequality suite: worst slack per named inequality."""

    entries: list

    def worst(self) -> tuple:
        return max(self.entries, key=lambda e: e[1])

    def __iter__(self):
        return iter(self.entries)


def check_x_chain_orderings(jm: JointModel, N: int, slack: float = 1e-9) -> CheckReport:
    """Dirichlet, gap and variance orderings between the ideal and particle
    path chains, for every indicator basis function.

    Raises AssertionFailure naming the first violated inequality.
    """
    _, kernels, (_, gamma_x), (_, phi_x), rho = _compared(jm, N)
    eps_uniform = min(exact_minorization(chain) for chain in kernels)
    pi = gamma_x.stationary
    entries = []

    def record(name, violation, witness):
        entries.append((name, float(violation), witness))
        if violation > slack:
            raise AssertionFailure(name, witness=witness, violation=float(violation))

    gap_g = spectral_summary(gamma_x).gap_right
    gap_p = spectral_summary(phi_x).gap_right
    record("gap_upper: Gap(particle) <= 2 Gap(ideal)", gap_p - 2.0 * gap_g, None)
    record("gap_lower: Gap(particle) >= rho Gap(ideal)", rho.rho_exact * gap_g - gap_p, None)
    record("rho_order: rho_exact >= rho_lower", rho.rho_lower - rho.rho_exact, None)

    # Each chain's kernel is decomposed once for all basis functions.
    fs = np.eye(gamma_x.n_states)  # the indicator functions
    v_gs, v_ps = _variances(gamma_x, fs), _variances(phi_x, fs)
    for i, f in enumerate(fs):
        var_pi = float((pi * f) @ f - (pi @ f) ** 2)
        e_g = dirichlet_form(gamma_x, f)
        e_p = dirichlet_form(phi_x, f)
        record("dirichlet_upper: E_particle <= 2 E_ideal", e_p - 2.0 * e_g, i)
        record("dirichlet_lower: E_particle >= rho E_ideal", rho.rho_exact * e_g - e_p, i)
        v_g, v_p = next(v_gs), next(v_ps)
        record("var_nonneg: var(particle) >= 0", -v_p, i)
        record(
            "var_lower_half: (var(ideal) - var_pi)/2 <= var(particle)",
            (v_g - var_pi) / 2.0 - v_p,
            i,
        )
        record(
            "var_upper: var(particle) <= (1/rho - 1) var_pi + var(ideal)/rho",
            v_p - ((1.0 / rho.rho_exact - 1.0) * var_pi + v_g / rho.rho_exact),
            i,
        )
        record(
            "var_lower_minorized: (var(ideal) - (1-eps) var_pi)/(2-eps) <= var(particle)",
            (v_g - (1.0 - eps_uniform) * var_pi) / (2.0 - eps_uniform) - v_p,
            i,
        )
        record("var_lower_positive: var(ideal) <= var(particle)", v_g - v_p, i)
    return CheckReport(entries=entries)


def check_theta_chain_identities(jm: JointModel, N: int, f_theta) -> CheckReport:
    """Shift identities and variance decomposition for parameter functions.

    For f depending on the parameter only: the k-step joint autocovariance
    equals the (k-1)-step path autocovariance of the conditional mean, the
    asymptotic variance splits into the static parts plus the path-chain
    variance of the conditional mean, and the weighted-gap constant bounds
    hold.  The last entry checks rho against the bounded-weight constant of
    the worst parameter value.
    """
    f = np.asarray(f_theta, dtype=float)
    enum, _, (gamma_joint, gamma_x), (phi_joint, phi_x), rho = _compared(jm, N)
    entries = []

    def record(name, violation, tol, witness=None):
        entries.append((name, float(violation), witness))
        if violation > tol:
            raise AssertionFailure(name, witness=witness, violation=float(violation))

    # Lift f to the joint state lists and average it over the conditional.
    theta_pos = {th: j for j, th in enumerate(jm.thetas)}
    f_phi = np.array([f[theta_pos[th]] for th, _ in phi_joint.states])
    f_gamma = np.array([f[theta_pos[th]] for th, _ in gamma_joint.states])
    pi_joint = phi_joint.stationary
    fbar = np.array(
        [float(enum.cond_theta[enum.path_index(p)] @ f) for p in gamma_x.states]
    )
    pi_x = gamma_x.stationary

    # k-step autocovariance shift: joint chain vs path chain of the
    # conditional mean.
    acc_joint = f_phi.copy()
    acc_x = fbar.copy()
    for k in range(1, _K_MAX + 1):
        acc_joint = phi_joint.kernel @ acc_joint
        lhs = float((pi_joint * f_phi) @ acc_joint)
        rhs = float((pi_x * fbar) @ acc_x)
        record(f"shift_identity_k{k}", abs(lhs - rhs), _TOL_IDENTITY, witness=k)
        acc_x = phi_x.kernel @ acc_x

    # var(f, joint) = var_pi(f) + var_pi(fbar) + var(fbar, path chain).
    var_pi_f = float((enum.theta_marginal * f) @ f - (enum.theta_marginal @ f) ** 2)
    var_pi_fbar = float((pi_x * fbar) @ fbar - (pi_x @ fbar) ** 2)
    v_joint = asymptotic_variance_general(phi_joint.kernel, pi_joint, f_phi)
    v_fbar = exact_asymptotic_variance(phi_x, fbar)
    record(
        "variance_decomposition",
        abs(v_joint - (var_pi_f + var_pi_fbar + v_fbar)),
        _TOL_VARIANCE,
    )

    # Upper bounds via the weighted-gap constant; lower via operator positivity.
    v_fbar_ideal = exact_asymptotic_variance(gamma_x, fbar)
    upper1 = var_pi_f + var_pi_fbar / rho.rho_exact + v_fbar_ideal / rho.rho_exact
    record("var_theta_upper_rho", v_joint - upper1, _TOL_VARIANCE)
    v_joint_ideal = asymptotic_variance_general(
        gamma_joint.kernel, gamma_joint.stationary, f_gamma
    )
    upper2 = (1.0 - 1.0 / rho.rho_exact) * var_pi_f + v_joint_ideal / rho.rho_exact
    record("var_theta_upper_gamma", v_joint - upper2, _TOL_VARIANCE)
    record("var_theta_lower_positive", v_joint_ideal - v_joint, _TOL_VARIANCE)

    # The weighted-gap constant dominates the bounded-weight constant of the
    # worst parameter value.
    eps = min(_bounded_eps(m, N) for m in jm.models)
    record("rho_vs_uniform_bound", eps - rho.rho_exact, _TOL_VARIANCE)
    return CheckReport(entries=entries)


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


def _joint_mass(jm: JointModel, x) -> np.ndarray:
    """prior_j * mass_j(x), (J, R), of each checked path x of (R, T); each
    product over time runs left to right, as ``np.prod`` does."""
    t = np.arange(jm.T)
    m1, potentials, transitions = jm.mass_tables
    mass = m1[:, x[:, 0]] * _fold(np.multiply, potentials[:, t, x])
    if jm.T > 1:
        mass = mass * _fold(np.multiply, transitions[:, t[:-1], x[:, :-1], x[:, 1:]])
    return jm.prior[:, None] * mass


def theta_given_paths(jm: JointModel, paths) -> np.ndarray:
    """Law of the parameter given each of R paths (R, T), as an (R, J) array.

    theta | x is proportional to prior_j * mass_j(x), the weighted path mass
    m1(x_1) G_1(x_1) prod_t M_t(x_{t-1}, x_t) G_t(x_t) under parameter value
    j: O(J T) per path, with no enumeration of the path space.  Raises
    DimensionMismatch or IndexOutOfRange, as a pinned path does, for a path
    that is not T states of the alphabet, and ZeroPathMass for a path that
    has zero mass under every parameter value.
    """
    x = _path_rows(paths, jm.T)
    _check_paths(x.T, jm.T, jm.models[0].n_states)
    joint = _joint_mass(jm, x)
    total = joint.sum(axis=0)
    if np.any(total <= 0):
        bad = tuple(int(s) for s in x[int(np.argmin(total > 0))])
        raise ZeroPathMass(f"path {bad} has zero mass under every parameter value")
    return (joint / total).T


def _pgibbs_move(jm: JointModel, plan: _PassPlan, state: ChainState, blocks, cdf=None) -> ChainState:
    """:func:`pgibbs_step` on any number of rows, from their ``blocks``: the
    parameter block, then a slot-0 ``plan``'s reads.  ``cdf``, the
    cumulative parameter law of each row, is drawn from when given (a step
    table builds it once), else computed."""
    blocks, paths = iter(blocks), _path_rows(state.paths, jm.T)
    cdf = _fold(np.add, theta_given_paths(jm, paths), scan=True) if cdf is None else cdf
    thetas = categorical_cdf(cdf, next(blocks))[:, 0]
    paths = plan.run_blocks(blocks, len(paths), [paths.T], thetas).paths()
    return ChainState(paths=paths, thetas=thetas)


def _joint_paths(jm: JointModel) -> tuple:
    """The rows of particle Gibbs's step table: the paths of positive joint
    mass among the paths of live states, the code that numbers them, and
    their cumulative parameter laws."""
    ys, code = jm.tables.live_paths
    kept = _joint_mass(jm, ys).sum(axis=0) > 0
    index = kept.cumsum() - 1  # the row of each kept code
    return ys[kept], lambda paths: index[code(paths)], _fold(np.add, theta_given_paths(jm, ys[kept]), scan=True)


def _pgibbs(jm: JointModel, plan: _PassPlan, start: ChainState) -> Sampler:
    """The particle Gibbs sampler of ``start`` on a slot-0 ``plan`` of
    ``jm.tables``, tabulated over every path of positive joint mass at the
    parameter it draws in each step."""
    move = partial(_pgibbs_move, jm, plan)
    rows = math.prod(jm.tables.live.sum(axis=1).tolist())  # bounds the paths of positive joint mass
    table = StepTable(rows, plan.N * jm.T, partial(_path_walk, move, partial(_joint_paths, jm)))
    return Sampler(start, ((_words(0, SITE_THETA), 1), *plan.reads), move, table)


def pgibbs_step(jm: JointModel, N: int, state: ChainState, rng, base: int = 0) -> ChainState:
    """One particle Gibbs step on R rows: each row's parameter drawn from its
    exact conditional given the path (checked by :func:`theta_given_paths`),
    then one slot-0 pinned pass at that value."""
    return _pgibbs(jm, _reference_plan(jm.tables, N, _rows(state)), state).step(state, rng, base)


def pgibbs_sampler(jm: JointModel, N: int, x0, theta0: int, R: int) -> Sampler:
    """R particle Gibbs chains at (theta0, x0) on a slot-0 plan built once.
    x0 is checked as the parameter draw checks it; theta0 other than an
    integer in [0, J) raises IndexOutOfRange."""
    if not isinstance(theta0, numbers.Integral) or not 0 <= theta0 < jm.J:
        raise IndexOutOfRange(f"start parameter index {theta0!r} is not an integer in [0, {jm.J})")
    theta_given_paths(jm, [tuple(x0)])
    plan = _reference_plan(jm.tables, N, R)
    paths = np.tile(np.asarray(tuple(x0), dtype=int), (R, 1))
    return _pgibbs(jm, plan, ChainState(paths=paths, thetas=np.full(R, int(theta0))))


def _accepts(log_u, fwd, lg, back, cur):
    """The accept test of a proposal of log estimate ``lg`` from a state of
    log estimate ``cur``, ``fwd`` and ``back`` the log prior x proposal
    weights of the move and of its reverse; on arrays or Python floats."""
    return log_u < (fwd + lg) - (back + cur)


def _mh_move(plan: _PassPlan, cdf, log_pq, state: ChainState, blocks) -> ChainState:
    """:func:`pmmh_step` (``cdf``, the cumulative proposal rows) or, with
    ``cdf`` None and ``log_pq`` zero, :func:`pimh_step` on any number of
    rows, from their ``blocks``: the candidate block (PMMH), a pin-free
    ``plan``'s reads and the accept block.  Paths are kept when the state
    carries them, as a PIMH state must; DimensionMismatch unless they are
    (R, T) (:func:`~pmcmc_lab.smc_core._path_rows`) for the (R,) log
    estimates."""
    blocks, lgs = iter(blocks), np.asarray(state.log_gammas, dtype=float)
    R, T = lgs.size, plan.tables.T
    paths = None if cdf is not None and state.paths is None else _path_rows(state.paths, T)
    if lgs.shape != (R,) or (paths is not None and len(paths) != R):
        raise DimensionMismatch(f"paths {np.shape(paths)} for log estimates {lgs.shape}, T={T}")
    theta = 0 if cdf is None else np.asarray(state.thetas)
    cand = 0 if cdf is None else categorical_cdf(cdf[theta], next(blocks))[:, 0]
    p = plan.run_blocks(blocks, R, which=None if cdf is None else cand)
    lg = p.log_gamma()
    with np.errstate(invalid="ignore"):  # a dead proposal from a dead state: nan, a reject
        acc = _accepts(np.log(next(blocks)[:, 0]), log_pq[cand, theta], lg, log_pq[theta, cand], lgs)
    paths = None if paths is None else np.where(acc[:, None], p.paths(), paths)
    return ChainState(paths, None if cdf is None else np.where(acc, cand, theta), np.where(acc, lg, lgs), acc)


def _mh(plan: _PassPlan, start: ChainState, cdf=None, log_pq=np.zeros((1, 1))) -> Sampler:
    """The PMMH sampler of ``start`` on a pin-free ``plan`` of a joint
    model's tables, with ``cdf`` and ``log_pq`` as :func:`_proposal` returns
    them, or with ``cdf`` None the PIMH sampler on a plan of one model."""
    theta = () if cdf is None else ((_words(0, SITE_THETA), 1),)
    reads = (*theta, *plan.reads, (_words(plan.tables.T + 2, SITE_ACCEPT), 1))
    table = StepTable(len(log_pq), plan.N * plan.tables.T, partial(_mh_walk, plan, cdf, log_pq))
    return Sampler(start, reads, partial(_mh_move, plan, cdf, log_pq), table)


def pimh_step(model, N: int, state: ChainState, rng, base: int = 0) -> ChainState:
    """One independence step on R rows: propose a fresh pass per row and
    accept it with the ratio of estimates.  Raises DimensionMismatch unless
    the paths are (R, T) for the R log estimates."""
    return _mh(_PassPlan(model.tables, N, np.size(state.log_gammas)), state).step(state, rng, base)


def pimh_sampler(model, N: int, R: int, rng) -> Sampler:
    """R PIMH chains, each at one plain pass drawn at base 0 (its selected
    path and log estimate) with nothing accepted, on the plan of that pass.
    A pass whose weights all vanish estimates 0, log -inf: as a proposal it
    is rejected, and as the start the first live proposal is accepted."""
    plan = _PassPlan(model.tables, N, R)
    return _mh(plan, _start_pass(plan, rng)._replace(accepted=np.zeros(R, bool)))


def _start_pass(plan: _PassPlan, rng, which=None) -> ChainState:
    """The selected paths and log estimates of a plain pass of ``plan``'s
    rows at base 0, row r under model ``which[r]`` (as in
    :meth:`~pmcmc_lab.smc_core._PassPlan.run`), run on row blocks as a step
    is (:func:`~pmcmc_lab.csmc._row_blocks`)."""
    rng = as_substream(rng)

    def part(rows: range) -> ChainState:
        w = None if which is None else which[rows.start : rows.stop]
        p = plan.run_blocks(rng.step_blocks(plan.reads, 0, len(rows), rows.start), len(rows), which=w)
        return ChainState(paths=p.paths(), log_gammas=p.log_gamma())

    return _row_blocks(plan.rows, plan.N * plan.tables.T, part)


def _proposal(jm: JointModel, proposal_q) -> tuple:
    """The cumulative rows of ``proposal_q``, a (J, J) row-stochastic
    matrix, or raise, and log prior_c + log q(c, theta) of each pair, -inf
    where either is 0."""
    q = np.asarray(proposal_q, dtype=float)
    if q.shape != (jm.J, jm.J):
        raise DimensionMismatch(f"proposal of shape {q.shape}, model has {jm.J} parameter values")
    _check_prob_vector(q, "proposal_q")
    with np.errstate(divide="ignore"):
        return q.cumsum(axis=-1), np.log(jm.prior)[:, None] + np.log(q)


def _mh_walk(plan: _PassPlan, cdf, log_pq, state: ChainState, steps: int):
    """The walk of :func:`_mh_move` from one row (see
    :class:`~pmcmc_lab.csmc.StepTable`), tabulated over every model of the
    plan: from theta, step k proposes row k * K + theta's candidate (0 for
    PIMH), and the chain accepts or rejects it step by step."""
    K, reads = len(log_pq), slice(cdf is not None, -1)  # the pass's blocks
    which = None if cdf is None else np.tile(np.arange(K), steps)
    log_pq = log_pq.tolist()
    theta, cur = 0 if cdf is None else int(state.thetas[0]), float(state.log_gammas[0])
    start = state  # the state a chunk starts from, row -1 of its table

    def walk(blocks):
        nonlocal theta, cur, start
        u, n = blocks[-1][:, 0], len(blocks[-1])
        w = None if cdf is None else which[: n * K]
        p = plan.run_blocks((np.repeat(b, K, axis=0) for b in blocks[reads]), n * K, which=w)
        lg = p.log_gamma()
        cands = [[0] * n] if cdf is None else categorical_cdf(cdf, blocks[0].T).tolist()
        g = lg.tolist()
        src, rows, accepted = -1, [], []
        for k, lu in enumerate(np.log(u).tolist()):
            c = cands[theta][k]
            row = k * K + c
            accepted.append(_accepts(lu, log_pq[c][theta], g[row], log_pq[theta][c], cur))
            if accepted[-1]:
                src, theta, cur = row, c, g[row]
            rows.append(src)
        kept = [None if last is None else np.concatenate([table, last])[rows] for table, last in
                ((p.paths(), start.paths), (w, start.thetas), (lg, start.log_gammas))]
        block = ChainState(*kept, accepted=np.array(accepted))
        start = _row(block, n - 1)
        return block

    return walk


def pmmh_step(jm: JointModel, N: int, proposal_q, state: ChainState, rng, base: int = 0) -> ChainState:
    """One marginal accept/reject step on the parameter of R rows, with
    estimated constants.  ``proposal_q`` must be a (J, J) row-stochastic
    matrix (else DimensionMismatch or NonStochasticRow), the parameter
    indices and log estimates two (R,) arrays (else DimensionMismatch) and
    every index an integer in [0, J) (else IndexOutOfRange).  A zero prior
    or proposal entry rejects the proposal it would weigh."""
    thetas = np.asarray(state.thetas)
    if thetas.ndim != 1 or np.shape(state.log_gammas) != thetas.shape:
        raise DimensionMismatch(f"parameter indices {thetas.shape} and log estimates are not both (R,)")
    if thetas.size and (thetas.dtype.kind not in "iu" or thetas.min() < 0 or thetas.max() >= jm.J):
        raise IndexOutOfRange(f"parameter index outside the integers in [0, {jm.J})")
    return _mh(_PassPlan(jm.tables, N, len(thetas)), state, *_proposal(jm, proposal_q)).step(state, rng, base)


def pmmh_sampler(jm: JointModel, N: int, proposal_q, R: int, rng) -> Sampler:
    """R PMMH chains at the first parameter value of positive prior mass,
    with the log estimate of one plain pass under its model drawn at base 0
    on the sampler's plan, and nothing accepted yet.  A pass whose weights
    all vanish has log estimate -inf, as in :func:`pimh_sampler`: a proposal
    is rejected, a start accepts the first live proposal.
    ``proposal_q`` is checked once, first, so a step is the unchecked move of
    :func:`pmmh_step` on a plan built once."""
    proposal = _proposal(jm, proposal_q)
    plan, thetas = _PassPlan(jm.tables, N, R), np.full(R, int(np.flatnonzero(jm.prior)[0]))
    start = ChainState(thetas=thetas, log_gammas=_start_pass(plan, rng, thetas).log_gammas, accepted=np.zeros(R, bool))
    return _mh(plan, start, *proposal)
