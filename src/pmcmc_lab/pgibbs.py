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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bounds import _bounded_eps
from .csmc import Trajectory, reference_pass
from .fk_model import exact_target, model_from_dict
from .errors import (
    AssertionFailure,
    ConstantOutOfRange,
    DegenerateB,
    DimensionMismatch,
    StateSpaceTooLarge,
    ZeroPathMass,
)
from .exact_oracle import (
    FiniteChain,
    asymptotic_variance_general,
    dirichlet_form,
    exact_asymptotic_variance,
    exact_minorization,
    exact_pn_matrix,
    spectral_summary,
)
from .rng import SITE_ACCEPT, SITE_THETA, as_substream
from .smc_core import PassTables, _check_paths, _path_rows, categorical, particle_pass


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
        return self.paths.index(tuple(path))


def enumerate_joint(jm: JointModel, guard: int = 10**4) -> JointEnumeration:
    targets = [exact_target(m) for m in jm.models]
    paths = sorted({p for t in targets for p in t.paths})
    if len(paths) * jm.J > guard:
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


def exact_gibbs_matrices(jm: JointModel, guard: int = 10**4):
    """The ideal two-stage sampler on the joint space and its path marginal."""
    enum = enumerate_joint(jm, guard=guard)
    return _compose_kernels(enum), enum


def exact_phi_matrices(jm: JointModel, N: int, guard: int = 10**4):
    """The particle version: the path draw is one pinned pass of N particles
    per parameter value, enumerated by :func:`exact_pn_matrix`."""
    enum = enumerate_joint(jm, guard=guard)
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


def rho_constants(jm: JointModel, N: int, guard: int = 10**4, rank_tol: float = 1e-12) -> RhoEstimate:
    """Exact weighted-gap constant and its min-gap lower bound.

    rho = inf_f sum_j pi(j) var_j(f) gap_j / sum_j pi(j) var_j(f), computed
    as the smallest generalized eigenvalue of (A, B) on the range of B with
    A, B the gap-weighted and plain averages of conditional covariances.
    """
    return _rho_from(enumerate_joint(jm, guard=guard), _particle_kernels(jm, N), rank_tol)


def _rho_from(enum: JointEnumeration, kernels, rank_tol: float = 1e-12) -> RhoEstimate:
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
    keep = lam > rank_tol * max(lam.max(), 1.0)
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


def _basis(n: int):
    for i in range(n):
        f = np.zeros(n)
        f[i] = 1.0
        yield i, f


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

    for i, f in _basis(gamma_x.n_states):
        var_pi = float((pi * f) @ f - (pi @ f) ** 2)
        e_g = dirichlet_form(gamma_x, f)
        e_p = dirichlet_form(phi_x, f)
        record("dirichlet_upper: E_particle <= 2 E_ideal", e_p - 2.0 * e_g, i)
        record("dirichlet_lower: E_particle >= rho E_ideal", rho.rho_exact * e_g - e_p, i)
        v_g = exact_asymptotic_variance(gamma_x, f)
        v_p = exact_asymptotic_variance(phi_x, f)
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


def check_theta_chain_identities(
    jm: JointModel,
    N: int,
    f_theta,
    k_max: int = 10,
    tol_identity: float = 1e-10,
    tol_variance: float = 1e-9,
) -> CheckReport:
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
    for k in range(1, k_max + 1):
        acc_joint = phi_joint.kernel @ acc_joint
        lhs = float((pi_joint * f_phi) @ acc_joint)
        rhs = float((pi_x * fbar) @ acc_x)
        record(f"shift_identity_k{k}", abs(lhs - rhs), tol_identity, witness=k)
        acc_x = phi_x.kernel @ acc_x

    # var(f, joint) = var_pi(f) + var_pi(fbar) + var(fbar, path chain).
    var_pi_f = float((enum.theta_marginal * f) @ f - (enum.theta_marginal @ f) ** 2)
    var_pi_fbar = float((pi_x * fbar) @ fbar - (pi_x @ fbar) ** 2)
    v_joint = asymptotic_variance_general(phi_joint.kernel, pi_joint, f_phi)
    v_fbar = exact_asymptotic_variance(phi_x, fbar)
    record(
        "variance_decomposition",
        abs(v_joint - (var_pi_f + var_pi_fbar + v_fbar)),
        tol_variance,
    )

    # Upper bounds via the weighted-gap constant; lower via operator positivity.
    v_fbar_ideal = exact_asymptotic_variance(gamma_x, fbar)
    upper1 = var_pi_f + var_pi_fbar / rho.rho_exact + v_fbar_ideal / rho.rho_exact
    record("var_theta_upper_rho", v_joint - upper1, tol_variance)
    v_joint_ideal = asymptotic_variance_general(
        gamma_joint.kernel, gamma_joint.stationary, f_gamma
    )
    upper2 = (1.0 - 1.0 / rho.rho_exact) * var_pi_f + v_joint_ideal / rho.rho_exact
    record("var_theta_upper_gamma", v_joint - upper2, tol_variance)
    record("var_theta_lower_positive", v_joint_ideal - v_joint, tol_variance)

    # The weighted-gap constant dominates the bounded-weight constant of the
    # worst parameter value.
    eps = min(_bounded_eps(m, N) for m in jm.models)
    record("rho_vs_uniform_bound", eps - rho.rho_exact, tol_variance)
    return CheckReport(entries=entries)


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


def theta_given_paths(jm: JointModel, paths) -> np.ndarray:
    """Law of the parameter given each of R paths (R, T), as an (R, J) array.

    theta | x is proportional to prior_j * mass_j(x), the weighted path mass
    m1(x_1) G_1(x_1) prod_t M_t(x_{t-1}, x_t) G_t(x_t) under parameter value
    j: O(J T) per path, with no enumeration of the path space.  Raises
    DimensionMismatch or IndexOutOfRange, as a pinned path does, for a path
    that is not T states of the alphabet, and ZeroPathMass for a path that
    has zero mass under every parameter value.
    """
    x = np.atleast_2d(_path_rows(paths, jm.T))
    _check_paths(x.T, jm.T, jm.models[0].n_states)
    t = np.arange(jm.T)
    m1, potentials, transitions = jm.mass_tables
    mass = m1[:, x[:, 0]] * np.prod(potentials[:, t, x], axis=-1)
    if jm.T > 1:
        mass = mass * np.prod(transitions[:, t[:-1], x[:, :-1], x[:, 1:]], axis=-1)
    joint = jm.prior[:, None] * mass
    total = joint.sum(axis=0)
    if np.any(total <= 0):
        bad = tuple(int(s) for s in x[int(np.argmin(total > 0))])
        raise ZeroPathMass(f"path {bad} has zero mass under every parameter value")
    return (joint / total).T


def pgibbs_update(jm: JointModel, N: int, paths, rng, base: int = 0):
    """One particle Gibbs step on R rows: each row's parameter drawn from its
    exact conditional given the path, then one slot-0 pinned pass at that
    value.  Returns the parameter indices (R,) and the new paths (R, T)."""
    rng = as_substream(rng)
    paths = _path_rows(paths, jm.T)
    u = rng.uniforms(base, 0, 0, SITE_THETA, shape=(len(paths), 1))
    thetas = categorical(theta_given_paths(jm, paths), u)[:, 0]
    return thetas, reference_pass(jm.tables, N, paths, rng, base=base, which=thetas).paths()


def pgibbs_step(jm: JointModel, N: int, x: Trajectory, rng, base: int = 0):
    """Exact parameter draw given the path, then one pinned pass at the new
    parameter value: :func:`pgibbs_update` on one row.  Returns the parameter
    index and the new path."""
    thetas, paths = pgibbs_update(jm, N, [x.points], rng, base=base)
    return int(thetas[0]), Trajectory(points=tuple(paths[0].tolist()))


@dataclass(frozen=True)
class PimhState:
    path: Trajectory
    log_gamma_hat: float


def pimh_update(model, N: int, paths, log_gammas, rng, base: int = 0):
    """One independence step on R rows: propose a fresh pass per row and
    accept it with the ratio of estimates.  Returns the paths (R, T), the log
    estimates (R,) and the acceptance mask (R,)."""
    rng = as_substream(rng)
    R = len(paths)
    proposal = particle_pass((model,), N, rng, base=base, rows=R)
    lg = proposal.log_gamma()
    log_u = np.log(rng.uniforms(base, model.T + 2, 0, SITE_ACCEPT, shape=R))
    acc = log_u < lg - log_gammas
    return np.where(acc[:, None], proposal.paths(), paths), np.where(acc, lg, log_gammas), acc


def pimh_step(model, N: int, current: PimhState, rng, base: int = 0):
    """Propose a fresh pass; accept with the ratio of estimates
    (:func:`pimh_update` on one row)."""
    paths, lg, acc = pimh_update(
        model, N, [current.path.points], [current.log_gamma_hat], rng, base=base
    )
    if not acc[0]:
        return current, False
    return PimhState(path=Trajectory(points=tuple(paths[0].tolist())), log_gamma_hat=float(lg[0])), True


@dataclass(frozen=True)
class PmmhState:
    theta_idx: int
    log_gamma_hat: float


def pmmh_update(jm: JointModel, N: int, proposal_q, thetas, log_gammas, rng, base: int = 0):
    """One marginal accept/reject step on the parameter of R rows, with
    estimated constants.  ``proposal_q`` is a row-stochastic matrix over the
    parameter values.  Returns the parameter indices (R,), the log estimates
    (R,) and the acceptance mask (R,)."""
    rng = as_substream(rng)
    q = np.asarray(proposal_q, dtype=float)
    thetas = np.asarray(thetas, dtype=int)
    R = len(thetas)
    cand = categorical(q[thetas], rng.uniforms(base, 0, 0, SITE_THETA, shape=(R, 1)))[:, 0]
    lg = particle_pass(jm.tables, N, rng, base=base, rows=R, which=cand).log_gamma()
    num = np.log(jm.prior[cand]) + np.log(q[cand, thetas]) + lg
    den = np.log(jm.prior[thetas]) + np.log(q[thetas, cand]) + log_gammas
    acc = np.log(rng.uniforms(base, jm.T + 2, 0, SITE_ACCEPT, shape=R)) < num - den
    return np.where(acc, cand, thetas), np.where(acc, lg, log_gammas), acc


def pmmh_step(jm: JointModel, N: int, proposal_q, current: PmmhState, rng, base: int = 0):
    """Marginal accept/reject on the parameter with estimated constants
    (:func:`pmmh_update` on one row)."""
    thetas, lg, acc = pmmh_update(
        jm, N, proposal_q, [current.theta_idx], [current.log_gamma_hat], rng, base=base
    )
    if not acc[0]:
        return current, False
    return PmmhState(theta_idx=int(thetas[0]), log_gamma_hat=float(lg[0])), True
