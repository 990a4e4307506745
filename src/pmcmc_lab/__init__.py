"""Particle-MCMC laboratory.

Pinned-particle SMC kernels (single pin, arbitrary pin lineages, and two
pins), the Markov chains obtained by iterating them, closed-form convergence
and variance bounds, and exact finite-state oracles that verify every bound
numerically.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    BoundSource,
    epsilon_bounded,
    epsilon_isir,
    epsilon_mixing,
    gamma_hat_sup,
    minorized_chain_bounds,
    pimh_epsilon,
    tuning_c_star,
)
from .c2smc import (
    MixingConstants,
    alpha_constant,
    beta_delta_constants,
    c2smc_expectation_bruteforce,
    c2smc_expectation_closed_form,
)
from .csmc import ChainTrace, Trajectory, icsmc_chain, select_path
from .exact_oracle import (
    FiniteChain,
    SpectralSummary,
    exact_asymptotic_variance,
    exact_minorization,
    exact_pn_matrix,
    kernel_row,
    spectral_summary,
    tv_curve,
)
from .fk_model import (
    DiscreteFK,
    TargetLaw,
    build_discrete_model,
    exact_target,
    load_model,
    predictive_law,
    q_operator,
)
from .harness import (
    ExperimentConfig,
    batch_means_variance,
    run_experiment,
    sticky_experiment,
)
from .pgibbs import (
    JointModel,
    RhoEstimate,
    build_joint_model,
    check_theta_chain_identities,
    check_x_chain_orderings,
    exact_gibbs_matrices,
    exact_phi_matrices,
    pgibbs_step,
    pimh_step,
    pmmh_step,
    rho_constants,
)
from .rng import SubstreamRng
from .smc_core import BatchedPass, multinomial_resample, run_smc
