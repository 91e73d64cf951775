"""Bounded-increment Markov chains with asymptotically linear drift.

The package builds chains whose conditional increment moments satisfy
E[a_{n+1}^k | F_n] = D_k(n) - (alpha_k(n)/n) * S_n, derives the Gaussian
limit (S_n - n*ell)/sqrt(n) -> N(0, D/(2*alpha1 + 1)) from the coefficient
limits, and cross-checks that prediction three ways: exact dynamic
programming over the lattice of reachable states, exact first/second
moment recursions, and seeded Monte Carlo.

Built-in models: descent counts of uniform random permutations, balanced
two-color urns (including Friedman and removal-type schemes), the circle
process of alternating-arc insertions, and one-dimensional internal DLA.
"""

from ._version import __version__
from .chain import (
    AffineMap,
    ChainState,
    DriftCoefficients,
    DriftModel,
    increment_pmf,
    replicate_final,
    replicate_rng,
    rng_id,
    simulate_final,
)
from .errors import (
    BudgetExceededError,
    ConfigError,
    DegenerateLimitError,
    DriftChainError,
    ModelValidationError,
    SmallUrnError,
    UnreachableStateError,
)
from .exact import (
    DEFAULT_CELL_BUDGET,
    LatticeDistribution,
    LemmaProblem,
    LemmaRun,
    MomentSeries,
    evolve_exact,
    evolve_iter,
    exact_moments12,
    gamma_ratio,
    lemma_check,
    lemma_iterate,
    lemma_profile,
    moment_of,
    validate_drift_form,
)
from .measures import FiniteMeasure
from .models import (
    IdlaState,
    UrnSpec,
    enumerate_descents,
    exit_left_probability,
    make_balanced_urn,
    make_circle_model,
    make_descents_model,
    make_friedman,
    make_idla_model,
    make_removal_urn,
)
from .stats import (
    ExperimentReport,
    MomentCheck,
    build_report,
    empirical_moment,
    ks_distance,
    normal_cdf,
    standardize,
    verify,
)
from .theory import (
    CltParams,
    UrnVarianceDecomposition,
    clt_params,
    friedman_params,
    gaussian_moments,
    model_clt_params,
    removal_params,
    urn_degeneracy_check,
    urn_variance_decomposition,
)

__all__ = [
    "__version__",
    # errors
    "DriftChainError",
    "ModelValidationError",
    "ConfigError",
    "UnreachableStateError",
    "SmallUrnError",
    "DegenerateLimitError",
    "BudgetExceededError",
    # measures
    "FiniteMeasure",
    # chain core
    "ChainState",
    "AffineMap",
    "DriftCoefficients",
    "DriftModel",
    "increment_pmf",
    "rng_id",
    "replicate_rng",
    "simulate_final",
    "replicate_final",
    # models
    "UrnSpec",
    "IdlaState",
    "make_descents_model",
    "enumerate_descents",
    "make_balanced_urn",
    "make_friedman",
    "make_removal_urn",
    "make_circle_model",
    "make_idla_model",
    "exit_left_probability",
    # theory
    "CltParams",
    "clt_params",
    "model_clt_params",
    "UrnVarianceDecomposition",
    "urn_variance_decomposition",
    "urn_degeneracy_check",
    "friedman_params",
    "removal_params",
    "gaussian_moments",
    # exact engine
    "DEFAULT_CELL_BUDGET",
    "LatticeDistribution",
    "evolve_iter",
    "evolve_exact",
    "validate_drift_form",
    "moment_of",
    "MomentSeries",
    "exact_moments12",
    "LemmaProblem",
    "LemmaRun",
    "lemma_iterate",
    "lemma_profile",
    "lemma_check",
    "gamma_ratio",
    # stats
    "normal_cdf",
    "standardize",
    "empirical_moment",
    "ks_distance",
    "MomentCheck",
    "ExperimentReport",
    "build_report",
    "verify",
]
