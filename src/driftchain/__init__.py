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

Only the engines (``chain``'s sampler, ``exact`` and ``stats``) import
numpy.  The exported names resolve on first access, each from the submodule
that defines it, so building a model and computing its CLT constants loads
the model layer alone.
"""

import importlib

from ._version import __version__

# Exported names by the submodule that defines them.
_EXPORTS = {
    "errors": (
        "DriftChainError",
        "ModelValidationError",
        "ConfigError",
        "UnreachableStateError",
        "SmallUrnError",
        "DegenerateLimitError",
        "BudgetExceededError",
        "DEFAULT_CELL_BUDGET",
    ),
    "measures": ("FiniteMeasure",),
    "models": (
        "ChainState",
        "AffineMap",
        "DriftCoefficients",
        "DriftModel",
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
    ),
    "theory": (
        "CltParams",
        "clt_params",
        "model_clt_params",
        "UrnVarianceDecomposition",
        "urn_variance_decomposition",
        "urn_degeneracy_check",
        "friedman_params",
        "removal_params",
        "gaussian_moments",
    ),
    "chain": (
        "increment_pmf",
        "rng_id",
        "replicate_rng",
        "simulate_final",
        "replicate_final",
    ),
    "exact": (
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
    ),
    "stats": (
        "normal_cdf",
        "standardize",
        "empirical_moment",
        "ks_distance",
        "MomentCheck",
        "ExperimentReport",
        "build_report",
        "verify",
    ),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_SUBMODULE]


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
