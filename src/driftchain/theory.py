"""Limit constants for linear-drift chains.

Given the coefficient limits alpha_k, D_k of a model, the centred and
scaled sum (S_n - n*ell)/sqrt(n) is asymptotically normal with

    ell      = D_1 / (alpha_1 + 1)
    D        = D_2 - ell * (ell + alpha_2)
    variance = D / (2*alpha_1 + 1)

provided alpha_1 > -1/2 (otherwise the scaling is wrong — "large urn"
behaviour) and D > 0 (otherwise the limit is degenerate).  All functions
preserve exact rational inputs, so closed-form identities can be checked
with equality rather than tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chain import DriftModel
from .errors import DegenerateLimitError, ModelValidationError, SmallUrnError
from .measures import FiniteMeasure
from .models import UrnSpec


@dataclass(frozen=True)
class CltParams:
    """Drift limits plus the derived asymptotic constants."""

    alpha1: Fraction | float
    alpha2: Fraction | float
    D1: Fraction | float
    D2: Fraction | float
    ell: Fraction | float
    D: Fraction | float
    limit_variance: Fraction | float
    alpha3: Fraction | float | None = None
    D3: Fraction | float | None = None


def clt_params(alpha1, alpha2, D1, D2, alpha3=None, D3=None,
               check_degenerate: bool = True) -> CltParams:
    """Derive (ell, D, variance) from coefficient limits.

    Raises :class:`SmallUrnError` when alpha1 <= -1/2 and, unless
    ``check_degenerate`` is disabled, :class:`DegenerateLimitError`
    (carrying D) when D <= 0.
    """
    if 2 * alpha1 + 1 <= 0:
        raise SmallUrnError(
            f"small-urn condition violated: alpha1 = {alpha1} is <= -1/2")
    ell = D1 / (alpha1 + 1)
    D = D2 - ell * (ell + alpha2)
    if check_degenerate and D <= 0:
        raise DegenerateLimitError(D)
    variance = D / (2 * alpha1 + 1)
    return CltParams(alpha1=alpha1, alpha2=alpha2, D1=D1, D2=D2,
                     ell=ell, D=D, limit_variance=variance,
                     alpha3=alpha3, D3=D3)


def model_clt_params(model: DriftModel, check_degenerate: bool = True) -> CltParams:
    """CLT constants of a model, from its declared coefficient limits."""
    (a1, a2, a3), (d1, d2, d3) = model.coeffs.alpha_lim, model.coeffs.D_lim
    return clt_params(a1, a2, d1, d2, alpha3=a3, D3=d3,
                      check_degenerate=check_degenerate)


# ---------------------------------------------------------------------------
# balanced urns
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UrnVarianceDecomposition:
    """Limit variance split into a mean-drift part and a noise part.

    With r_i = m_{i,1}/N and v_i = m_{i,2}/N^2 - r_i^2 (per-draw mean and
    variance of each replacement rule, in units of N):

        R = r2 * alpha1^2 * (1 - r1)
        S = (alpha1 + 1) * (v2 * (1 - r1) + v1 * r2)
        variance = N^2 (R + S) / ((2*alpha1 + 1) (alpha1 + 1)^2)

    Both R and S are non-negative, which is what makes the degeneracy
    classification a short case analysis.
    """

    rho: Fraction
    alpha1: Fraction
    r1: Fraction
    r2: Fraction
    v1: Fraction
    v2: Fraction
    R: Fraction
    S: Fraction
    variance: Fraction


def urn_variance_decomposition(spec: UrnSpec) -> UrnVarianceDecomposition:
    N = spec.N
    r1 = spec.mu1.moment(1) / N
    r2 = spec.mu2.moment(1) / N
    v1 = spec.mu1.moment(2) / N**2 - r1**2
    v2 = spec.mu2.moment(2) / N**2 - r2**2
    rho = r1 - r2
    alpha1 = -rho
    if 2 * alpha1 + 1 <= 0:
        raise SmallUrnError(
            f"small-urn condition violated: alpha1 = {alpha1} is <= -1/2")
    big_r = r2 * alpha1**2 * (1 - r1)
    big_s = (alpha1 + 1) * (v2 * (1 - r1) + v1 * r2)
    variance = N**2 * (big_r + big_s) / ((2 * alpha1 + 1) * (alpha1 + 1) ** 2)
    return UrnVarianceDecomposition(rho=rho, alpha1=alpha1, r1=r1, r2=r2,
                                    v1=v1, v2=v2, R=big_r, S=big_s,
                                    variance=variance)


def urn_degeneracy_check(spec: UrnSpec) -> str | None:
    """Reason the urn's limit variance vanishes, or None.

    D = 0 exactly when mu1 = delta_N, or mu2 = delta_0, or both measures
    are the same point mass: each case kills both the R and S terms of the
    decomposition, and outside them at least one term is positive.
    """
    if spec.mu1.is_point(spec.N):
        return "mu1 is concentrated on N (pure white reinforcement)"
    if spec.mu2.is_point(0):
        return "mu2 is concentrated on 0 (black draws never add white)"
    if spec.mu1.is_point() and spec.mu2.is_point() \
            and spec.mu1.point_value() == spec.mu2.point_value():
        return "mu1 and mu2 are the same point mass (deterministic additions)"
    return None


# ---------------------------------------------------------------------------
# closed forms for the named urn families
# ---------------------------------------------------------------------------

def friedman_params(alpha: int, beta: int) -> CltParams:
    """Closed-form constants for the draw-alpha-same/beta-other urn.

    Computed directly from (alpha, beta) — not through the generic limit
    pipeline — so tests can compare the two routes.
    """
    if alpha < 0 or beta < 0 or alpha + beta < 1:
        raise ModelValidationError(
            "friedman parameters must be non-negative with alpha + beta >= 1")
    n_total = alpha + beta
    if 3 * beta - alpha <= 0:
        raise SmallUrnError(
            f"small-urn condition violated: 3*beta <= alpha for ({alpha}, {beta})")
    d_value = Fraction((alpha - beta) ** 2, 4)
    if d_value == 0:
        raise DegenerateLimitError(d_value)
    return CltParams(
        alpha1=Fraction(beta - alpha, n_total),
        alpha2=Fraction(beta - alpha),
        D1=Fraction(beta),
        D2=Fraction(beta**2),
        ell=Fraction(n_total, 2),
        D=d_value,
        limit_variance=Fraction((alpha - beta) ** 2 * n_total, 4 * (3 * beta - alpha)),
        alpha3=Fraction(beta**3 - alpha**3, n_total),
        D3=Fraction(beta**3),
    )


def removal_params(b: int, mu: FiniteMeasure) -> CltParams:
    """Closed-form constants for the discard-and-refill urn.

    With m and s2 the mean and variance of ``mu``:
        ell      = m (b-1) / b
        D        = s2 + (m/b)(1 - m/b)
        variance = ((b-1)/(b+1)) * D
    """
    if not isinstance(b, int) or b < 2:
        raise ModelValidationError("removal urn needs an integer b >= 2")
    if mu.is_point(0) or mu.is_point(b):
        raise DegenerateLimitError(
            0, "removal urn with mu concentrated on 0 or on b is degenerate (D = 0)")
    m = mu.moment(1)
    s2 = mu.moment(2) - m**2
    m3 = mu.moment(3)
    d_value = s2 + (m / b) * (1 - m / b)
    return CltParams(
        alpha1=Fraction(1, b - 1),
        alpha2=Fraction(2 * m - 1, b - 1),
        D1=m,
        D2=s2 + m**2,
        ell=m * (b - 1) / b,
        D=d_value,
        limit_variance=Fraction(b - 1, b + 1) * d_value,
        alpha3=(3 * (s2 + m**2) - 3 * m + 1) / (b - 1),
        D3=m3,
    )


# ---------------------------------------------------------------------------
# Gaussian moments
# ---------------------------------------------------------------------------

def gaussian_moments(variance, k_max: int) -> list:
    """Raw moments [C_0..C_k_max] of N(0, variance): C_k = variance*(k-1)*C_{k-2}."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    moments = [variance * 0 + 1]  # one, in the caller's arithmetic type
    if k_max >= 1:
        moments.append(variance * 0)
    for k in range(2, k_max + 1):
        moments.append(variance * (k - 1) * moments[k - 2])
    return moments
