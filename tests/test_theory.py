"""Limit constants: closed forms, decomposition, degeneracy."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftchain import (
    DegenerateLimitError,
    FiniteMeasure,
    SmallUrnError,
    clt_params,
    friedman_params,
    gaussian_moments,
    make_balanced_urn,
    make_circle_model,
    make_descents_model,
    make_friedman,
    make_removal_urn,
    model_clt_params,
    removal_params,
    urn_degeneracy_check,
    urn_variance_decomposition,
)
from conftest import random_urn_spec


def test_descents_limit_constants():
    p = model_clt_params(make_descents_model())
    assert p.alpha1 == 1
    assert p.ell == 0
    assert p.D == Fraction(1, 4)
    assert p.limit_variance == Fraction(1, 12)


def test_circle_limit_constants():
    p = model_clt_params(make_circle_model())
    assert p.ell == Fraction(4, 5)
    assert p.D == Fraction(14, 25)
    assert p.limit_variance == Fraction(7, 50)


def test_idla_limit_constants(idla_model):
    p = model_clt_params(idla_model)
    assert p.ell == 0
    assert p.limit_variance == Fraction(1, 12)


@pytest.mark.parametrize("alpha,beta,variance", [
    (0, 1, Fraction(1, 12)),
    (1, 2, Fraction(3, 20)),
    (0, 2, Fraction(1, 3)),
    (2, 3, Fraction(5, 28)),
])
def test_friedman_closed_form_frozen(alpha, beta, variance):
    assert friedman_params(alpha, beta).limit_variance == variance


@pytest.mark.parametrize("alpha,beta", [(0, 1), (1, 2), (2, 5), (4, 9), (0, 7)])
def test_friedman_closed_form_equals_model_route(alpha, beta):
    closed = friedman_params(alpha, beta)
    model = model_clt_params(make_friedman(alpha, beta))
    assert closed.ell == model.ell
    assert closed.D == model.D
    assert closed.limit_variance == model.limit_variance
    assert closed.alpha3 == model.alpha3


def test_friedman_small_urn_raises():
    with pytest.raises(SmallUrnError):
        friedman_params(3, 1)
    with pytest.raises(SmallUrnError):
        friedman_params(5, 1)


def test_friedman_equal_parameters_degenerate():
    with pytest.raises(DegenerateLimitError) as err:
        friedman_params(2, 2)
    assert err.value.d_value == 0


@pytest.mark.parametrize("b,mu,variance", [
    (2, FiniteMeasure.uniform([0, 1, 2]), Fraction(11, 36)),
    (2, FiniteMeasure.uniform([0, 2]), Fraction(5, 12)),
    (3, FiniteMeasure.uniform([0, 1, 2, 3]), Fraction(3, 4)),
])
def test_removal_closed_form_frozen(b, mu, variance):
    assert removal_params(b, mu).limit_variance == variance


@pytest.mark.parametrize("b,mu", [
    (2, FiniteMeasure.uniform([0, 1, 2])),
    (3, FiniteMeasure.uniform([1, 2])),
    (4, FiniteMeasure.from_pairs([(0, Fraction(1, 4)), (4, Fraction(3, 4))])),
    (5, FiniteMeasure.uniform([0, 5])),
])
def test_removal_closed_form_equals_model_route(b, mu):
    closed = removal_params(b, mu)
    model = model_clt_params(make_removal_urn(b, mu))
    assert closed.ell == model.ell
    assert closed.D == model.D
    assert closed.limit_variance == model.limit_variance
    assert closed.alpha3 == model.alpha3 and closed.D3 == model.D3


def test_removal_ell_is_mean_scaled():
    mu = FiniteMeasure.uniform([0, 1, 2])
    assert removal_params(2, mu).ell == Fraction(1, 2)


def test_clt_params_small_urn_guard():
    with pytest.raises(SmallUrnError):
        clt_params(Fraction(-1, 2), Fraction(0), Fraction(1), Fraction(1))


def test_clt_params_degenerate_guard_and_override():
    with pytest.raises(DegenerateLimitError):
        clt_params(Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 4))
    p = clt_params(Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 4),
                   check_degenerate=False)
    assert p.D <= 0 and p.limit_variance <= 0


def test_gaussian_moments_frozen():
    v = Fraction(7, 50)
    assert gaussian_moments(v, 6) == [1, 0, v, 0, 3 * v**2, 0, 15 * v**3]


def test_gaussian_moments_float_inputs():
    out = gaussian_moments(0.25, 4)
    assert out[2] == 0.25 and out[4] == pytest.approx(3 * 0.25**2)


# ---------------------------------------------------------------------------
# urn decomposition and degeneracy


def _direct_d(spec):
    """D via the generic limit route, None when alpha1 = -1 (no centering)."""
    coeffs = make_balanced_urn(spec).coeffs
    a1, a2 = coeffs.alpha_lim[:2]
    d1, d2 = coeffs.D_lim[:2]
    if a1 == -1:
        return None
    ell = d1 / (a1 + 1)
    return d2 - ell * (ell + a2)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_urn_decomposition_equals_direct_variance(seed):
    rng = np.random.default_rng(seed)
    spec = random_urn_spec(rng)
    try:
        direct = model_clt_params(make_balanced_urn(spec))
    except (SmallUrnError, DegenerateLimitError):
        return
    decomp = urn_variance_decomposition(spec)
    assert decomp.variance == direct.limit_variance
    assert decomp.alpha1 == direct.alpha1


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_urn_degeneracy_classifier_agrees_with_d(seed):
    rng = np.random.default_rng(seed)
    spec = random_urn_spec(rng)
    reason = urn_degeneracy_check(spec)
    d = _direct_d(spec)
    if d is None:
        # alpha1 = -1 happens only for the doubly-degenerate composition
        assert reason is not None
    elif reason is None:
        assert d > 0
    else:
        assert d == 0


def test_degenerate_families_by_construction():
    n = 3
    all_white = FiniteMeasure.point(n)      # drawn-white replaces all white
    all_black = FiniteMeasure.point(0)
    neutral = FiniteMeasure.uniform([0, 1])

    from driftchain import UrnSpec

    assert urn_degeneracy_check(
        UrnSpec(N=n, mu1=all_white, mu2=neutral, a0=1, b0=1)) is not None
    assert urn_degeneracy_check(
        UrnSpec(N=n, mu1=neutral.shift(0), mu2=all_black, a0=1, b0=1)) is not None
    # equal point masses freeze the white fraction
    assert urn_degeneracy_check(
        UrnSpec(N=n, mu1=FiniteMeasure.point(2), mu2=FiniteMeasure.point(2),
                a0=1, b0=1)) is not None
    assert urn_degeneracy_check(
        UrnSpec(N=n, mu1=neutral, mu2=neutral, a0=1, b0=1)) is None
