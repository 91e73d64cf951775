"""Atomic finite measures: construction, validation, moments."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from driftchain import FiniteMeasure, ModelValidationError


def test_point_mass():
    mu = FiniteMeasure.point(3)
    assert mu.support() == (3,)
    assert mu.mass(3) == 1
    assert mu.mass(0) == 0
    assert mu.is_point() and mu.is_point(3) and not mu.is_point(2)
    assert mu.point_value() == 3


def test_uniform():
    mu = FiniteMeasure.uniform([0, 1, 2])
    assert mu.masses == (Fraction(1, 3),) * 3
    assert mu.moment(1) == 1
    assert mu.moment(2) == Fraction(5, 3)


def test_atoms_are_sorted_and_zero_mass_dropped():
    mu = FiniteMeasure.from_pairs([(2, Fraction(1, 2)), (0, Fraction(1, 2)),
                                   (5, Fraction(0))])
    assert mu.support() == (0, 2)


def test_duplicate_values_rejected():
    with pytest.raises(ModelValidationError, match="duplicate"):
        FiniteMeasure.from_pairs([(1, Fraction(1, 2)), (1, Fraction(1, 2))])


def test_negative_mass_rejected():
    with pytest.raises(ModelValidationError):
        FiniteMeasure.from_pairs([(0, Fraction(3, 2)), (1, Fraction(-1, 2))])


def test_rational_masses_must_sum_to_one_exactly():
    with pytest.raises(ModelValidationError, match="sum"):
        FiniteMeasure.from_pairs([(0, Fraction(1, 2)), (1, Fraction(1, 3))])


def test_float_masses_taken_at_binary_value():
    mu = FiniteMeasure.from_pairs([(0, 0.25), (1, 0.75)])
    assert mu.mass(1) == Fraction(3, 4) and type(mu.mass(1)) is Fraction
    with pytest.raises(ModelValidationError, match="sum"):
        FiniteMeasure.from_pairs([(0, 0.25), (1, 0.7)])
    # 0.1 is not 1/10 in binary: ten of them miss one by 2**-54.
    with pytest.raises(ModelValidationError, match="sum"):
        FiniteMeasure.from_pairs([(v, 0.1) for v in range(10)])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_masses_rejected(bad):
    with pytest.raises(ModelValidationError, match="finite"):
        FiniteMeasure.from_pairs([(0, bad), (1, 1.0)])
    with pytest.raises(ModelValidationError, match="finite"):
        FiniteMeasure.mixture([(bad, FiniteMeasure.point(0)),
                               (1.0, FiniteMeasure.point(1))])


def test_empty_measure_rejected():
    with pytest.raises(ModelValidationError):
        FiniteMeasure(())


def test_shift():
    mu = FiniteMeasure.uniform([0, 1]).shift(-1)
    assert mu.support() == (-1, 0)
    assert mu.moment(1) == Fraction(-1, 2)


def test_mixture():
    a = FiniteMeasure.point(0)
    b = FiniteMeasure.point(2)
    mix = FiniteMeasure.mixture([(Fraction(1, 4), a), (Fraction(3, 4), b)])
    assert mix.mass(0) == Fraction(1, 4)
    assert mix.mass(2) == Fraction(3, 4)


@st.composite
def rational_measures(draw):
    values = draw(st.lists(st.integers(-10, 10), min_size=1, max_size=6,
                           unique=True))
    weights = draw(st.lists(st.integers(1, 20), min_size=len(values),
                            max_size=len(values)))
    total = sum(weights)
    return FiniteMeasure.from_pairs(
        [(v, Fraction(w, total)) for v, w in zip(values, weights)])


@given(rational_measures())
def test_total_mass_and_zeroth_moment(mu):
    assert sum(mu.masses) == 1
    assert mu.moment(0) == 1


@given(rational_measures(), st.integers(-5, 5))
def test_shift_moves_the_mean(mu, delta):
    assert mu.shift(delta).moment(1) == mu.moment(1) + delta


@given(rational_measures(), st.integers(1, 4))
def test_moments_bounded_by_max_abs(mu, k):
    assert abs(mu.moment(k)) <= max(abs(v) for v in mu.support()) ** k
