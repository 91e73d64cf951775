"""Model constructors: transition laws, oracles, and edge cases."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftchain import (
    ChainState,
    DegenerateLimitError,
    FiniteMeasure,
    IdlaState,
    ModelValidationError,
    UrnSpec,
    circle_surplus,
    enumerate_descents,
    evolve_exact,
    exit_left_probability,
    idla_exact,
    increment_pmf,
    make_balanced_urn,
    make_friedman,
    make_removal_urn,
    replicate_final,
    replicate_rng,
    simulate_idla,
    validate_drift_form,
)
from conftest import random_urn_spec


# ---------------------------------------------------------------------------
# descents


def test_descents_start_and_range(descents_model):
    assert (descents_model.start.n, descents_model.start.raw) == (1, 0)
    assert descents_model.reachable_range(1) == (0, 0)
    assert descents_model.reachable_range(6) == (0, 5)


def test_descents_law_frozen_values(descents_model):
    pmf = increment_pmf(descents_model, ChainState(3, 1))
    assert pmf.mass(0) == Fraction(1, 2)
    assert pmf.mass(1) == Fraction(1, 2)
    pmf = increment_pmf(descents_model, ChainState(5, 0))
    assert pmf.mass(0) == Fraction(1, 6)
    assert pmf.mass(1) == Fraction(5, 6)


def test_enumerate_descents_frozen_counts():
    # Triangle of descent counts for n = 4 and n = 5
    assert [m * 24 for m in enumerate_descents(4).masses] == [1, 11, 11, 1]
    assert [m * 120 for m in enumerate_descents(5).masses] == [1, 26, 66, 26, 1]


def test_enumerate_descents_bounds():
    with pytest.raises(ValueError):
        enumerate_descents(0)
    with pytest.raises(ValueError):
        enumerate_descents(10)


@pytest.mark.parametrize("n", range(1, 8))
def test_descents_dp_equals_enumeration(descents_model, n):
    dp = evolve_exact(descents_model, n).nonzero()
    assert dp == dict(enumerate_descents(n).atoms)


# ---------------------------------------------------------------------------
# urns


def test_urn_spec_validation():
    good = FiniteMeasure.uniform([0, 1])
    with pytest.raises(ModelValidationError, match="N must"):
        UrnSpec(N=0, mu1=good, mu2=good, a0=1, b0=1)
    with pytest.raises(ModelValidationError, match="mu1"):
        UrnSpec(N=1, mu1=FiniteMeasure.point(2), mu2=good, a0=1, b0=1)
    with pytest.raises(ModelValidationError, match="mu2"):
        UrnSpec(N=1, mu1=good, mu2=FiniteMeasure.point(-1), a0=1, b0=1)
    with pytest.raises(ModelValidationError, match="at least one ball"):
        UrnSpec(N=1, mu1=good, mu2=good, a0=0, b0=0)


def test_friedman_law_is_the_sampling_rule():
    # Weighted coin on the current composition: draw white keeps the white
    # count (mu1 = point(0)), draw black adds one white (mu2 = point(1)).
    model = make_friedman(0, 1)
    pmf = increment_pmf(model, ChainState(3, 2))  # 2 whites of 5 balls
    assert pmf.mass(0) == Fraction(2, 5)
    assert pmf.mass(1) == Fraction(3, 5)


def test_friedman_validation():
    with pytest.raises(ModelValidationError):
        make_friedman(0, 0)
    with pytest.raises(ModelValidationError):
        make_friedman(-1, 2)


def test_removal_urn_shifts_mu_for_white_draws(removal_uniform_model):
    # b = 2 adds N = 1 ball per draw, so the urn holds 1 + 1 + n balls.  With
    # every ball white the law is mu1 = mu - 1; with none white it is mu2 = mu.
    n = 3
    values, numerators, _ = removal_uniform_model.law_band(n, 0, 2 + n)
    assert values[numerators[-1] > 0].tolist() == [-1, 0, 1]
    assert values[numerators[0] > 0].tolist() == [0, 1, 2]


def test_removal_urn_rejects_degenerate_mu():
    with pytest.raises(DegenerateLimitError):
        make_removal_urn(2, FiniteMeasure.point(0))
    with pytest.raises(DegenerateLimitError):
        make_removal_urn(3, FiniteMeasure.point(3))
    with pytest.raises(ModelValidationError):
        make_removal_urn(1, FiniteMeasure.point(1))
    with pytest.raises(ModelValidationError):
        make_removal_urn(2, FiniteMeasure.uniform([0, 3]))


def test_urn_reachable_range_tracks_support(wide_urn_model):
    lo, hi = wide_urn_model.reachable_range(3)
    assert lo == 0           # three -1 steps from a0=1, floored at zero
    assert hi == 7           # three +2 steps


def test_urn_law_total_mass_and_window(wide_urn_model):
    for n in range(0, 6):
        lo, hi = wide_urn_model.reachable_range(n)
        for raw in range(lo, hi + 1):
            pmf = increment_pmf(wide_urn_model, ChainState(n, raw))
            assert sum(pmf.masses) == 1
            assert all(m >= 0 for m in pmf.masses)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_urn_law_band_matches_pmf(seed):
    """Each band row must equal the draw-colour mixture of mu1 and mu2."""
    rng = np.random.default_rng(seed)
    spec = random_urn_spec(rng)
    model = make_balanced_urn(spec)
    n = int(rng.integers(0, 40))
    lo, hi = model.reachable_range(n)
    hi = min(hi, lo + 40)
    values, nums, den = model.law_band(n, lo, hi)
    total = spec.total(n)
    for i, w in enumerate(range(lo, hi + 1)):
        pmf = FiniteMeasure.mixture([(Fraction(w, total), spec.mu1),
                                     (1 - Fraction(w, total), spec.mu2)])
        for j, v in enumerate(values.tolist()):
            assert Fraction(int(nums[i, j]), den) == pmf.mass(v)


def test_random_urn_drift_form_is_exact():
    """The one-shift drift data of general urns (any a0, b0, N) is exact:
    c = (a0 + b0)/N and e_k = -a0 alpha_k, checked state by state."""
    rng = np.random.default_rng(20261018)
    specs = [random_urn_spec(rng) for _ in range(20)]
    starts = {(spec.a0, spec.b0) for spec in specs}
    assert any(a0 == 0 for a0, _ in starts) and any(a0 >= 2 for a0, _ in starts)
    assert any(b0 != 1 for _, b0 in starts)
    for spec in specs:
        model = make_balanced_urn(spec)
        for k in (1, 2, 3):
            assert validate_drift_form(model, 16, k) == 0.0, (spec, k)


def test_urn_with_inexact_float_masses_is_rejected():
    # In binary 0.3 + 0.7 is 1 - 2**-54: built anyway, the exact DP of this
    # urn would leak mass while each sampler handled it its own way.
    with pytest.raises(ModelValidationError, match="sum"):
        make_balanced_urn(UrnSpec(
            N=1, mu1=FiniteMeasure.from_pairs([(0, 0.3), (1, 0.7)]),
            mu2=FiniteMeasure.from_pairs([(0, 0.6), (2, 0.4)]), a0=1, b0=2))


def test_dyadic_float_urn_equals_its_fraction_twin():
    def urn(mu1, mu2):
        return make_balanced_urn(UrnSpec(N=2, mu1=FiniteMeasure.from_pairs(mu1),
                                         mu2=FiniteMeasure.from_pairs(mu2),
                                         a0=1, b0=1))

    floats = urn([(-1, 0.25), (2, 0.75)], [(0, 0.5), (2, 0.5)])
    twin = urn([(-1, Fraction(1, 4)), (2, Fraction(3, 4))],
               [(0, Fraction(1, 2)), (2, Fraction(1, 2))])
    c = floats.coeffs
    assert c == twin.coeffs
    assert all(type(x) is Fraction
               for x in (c.c, c.M, *c.alpha_lim, *c.D_lim, *c.D_corr))
    for n in range(41):
        lo, hi = twin.reachable_range(n)
        f_values, f_nums, f_den = floats.law_band(n, lo, hi)
        t_values, t_nums, t_den = twin.law_band(n, lo, hi)
        assert f_den == t_den
        assert np.array_equal(f_values, t_values) and np.array_equal(f_nums, t_nums)
    assert np.array_equal(replicate_final(floats, 120, 256, 11),
                          replicate_final(twin, 120, 256, 11))


# ---------------------------------------------------------------------------
# circle


def test_circle_start_and_surplus(circle_model):
    assert (circle_model.start.n, circle_model.start.raw) == (1, 2)
    assert circle_surplus(1, 2) == 2
    assert circle_surplus(4, 6) == 0


def test_circle_law_frozen_at_start(circle_model):
    pmf = increment_pmf(circle_model, ChainState(1, 2))
    assert pmf.mass(0) == Fraction(1, 6)
    assert pmf.mass(1) == Fraction(4, 6)
    assert pmf.mass(2) == Fraction(1, 6)


def test_circle_law_surplus_zero_is_a_fair_step(circle_model):
    # raw = n + 2 means whites and blacks alternate perfectly: no gap is
    # flanked by two blacks, so the +2 outcome is impossible.
    pmf = increment_pmf(circle_model, ChainState(4, 6))
    assert dict(pmf.atoms) == {0: Fraction(1, 2), 1: Fraction(1, 2)}


def test_circle_law_masses_sum_to_one(circle_model):
    for n in range(1, 30):
        lo, hi = circle_model.reachable_range(n)
        for raw in range(lo, hi + 1):
            pmf = increment_pmf(circle_model, ChainState(n, raw))
            assert sum(pmf.masses) == 1
            assert all(m > 0 for m in pmf.masses)


def test_circle_reachable_range(circle_model):
    assert circle_model.reachable_range(1) == (2, 2)
    assert circle_model.reachable_range(2) == (2, 4)
    assert circle_model.reachable_range(9) == (2, 11)


# ---------------------------------------------------------------------------
# aggregation on the integer line


def test_idla_state_validation():
    with pytest.raises(ModelValidationError):
        IdlaState(-1, 0)


def test_exit_left_probability_frozen():
    assert exit_left_probability(IdlaState(0, 0)) == Fraction(1, 2)
    assert exit_left_probability(IdlaState(0, 3)) == Fraction(4, 5)
    assert exit_left_probability(IdlaState(3, 0)) == Fraction(1, 5)


def test_idla_law_band_matches_exit_probability(idla_model):
    for n in range(31):
        lo, hi = idla_model.reachable_range(n)
        values, nums, den = idla_model.law_band(n, lo, hi)
        assert values.tolist() == [0, 1]
        for i, left in enumerate(range(lo, hi + 1)):
            p_left = exit_left_probability(IdlaState(left, n - left))
            assert Fraction(int(nums[i, 0]), den) == 1 - p_left
            assert Fraction(int(nums[i, 1]), den) == p_left


def test_idla_first_particle_is_fair(idla_model):
    law = evolve_exact(idla_model, 1).nonzero()
    assert law == {0: Fraction(1, 2), 1: Fraction(1, 2)}


def test_idla_exact_frozen_small_law():
    # Two particles: 1/2 * 1/3 lands both on one side, the symmetric
    # balanced interval arises two ways with probability 2/3.
    law = idla_exact(2).nonzero()
    assert law == {0: Fraction(1, 6), 1: Fraction(2, 3), 2: Fraction(1, 6)}


def test_simulate_idla_runs():
    raw = simulate_idla(200, replicate_rng(11, 0))
    assert 0 <= raw <= 200


def test_idla_matches_descents_shifted(idla_model, descents_model):
    for n in (1, 5, 12):
        assert (idla_exact(n).nonzero()
                == evolve_exact(descents_model, n + 1).nonzero())
