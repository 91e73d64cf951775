"""Model constructors: transition laws, oracles, and edge cases."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftchain import (
    AffineMap,
    ChainState,
    DegenerateLimitError,
    DriftCoefficients,
    FiniteMeasure,
    IdlaState,
    ModelValidationError,
    UrnSpec,
    enumerate_descents,
    evolve_exact,
    exit_left_probability,
    increment_pmf,
    make_balanced_urn,
    make_friedman,
    make_removal_urn,
    replicate_final,
    replicate_rng,
    simulate_final,
    validate_drift_form,
)
from driftchain.chain import band_masses
from driftchain.models import AffineBand
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


def test_idla_exact_frozen_small_law(idla_model):
    # Two particles: 1/2 * 1/3 lands both on one side, the symmetric
    # balanced interval arises two ways with probability 2/3.
    law = evolve_exact(idla_model, 2).nonzero()
    assert law == {0: Fraction(1, 6), 1: Fraction(2, 3), 2: Fraction(1, 6)}


def test_simulate_idla_runs(idla_model):
    raw = simulate_final(idla_model, 200, replicate_rng(11, 0))
    assert 0 <= raw <= 200


def test_idla_matches_descents_shifted(idla_model, descents_model):
    for n in (1, 5, 12):
        assert (evolve_exact(idla_model, n).nonzero()
                == evolve_exact(descents_model, n + 1).nonzero())


# ---------------------------------------------------------------------------
# every model: one band over many steps


def test_law_band_broadcasts_over_steps(descents_model, circle_model, idla_model,
                                        removal_uniform_model, wide_urn_model):
    """An array of steps gives, step by step, what the scalar calls give."""
    quarters = FiniteMeasure.from_pairs(
        [(0, Fraction(1, 4)), (1, Fraction(1, 2)), (2, Fraction(1, 4))])
    tiny = Fraction(1, 2**64 + 13)
    fine = UrnSpec(N=1, mu1=FiniteMeasure.from_pairs([(0, tiny), (1, 1 - tiny)]),
                   mu2=FiniteMeasure.uniform([0, 1]), a0=1, b0=1)
    rng = np.random.default_rng(20261019)
    models = [descents_model, circle_model, idla_model, make_friedman(1, 2),
              removal_uniform_model, wide_urn_model,
              make_friedman(1, 2, a0=2**53),
              # its band's denominator passes 2**63 at step 67
              make_friedman(1, 2, a0=2**63 - 200),
              make_removal_urn(2, FiniteMeasure.uniform([0, 1, 2]), a0=2**62),
              make_removal_urn(2, quarters, a0=2**62),
              make_balanced_urn(fine),
              *(make_balanced_urn(random_urn_spec(rng)) for _ in range(20))]
    cases = [(model, model.start.n + np.array([0, 1, 2, 5, 31, 32, 77], dtype=np.int64))
             for model in models]
    # the a0 = 2**63 - 200 urn's rows start above 2**63 from step 200 on
    cases.append((models[7], np.arange(250, 283, dtype=np.int64)))
    for model, ns in cases:
        ranges = [model.reachable_range(int(n)) for n in ns]
        # the whole union: for the circle it holds every surplus-0 row
        lo = min(r[0] for r in ranges)
        hi = min(max(r[1] for r in ranges), lo + 90)
        values, nums, den = model.law_band(ns, lo, hi)
        assert nums.shape[:2] == (len(ns), hi - lo + 1) and len(den) == len(ns)
        scalar = [model.law_band(int(n), lo, hi) for n in ns]
        for j, (s_values, s_nums, s_den) in enumerate(scalar):
            assert values.tolist() == s_values.tolist(), model.name
            assert nums[j].tolist() == s_nums.tolist(), (model.name, int(ns[j]))
            assert int(den[j]) == s_den, model.name
        masses = band_masses(nums, den)
        stacked = np.stack([band_masses(s_nums, s_den) for _, s_nums, s_den in scalar])
        assert masses.shape == stacked.shape
        assert masses.tobytes() == stacked.tobytes(), model.name
    circle_rows = circle_model.law_band(np.arange(1, 79), 2, 80)[1]
    assert all(circle_rows[n - 1, n].tolist() == [n + 2, n + 2, 0] for n in range(1, 79))


# sha256 of repr((values, numerators, dens)) as Python ints for the scalar and
# the 32-step call at steps 1, 40 and 260, each over the union of the 32 steps'
# reachable ranges capped at 41 rows.  Computed from the hand-written bands
# that the AffineBand data replaced.
LAW_BAND_DIGESTS = {
    "descents": "dd760f694b812fa3f2168e0e95587f788dec254c7b40fa577e788b5a21a066b8",
    "idla": "42d11046c7a23762eb67b43b66004c153b2fcfc2838dcd482b0b22098bc8b6a0",
    "circle": "df000e30855c24c3435a383f3438da97a46709c784f6a1b2d777f65dcdd15232",
    "friedman(1,2)": "6d3b1197e6929e2a39617bc47f6834ab8eadb4b1f290fd47cd4b19f48f5ac652",
    "removal(b=2)": "b6fa39d1d60c423be891a227294f0cdeb819c8e0c7d4d32cc2ab3b85a9b4d038",
    "removal(b=2), a0=2**62": "ed69689f2fbaf6a7d304c3c85c4bfcfcbb83adc9ca304f2e1fcc4c410d8a513f",
}


def test_law_band_digests_are_pinned(descents_model, idla_model, circle_model,
                                     removal_uniform_model):
    bands = {
        "descents": descents_model,
        "idla": idla_model,
        "circle": circle_model,
        "friedman(1,2)": make_friedman(1, 2),
        "removal(b=2)": removal_uniform_model,
        "removal(b=2), a0=2**62": make_removal_urn(
            2, FiniteMeasure.uniform([0, 1, 2]), a0=2**62),
    }
    for label, model in bands.items():
        digest = hashlib.sha256()
        for n in (1, 40, 260):
            ranges = [model.reachable_range(m) for m in range(n, n + 32)]
            lo = min(r[0] for r in ranges)
            hi = min(max(r[1] for r in ranges), lo + 40)
            for steps in (n, np.arange(n, n + 32)):
                values, nums, den = model.law_band(steps, lo, hi)
                digest.update(repr((values.tolist(), nums.tolist(),
                                    [int(d) for d in np.atleast_1d(den)])).encode())
        assert digest.hexdigest() == LAW_BAND_DIGESTS[label], label


def test_affine_band_rows_must_sum_to_the_denominator():
    # A short row would leak mass in the exact DP; a patch must move mass
    # between values, not add or remove it.
    with pytest.raises(ModelValidationError, match=r"sums \(1, 1, 0, 0\)"):
        AffineBand((0, 1), p0=(1, 0), p1=(0, 1), q=(1, -1), den=(2, 1))
    with pytest.raises(ModelValidationError, match=r"sums \(4, 2, 0, -1\)"):
        AffineBand((0, 1, 2), p0=(-1, 2, 3), p1=(0, 0, 2), q=(1, 1, -2),
                   den=(4, 2), patch=(2, 1, (1, -2, 0)))
    with pytest.raises(ModelValidationError, match=r"lengths are \(3, 2, 2, 2, 3\)"):
        AffineBand((0, 1, 2), p0=(1, 0), p1=(0, 1), q=(1, -1), den=(1, 1))


# ---------------------------------------------------------------------------
# drift data, exact orders and ranges derived from the band
#
# The reference is what the models used to state by hand: the descents,
# idla and circle tables, and the urn's formulas from the moments of mu1
# and mu2.


def _table(c, alpha, D, e, M):
    return DriftCoefficients(c=Fraction(c), alpha_lim=tuple(map(Fraction, alpha)),
                             D_lim=tuple(map(Fraction, D)), D_corr=tuple(map(Fraction, e)),
                             M=Fraction(M))


STATED = {
    "descents": (_table(1, (1, 0, Fraction(1, 4)), (0, Fraction(1, 4), 0), (0, 0, 0),
                        Fraction(1, 2)),
                 {1, 2, 3}, lambda n: (0, max(0, n - 1))),
    "idla": (_table(2, (1, 0, Fraction(1, 4)), (0, Fraction(1, 4), 0), (0, 0, 0),
                    Fraction(1, 2)),
             {1, 2, 3}, lambda n: (0, n)),
    "circle": (_table(2, (Fraction(3, 2), Fraction(7, 2), Fraction(15, 2)), (2, 4, 8),
                      (0, -1, -3), 2),
               {1}, lambda n: (2, 2 if n == 1 else n + 2)),
}


def _urn_reference(spec: UrnSpec):
    """Out of w = S_n + a0 white balls among total(n) = N (n + c) balls, the
    k-th increment moment is m2_k - (w / total(n)) (m2_k - m1_k)."""
    m1 = [spec.mu1.moment(k) for k in (1, 2, 3)]
    m2 = [spec.mu2.moment(k) for k in (1, 2, 3)]
    alpha = tuple((m2[k] - m1[k]) / spec.N for k in range(3))
    values = sorted(set(spec.mu1.support()) | set(spec.mu2.support()))
    coeffs = DriftCoefficients(c=Fraction(spec.a0 + spec.b0, spec.N), alpha_lim=alpha,
                               D_lim=tuple(m2), D_corr=tuple(-spec.a0 * a for a in alpha),
                               M=Fraction(max(abs(v) for v in values)))

    def reachable(n):
        return (max(0, spec.a0 + n * values[0]),
                min(spec.total(n), spec.a0 + n * values[-1]))

    return coeffs, {1, 2, 3}, reachable


def _friedman_spec(alpha, beta, a0=1, b0=1):
    return UrnSpec(N=alpha + beta, mu1=FiniteMeasure.point(alpha),
                   mu2=FiniteMeasure.point(beta), a0=a0, b0=b0)


def _removal_spec(b, mu, a0=1, b0=1):
    return UrnSpec(N=b - 1, mu1=mu.shift(-1), mu2=mu, a0=a0, b0=b0)


def _assert_derived_equals(model, reference):
    coeffs, orders, reachable = reference
    derived = model.coeffs
    fields = (derived.c, *derived.alpha_lim, *derived.D_lim, *derived.D_corr, derived.M)
    assert all(type(x) is Fraction for x in fields), model.name
    assert fields == (coeffs.c, *coeffs.alpha_lim, *coeffs.D_lim, *coeffs.D_corr,
                      coeffs.M), model.name
    assert model.exact_moment_orders == orders, model.name
    steps = range(model.start.n, model.start.n + 300)
    assert [model.reachable_range(n) for n in steps] == [reachable(n) for n in steps], \
        model.name


def test_derived_drift_data_and_ranges_equal_the_stated_tables(
        descents_model, idla_model, circle_model, removal_uniform_model, wide_urn_model):
    for model in (descents_model, idla_model, circle_model):
        _assert_derived_equals(model, STATED[model.name])
    uniform = FiniteMeasure.uniform([0, 1, 2])
    urns = [
        (make_friedman(1, 2), _friedman_spec(1, 2)),
        (make_friedman(0, 1), _friedman_spec(0, 1)),
        (make_friedman(2, 1, a0=3, b0=0), _friedman_spec(2, 1, a0=3, b0=0)),
        (make_friedman(1, 2, a0=2**53), _friedman_spec(1, 2, a0=2**53)),
        (removal_uniform_model, _removal_spec(2, uniform)),
        (make_removal_urn(2, uniform, a0=2**62), _removal_spec(2, uniform, a0=2**62)),
        (wide_urn_model, UrnSpec(
            N=2, mu1=FiniteMeasure.from_pairs([(-1, Fraction(1, 2)), (2, Fraction(1, 2))]),
            mu2=FiniteMeasure.from_pairs([(0, Fraction(1, 2)), (2, Fraction(1, 2))]),
            a0=1, b0=1)),
    ]
    for model, spec in urns:
        _assert_derived_equals(model, _urn_reference(spec))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_random_urn_derived_data_equals_the_moment_formulas(seed):
    spec = random_urn_spec(np.random.default_rng(seed))
    _assert_derived_equals(make_balanced_urn(spec), _urn_reference(spec))


def test_derived_exact_orders_follow_the_patch():
    # The patch (1, -3, 3, -1) on values 0..3 has zero first and second
    # moments and third moment -6, so only orders 1 and 2 stay exact.
    band = AffineBand((0, 1, 2, 3), p0=(1, 1, 1, 1), p1=(1, 1, 1, 1), q=(0, 0, 0, 0),
                      den=(4, 4), patch=(0, 1, (1, -3, 3, -1)))
    model = band.model("quad", ChainState(2, 0), AffineMap(1, 0, 0, 1))
    assert model.exact_moment_orders == {1, 2}
    assert validate_drift_form(model, 30, 1) == 0.0
    assert validate_drift_form(model, 30, 2) == 0.0
    # the patched row raw = n is first live at n = 3: a gap of 6/(4 + 4*3)
    assert validate_drift_form(model, 30, 3) == float(Fraction(3, 8))


def test_band_model_rejects_masses_that_turn_negative():
    # value 1 has mass (n - 1)/(n + 1) on every row: negative at n = 0
    flat = AffineBand((0, 1), p0=(2, -1), p1=(0, 1), q=(0, 0), den=(1, 1))
    with pytest.raises(ModelValidationError, match="negative"):
        flat.model("flat", ChainState(0, 0), AffineMap(1, 0, 0, 1))
    assert flat.model("flat", ChainState(1, 0), AffineMap(1, 0, 0, 1)).reachable_range(5) \
        == (0, 4)
    # the patched row raw = n has masses (n - 1, n + 3)/(2n + 2)
    patched = AffineBand((0, 1), p0=(1, 1), p1=(1, 1), q=(0, 0), den=(2, 2),
                         patch=(0, 1, (-2, 2)))
    with pytest.raises(ModelValidationError, match="patched row"):
        patched.model("patched", ChainState(0, 0), AffineMap(1, 0, 0, 1))
    assert patched.model("patched", ChainState(1, 0),
                         AffineMap(1, 0, 0, 1)).exact_moment_orders == frozenset()
