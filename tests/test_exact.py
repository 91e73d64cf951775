"""Exact engine: lattice DP, moment recursions, scalar recursion, Gamma."""

import dataclasses
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from driftchain import (
    BudgetExceededError,
    LemmaProblem,
    evolve_exact,
    evolve_iter,
    exact_moments12,
    gamma_ratio,
    lemma_check,
    lemma_iterate,
    lemma_profile,
    make_friedman,
    moment_of,
    replicate_final,
    replicate_rng,
    simulate_final,
)
from driftchain.chain import band_masses, transition_band


# ---------------------------------------------------------------------------
# lattice DP


def test_evolve_from_start_is_point_mass(descents_model):
    dist = evolve_exact(descents_model, 1)
    assert dist.nonzero() == {0: Fraction(1)}
    assert dist.is_exact()


def test_evolve_exact_descents_small(descents_model):
    dist = evolve_exact(descents_model, 3)
    assert dist.nonzero() == {0: Fraction(1, 6), 1: Fraction(2, 3),
                              2: Fraction(1, 6)}


def test_evolve_iter_yields_every_step(wide_urn_model):
    steps = [d.n for d in evolve_iter(wide_urn_model, 5)]
    assert steps == [0, 1, 2, 3, 4, 5]


def test_exact_mode_conserves_mass_exactly(wide_urn_model, circle_model):
    for model in (wide_urn_model, circle_model):
        dist = evolve_exact(model, 40)
        assert dist.total_mass() == 1


def test_float_mode_conserves_mass_closely(wide_urn_model):
    dist = evolve_exact(wide_urn_model, 200, mode="float")
    assert not dist.is_exact()
    assert abs(dist.total_mass() - 1.0) < 1e-12


def test_float_and_exact_modes_agree(circle_model):
    exact = evolve_exact(circle_model, 60)
    approx = evolve_exact(circle_model, 60, mode="float")
    for raw, p in exact.nonzero().items():
        assert approx.prob(raw) == pytest.approx(float(p), abs=1e-13)


def test_band_and_per_state_stepping_agree(descents_model, wide_urn_model,
                                           circle_model, idla_model,
                                           removal_uniform_model):
    """Each hand-written law_band must reproduce the per-state band."""
    for model in (descents_model, wide_urn_model, circle_model, idla_model,
                  removal_uniform_model):
        generic = dataclasses.replace(model, law_band=None)
        fast = evolve_exact(model, 40)
        slow = evolve_exact(generic, 40)
        assert fast.offset == slow.offset
        assert fast.nonzero() == slow.nonzero()
        assert (evolve_exact(model, 40, mode="float").probs
                == evolve_exact(generic, 40, mode="float").probs)
        # moment_of's integer sum against the plain Fraction sum
        for k in (1, 2, 3):
            assert moment_of(fast, model.affine, k) == sum(
                p * model.affine.s_value(fast.n, raw) ** k
                for raw, p in fast.items())


# Width and sha256 of f"{n}:{offset}:" + the float64 bytes of the float law at
# n=600.  Each cell sums its terms in ascending source-state order, and only
# cells no live row reaches are dropped; changing either changes these.
FLOAT_LAW_DIGESTS = {
    "descents": (474, "112038c47b7712a3bc0859434c9c8638641985be92432b9c41f2571af829b630"),
    "removal(b=2)": (603, "aae0a4ced24d179afeafb9dce496f4adcb995bc32290b544587032c6c850dffb"),
    "circle": (482, "791d69bf075caa0ded78494037b066607037fb2bfac41da51797fb7540970272"),
}


def test_float_law_bits_are_pinned(descents_model, removal_uniform_model,
                                   circle_model):
    for model in (descents_model, removal_uniform_model, circle_model):
        dist = evolve_exact(model, 600, mode="float")
        digest = hashlib.sha256(f"{dist.n}:{dist.offset}:".encode())
        digest.update(np.asarray(dist.probs, dtype=np.float64).tobytes())
        assert (len(dist.probs), digest.hexdigest()) == FLOAT_LAW_DIGESTS[model.name]


def test_band_denominator_above_2_53():
    """Masses over a denominator no double holds exactly stay exactly rounded."""
    model = make_friedman(1, 2, a0=2**53)
    lo, hi = model.reachable_range(5)
    assert model.law_band(5, lo, hi) is None
    _, numerators, den = transition_band(model, 5, lo, hi)
    assert den > 2**53
    assert band_masses(numerators, den).tolist() == [
        [float(Fraction(c, den)) for c in row] for row in numerators.tolist()]
    batch = replicate_final(model, 40, 16, 3)
    assert batch.tolist() == [simulate_final(model, 40, replicate_rng(3, i))
                              for i in range(16)]
    exact = evolve_exact(model, 20)
    approx = evolve_exact(model, 20, mode="float")
    assert (approx.offset, len(approx.probs)) == (exact.offset, len(exact.probs))
    assert max(abs(a - float(p)) for a, p in zip(approx.probs, exact.probs)) <= 1e-15


def test_evolve_validation(descents_model):
    with pytest.raises(ValueError):
        evolve_exact(descents_model, 5, mode="double")
    with pytest.raises(ValueError):
        evolve_exact(descents_model, 0)


def test_cell_budget_enforced(descents_model):
    with pytest.raises(BudgetExceededError, match="budget"):
        evolve_exact(descents_model, 2000, cell_budget=500)


def test_moment_of(descents_model):
    dist = evolve_exact(descents_model, 4)
    assert moment_of(dist, descents_model.affine, 0) == 1
    assert moment_of(dist, descents_model.affine, 1) == 0
    assert moment_of(dist, descents_model.affine, 2) == Fraction(5, 12)
    with pytest.raises(ValueError):
        moment_of(dist, descents_model.affine, -1)


# ---------------------------------------------------------------------------
# moment recursions


def test_descents_recursion_variance_closed_form(descents_model):
    series = exact_moments12(descents_model, 60)
    for n, m1, m2 in series.rows:
        assert m1 == 0
        if n >= 2:   # n=1 is the deterministic start, variance 0
            assert m2 - m1 * m1 == Fraction(n + 1, 12)
    assert series.k2_exact


def test_recursion_matches_dp_exactly(descents_model, wide_urn_model):
    for model in (descents_model, wide_urn_model):
        series = dict((n, (m1, m2)) for n, m1, m2 in
                      exact_moments12(model, 40).rows)
        for dist in evolve_iter(model, 40):
            m1 = moment_of(dist, model.affine, 1)
            m2 = moment_of(dist, model.affine, 2)
            assert (m1, m2) == series[dist.n]


def test_circle_recursion_first_moment_exact_second_approximate(circle_model):
    series = exact_moments12(circle_model, 80)
    assert not series.k2_exact
    rows = {n: (m1, m2) for n, m1, m2 in series.rows}
    gaps = {}
    for dist in evolve_iter(circle_model, 80):
        m1 = moment_of(dist, circle_model.affine, 1)
        m2 = moment_of(dist, circle_model.affine, 2)
        r1, r2 = rows[dist.n]
        assert m1 == r1          # order-1 ansatz holds on every state
        gaps[dist.n] = m2 - r2
    # the order-2 ansatz misses only at zero-surplus states, which carry
    # noticeable mass only early on; the injected error then washes out
    assert gaps[1] == 0 and gaps[2] == 0
    assert gaps[3] == Fraction(1, 24)
    assert max(gaps.values()) == Fraction(1, 20) and gaps[4] == Fraction(1, 20)
    assert 0 < gaps[80] < Fraction(1, 10_000)


def test_recursion_validation(descents_model):
    with pytest.raises(ValueError):
        exact_moments12(descents_model, 0)


# ---------------------------------------------------------------------------
# scalar recursion u_{n+1} = (1 - k_n/(n+c)) u_n + C n^gamma


def constant_problem():
    return LemmaProblem(C=1.0, growth=0.0, c=1.0, k_fn=lambda n: 1.0,
                        k_limit=1.0, u0=0.0, n0=1)


def drifting_problem():
    return LemmaProblem(C=1.0, growth=0.0, c=1.0, k_fn=lambda n: 1.0 + 1.0 / n,
                        k_limit=1.0, u0=0.0, n0=1)


def test_constant_problem_has_closed_form():
    # u_{n+1} = (n/(n+1)) u_n + 1 with u_1 = 0 solves to (n+1)/2 - 1/n
    u = 0.0
    for n in range(1, 200):
        u = (1.0 - 1.0 / (n + 1)) * u + 1.0
        assert u == pytest.approx((n + 2) / 2 - 1 / (n + 1), rel=1e-12)


def test_lemma_iterate_constant_converges():
    run = lemma_iterate(constant_problem(), 100_000)
    assert run.constant_k and run.hypothesis_ok
    assert run.u * 2 / 100_000 == pytest.approx(1.0, rel=1e-4)


def test_lemma_iterate_drifting_converges():
    run = lemma_iterate(drifting_problem(), 100_000)
    assert not run.constant_k
    assert run.hypothesis_ok and run.min_u >= 0
    assert run.u * 2 / 100_000 == pytest.approx(1.0, rel=1e-3)


def test_lemma_zero_forcing_stays_bounded():
    problem = LemmaProblem(C=0.0, growth=0.0, c=1.0, k_fn=lambda n: 1.0,
                           k_limit=1.0, u0=3.0, n0=1)
    run = lemma_iterate(problem, 100_000)
    assert abs(run.u) <= 3.0
    assert run.u == pytest.approx(0.0, abs=1e-3)


def test_lemma_profile_shrinks():
    profile = lemma_profile(constant_problem(), [10, 100, 1000, 10_000])
    errs = [err for _, err in profile]
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] < 1e-3


def test_lemma_profile_validation():
    with pytest.raises(ValueError, match="boundedness"):
        lemma_profile(LemmaProblem(C=0.0, growth=0.0, c=1.0,
                                   k_fn=lambda n: 1.0, k_limit=1.0, u0=1.0),
                      [10])
    with pytest.raises(ValueError, match="exceed"):
        lemma_profile(constant_problem(), [1, 10])


def test_lemma_check_is_max_of_profile():
    problem = constant_problem()
    assert lemma_check(problem, [10, 100]) == max(
        err for _, err in lemma_profile(problem, [10, 100]))


def test_lemma_problem_validation():
    with pytest.raises(ValueError):
        LemmaProblem(C=1.0, growth=-2.0, c=1.0, k_fn=lambda n: 0.5,
                     k_limit=0.5, u0=0.0)
    with pytest.raises(ValueError):
        LemmaProblem(C=1.0, growth=0.0, c=-5.0, k_fn=lambda n: 1.0,
                     k_limit=1.0, u0=0.0, n0=2)


# ---------------------------------------------------------------------------
# Gamma ratios


def test_gamma_ratio_integer_orders():
    assert gamma_ratio(2, 0.0, 5.0) == 12.0          # (5-1)(5-2)
    assert gamma_ratio(0, 0.0, 5.0) == 1.0
    assert gamma_ratio(-1, 0.0, 5.0) == pytest.approx(1 / 5)
    assert gamma_ratio(3, 1.0, 4.0) == (5 - 1) * (5 - 2) * (5 - 3)


def test_gamma_ratio_matches_gamma_function():
    for k in (0.5, 1.5, 2.25):
        for x in (2.0, 3.5, 7.0):
            expected = math.gamma(x) / math.gamma(x - k)
            assert gamma_ratio(k, 0.0, x) == pytest.approx(expected, rel=1e-13)


def test_gamma_ratio_negative_arguments_carry_signs():
    expected = math.gamma(-0.25) / math.gamma(-0.75)
    assert gamma_ratio(0.5, 0.0, -0.25) == pytest.approx(expected, rel=1e-12)


def test_gamma_ratio_poles_raise():
    with pytest.raises(ValueError, match="pole"):
        gamma_ratio(0.5, 0.0, 0.5)      # Gamma(0) downstairs
    with pytest.raises(ValueError, match="pole"):
        gamma_ratio(0.5, -2.0, 2.0)     # Gamma(0) upstairs
    with pytest.raises(ValueError, match="pole"):
        gamma_ratio(-2, 0.0, 0.0)


def test_gamma_telescoping_identity():
    """prod_{m=n0}^{n-1} (1 - k/(m+c)) telescopes to a ratio of ratios."""
    n0 = 1
    for k in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 0.75):
        for c in (1.0, 1.5, 2.0, 3.0):
            if n0 + c - k <= 0:
                continue   # the starting ratio sits on a Gamma pole/zero
            prod = 1.0
            start = gamma_ratio(k, c, n0)
            for n in range(n0, 201):
                if n > n0 and n + c - k > 0:
                    expected = start / gamma_ratio(k, c, n)
                    assert prod == pytest.approx(expected, rel=1e-12), (k, c, n)
                prod *= 1.0 - k / (n + c)
