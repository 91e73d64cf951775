"""Exact engine: lattice DP, moment recursions, scalar recursion, Gamma."""

import dataclasses
import hashlib
import math
from collections.abc import Sequence
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftchain import (
    AffineMap,
    BudgetExceededError,
    ChainState,
    DriftModel,
    FiniteMeasure,
    LemmaProblem,
    ModelValidationError,
    UnreachableStateError,
    UrnSpec,
    evolve_exact,
    evolve_iter,
    exact_moments12,
    gamma_ratio,
    lemma_check,
    lemma_iterate,
    lemma_profile,
    make_balanced_urn,
    make_circle_model,
    make_descents_model,
    make_friedman,
    make_idla_model,
    make_removal_urn,
    moment_of,
    replicate_final,
    replicate_rng,
    simulate_final,
)
from driftchain.chain import band_law, band_masses, transition_band
from driftchain.exact import _support_edges
from conftest import random_urn_spec


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
    approx = dict(evolve_exact(circle_model, 60, mode="float").items())
    for raw, p in exact.nonzero().items():
        assert approx[raw] == pytest.approx(float(p), abs=1e-13)


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


# Width and sha256 of f"{n}:{offset}:" + the comma-joined reduced "p/q" entries
# of the exact law at n=250: the dp/<config>/exact digests of bench/baseline.json.
EXACT_LAW_DIGESTS = {
    "descents": (250, "12e825648ea6358509132efcacaa93ddf68d24a3ea1260ffb21ec03d214d85b3"),
    "removal(b=2)": (253, "678a0aa71bfd83c97d8fbb57d321f7a830298fc20f6d8ebe2f442c77354ab8ff"),
    "circle": (251, "23393e3abf6dbfdd6b1f892df17c443236e3ac9ab00e8812db208a300fffd868"),
}


def test_exact_law_digests_are_pinned(descents_model, removal_uniform_model,
                                      circle_model):
    for model in (descents_model, removal_uniform_model, circle_model):
        dist = evolve_exact(model, 250)
        digest = hashlib.sha256(f"{dist.n}:{dist.offset}:".encode())
        digest.update(",".join(f"{p.numerator}/{p.denominator}"
                               for p in dist.probs).encode())
        assert (len(dist.probs), digest.hexdigest()) == EXACT_LAW_DIGESTS[model.name]


def test_probs_is_a_lazy_view(wide_urn_model, circle_model, monkeypatch):
    """``len`` reads the weights; the first entry read builds every entry once.

    The expected entries are the eager tuples ``probs`` used to be.  The urn
    law has a zero cell inside its support, which ``nonzero`` must drop.
    """
    urn = evolve_exact(wide_urn_model, 12)
    assert 0 < len(urn.nonzero()) < len(urn.probs)
    built = []

    def counting_fraction(*args, **kwargs):
        built.append(args)
        return Fraction(*args, **kwargs)

    for model in (wide_urn_model, circle_model):
        for mode in ("exact", "float"):
            dist = evolve_exact(model, 12, mode=mode)
            values = dist.weights.tolist()
            expected = (tuple(values) if mode == "float" else
                        tuple(Fraction(w, dist.den) for w in values))
            with monkeypatch.context() as patch:
                patch.setattr("driftchain.exact.Fraction", counting_fraction)
                assert len(dist.probs) == len(values)
                assert built == []
                assert tuple(dist.probs) == expected
                assert len(built) == (len(values) if mode == "exact" else 0)
                built.clear()
                assert dist.probs[-1] == expected[-1]
                assert dist.probs[1:3] == expected[1:3]
                assert list(dist.probs) == list(expected)
                assert built == []
            assert isinstance(dist.probs, Sequence)
            with pytest.raises(TypeError):
                dist.probs[0] = 0
            assert dist.nonzero() == {dist.offset + i: p
                                      for i, p in enumerate(expected) if p != 0}
            assert dist.total_mass() == sum(expected)
            if mode == "float":
                assert (np.asarray(dist.probs, dtype=np.float64).tobytes()
                        == np.asarray(expected, dtype=np.float64).tobytes())
                assert math.fsum(dist.probs) == math.fsum(expected)


def test_band_denominator_above_2_53():
    """Masses over a denominator no double holds exactly stay exactly rounded.

    The friedman band's denominator lies between 2**53 and 2**63 (int64
    numerators); the other bands' lie above 2**63 (Python-int numerators).
    With masses in quarters some numerators pass 2**63 too, and the last urn
    has a mass denominator above 2**63 of its own.
    """
    quarters = FiniteMeasure.from_pairs(
        [(0, Fraction(1, 4)), (1, Fraction(1, 2)), (2, Fraction(1, 4))])
    tiny = Fraction(1, 2**64 + 13)
    fine = UrnSpec(N=1, mu1=FiniteMeasure.from_pairs([(0, tiny), (1, 1 - tiny)]),
                   mu2=FiniteMeasure.uniform([0, 1]), a0=1, b0=1)
    for model, den_floor in (
            (make_friedman(1, 2, a0=2**53), 2**53),
            (make_removal_urn(2, FiniteMeasure.uniform([0, 1, 2]), a0=2**62), 2**63),
            (make_removal_urn(2, quarters, a0=2**62), 2**63),
            (make_balanced_urn(fine), 2**64)):
        lo, hi = model.reachable_range(5)
        _, numerators, den = transition_band(model, 5, lo, hi)
        assert den > den_floor
        assert all(sum(row) == den for row in numerators.tolist())
        assert band_masses(numerators, den).tolist() == [
            [float(Fraction(c, den)) for c in row] for row in numerators.tolist()]
        batch = replicate_final(model, 40, 16, 3)
        assert batch.tolist() == [simulate_final(model, 40, replicate_rng(3, i))
                                  for i in range(16)]
        exact = evolve_exact(model, 20)
        approx = evolve_exact(model, 20, mode="float")
        assert (approx.offset, len(approx.probs)) == (exact.offset, len(exact.probs))
        assert max(abs(a - float(p))
                   for a, p in zip(approx.probs, exact.probs)) <= 1e-15


def test_evolve_validation(descents_model):
    with pytest.raises(ValueError):
        evolve_exact(descents_model, 5, mode="double")
    with pytest.raises(ValueError):
        evolve_exact(descents_model, 0)


def test_cell_budget_enforced(descents_model):
    with pytest.raises(BudgetExceededError, match="budget"):
        evolve_exact(descents_model, 2000, cell_budget=500)


# ---------------------------------------------------------------------------
# the DP's support rule against the full-width reference


def _full_width_edges(weights, numerators, values):
    """Lowest and highest cell, relative to row 0, that any live row reaches
    through a nonzero atom, read from every row."""
    atoms = numerators != 0
    live = np.flatnonzero(weights != 0)
    first = atoms[live].argmax(axis=1)
    last = atoms.shape[1] - 1 - atoms[live, ::-1].argmax(axis=1)
    return int((live + values[first]).min()), int((live + values[last]).max())


def _reference_laws(model, n_target, mode):
    """(n, offset, weights, den) of every step, one ``law_band`` call per
    step over the whole support, whose every live row is searched for the
    new support: the rule ``evolve_iter`` must agree with."""
    exact = mode == "exact"
    offset = model.start.raw
    weights = np.ones(1, dtype=object if exact else np.float64)
    den = 1 if exact else None
    yield model.start.n, offset, weights, den
    for n in range(model.start.n, n_target):
        width = len(weights)
        values, numerators, step_den = transition_band(model, n, offset, offset + width - 1)
        new_lo, new_hi = (offset + edge for edge in
                          _full_width_edges(weights, numerators, values))
        if exact:
            masses = np.asarray(numerators, dtype=object)
            den *= step_den
        else:
            masses = band_masses(numerators, step_den)
        acc = np.zeros(width + int(values[-1] - values[0]), dtype=weights.dtype)
        for j in range(len(values) - 1, -1, -1):
            shift = int(values[j] - values[0])
            acc[shift:shift + width] += weights * masses[:, j]
        base = offset + int(values[0])
        offset, weights = new_lo, acc[new_lo - base:new_hi - base + 1]
        yield n + 1, offset, weights, den


def _assert_matches_reference(model, n_target, modes=("exact", "float")):
    """Every law to n_target: exact laws equal as rationals, float laws bitwise."""
    for mode in modes:
        laws = list(evolve_iter(model, n_target, mode=mode))
        reference = list(_reference_laws(model, n_target, mode))
        assert len(laws) == len(reference)
        for dist, (n, offset, weights, den) in zip(laws, reference):
            assert (dist.n, dist.offset, len(dist.probs)) == (n, offset, len(weights))
            if mode == "exact":
                assert tuple(dist.probs) == tuple(Fraction(w, den) for w in weights.tolist())
            else:
                assert dist.weights.tobytes() == weights.tobytes()


def test_support_edges_match_the_full_width_rule():
    """Random rows, half of them not live, so zero runs at the edges are
    often longer than the span."""
    rng = np.random.default_rng(0)
    for _ in range(500):
        values = np.sort(rng.choice(np.arange(-3, 6), size=int(rng.integers(1, 5)),
                                    replace=False))
        width = int(rng.integers(1, 30))
        weights = np.where(rng.random(width) < 0.5, rng.random(width), 0.0)
        weights[rng.integers(width)] = 1.0
        numerators = rng.integers(0, 3, size=(width, len(values)))
        numerators[np.arange(width), rng.integers(len(values), size=width)] = 1
        assert _support_edges(weights, numerators, values.tolist(),
                              int(values[-1] - values[0])) == \
            _full_width_edges(weights, numerators, values)


# Steps past the start: either side of the DP's first and second band fetch.
BAND_EDGE_STEPS = (15, 16, 17, 31, 32, 33)


@pytest.mark.parametrize("build", [
    make_descents_model, make_idla_model, make_circle_model,
    lambda: make_friedman(1, 2), lambda: make_friedman(0, 1),
    lambda: make_friedman(2, 1, a0=3, b0=0),
    lambda: make_removal_urn(2, FiniteMeasure.uniform([0, 1, 2])),
    lambda: make_friedman(1, 2, a0=2**53),
    # the denominator passes 2**63, so the numerators are Python ints
    lambda: make_removal_urn(2, FiniteMeasure.uniform([0, 1, 2]), a0=2**62),
], ids=["descents", "idla", "circle", "friedman(1,2)", "friedman(0,1)",
        "friedman(2,1,a0=3,b0=0)", "removal(b=2)", "friedman(1,2,a0=2**53)",
        "removal(b=2,a0=2**62)"])
def test_evolve_iter_matches_the_full_width_reference(build):
    model = build()
    for steps in BAND_EDGE_STEPS:
        _assert_matches_reference(model, model.start.n + steps)


def test_evolve_iter_matches_the_reference_on_a_wide_urn(wide_urn_model):
    # atoms -1 and 2, with holes inside the support
    for steps in BAND_EDGE_STEPS:
        _assert_matches_reference(wide_urn_model, wide_urn_model.start.n + steps)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_evolve_iter_matches_the_reference_on_random_urns(seed):
    model = make_balanced_urn(random_urn_spec(np.random.default_rng(seed)))
    for steps in BAND_EDGE_STEPS:
        _assert_matches_reference(model, model.start.n + steps)


def test_float_evolve_iter_matches_the_reference_where_tails_underflow(descents_model):
    """At n=600 the float law's tails have underflowed to 0.0: the law keeps
    the reached cells, and the zero rows are not live at the next step."""
    dist = evolve_exact(descents_model, 600, mode="float")
    assert len(dist.probs) == 474
    assert dist.weights[0] == 0.0 and dist.weights[-1] == 0.0
    _assert_matches_reference(descents_model, 600, modes=("float",))


def test_evolve_rejects_laws_that_leave_the_reachable_range(descents_model):
    # the DP reaches raw = n - 1 at step n; this range stops one short
    model = dataclasses.replace(descents_model,
                                reachable_range=lambda n: (0, max(0, n - 2)))
    for mode in ("exact", "float"):
        with pytest.raises(UnreachableStateError, match="reachable"):
            evolve_exact(model, 40, mode=mode)


def _descents_without_row(descents_model, row):
    """Descents with every atom zeroed on the row raw = row(n) at step n."""
    band = descents_model.law_band

    def law_band(n, lo, hi):
        values, numerators, den = band(n, lo, hi)
        steps = np.atleast_1d(n)
        numerators = numerators.reshape(len(steps), hi - lo + 1, -1).copy()
        rows = np.array([row(int(m)) for m in steps]) - lo
        hit = (rows >= 0) & (rows <= hi - lo)
        numerators[np.flatnonzero(hit), rows[hit]] = 0
        return values, numerators.reshape(np.shape(n) + numerators.shape[1:]), den

    return dataclasses.replace(descents_model, law_band=law_band,
                               increment_law=band_law(law_band))


def test_evolve_rejects_a_live_state_without_atoms(descents_model):
    """A row with no atom of nonzero mass would lose its state's mass."""
    model = _descents_without_row(descents_model, lambda n: 2 if n == 5 else -1)
    for mode in ("exact", "float"):
        with pytest.raises(ModelValidationError, match=r"n=5, raw=2\)"):
            evolve_exact(model, 40, mode=mode)
    # raw = n is never live at step n, so an empty row there is harmless
    model = _descents_without_row(descents_model, lambda n: n)
    for mode in ("exact", "float"):
        dist, expected = (evolve_exact(m, 40, mode=mode) for m in (model, descents_model))
        assert (dist.offset, dist.weights.tolist()) == (expected.offset,
                                                        expected.weights.tolist())


def test_evolve_rejects_values_that_change_with_n():
    """One band serves many steps, so its ``values`` must not change with n."""
    def law_band(n, lo, hi):
        shift = int(np.max(n) >= 40)
        return (np.array([0, 1]) + shift,
                np.ones(np.shape(n) + (hi - lo + 1, 2), dtype=np.int64),
                np.broadcast_to(2, np.shape(n)))

    model = DriftModel(name="shifting", start=ChainState(0, 0),
                       affine=AffineMap(a=1, b=0, c=0, d=1), coeffs=None,
                       law_band=law_band, increment_law=band_law(law_band),
                       reachable_range=lambda n: (0, 2 * n))
    assert evolve_exact(model, 32).total_mass() == 1
    with pytest.raises(ModelValidationError, match="values"):
        evolve_exact(model, 80)


def test_moment_of(descents_model, wide_urn_model, circle_model, idla_model,
                   removal_uniform_model):
    dist = evolve_exact(descents_model, 4)
    assert moment_of(dist, descents_model.affine, 0) == 1
    assert moment_of(dist, descents_model.affine, 1) == 0
    assert moment_of(dist, descents_model.affine, 2) == Fraction(5, 12)
    with pytest.raises(ValueError):
        moment_of(dist, descents_model.affine, -1)
    # The integer sum over the shared denominator against the plain Fraction sum
    for model in (descents_model, wide_urn_model, circle_model, idla_model,
                  removal_uniform_model):
        dist = evolve_exact(model, 40)
        for k in (1, 2, 3):
            assert moment_of(dist, model.affine, k) == sum(
                p * model.affine.s_value(dist.n, raw) ** k
                for raw, p in dist.items())


def test_float_moment_of_matches_fraction_formula(descents_model,
                                                  removal_uniform_model,
                                                  circle_model):
    """The float moments take S by int true division, bit for bit the old
    ``float(affine.s_value(n, raw))`` per cell, on laws whose raw states pass
    2**53 too."""
    for model, n in ((descents_model, 600), (removal_uniform_model, 600),
                     (circle_model, 600), (make_friedman(1, 2, a0=2**53), 600)):
        dist = evolve_exact(model, n, mode="float")
        for k in (1, 2, 3):
            assert moment_of(dist, model.affine, k) == math.fsum(
                p * float(model.affine.s_value(dist.n, raw)) ** k
                for raw, p in dist.items() if p != 0)


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
