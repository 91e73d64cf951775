"""Acceptance suite: the package's shipped guarantees, one family per c-tag.

Each ``test_cN_*`` test pins one guarantee at its stated tolerance; the
terminal summary (see conftest) prints one PASS/FAIL line per family.  The
c7 family checks the Monte Carlo sampler's even moments against the Gaussian
limit and its odd moments against the exact law at n=4000: the limit theorem
fixes the odd moments only as n -> infinity, and the circle chain keeps an
O(n^-1/2) offset from its start at any finite n.
"""

import math
import time
from fractions import Fraction

import pytest

from driftchain import (
    AffineMap,
    FiniteMeasure,
    LemmaProblem,
    empirical_moment,
    enumerate_descents,
    evolve_exact,
    evolve_iter,
    exact_moments12,
    friedman_params,
    gamma_ratio,
    lemma_check,
    lemma_iterate,
    make_balanced_urn,
    make_circle_model,
    make_descents_model,
    make_friedman,
    make_removal_urn,
    model_clt_params,
    moment_of,
    removal_params,
    replicate_final,
    standardize,
    urn_degeneracy_check,
    urn_variance_decomposition,
    validate_drift_form,
)


# ---------------------------------------------------------------------------
# c1: the exact descents law equals brute-force permutation enumeration


def test_c1_dp_law_equals_permutation_enumeration(descents_model):
    t0 = time.perf_counter()
    for n in range(1, 9):
        dp = evolve_exact(descents_model, n, mode="exact").nonzero()
        enum = enumerate_descents(n)
        assert dp == {v: enum.mass(v) for v in enum.support()}, n
    assert evolve_exact(descents_model, 4, mode="exact").nonzero() == {
        0: Fraction(1, 24), 1: Fraction(11, 24),
        2: Fraction(11, 24), 3: Fraction(1, 24)}
    assert time.perf_counter() - t0 < 5.0


# ---------------------------------------------------------------------------
# c2: descents variance (n+1)/12, exact engine in float mode


def test_c2_descents_variance_closed_form(descents_model):
    t0 = time.perf_counter()
    checked = 0
    for dist in evolve_iter(descents_model, 300, mode="float"):
        if dist.n < 2:
            continue
        m1 = moment_of(dist, descents_model.affine, 1)
        m2 = moment_of(dist, descents_model.affine, 2)
        assert abs((m2 - m1 * m1) - (dist.n + 1) / 12) <= 1e-9, dist.n
        checked += 1
    assert checked == 299
    assert time.perf_counter() - t0 < 10.0


# ---------------------------------------------------------------------------
# c3: three very different constructions, one law


def test_c3_descents_growth_urn_and_aggregation_share_one_law(descents_model,
                                                              idla_model):
    t0 = time.perf_counter()
    descents_laws = {dist.n: dist.nonzero()
                     for dist in evolve_iter(descents_model, 51, mode="exact")}
    # a two-color growth urn started with a single white ball: its white
    # count, shifted down by that ball, walks the same lattice
    urn = make_friedman(0, 1, a0=1, b0=0)
    urn_laws = {dist.n: {w - 1: p for w, p in dist.nonzero().items()}
                for dist in evolve_iter(urn, 51, mode="exact")}
    idla_laws = {dist.n: dist.nonzero()
                 for dist in evolve_iter(idla_model, 50, mode="exact")}
    for m in range(2, 52):
        assert descents_laws[m] == urn_laws[m], m
        assert descents_laws[m] == idla_laws[m - 1], m
    assert time.perf_counter() - t0 < 10.0


# ---------------------------------------------------------------------------
# c4: closed-form limit constants, exact rational agreement


def test_c4_descents_and_circle_constants(descents_model, circle_model):
    descents = model_clt_params(descents_model)
    assert descents.ell == 0
    assert descents.limit_variance == Fraction(1, 12)
    circle = model_clt_params(circle_model)
    assert circle.ell == Fraction(4, 5)
    assert circle.D == Fraction(14, 25)
    assert circle.limit_variance == Fraction(7, 50)


@pytest.mark.parametrize("alpha,beta", [(0, 1), (1, 2), (0, 2), (2, 3)])
def test_c4_friedman_closed_form(alpha, beta):
    closed = Fraction((alpha - beta) ** 2 * (alpha + beta),
                      4 * (3 * beta - alpha))
    assert friedman_params(alpha, beta).limit_variance == closed
    via_model = model_clt_params(make_friedman(alpha, beta))
    assert via_model.limit_variance == closed


@pytest.mark.parametrize("b,support", [(2, [0, 1, 2]), (2, [0, 2]),
                                       (3, [0, 1, 2, 3])])
def test_c4_removal_closed_form(b, support):
    mu = FiniteMeasure.uniform(support)
    mean = mu.moment(1)
    sigma2 = mu.moment(2) - mean * mean
    p = Fraction(mean, b)
    closed = Fraction(b - 1, b + 1) * (sigma2 + p * (1 - p))
    assert removal_params(b, mu).limit_variance == closed
    via_model = model_clt_params(make_removal_urn(b, mu))
    assert via_model.limit_variance == closed


# ---------------------------------------------------------------------------
# c5: urn pipeline consistency on a thousand random specifications


def test_c5_decomposition_and_classifier_agree(urn_spec_stream):
    total = compared = flagged = 0
    for spec in urn_spec_stream(20260814, 1000):
        total += 1
        model = make_balanced_urn(spec)
        coeffs = model.coeffs
        a1, a2 = coeffs.alpha_lim[:2]
        d1, d2 = coeffs.D_lim[:2]
        reason = urn_degeneracy_check(spec)
        if a1 == -1:
            # no drift limit at all; the classifier must flag it
            assert reason is not None
            flagged += 1
            continue
        ell = d1 / (a1 + 1)
        d_value = d2 - ell * (ell + a2)
        # classifier vs the direct D, exactly
        if reason is None:
            assert d_value > 0
        else:
            assert d_value == 0
            flagged += 1
        if 2 * a1 + 1 > 0:
            direct = model_clt_params(model, check_degenerate=False).limit_variance
            decomposed = urn_variance_decomposition(spec).variance
            assert decomposed == direct
            compared += 1
    assert total == 1000
    assert compared >= 200      # the stream is seeded: plenty of both kinds
    assert flagged >= 10


# ---------------------------------------------------------------------------
# c6: the two-moment recursion against the exact engine

C6_ELAPSED: dict[str, float] = {}


def test_c6_recursions_match_dp_for_exact_families(
        descents_model, wide_urn_model, removal_uniform_model):
    # exact rational arithmetic on both sides: agreement is identity, which
    # is stronger than the 1e-10 a float implementation would be allowed
    t0 = time.perf_counter()
    models = (descents_model, wide_urn_model, make_friedman(0, 1),
              removal_uniform_model)
    for model in models:
        series = exact_moments12(model, 300)
        assert series.k2_exact
        rows = {n: (m1, m2) for n, m1, m2 in series.rows}
        for dist in evolve_iter(model, 300, mode="exact"):
            m1 = moment_of(dist, model.affine, 1)
            m2 = moment_of(dist, model.affine, 2)
            assert (m1, m2) == rows[dist.n], (model.name, dist.n)
    C6_ELAPSED["families"] = time.perf_counter() - t0


def test_c6_circle_first_order_matches_and_second_order_gap_is_reported(
        circle_model):
    t0 = time.perf_counter()
    series = exact_moments12(circle_model, 300)
    assert not series.k2_exact      # the series itself flags the gap
    rows = {n: (m1, m2) for n, m1, m2 in series.rows}
    worst2 = Fraction(0)
    for dist in evolve_iter(circle_model, 300, mode="exact"):
        m1 = moment_of(dist, circle_model.affine, 1)
        m2 = moment_of(dist, circle_model.affine, 2)
        r1, r2 = rows[dist.n]
        assert m1 == r1, dist.n
        worst2 = max(worst2, abs(m2 - r2))
    # the order-2 gap is real and of known size: it peaks at 1/20 (n=4)
    # and decays from there
    assert worst2 == Fraction(1, 20)
    C6_ELAPSED["circle"] = time.perf_counter() - t0
    assert sum(C6_ELAPSED.values()) < 30.0


# ---------------------------------------------------------------------------
# c7: Monte Carlo moments of the standardized sum, five models
#
# n=4000, 40000 replicates, master seed 1729.  Even moments are checked
# against the Gaussian limit with 3*SE plus a small relative floor (2% of the
# variance target, 5% of the fourth-moment target).  Odd moments get a bare
# 3*SE band around their exact value at n=4000, not the limit's 0: the circle
# chain's E S_n - n*ell tends to 8/5, so its standardized mean is +0.0253 at
# this n.  The k=1 target is that offset as an exact rational from the drift
# recursion; the k=3 target is E z^3 under the float DP law at n=4000.

C7_N = 4000
C7_REPS = 40000
C7_SEED = 1729

C7_MODELS = {
    "descents": make_descents_model,
    "friedman(0,1)": lambda: make_friedman(0, 1),
    "friedman(1,2)": lambda: make_friedman(1, 2),
    "removal(b=2)": lambda: make_removal_urn(2, FiniteMeasure.uniform([0, 1, 2])),
    "circle": make_circle_model,
}

_c7_cache: dict[str, tuple] = {}
_c7_seconds: dict[str, float] = {}
_c7_exact_cache: dict[str, tuple] = {}


def _c7_samples(key):
    if key not in _c7_cache:
        t0 = time.perf_counter()
        model = C7_MODELS[key]()
        raws = replicate_final(model, C7_N, C7_REPS, C7_SEED)
        z = standardize(raws, model, C7_N)
        variance = float(model_clt_params(model).limit_variance)
        _c7_seconds[key] = time.perf_counter() - t0
        _c7_cache[key] = (z, variance)
    return _c7_cache[key]


def _c7_exact_law(key):
    """Exact finite-n quantities of a c7 model, untimed by the c7 budget.

    Returns ``(e_half, e_n, dp_mean, dp_m3, mass_defect)``.  ``e_half`` and
    ``e_n`` are the exact rationals E S_n - n*ell at n = C7_N/2 and C7_N
    from ``exact_moments12``.  The rest come from one float-mode DP sweep to
    C7_N: E z and E z^3 of z = (S_n - n*ell)/sqrt(n), and |1 - total mass|.
    """
    if key not in _c7_exact_cache:
        model = C7_MODELS[key]()
        ell = model_clt_params(model).ell
        means = {n: m1 for n, m1, _ in exact_moments12(model, C7_N).rows}
        # S_n - n*ell as an affine map of raw, so moment_of gives the moments
        # of the centred sum directly instead of cancelling raw moments of S
        a, q = model.affine, ell.denominator
        centred = AffineMap(q * a.a, q * a.b, q * a.c - a.d * ell.numerator,
                            q * a.d)
        dist = evolve_exact(model, C7_N, mode="float")
        _c7_exact_cache[key] = (
            means[C7_N // 2] - C7_N // 2 * ell,
            means[C7_N] - C7_N * ell,
            moment_of(dist, centred, 1) / math.sqrt(C7_N),
            moment_of(dist, centred, 3) / C7_N ** 1.5,
            abs(1.0 - math.fsum(dist.probs)))
    return _c7_exact_cache[key]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("key", list(C7_MODELS))
def test_c7_standardized_moment(key, k):
    z, variance = _c7_samples(key)
    estimate, se = empirical_moment(z, k)
    limit = {1: 0.0, 2: variance, 3: 0.0, 4: 3 * variance * variance}[k]
    floor = {1: 0.0, 2: 0.02 * variance, 3: 0.0,
             4: 0.05 * 3 * variance * variance}[k]
    target = limit
    if k % 2 == 1:
        e_half, e_n, dp_mean, dp_m3, mass_defect = _c7_exact_law(key)
        # the finite-n target is an O(n^-1/2) offset from the limit's 0:
        # E S_n - n*ell has settled (0, or 8/5 for circle), where a wrong
        # ell would make it grow linearly in n
        assert float(abs(e_n - e_half)) <= 1e-3, (
            key, float(e_half), float(e_n))
        # the float DP and the rational recursion agree on the mean
        exact_mean = float(e_n) / math.sqrt(C7_N)
        assert abs(dp_mean - exact_mean) <= 1e-12, (key, dp_mean, exact_mean)
        assert mass_defect <= 1e-12, (key, mass_defect)
        target = exact_mean if k == 1 else dp_m3
    tolerance = 3.0 * se + floor
    assert abs(estimate - target) <= tolerance, (
        f"{key} m{k}: sample {estimate:+.6f}, target {target:+.6f} at "
        f"n={C7_N} (limit {limit:+.6f}): |difference| "
        f"{abs(estimate - target):.6f} > band {tolerance:.6f}")


def test_c7_total_runtime_within_budget():
    for key in C7_MODELS:
        _c7_samples(key)
    assert sum(_c7_seconds.values()) < 300.0


# ---------------------------------------------------------------------------
# c8: scalar recursion growth rates and the Gamma telescoping identity


def test_c8_scalar_recursions_reach_their_predicted_growth():
    constant = LemmaProblem(C=1.0, growth=0.0, c=1.0, k_fn=lambda n: 1.0,
                            k_limit=1.0, u0=0.0, n0=1)
    drifting = LemmaProblem(C=1.0, growth=0.0, c=1.0,
                            k_fn=lambda n: 1.0 + 1.0 / n,
                            k_limit=1.0, u0=0.0, n0=1)
    for problem in (constant, drifting):
        assert lemma_check(problem, [1_000_000]) <= 0.01
    # with no forcing the iterate must stay bounded (here: it decays)
    quiet = LemmaProblem(C=0.0, growth=0.0, c=1.0, k_fn=lambda n: 1.0,
                         k_limit=1.0, u0=3.0, n0=1)
    run = lemma_iterate(quiet, 1_000_000)
    assert abs(run.u) <= 3.0
    assert abs(run.u) < 1e-3


def test_c8_gamma_telescoping_identity_on_a_grid():
    n0 = 1
    for k in (0.5, 1.0, 1.5, 2.0, 3.0):
        for c in (1.0, 2.0, 2.5):
            if n0 + c - k <= 0:
                continue
            start = gamma_ratio(k, c, n0)
            prod = 1.0
            for n in range(n0, 301):
                if n > n0 and n + c - k > 0:
                    assert prod == pytest.approx(
                        start / gamma_ratio(k, c, n), rel=1e-12), (k, c, n)
                prod *= 1.0 - k / (n + c)


# ---------------------------------------------------------------------------
# c9: the conditional-moment drift form, state by state


def test_c9_drift_form_exact_for_descents_and_urns(
        descents_model, wide_urn_model, removal_uniform_model):
    t0 = time.perf_counter()
    models = (descents_model, wide_urn_model, make_friedman(0, 1),
              removal_uniform_model)
    for model in models:
        for k in (1, 2, 3):
            assert validate_drift_form(model, 40, k) == 0.0, (model.name, k)
    assert time.perf_counter() - t0 < 5.0


def test_c9_circle_drift_form_fails_only_at_zero_surplus(circle_model):
    t0 = time.perf_counter()
    assert validate_drift_form(circle_model, 40, 1) == 0.0
    for k, worst_gap in ((2, 0.25), (3, 0.75)):
        # surplus is zero exactly when raw == n + 2
        away = validate_drift_form(circle_model, 40, k,
                                   state_filter=lambda n, raw: raw != n + 2)
        assert away == 0.0, k
        at_zero = validate_drift_form(circle_model, 40, k,
                                      state_filter=lambda n, raw: raw == n + 2)
        # gap is 1/(n+2) for k=2 and 3/(n+2) for k=3: largest at n=2
        assert at_zero == worst_gap, k
        assert validate_drift_form(circle_model, 40, k) == worst_gap, k
    assert time.perf_counter() - t0 < 5.0
