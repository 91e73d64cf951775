"""Chain-core: affine scaling, drift validation, and seeded sampling."""

import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from driftchain import (
    AffineMap,
    ChainState,
    DriftModel,
    UnreachableStateError,
    increment_pmf,
    make_friedman,
    replicate_final,
    replicate_rng,
    rng_id,
    simulate_final,
    validate_drift_form,
)
from driftchain.chain import (
    STEP_BLOCK,
    _increments,
    _sample_raw_step,
    _step_table,
    band_law,
)

# Horizons around the kernel's step blocks: a replicate stream that resumes
# at the wrong place in the next block changes every draw after it.
BLOCK_STEPS = (STEP_BLOCK - 1, STEP_BLOCK, STEP_BLOCK + 1, 2 * STEP_BLOCK + 3)


def test_affine_map_values():
    # descents scaling: S = raw - (n-1)/2
    m = AffineMap(a=2, b=1, c=-1, d=2)
    assert m.s_value(5, 2) == 0
    assert m.s_value(4, 3) == Fraction(3, 2)


def test_affine_map_array_matches_scalar():
    m = AffineMap(a=2, b=1, c=-1, d=2)
    raws = np.array([0, 1, 5, 9])
    out = m.s_array(10, raws)
    assert out.tolist() == [float(m.s_value(10, r)) for r in raws]


def test_affine_map_validation():
    with pytest.raises(ValueError):
        AffineMap(a=0, b=0, c=0, d=1)
    with pytest.raises(ValueError):
        AffineMap(a=1, b=0, c=0, d=0)


def test_increment_pmf_rejects_unreachable_states(descents_model):
    with pytest.raises(UnreachableStateError, match="reachable"):
        increment_pmf(descents_model, ChainState(3, 5))
    with pytest.raises(UnreachableStateError):
        increment_pmf(descents_model, ChainState(0, 0))


def test_drift_form_reports_a_wrong_correction_exactly(descents_model):
    # D_2(n) gains (1/7)/(n + 1), largest at the start n = 1: a gap of 1/14
    coeffs = dataclasses.replace(descents_model.coeffs,
                                 D_corr=(0, Fraction(1, 7), 0))
    model = dataclasses.replace(descents_model, coeffs=coeffs)
    assert validate_drift_form(model, 12, 2) == float(Fraction(1, 14))
    assert validate_drift_form(model, 12, 1) == 0.0
    assert validate_drift_form(model, 12, 3) == 0.0


def test_drift_form_rejects_orders_above_three(descents_model):
    with pytest.raises(ValueError):
        validate_drift_form(descents_model, 12, 4)


def test_drift_form_rejects_states_outside_the_reachable_range(descents_model):
    # the DP reaches raw = n - 1 at step n; this range stops one short
    model = dataclasses.replace(descents_model,
                                reachable_range=lambda n: (0, max(0, n - 2)))
    with pytest.raises(UnreachableStateError, match="reachable"):
        validate_drift_form(model, 12, 1)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_drift_form_descents_exact(descents_model, k):
    assert validate_drift_form(descents_model, 12, k) == 0.0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_drift_form_idla_exact(idla_model, k):
    assert validate_drift_form(idla_model, 12, k) == 0.0


def test_rng_id_names_algorithm_and_numpy():
    ident = rng_id()
    assert ident.startswith("philox4x64(")
    assert np.__version__ in ident


def test_replicate_rng_streams_are_reproducible_and_distinct():
    a = replicate_rng(123, 0).random(5)
    b = replicate_rng(123, 0).random(5)
    c = replicate_rng(123, 1).random(5)
    assert a.tolist() == b.tolist()
    assert a.tolist() != c.tolist()


def test_replicate_rng_bounds():
    with pytest.raises(ValueError):
        replicate_rng(-1, 0)
    with pytest.raises(ValueError):
        replicate_rng(2**64, 0)
    with pytest.raises(ValueError):
        replicate_rng(0, -1)


def test_simulate_final_walks_the_law(descents_model):
    rng = replicate_rng(7, 0)
    raw = simulate_final(descents_model, 50, rng)
    assert 0 <= raw <= 49


def test_simulate_final_rejects_past_targets(descents_model):
    with pytest.raises(ValueError):
        simulate_final(descents_model, 0, replicate_rng(7, 0))


def test_replicate_final_validation(descents_model):
    with pytest.raises(ValueError):
        replicate_final(descents_model, 10, 0, 1)
    with pytest.raises(ValueError):
        replicate_final(descents_model, 0, 5, 1)
    for bad in ({"chunk_size": 0}, {"chunk_size": -1}, {"workers": 0},
                {"workers": -3}):
        with pytest.raises(ValueError):
            replicate_final(descents_model, 10, 5, 1, **bad)


def test_replicate_final_at_start_returns_start(descents_model):
    out = replicate_final(descents_model, 1, 4, 99)
    assert out.tolist() == [0, 0, 0, 0]


def test_replicate_final_matches_scalar_simulation(descents_model,
                                                   wide_urn_model,
                                                   circle_model):
    """Vectorised replication must reproduce the one-path sampler exactly."""
    for model in (descents_model, wide_urn_model, circle_model):
        for n in (120, *(model.start.n + steps for steps in BLOCK_STEPS)):
            batch = replicate_final(model, n, 32, 2024, chunk_size=10)
            singles = [simulate_final(model, n, replicate_rng(2024, i))
                       for i in range(32)]
            assert batch.tolist() == singles, (model.name, n)


def test_replicate_final_is_chunking_and_worker_invariant(wide_urn_model):
    for n in (150, *BLOCK_STEPS):  # the urn starts at step 0
        base = replicate_final(wide_urn_model, n, 64, 5)
        for chunk in (1, 7, 63, 64, 1000):
            assert np.array_equal(
                base, replicate_final(wide_urn_model, n, 64, 5, chunk_size=chunk))
        for workers, chunk in ((2, 7), (4, 16)):
            assert np.array_equal(
                base, replicate_final(wide_urn_model, n, 64, 5, workers=workers,
                                      chunk_size=chunk))


def test_replicate_final_memory_does_not_grow_with_n(descents_model):
    """The kernel streams its uniforms and frees each block's step tables."""
    def peak(n):
        tracemalloc.start()
        try:
            replicate_final(descents_model, n, 256, 11)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(2400) <= 1.25 * peak(600)


def test_replicate_final_memory_does_not_grow_with_reps(descents_model):
    """Each chunk makes its own generators and frees them when it ends."""
    def peak(reps):
        tracemalloc.start()
        try:
            replicate_final(descents_model, 600, reps, 11, chunk_size=256)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # the first run imports modules lazily; keep that out of the ratio
    assert peak(8192) <= 1.25 * peak(1024)


def _clamp_model():
    """Ten atoms of mass 1/10 whose float CDF sums to 1 - 2**-53, with
    zero-mass atoms in the middle and at the end."""
    values = np.arange(12)
    row = np.array([1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0])

    def law_band(n, lo, hi):
        return values, np.tile(row, (hi - lo + 1, 1)), 10

    return DriftModel(name="clamp", start=ChainState(0, 0),
                      affine=AffineMap(a=1, b=0, c=0, d=1), coeffs=None,
                      law_band=law_band, increment_law=band_law(law_band),
                      reachable_range=lambda n: (0, 11 * n))


def test_step_table_picks_last_nonzero_atom_when_cdf_sums_below_one():
    model = _clamp_model()
    cdf = np.cumsum(np.full(10, 0.1))
    assert cdf[-1] < 1.0
    top = np.nextafter(1.0, 0.0)  # the largest uniform
    u = np.array(sorted({0.0, top, *cdf, *np.nextafter(cdf, 0.0)}))
    raw = np.full(len(u), 5, dtype=np.int64)
    table = _step_table(model, 3, 5, 5)
    pmf = increment_pmf(model, ChainState(3, 5))
    assert _increments(table, raw, u).tolist() == [
        _sample_raw_step(pmf, x) for x in u.tolist()]
    assert _increments(table, raw[:1], np.array([top])).tolist() == [10]
    # A row does not depend on the range the table is built over.
    wide = _step_table(model, 3, 0, 30)
    assert np.array_equal(wide[2][:, 5], table[2][:, 0])
    assert _increments(wide, raw, u).tolist() == _increments(table, raw, u).tolist()
    assert replicate_final(model, 40, 16, 3).tolist() == [
        simulate_final(model, 40, replicate_rng(3, i)) for i in range(16)]


def test_replicate_final_single_atom_law():
    # friedman(1, 1) adds one white ball per draw whatever is drawn.
    assert replicate_final(make_friedman(1, 1), 300, 3, 0).tolist() == [301] * 3


def test_replicate_final_seed_changes_output(descents_model):
    a = replicate_final(descents_model, 80, 16, 0)
    b = replicate_final(descents_model, 80, 16, 1)
    assert not np.array_equal(a, b)
