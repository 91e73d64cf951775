"""Chain-core: affine scaling, drift validation, and seeded sampling."""

import dataclasses
import hashlib
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from driftchain import (
    AffineMap,
    ChainState,
    DriftModel,
    ModelValidationError,
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
    _TABLE_STEPS,
    _block_table,
    _increments,
    _sample_raw_step,
    band_law,
    transition_band,
)

# Horizons around the kernel's step blocks and table blocks: a replicate
# stream that resumes at the wrong place in the next block, or a table that
# misses a state or a step, changes every draw after it.
BLOCK_STEPS = (_TABLE_STEPS - 1, _TABLE_STEPS, _TABLE_STEPS + 1, 2 * _TABLE_STEPS + 1,
               STEP_BLOCK - 1, STEP_BLOCK, STEP_BLOCK + 1, 2 * STEP_BLOCK + 3)


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

    peak(2)  # the first run imports modules lazily; keep that out of the ratio
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
        rows = np.tile(row, (hi - lo + 1, 1))
        return (values, np.broadcast_to(rows, np.shape(n) + rows.shape),
                np.broadcast_to(10, np.shape(n)))

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
    lo, values, cdf = _block_table(model, 3, 2, 5, 5)  # steps 3 and 4
    table = (lo, values, cdf[0])
    row_values, row_nums, den = transition_band(model, 3, 5, 5)
    assert _increments(table, raw, u).tolist() == [
        _sample_raw_step(row_values.tolist(), row_nums[0].tolist(), den, x)
        for x in u.tolist()]
    assert _increments(table, raw[:1], np.array([top])).tolist() == [10]
    # A row does not depend on the range or the block the table is built over.
    wide_lo, _, wide_cdf = _block_table(model, 2, _TABLE_STEPS, 0, 30)
    wide = (wide_lo, values, wide_cdf[1])
    assert np.array_equal(wide[2][:, 5 - wide_lo], table[2][:, 0])
    assert _increments(wide, raw, u).tolist() == _increments(table, raw, u).tolist()
    assert replicate_final(model, 40, 16, 3).tolist() == [
        simulate_final(model, 40, replicate_rng(3, i)) for i in range(16)]


def test_replicate_final_rejects_values_that_change_with_n():
    """The kernel builds one table from many steps, so a band's ``values``
    must be the same at every step."""
    def law_band(n, lo, hi):
        shift = int(np.max(n) >= 40)
        return (np.array([0, 1]) + shift,
                np.ones(np.shape(n) + (hi - lo + 1, 2), dtype=np.int64),
                np.broadcast_to(2, np.shape(n)))

    model = DriftModel(name="shifting", start=ChainState(0, 0),
                       affine=AffineMap(a=1, b=0, c=0, d=1), coeffs=None,
                       law_band=law_band, increment_law=band_law(law_band),
                       reachable_range=lambda n: (0, 2 * n))
    with pytest.raises(ModelValidationError, match="values"):
        replicate_final(model, 80, 4, 0)


def test_replicate_final_rejects_states_outside_the_reachable_range(descents_model):
    # A table's rows are clipped to the reachable range of its steps; here
    # the range at steps 33..64 misses every state the first table reached.
    model = dataclasses.replace(descents_model,
                                reachable_range=lambda n: (0, 31 if n <= 32 else 0))
    with pytest.raises(UnreachableStateError, match="reachable"):
        replicate_final(model, 80, 4, 0)


def test_replicate_final_rejects_states_that_leave_int64():
    # Whites grow by about one a draw from 2**63 - 200, so they pass 2**63
    # near step 200: inside the last table of a run to 220, where no later
    # table's range check would see them.
    model = make_friedman(1, 2, a0=2**63 - 200)
    with pytest.raises(ModelValidationError, match="int64"):
        replicate_final(model, 220, 4, 1729)
    singles = [simulate_final(model, 60, replicate_rng(1729, i)) for i in range(4)]
    assert replicate_final(model, 60, 4, 1729).tolist() == singles


# sha256 of the int64 bytes of replicate_final(model, 600, 64, 1729).  The
# kernel's tables, blocks and chunks must not change any draw.
REPLICATE_DIGESTS = {
    "descents": "5ff077fc4afe8ec1612f4fde540dc5e323d47d953a2daf6f34a4a551423aafd5",
    "circle": "46bad246eb5965e0b706e3ca00b8cde04751ead63b308e29d141d9a2cdc7360a",
    "friedman(1,2)": "5fd429cbe2f18bc09ab60b3593d3329018f03929920da671ed2abc4c3f345728",
    "removal(b=2)": "d865c5de7b887b059304535dd8ae5d0d2fdfada4ffcc8b55efca46d28788b31f",
    "urn(N=2)": "1e82873f7030873592c8a736828202b52554f2fc54956001cbcb3f6bdeb1ad0a",
}


def test_replicate_final_bits_are_pinned(descents_model, circle_model,
                                         removal_uniform_model, wide_urn_model):
    for model in (descents_model, circle_model, make_friedman(1, 2),
                  removal_uniform_model, wide_urn_model):
        raws = replicate_final(model, 600, 64, 1729)
        digest = hashlib.sha256(np.ascontiguousarray(raws, dtype=np.int64).tobytes())
        assert digest.hexdigest() == REPLICATE_DIGESTS[model.name]


def test_replicate_final_single_atom_law():
    # friedman(1, 1) adds one white ball per draw whatever is drawn.
    assert replicate_final(make_friedman(1, 1), 300, 3, 0).tolist() == [301] * 3


def test_replicate_final_seed_changes_output(descents_model):
    a = replicate_final(descents_model, 80, 16, 0)
    b = replicate_final(descents_model, 80, 16, 1)
    assert not np.array_equal(a, b)
