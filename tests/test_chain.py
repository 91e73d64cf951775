"""Chain-core: affine scaling, drift validation, and seeded sampling."""

from fractions import Fraction

import numpy as np
import pytest

from driftchain import (
    AffineMap,
    ChainState,
    UnreachableStateError,
    conditional_moment,
    increment_pmf,
    replicate_final,
    replicate_rng,
    rng_id,
    simulate_final,
    validate_drift_form,
)


def test_affine_map_values():
    # descents scaling: S = raw - (n-1)/2
    m = AffineMap(a=2, b=1, c=-1, d=2)
    assert m.s_value(5, 2) == 0
    assert m.s_value(4, 3) == Fraction(3, 2)
    assert m.s_increment(1) == Fraction(1, 2)
    assert m.s_increment(0) == Fraction(-1, 2)


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


def test_conditional_moment_orders(descents_model):
    state = ChainState(3, 1)
    assert conditional_moment(descents_model, state, 1) == 0
    assert conditional_moment(descents_model, state, 2) == Fraction(1, 4)
    with pytest.raises(ValueError):
        conditional_moment(descents_model, state, 4)


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


def test_replicate_final_at_start_returns_start(descents_model):
    out = replicate_final(descents_model, 1, 4, 99)
    assert out.tolist() == [0, 0, 0, 0]


def test_replicate_final_matches_scalar_simulation(descents_model,
                                                   wide_urn_model,
                                                   circle_model):
    """Vectorised replication must reproduce the one-path sampler exactly."""
    for model in (descents_model, wide_urn_model, circle_model):
        batch = replicate_final(model, 120, 32, 2024, chunk_size=10)
        singles = [simulate_final(model, 120, replicate_rng(2024, i))
                   for i in range(32)]
        assert batch.tolist() == singles


def test_replicate_final_is_chunking_and_worker_invariant(wide_urn_model):
    base = replicate_final(wide_urn_model, 150, 64, 5)
    for chunk in (1, 7, 63, 64, 1000):
        assert np.array_equal(
            base, replicate_final(wide_urn_model, 150, 64, 5, chunk_size=chunk))
    assert np.array_equal(
        base, replicate_final(wide_urn_model, 150, 64, 5, workers=4,
                              chunk_size=16))


def test_replicate_final_seed_changes_output(descents_model):
    a = replicate_final(descents_model, 80, 16, 0)
    b = replicate_final(descents_model, 80, 16, 1)
    assert not np.array_equal(a, b)
