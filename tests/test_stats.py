"""Monte Carlo verification layer."""

import math

import numpy as np
import pytest

from driftchain import (
    build_report,
    empirical_moment,
    ks_distance,
    model_clt_params,
    normal_cdf,
    replicate_final,
    rng_id,
    standardize,
    verify,
)


def test_normal_cdf_frozen_points():
    assert normal_cdf(0.0, 1.0) == 0.5
    assert normal_cdf(1.959963984540054, 1.0) == pytest.approx(0.975, abs=1e-9)
    assert normal_cdf(-1.0, 1.0) == pytest.approx(0.15865525393145707)
    # scaling: P(X <= sigma) is the standard value at 1
    assert normal_cdf(2.0, 4.0) == pytest.approx(normal_cdf(1.0, 1.0))


def test_empirical_moment_exact_small_sample():
    z = np.array([1.0, -1.0, 2.0, -2.0])
    m1, se1 = empirical_moment(z, 1)
    assert m1 == 0.0
    assert se1 == pytest.approx(math.sqrt(2.5 / 4))
    m2, _ = empirical_moment(z, 2)
    assert m2 == 2.5


def test_ks_distance_of_a_perfect_grid_is_small():
    # the inverse-CDF grid of quantile midpoints has KS ~ 1/(2n)
    n = 2000
    us = (np.arange(n) + 0.5) / n

    # invert the standard normal CDF by bisection on our own cdf
    def inv(u):
        lo, hi = -10.0, 10.0
        for _ in range(80):
            mid = (lo + hi) / 2
            if normal_cdf(mid, 1.0) < u:
                lo = mid
            else:
                hi = mid
        return mid

    z = np.array([inv(u) for u in us])
    assert ks_distance(z, 1.0) <= 1.0 / n + 1e-9


def test_ks_distance_validation():
    with pytest.raises(ValueError):
        ks_distance(np.zeros(4), 0.0)


def test_standardize_uses_model_scaling(descents_model):
    raws = np.array([10, 12])
    z = standardize(raws, descents_model, 21)
    # S = raw - (n-1)/2 = raw - 10, ell = 0
    assert z == pytest.approx([0.0, 2.0 / math.sqrt(21)])


def test_build_report_calibrates_on_synthetic_normal():
    rng = np.random.default_rng(12345)
    variance = 0.25
    z = rng.normal(0.0, math.sqrt(variance), size=60_000)
    report = build_report(z, "synthetic", n=10_000, reps=len(z),
                          master_seed=12345, limit_variance=variance,
                          ell=0.0, m_bound=1.0)
    assert report.passed
    assert [c.k for c in report.checks] == [1, 2, 3, 4]
    assert report.checks[1].estimate == pytest.approx(variance, rel=0.02)
    assert report.ks_distance < 0.01


def test_report_roundtrips_to_json(descents_model):
    report = verify(descents_model, 200, 500, 77)
    data = report.to_dict()
    assert data["model"] == "descents"
    assert data["rng"] == rng_id()
    assert data["reps"] == 500
    assert len(data["checks"]) == 4
    import json

    parsed = json.loads(report.to_json())
    assert parsed["master_seed"] == 77
    assert parsed["schema"] == "driftchain/report-v1"


def test_verify_is_deterministic(descents_model):
    a = verify(descents_model, 150, 400, 3)
    b = verify(descents_model, 150, 400, 3)
    assert a == b
    assert a.to_json() == b.to_json()


def test_verify_descents_passes_at_modest_size(descents_model):
    report = verify(descents_model, 1000, 8000, 2)
    assert report.passed
    params = model_clt_params(descents_model)
    assert report.limit_variance == pytest.approx(float(params.limit_variance))


def test_verify_floor_override_can_force_failure(descents_model, monkeypatch):
    # 3*SE alone leaves slack; a negative floor squeezes tolerance to zero
    import driftchain.stats as stats

    monkeypatch.setattr(stats, "default_moment_floor", lambda *args: -1.0)
    report = verify(descents_model, 300, 500, 9)
    assert not report.passed


def test_verify_k_max_controls_checks(descents_model):
    report = verify(descents_model, 100, 200, 5, k_max=2)
    assert [c.k for c in report.checks] == [1, 2]


def test_lattice_ks_is_bounded_away_from_zero(descents_model):
    """With atoms of mass ~1/sqrt(n), the KS distance cannot vanish."""
    n, reps = 100, 20_000
    raws = replicate_final(descents_model, n, reps, 31)
    z = standardize(raws, descents_model, n)
    params = model_clt_params(descents_model)
    d = ks_distance(z, float(params.limit_variance))
    assert d > 0.02   # half the central atom mass, roughly
