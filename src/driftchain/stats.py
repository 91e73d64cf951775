"""Monte Carlo verification of the Gaussian limit.

``verify`` simulates a model, standardises the final states to
z = (S_n - n*ell)/sqrt(n), and compares the empirical moments of z with
the limit Gaussian's moments.  Each check uses a 3-standard-error band
plus an absolute floor: the band absorbs sampling noise, the floor the
finite-n bias that a fixed n cannot shake off (odd moments pick up an
O(n^-1/2) offset from the chain's start state, even moments an O(1)
relative one).  The Kolmogorov-Smirnov distance against the limit normal
is reported but never failed on: lattice-valued S_n keeps it bounded away
from zero by about half the largest atom mass no matter how many
replicates are drawn.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from ._version import __version__
from .chain import replicate_final, rng_id
from .models import DriftModel
from .theory import DEFAULT_K_MAX, gaussian_moments, model_clt_params

REPORT_SCHEMA = "driftchain/report-v1"

# Relative floors for even moments (fraction of the target moment) and the
# scale factor for the odd-moment O(n^-1/2) bias allowance.  Heuristics,
# deliberately loose.
EVEN_MOMENT_REL_FLOOR = {2: 0.02, 4: 0.05}
ODD_MOMENT_BIAS_SCALE = 4.0


def standardize(raw_samples, model: DriftModel, n: int) -> np.ndarray:
    """Map raw final states to z = (S_n - n*ell)/sqrt(n)."""
    params = model_clt_params(model)
    raws = np.asarray(raw_samples, dtype=np.int64)
    s = model.affine.s_array(n, raws)
    return (s - n * float(params.ell)) / math.sqrt(n)


def empirical_moment(z: np.ndarray, k: int) -> tuple[float, float]:
    """(m_hat_k, standard error), with SE = sqrt((m_hat_2k - m_hat_k^2)/reps)."""
    z = np.asarray(z, dtype=np.float64)
    mk = float(np.mean(z**k))
    m2k = float(np.mean(z ** (2 * k)))
    se = math.sqrt(max(m2k - mk * mk, 0.0) / len(z))
    return mk, se


def normal_cdf(x: float, variance: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0 * variance)))


def ks_distance(z: np.ndarray, variance: float) -> float:
    """Sup distance between the empirical CDF of z and the N(0, variance) CDF."""
    if variance <= 0:
        raise ValueError("variance must be positive")
    zs = np.sort(np.asarray(z, dtype=np.float64))
    count = len(zs)
    cdf = np.array([normal_cdf(x, variance) for x in zs])
    grid = np.arange(1, count + 1) / count
    return float(np.max(np.maximum(grid - cdf, cdf - (grid - 1.0 / count))))


def default_moment_floor(k: int, n: int, limit_variance: float, target: float,
                         m_bound: float) -> float:
    if k % 2 == 0:
        rel = EVEN_MOMENT_REL_FLOOR.get(k, 0.02 + 0.015 * (k - 2))
        return rel * abs(target)
    scale = ODD_MOMENT_BIAS_SCALE * m_bound * k
    return scale * limit_variance ** ((k - 1) // 2) / math.sqrt(n)


@dataclass(frozen=True)
class MomentCheck:
    k: int
    estimate: float
    se: float
    target: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class ExperimentReport:
    """Everything needed to reproduce and audit one verification run."""

    schema: str
    model: str
    n: int
    reps: int
    master_seed: int
    rng: str
    version: str
    ell: float
    limit_variance: float
    gaussian_targets: tuple[float, ...]
    checks: tuple[MomentCheck, ...]
    ks_distance: float
    ks_note: str
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def check_moments(z: np.ndarray, limit_variance: float, k_max: int, n: int,
                  m_bound: float) -> list[MomentCheck]:
    """Compare empirical moments of z against the limit Gaussian's.

    The tolerance for order k is ``3*SE`` plus :func:`default_moment_floor`.
    """
    targets = gaussian_moments(limit_variance, k_max)
    checks = []
    for k in range(1, k_max + 1):
        target = float(targets[k])
        estimate, se = empirical_moment(z, k)
        floor = default_moment_floor(k, n, limit_variance, target, m_bound)
        tolerance = 3.0 * se + floor
        checks.append(MomentCheck(k=k, estimate=estimate, se=se, target=target,
                                  tolerance=tolerance,
                                  passed=abs(estimate - target) <= tolerance))
    return checks


def build_report(z: np.ndarray, model_name: str, n: int, reps: int,
                 master_seed: int, limit_variance: float, ell: float,
                 m_bound: float, k_max: int = DEFAULT_K_MAX) -> ExperimentReport:
    """Assemble a report from already-standardised samples (deterministic)."""
    checks = check_moments(z, limit_variance, k_max, n, m_bound)
    ks = ks_distance(z, limit_variance)
    targets = tuple(float(t) for t in gaussian_moments(limit_variance, k_max))
    return ExperimentReport(
        schema=REPORT_SCHEMA,
        model=model_name,
        n=n,
        reps=reps,
        master_seed=master_seed,
        rng=rng_id(),
        version=__version__,
        ell=float(ell),
        limit_variance=float(limit_variance),
        gaussian_targets=targets,
        checks=tuple(checks),
        ks_distance=ks,
        ks_note=("diagnostic only: lattice-valued sums keep this bounded "
                 "away from zero"),
        passed=all(c.passed for c in checks),
    )


def verify(model: DriftModel, n: int, reps: int, master_seed: int,
           k_max: int = DEFAULT_K_MAX) -> ExperimentReport:
    """Simulate, standardise, and run the moment checks for one model."""
    params = model_clt_params(model)
    raws = replicate_final(model, n, reps, master_seed)
    z = standardize(raws, model, n)
    return build_report(z, model.name, n, reps, master_seed,
                        float(params.limit_variance), float(params.ell),
                        float(model.coeffs.M), k_max=k_max)
