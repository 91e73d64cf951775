"""Core chain machinery.

A :class:`DriftModel` is a time-inhomogeneous Markov chain on an integer
``raw`` state.  The quantity the limit theory speaks about is an affine
image ``S_n = (a*raw + b + c*n) / d`` of that state, and the model promises
that the conditional moments of the increments ``a_{n+1} = S_{n+1} - S_n``
are affine in ``S_n``:

    E[a_{n+1}^k | history] = D_k(n) - (alpha_k(n) / n) * S_n,   k = 1, 2, 3

with the coefficient sequences converging to limits.  Everything downstream
(exact DP, CLT constants, Monte Carlo) only touches models through this
interface.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import numpy as np

from .errors import UnreachableStateError
from .measures import FiniteMeasure

RNG_ALGORITHM = "philox4x64"


@dataclass(frozen=True)
class ChainState:
    """Chain position: step index ``n`` and the integer ``raw`` state."""

    n: int
    raw: int


@dataclass(frozen=True)
class AffineMap:
    """S_n = (a*raw + b + c*n) / d with integer a, b, c and d > 0.

    A step that changes ``raw`` by ``v`` changes ``S`` by ``(a*v + c) / d``,
    so the same map also converts raw increments to S increments.
    """

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.d <= 0:
            raise ValueError("AffineMap denominator d must be positive")
        if self.a == 0:
            raise ValueError("AffineMap must be injective in raw (a != 0)")

    def s_value(self, n: int, raw: int | Fraction) -> Fraction:
        return Fraction(self.a * raw + self.b + self.c * n, self.d)

    def s_increment(self, raw_step: int | Fraction) -> Fraction:
        return Fraction(self.a * raw_step + self.c, self.d)

    def s_array(self, n: int, raw: np.ndarray) -> np.ndarray:
        return (self.a * raw.astype(np.float64) + self.b + self.c * n) / self.d


@dataclass(frozen=True)
class DriftCoefficients:
    """Exact drift sequences, their limits, and the increment bound M.

    ``D_n(k, n)`` and ``alpha_over_n(k, n)`` return the exact sequences
    D_k(n) and alpha_k(n) / n of the ansatz for k in {1, 2, 3}.  The drift
    rate is stored divided by n so that it stays finite at a model's start
    index even when that index is 0 (where S is identically zero and the
    drift term vanishes).
    """

    D_n: Callable[[int, int], Fraction]
    alpha_over_n: Callable[[int, int], Fraction]
    alpha_lim: tuple[Fraction, Fraction, Fraction]
    D_lim: tuple[Fraction, Fraction, Fraction]
    M: Fraction

    def drift_moment(self, k: int, n: int, s: Fraction) -> Fraction:
        """The affine conditional-moment ansatz D_k(n) - (alpha_k(n)/n) S."""
        return self.D_n(k, n) - self.alpha_over_n(k, n) * s

    def alpha_limit(self, k: int) -> Fraction:
        return self.alpha_lim[k - 1]

    def D_limit(self, k: int) -> Fraction:
        return self.D_lim[k - 1]


@dataclass(frozen=True)
class DriftModel:
    name: str
    start: ChainState
    affine: AffineMap
    coeffs: DriftCoefficients
    increment_law: Callable[[ChainState], FiniteMeasure]
    reachable_range: Callable[[int], tuple[int, int]]
    # Orders k for which the drift ansatz holds exactly on every reachable
    # state.  The circle model only guarantees k = 1.
    exact_moment_orders: frozenset = frozenset({1, 2, 3})
    # Optional batch form of increment_law, read by both engines through
    # transition_band: law_band(n, lo, hi) -> (values, numerators, denominator)
    # where numerators[i, j] / denominator == increment_law(n, lo + i).mass(values[j])
    # exactly, or None to fall back to increment_law.  Rows may contain zero
    # numerators; columns are sorted by value.
    law_band: Callable[[int, int, int], tuple[np.ndarray, np.ndarray, int]] | None = None
    urn: Any = None
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# state-level operations
# ---------------------------------------------------------------------------

def increment_pmf(model: DriftModel, state: ChainState) -> FiniteMeasure:
    """Law of the raw increment out of ``state``.

    Raises :class:`UnreachableStateError` when the state lies outside the
    model's declared reachable range for its step index.
    """
    lo, hi = model.reachable_range(state.n)
    if state.n < model.start.n or not lo <= state.raw <= hi:
        raise UnreachableStateError(
            f"{model.name}: state (n={state.n}, raw={state.raw}) is outside "
            f"the reachable range [{lo}, {hi}] at step {state.n}")
    return model.increment_law(state)


def transition_band(model: DriftModel, n: int, lo: int,
                    hi: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Increment laws of the states lo..hi at step n as one integer table.

    Returns ``(values, numerators, den)`` with ``numerators[i, j] / den`` the
    exact mass of raw increment ``values[j]`` out of state ``lo + i``; columns
    are sorted by value.  The model's ``law_band`` is used when it gives a
    band; otherwise the table is built from per-state ``increment_pmf`` over
    the lcm of the mass denominators.
    """
    if model.law_band is not None:
        band = model.law_band(n, lo, hi)
        if band is not None:
            values, numerators, den = band
            return np.asarray(values, dtype=np.int64), numerators, int(den)
    laws = [[(v, *m.as_integer_ratio())
             for v, m in increment_pmf(model, ChainState(n, raw)).atoms]
            for raw in range(lo, hi + 1)]
    values = sorted({v for law in laws for v, _, _ in law})
    col = {v: j for j, v in enumerate(values)}
    den = math.lcm(*(q for law in laws for _, _, q in law))
    rows = [[0] * len(values) for _ in laws]
    for row, law in zip(rows, laws):
        for v, p, q in law:
            row[col[v]] = p * (den // q)
    numerators = np.array(rows, dtype=np.int64 if den < 2**63 else object)
    return np.array(values, dtype=np.int64), numerators, den


def band_masses(numerators: np.ndarray, den: int) -> np.ndarray:
    """Float masses ``numerators / den``, each exactly rounded.

    Below 2**53 both operands convert to float exactly, so one float division
    rounds once; above it Python's integer true division does the same.
    """
    if den < 2**53:
        return np.asarray(numerators, dtype=np.float64) / float(den)
    return (np.asarray(numerators, dtype=object) / den).astype(np.float64)


def conditional_moment(model: DriftModel, state: ChainState, k: int) -> Fraction | float:
    """E[a_{n+1}^k | state] with the increment expressed in S units."""
    if k not in (1, 2, 3):
        raise ValueError(f"conditional moments are defined for k in 1..3, got {k}")
    pmf = increment_pmf(model, state)
    return sum(m * model.affine.s_increment(v) ** k for v, m in pmf.atoms)


def validate_drift_form(model: DriftModel, n_max: int, k: int,
                        state_filter: Callable[[int, int], bool] | None = None) -> float:
    """Worst absolute gap between conditional moments and the drift ansatz.

    Sweeps every DP-reachable state with start <= n <= n_max (exact rational
    arithmetic, so a genuinely affine model comes back as exactly 0.0).
    ``state_filter(n, raw)`` can restrict the sweep to a subset of states.
    """
    from . import exact  # local import: exact depends on this module

    worst = Fraction(0)
    for dist in exact.evolve_iter(model, n_max, mode="exact"):
        n = dist.n
        for raw, p in dist.items():
            if p == 0:
                continue
            if state_filter is not None and not state_filter(n, raw):
                continue
            lhs = conditional_moment(model, ChainState(n, raw), k)
            rhs = model.coeffs.drift_moment(k, n, model.affine.s_value(n, raw))
            gap = abs(lhs - rhs)
            if gap > worst:
                worst = gap
    return float(worst)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def rng_id() -> str:
    """Identifier of the counter-based generator used for replication."""
    return f"{RNG_ALGORITHM}(numpy-{np.__version__})"


def replicate_rng(master_seed: int, index: int) -> np.random.Generator:
    """Independent stream for one replicate, keyed by (master_seed, index).

    Streams are counter-based (Philox), so replicate ``index`` always sees
    the same uniforms no matter how work is batched or parallelised.
    """
    if not 0 <= master_seed < 2**64:
        raise ValueError("master_seed must fit in an unsigned 64-bit integer")
    if not 0 <= index < 2**64:
        raise ValueError("replicate index must fit in an unsigned 64-bit integer")
    key = np.array([master_seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _sample_raw_step(pmf: FiniteMeasure, u: float):
    """Inverse-CDF draw over atoms sorted by value (float cumulative masses)."""
    cdf = []
    acc = 0.0
    for _, m in pmf.atoms:
        acc += float(m)
        cdf.append(acc)
    idx = bisect_right(cdf, u)
    if idx >= len(cdf):  # guard against cumulative rounding below 1.0
        idx = len(cdf) - 1
    return pmf.atoms[idx][0]


def simulate_final(model: DriftModel, n: int, rng: np.random.Generator) -> int:
    """One trajectory from the start state to step ``n``; returns final raw."""
    if n < model.start.n:
        raise ValueError(f"target step {n} precedes start index {model.start.n}")
    raw = model.start.raw
    for step_n in range(model.start.n, n):
        pmf = increment_pmf(model, ChainState(step_n, raw))
        raw += _sample_raw_step(pmf, rng.random())
    return raw


class _StepTables:
    """Per-step cache of float CDF rows for a contiguous band of raw states.

    Row contents depend only on (model, n, raw) — each mass is the exactly
    rounded float of the rational pmf mass — so lazily widening the band for
    one chunk of replicates never changes what another chunk samples.
    """

    _PAD = 16

    def __init__(self, model: DriftModel):
        self.model = model
        self._tables: dict[int, tuple] = {}
        self._lock = threading.Lock()

    def get(self, n: int, lo: int, hi: int):
        with self._lock:
            cached = self._tables.get(n)
            if cached is not None and cached[0] <= lo and hi <= cached[1]:
                return cached
            if cached is not None:
                lo = min(lo, cached[0])
                hi = max(hi, cached[1])
            rlo, rhi = self.model.reachable_range(n)
            lo = max(rlo, lo - self._PAD)
            hi = min(rhi, hi + self._PAD)
            table = self._build(n, lo, hi)
            self._tables[n] = table
            return table

    def _build(self, n: int, lo: int, hi: int):
        values, numerators, den = transition_band(self.model, n, lo, hi)
        masses = band_masses(numerators, den)
        cdf = np.cumsum(masses, axis=1)
        last_nonzero = (masses.shape[1] - 1
                        - np.argmax((masses > 0)[:, ::-1], axis=1)).astype(np.int64)
        return (lo, hi, values, cdf, last_nonzero)


def replicate_final(model: DriftModel, n: int, reps: int, master_seed: int,
                    workers: int = 1, chunk_size: int = 8192) -> np.ndarray:
    """Final raw states of ``reps`` independent trajectories.

    Replicate ``i`` consumes uniforms from its own (master_seed, i) stream,
    one per step, mapped through the increment CDF with atoms in value
    order.  The output array is therefore bitwise identical for any
    ``workers``/``chunk_size`` choice.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if n < model.start.n:
        raise ValueError(f"target step {n} precedes start index {model.start.n}")
    steps = n - model.start.n
    out = np.empty(reps, dtype=np.int64)
    if steps == 0:
        out.fill(model.start.raw)
        return out

    tables = _StepTables(model)

    def run_chunk(i0: int, i1: int) -> np.ndarray:
        count = i1 - i0
        uniforms = np.empty((count, steps))
        for j in range(count):
            uniforms[j] = replicate_rng(master_seed, i0 + j).random(steps)
        raw = np.full(count, model.start.raw, dtype=np.int64)
        for t, step_n in enumerate(range(model.start.n, n)):
            lo, _, values, cdf, last_nz = tables.get(
                step_n, int(raw.min()), int(raw.max()))
            rows = raw - lo
            picks = (uniforms[:, t][:, None] >= cdf[rows]).sum(axis=1)
            np.minimum(picks, last_nz[rows], out=picks)
            raw += values[picks]
        return raw

    bounds = [(i, min(i + chunk_size, reps)) for i in range(0, reps, chunk_size)]
    if workers > 1 and len(bounds) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda b: run_chunk(*b), bounds))
    else:
        results = [run_chunk(*b) for b in bounds]
    for (i0, i1), chunk in zip(bounds, results):
        out[i0:i1] = chunk
    return out
