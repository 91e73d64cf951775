"""Core chain machinery.

A :class:`DriftModel` is a time-inhomogeneous Markov chain on an integer
``raw`` state.  The quantity the limit theory speaks about is an affine
image ``S_n = (a*raw + b + c*n) / d`` of that state, and the model promises
that the conditional moments of the increments ``a_{n+1} = S_{n+1} - S_n``
are affine in ``S_n``:

    E[a_{n+1}^k | history] = D_k(n) - (alpha_k(n) / n) * S_n,   k = 1, 2, 3

with coefficients of one shared form, alpha_k(n)/n = alpha_k/(n + c) and
D_k(n) = D_k + e_k/(n + c), which a model states as data: the shift c, the
limits alpha_k, D_k and the corrections e_k (:class:`DriftCoefficients`).
A model states its transition law once, as an integer band over a range of
states (``DriftModel.law_band``); the exact DP and the Monte Carlo sampler
read it through :func:`transition_band`, and the per-state law is one row of
it (:func:`band_law`).  Everything downstream (exact DP, CLT constants,
Monte Carlo) only touches models through this interface.  The check that a
model's law has the drift form it states sweeps the DP, so it lives beside
it, in :func:`driftchain.exact.validate_drift_form`.
"""

from __future__ import annotations

from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

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

    def s_array(self, n: int, raw: np.ndarray) -> np.ndarray:
        return (self.a * raw.astype(np.float64) + self.b + self.c * n) / self.d


@dataclass(frozen=True)
class DriftCoefficients:
    """Drift sequences in the one-shift form, and the increment bound M.

    For k in {1, 2, 3}, alpha_k(n)/n = alpha_lim[k-1] / (n + c) and
    D_k(n) = D_lim[k-1] + D_corr[k-1] / (n + c), so the limits are part of
    the sequences that the exact checks compare with the transition law.
    ``c`` is the shift of :class:`~driftchain.exact.LemmaProblem`; n + c > 0
    keeps the drift rate finite at a start index of 0.
    """

    c: Fraction
    alpha_lim: tuple[Fraction, Fraction, Fraction]
    D_lim: tuple[Fraction, Fraction, Fraction]
    D_corr: tuple[Fraction, Fraction, Fraction]
    M: Fraction

    def D_n(self, k: int, n: int) -> Fraction:
        return self.D_lim[k - 1] + self.D_corr[k - 1] / (n + self.c)

    def alpha_over_n(self, k: int, n: int) -> Fraction:
        return self.alpha_lim[k - 1] / (n + self.c)


@dataclass(frozen=True)
class DriftModel:
    name: str
    start: ChainState
    affine: AffineMap
    coeffs: DriftCoefficients
    # The transition law, read by both engines through transition_band:
    # law_band(n, lo, hi) -> (values, numerators, denominator) where
    # numerators[i, j] / denominator is the exact mass of raw increment
    # values[j] out of state lo + i.  Rows may contain zero numerators;
    # columns are sorted by value.  Numerators are int64, or Python ints in
    # an object array once the denominator reaches 2**63.
    law_band: Callable[[int, int, int], tuple[np.ndarray, np.ndarray, int]]
    # Per-state form of the same law, band_law(law_band) for every model.
    increment_law: Callable[[ChainState], FiniteMeasure]
    reachable_range: Callable[[int], tuple[int, int]]
    # Orders k for which the drift ansatz holds exactly on every reachable
    # state.  The circle model only guarantees k = 1.
    exact_moment_orders: frozenset = frozenset({1, 2, 3})


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

    Returns the model's ``law_band(n, lo, hi)`` with ``values`` as int64 and
    ``den`` as a Python int, so the exact DP can multiply denominators
    without overflow.
    """
    values, numerators, den = model.law_band(n, lo, hi)
    return np.asarray(values, dtype=np.int64), numerators, int(den)


def band_law(law_band: Callable) -> Callable[[ChainState], FiniteMeasure]:
    """Per-state increment law: the nonzero atoms of the state's one-row band."""

    def law(state: ChainState) -> FiniteMeasure:
        values, numerators, den = law_band(state.n, state.raw, state.raw)
        return FiniteMeasure(tuple(
            (v, Fraction(c, int(den)))
            for v, c in zip(values.tolist(), numerators[0].tolist()) if c))

    return law


def band_masses(numerators: np.ndarray, den: int) -> np.ndarray:
    """Float masses ``numerators / den``, each exactly rounded.

    Below 2**53 both operands convert to float exactly, so one float division
    rounds once; above it Python's integer true division does the same.
    """
    if den < 2**53:
        return np.asarray(numerators, dtype=np.float64) / float(den)
    return (np.asarray(numerators, dtype=object) / den).astype(np.float64)


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


def _step_table(model: DriftModel, n: int, lo: int, hi: int):
    """Float CDF table of step ``n`` for the raw states lo..hi.

    A row depends only on (model, n, raw): each mass is the exactly rounded
    float of the rational pmf mass, and the cumulative sum and the clamp below
    work row by row.  So a chunk of replicates samples the same increments
    whatever range its table spans.  The CDF is kept transposed, one
    contiguous array per column.
    """
    values, numerators, den = transition_band(model, n, lo, hi)
    masses = band_masses(numerators, den)
    # A pick is the number of CDF entries at or below u, clamped to the
    # last atom of nonzero mass in case the row sums to just under 1.  So
    # the last column is never needed, and in rows that end in zero
    # masses the entries from the last nonzero atom on are set to inf.
    cdf_t = np.ascontiguousarray(np.cumsum(masses[:, :-1], axis=1).T)
    if not masses[:, -1].all():
        ncols = masses.shape[1]
        last_nonzero = ncols - 1 - np.argmax(masses[:, ::-1] > 0, axis=1)
        cdf_t[np.arange(ncols - 1)[:, None] >= last_nonzero] = np.inf
    return (lo, values, cdf_t)


# Steps per block of the Monte Carlo kernel: each replicate of a running
# chunk draws this many uniforms at a time into a (step, replicate) buffer.
STEP_BLOCK = 256


def _run_chunk(model: DriftModel, n: int, master_seed: int,
               indices: range) -> np.ndarray:
    """Final raw states of replicates ``indices``, run on their own.

    The chunk makes its own generators and buffers.  Block by block, each
    replicate's next STEP_BLOCK uniforms are drawn into ``tile`` rows,
    STEP_BLOCK replicates at a time, and copied transposed into ``uniforms``
    so that step t reads one contiguous row; then the block's steps run one
    at a time, each over a table spanning the chunk's current states.
    """
    gens = [replicate_rng(master_seed, i) for i in indices]
    count = len(gens)
    raw = np.full(count, model.start.raw, dtype=np.int64)
    depth = min(STEP_BLOCK, n - model.start.n)
    tile = np.empty((min(STEP_BLOCK, count), depth))
    uniforms = np.empty((depth, count))
    for t0 in range(model.start.n, n, STEP_BLOCK):
        width = min(STEP_BLOCK, n - t0)
        for j0 in range(0, count, STEP_BLOCK):
            part = tile[:min(STEP_BLOCK, count - j0), :width]
            for row, g in zip(part, gens[j0:j0 + STEP_BLOCK]):
                g.random(out=row)
            uniforms[:width, j0:j0 + len(part)] = part.T
        for t in range(width):
            table = _step_table(model, t0 + t, int(raw.min()), int(raw.max()))
            raw += _increments(table, raw, uniforms[t])
    return raw


def _increments(table: tuple, raw: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Raw increments for states ``raw`` and uniforms ``u``, one per replicate:
    one comparison per column of the clamped, transposed step table."""
    lo, values, cdf_t = table
    rows = raw - lo
    picks = np.zeros(len(raw), dtype=np.intp)
    for column in cdf_t:
        picks += u >= column[rows]
    return values[picks]


def replicate_final(model: DriftModel, n: int, reps: int, master_seed: int,
                    workers: int = 1, chunk_size: int = 8192) -> np.ndarray:
    """Final raw states of ``reps`` independent trajectories.

    Replicate ``i`` consumes uniforms from its own (master_seed, i) stream,
    one per step, in step order, mapped through the increment CDF with atoms
    in value order.  The output array is therefore bitwise identical for any
    ``workers``/``chunk_size`` choice.

    The replicates run in chunks of ``chunk_size``, each a self-contained
    run (:func:`_run_chunk`): its own generators, its own STEP_BLOCK-step
    uniform buffers, and one step table per step.  With ``workers`` > 1 the
    chunks are spread over that many threads.  Memory is therefore
    O(workers * chunk_size * STEP_BLOCK) plus the final states, whatever
    ``n`` and ``reps`` are.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if n < model.start.n:
        raise ValueError(f"target step {n} precedes start index {model.start.n}")
    if n == model.start.n:
        return np.full(reps, model.start.raw, dtype=np.int64)

    chunks = [range(i, min(i + chunk_size, reps)) for i in range(0, reps, chunk_size)]
    run = partial(_run_chunk, model, n, master_seed)
    if workers > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(min(workers, len(chunks))) as pool:
            return np.concatenate(list(pool.map(run, chunks)))
    return np.concatenate(list(map(run, chunks)))
