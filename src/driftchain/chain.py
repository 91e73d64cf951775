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

import threading
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
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


class _StepTables:
    """Per-step cache of float CDF tables for a contiguous band of raw states.

    Row contents depend only on (model, n, raw) — each mass is the exactly
    rounded float of the rational pmf mass — so lazily widening the band for
    one chunk of replicates never changes what another chunk samples.  The
    CDF is kept transposed, one contiguous array per column.  The kernel
    makes one cache per block of steps and drops it when the block ends.
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
        # A pick is the number of CDF entries at or below u, clamped to the
        # last atom of nonzero mass in case the row sums to just under 1.  So
        # the last column is never needed, and in rows that end in zero
        # masses the entries from the last nonzero atom on are set to inf.
        cdf_t = np.ascontiguousarray(np.cumsum(masses[:, :-1], axis=1).T)
        if not masses[:, -1].all():
            ncols = masses.shape[1]
            last_nonzero = ncols - 1 - np.argmax(masses[:, ::-1] > 0, axis=1)
            cdf_t[np.arange(ncols - 1)[:, None] >= last_nonzero] = np.inf
        return (lo, hi, values, cdf_t)


# Steps per block of the Monte Carlo kernel.  Each replicate draws this many
# uniforms at a time, and the step tables of a block are freed when it ends.
STEP_BLOCK = 256


def _advance(raw: np.ndarray, gens: list, t0: int, width: int,
             tables: _StepTables, tile: np.ndarray, block: np.ndarray) -> None:
    """Move one chunk of replicates through steps t0 .. t0 + width - 1.

    Each replicate's next ``width`` uniforms are drawn into ``tile`` rows,
    STEP_BLOCK replicates at a time, and copied transposed into ``block`` so
    that step t reads one contiguous row.  ``raw`` is updated in place.
    """
    count = len(gens)
    uniforms = block[:width, :count]
    for j0 in range(0, count, STEP_BLOCK):
        part = tile[:min(STEP_BLOCK, count - j0), :width]
        for row, g in zip(part, gens[j0:j0 + STEP_BLOCK]):
            g.random(out=row)
        uniforms[:, j0:j0 + len(part)] = part.T
    for t in range(width):
        table = tables.get(t0 + t, int(raw.min()), int(raw.max()))
        raw += _increments(table, raw, uniforms[t])


def _increments(table: tuple, raw: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Raw increments for states ``raw`` and uniforms ``u``, one per replicate:
    one comparison per column of the clamped, transposed step table."""
    lo, _, values, cdf_t = table
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

    The kernel streams: every replicate keeps one generator, and the steps
    run in blocks of STEP_BLOCK.  Within a block the replicates run in chunks
    of ``chunk_size`` (spread over ``workers`` threads), each chunk drawing
    its next STEP_BLOCK uniforms per replicate into a (step, replicate)
    buffer, then taking the block's steps one at a time.  Each step's CDF
    table is built once per block, shared by every chunk, and freed when the
    block ends.  Memory is therefore O(chunk_size * STEP_BLOCK) for the
    uniforms plus one block of step tables and one generator per replicate,
    whatever ``n`` is.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if n < model.start.n:
        raise ValueError(f"target step {n} precedes start index {model.start.n}")
    steps = n - model.start.n
    if steps == 0:
        return np.full(reps, model.start.raw, dtype=np.int64)

    bounds = [(i, min(i + chunk_size, reps)) for i in range(0, reps, chunk_size)]
    chunks = [([replicate_rng(master_seed, i) for i in range(i0, i1)],
               np.full(i1 - i0, model.start.raw, dtype=np.int64))
              for i0, i1 in bounds]
    # Each thread takes a fixed share of the chunks and reuses one pair of
    # uniform buffers for all of them.
    nlanes = min(max(workers, 1), len(chunks))
    lanes = [chunks[k::nlanes] for k in range(nlanes)]
    size, depth = bounds[0][1], min(STEP_BLOCK, steps)
    buffers = [(np.empty((min(STEP_BLOCK, size), depth)), np.empty((depth, size)))
               for _ in lanes]

    def run_lane(lane, buffer, t0, width, tables):
        for gens, raw in lane:
            _advance(raw, gens, t0, width, tables, *buffer)

    with ThreadPoolExecutor(nlanes) if nlanes > 1 else nullcontext() as pool:
        for t0 in range(model.start.n, n, STEP_BLOCK):
            run = partial(run_lane, t0=t0, width=min(STEP_BLOCK, n - t0),
                          tables=_StepTables(model))
            if pool is None:
                run(lanes[0], buffers[0])
            else:
                list(pool.map(run, lanes, buffers))
    return np.concatenate([raw for _, raw in chunks])
