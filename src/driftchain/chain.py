"""Chain engine: state-level operations and the Monte Carlo sampler.

The model types (:class:`ChainState`, :class:`AffineMap`,
:class:`DriftCoefficients`, :class:`DriftModel`) and :func:`band_law` live in
:mod:`driftchain.models`, which builds models without importing numpy; they
are imported here so that ``driftchain.chain.DriftModel`` and the rest still
resolve.  This module and the other engines, :mod:`driftchain.exact` and
:mod:`driftchain.stats`, are the ones that load numpy.

The exact DP and the Monte Carlo sampler read a model's transition law, its
integer band ``DriftModel.law_band``, through :func:`transition_band`.  The
band broadcasts over an array of steps, so the sampler builds its CDF tables
32 steps at a time from one call, and the DP reads 16 steps' rows per call
(:func:`band_block`).  Both engines touch models only through this
interface.  The check that a model's law has the drift form it holds sweeps
the DP, so it lives beside it, in :func:`driftchain.exact.validate_drift_form`.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import partial
from itertools import accumulate

import numpy as np

from .errors import ModelValidationError, UnreachableStateError
from .measures import FiniteMeasure
from .models import (  # noqa: F401  (re-exported: driftchain.chain.X still resolves)
    AffineMap,
    ChainState,
    DriftCoefficients,
    DriftModel,
    band_law,
)

RNG_ALGORITHM = "philox4x64"


# ---------------------------------------------------------------------------
# state-level operations
# ---------------------------------------------------------------------------

def _check_reachable(model: DriftModel, n: int, raw: int) -> None:
    lo, hi = model.reachable_range(n)
    if n < model.start.n or not lo <= raw <= hi:
        raise UnreachableStateError(
            f"{model.name}: state (n={n}, raw={raw}) is outside "
            f"the reachable range [{lo}, {hi}] at step {n}")


def increment_pmf(model: DriftModel, state: ChainState) -> FiniteMeasure:
    """Law of the raw increment out of ``state``.

    Raises :class:`UnreachableStateError` when the state lies outside the
    model's declared reachable range for its step index.
    """
    _check_reachable(model, state.n, state.raw)
    return model.increment_law(state)


def transition_band(model: DriftModel, n, lo: int,
                    hi: int) -> tuple[np.ndarray, np.ndarray, int | np.ndarray]:
    """Increment laws of the states lo..hi at step n as one integer table.

    Returns the model's ``law_band(n, lo, hi)`` with ``values`` as int64 and
    ``den`` as a Python int, so the exact DP can multiply denominators
    without overflow.  For an array of steps ``den`` is passed through as
    the model's per-step array.
    """
    values, numerators, den = model.law_band(n, lo, hi)
    return (np.asarray(values, dtype=np.int64), numerators,
            den if isinstance(n, np.ndarray) else int(den))


def band_block(model: DriftModel, n0: int, k: int, lo: int,
               hi: int) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Bands of steps n0..n0+k-1 over the raw states lo..hi, from one call.

    The rows are clipped to the union of the k steps' reachable ranges.
    Returns ``(lo, values, numerators, den)`` with the clipped ``lo``:
    ``numerators[t]`` and ``den[t]`` belong to step n0 + t.
    """
    lows, highs = zip(*map(model.reachable_range, range(n0, n0 + k)))
    lo, hi = max(lo, min(lows)), min(hi, max(highs))
    return (lo, *transition_band(model, np.arange(n0, n0 + k, dtype=np.int64), lo, hi))


def band_masses(numerators: np.ndarray, den) -> np.ndarray:
    """Float masses ``numerators / den``, each exactly rounded.

    Below 2**53 both operands convert to float exactly, so one float division
    rounds once; above it Python's integer true division does the same.  A
    per-step ``den`` array divides the (steps, rows, values) numerators step
    by step, each step rounded as a scalar ``den`` would be.
    """
    if isinstance(den, np.ndarray):
        if (den < 2**53).all():
            # cast inside the division, without a float copy of the band
            return np.divide(numerators, np.asarray(den, dtype=np.float64)[:, None, None],
                             dtype=np.float64, casting="unsafe")
        return np.stack([band_masses(nums, int(d)) for nums, d in zip(numerators, den)])
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


def _sample_raw_step(values: list, numerators: list, den: int, u: float) -> int:
    """Inverse-CDF draw over a band row's nonzero atoms, sorted by value: the
    float masses ``c / den`` (int division, correctly rounded), summed in order."""
    atoms = [(v, c) for v, c in zip(values, numerators) if c]
    cdf = list(accumulate(c / den for _, c in atoms))
    idx = bisect_right(cdf, u)
    if idx >= len(cdf):  # guard against cumulative rounding below 1.0
        idx = len(cdf) - 1
    return atoms[idx][0]


def simulate_final(model: DriftModel, n: int, rng: np.random.Generator) -> int:
    """One trajectory from the start state to step ``n``; returns final raw.
    Each step reads the state's one-row band, independently of the kernel."""
    if n < model.start.n:
        raise ValueError(f"target step {n} precedes start index {model.start.n}")
    raw = model.start.raw
    for step_n in range(model.start.n, n):
        _check_reachable(model, step_n, raw)
        values, nums, den = transition_band(model, step_n, raw, raw)
        raw += _sample_raw_step(values.tolist(), nums[0].tolist(), den, rng.random())
    return raw


def _block_table(model: DriftModel, n0: int, k: int, lo: int, hi: int):
    """Float CDF tables of steps n0..n0+k-1 for the raw states lo..hi.

    The rows are those of :func:`band_block`: clipped to the union of the k
    steps' reachable ranges, all k steps from one call.  A row depends only on
    (model, n, raw): each mass is the exactly rounded float of the rational
    pmf mass, and the cumulative sum (left-to-right column adds, the same
    bits as ``np.cumsum``) and the clamp below work row by row.  So a chunk
    of replicates samples the same increments whatever range or block its
    table spans.  Returns ``(lo, values, cdf)``; ``cdf[t]`` is step n0 + t's
    CDF transposed, one contiguous array per column.
    """
    lo, values, numerators, den = band_block(model, n0, k, lo, hi)
    masses = band_masses(numerators, den)
    # A pick is the number of CDF entries at or below u, clamped to the
    # last atom of nonzero mass in case the row sums to just under 1.  So
    # the last column is never needed, and in rows that end in zero
    # masses the entries from the last nonzero atom on are set to inf.
    ncols = masses.shape[2]
    clamp = None
    if not masses[..., -1].all():
        last_nonzero = ncols - 1 - np.argmax(masses[..., ::-1] > 0, axis=-1)
        clamp = np.arange(ncols - 1)[:, None, None] >= last_nonzero
    # The cumulative sum then runs in place over the mass columns, so the
    # clamp above had to read the masses first.
    cdf = np.moveaxis(masses, 2, 0)[:-1]
    for j in range(1, ncols - 1):
        np.add(cdf[j - 1], cdf[j], out=cdf[j])
    if clamp is not None:
        cdf[clamp] = np.inf
    return (lo, values, cdf.swapaxes(0, 1))


# Steps per block of the Monte Carlo kernel: each replicate of a running
# chunk draws this many uniforms at a time into a (step, replicate) buffer.
STEP_BLOCK = 256
# Steps per CDF table; divides STEP_BLOCK.  Longer tables measured slower
# and larger: a table's rows widen with its length.
_TABLE_STEPS = 32


def _run_chunk(model: DriftModel, n: int, master_seed: int,
               indices: range) -> np.ndarray:
    """Final raw states of replicates ``indices``, run on their own.

    The chunk makes its own generators and buffers.  Block by block, each
    replicate's next STEP_BLOCK uniforms are drawn into ``tile`` rows,
    STEP_BLOCK replicates at a time, and copied transposed into ``uniforms``
    so that step t reads one contiguous row; then the block's steps run one
    at a time, _TABLE_STEPS steps to a table that spans every state the
    chunk can reach in them.
    """
    gens = [replicate_rng(master_seed, i) for i in indices]
    count = len(gens)
    raw = np.full(count, model.start.raw, dtype=np.int64)
    values = transition_band(model, model.start.n, model.start.raw, model.start.raw)[0]
    down, up = min(int(values[0]), 0), max(int(values[-1]), 0)
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
        for b in range(0, width, _TABLE_STEPS):
            k = min(_TABLE_STEPS, width - b)
            low, high = int(raw.min()), int(raw.max())
            rlo, rhi = model.reachable_range(t0 + b)
            if low < rlo or high > rhi:
                raise UnreachableStateError(
                    f"{model.name}: states {low}..{high} at step {t0 + b} leave "
                    f"the reachable range [{rlo}, {rhi}]")
            # A wrap past int64 in the last table meets no later range check.
            if low + k * down < -2**63 or high + k * up >= 2**63:
                raise ModelValidationError(
                    f"{model.name}: states {low}..{high} at step {t0 + b} may "
                    f"leave int64 within {k} steps")
            lo, block_values, cdf = _block_table(
                model, t0 + b, k, low + (k - 1) * down, high + (k - 1) * up)
            if not np.array_equal(block_values, values):
                raise ModelValidationError(
                    f"{model.name}: law_band values at steps {t0 + b}.."
                    f"{t0 + b + k - 1} differ from those at the start step")
            for t in range(k):
                raw += _increments((lo, values, cdf[t]), raw, uniforms[b + t])
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
    uniform buffers, and one CDF table per 32 steps, built from one
    ``law_band`` call.  With ``workers`` > 1 the chunks are spread over that
    many threads.  Memory is therefore
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
        # imported here: concurrent.futures and the logging it loads cost
        # every other start-up several milliseconds
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(min(workers, len(chunks))) as pool:
            return np.concatenate(list(pool.map(run, chunks)))
    return np.concatenate(list(map(run, chunks)))
