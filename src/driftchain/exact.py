"""Exact distribution engine and asymptotic-recursion tools.

``evolve_iter``/``evolve_exact`` push the full lattice law of a model
forward one step at a time.  The transition rows (the model's
``law_band``, its only statement of the transition law) come 16 steps at a
time from one call, :func:`~driftchain.chain.band_block`, which covers
every state the law can reach in those steps.  Each step's new support is
found from the rows near the edges of the old one, not from every row.  In
``exact`` mode the law is kept as Python-int numerators over one shared
denominator, the product of the step denominators; ``float`` mode runs the
same sweep in doubles.
``validate_drift_form`` walks the same sweep and checks every reachable
state's conditional increment moments, read from the same band rows,
against the drift data the model states.  ``exact_moments12`` runs the
closed first and second moment recursions implied by the drift ansatz,
which is much cheaper than the DP and serves as an independent route to
the same numbers.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .chain import AffineMap, DriftModel, band_block, band_masses, transition_band
from .errors import BudgetExceededError, ModelValidationError, UnreachableStateError

DEFAULT_CELL_BUDGET = 10_000_000
# Steps per law_band call of the DP sweep.
_BAND_STEPS = 16


class _Probs(Sequence):
    """``LatticeDistribution.probs``: sized by the weights, built on first read."""

    __slots__ = ("_weights", "_den", "_entries")

    def __init__(self, weights: np.ndarray, den: int | None):
        self._weights, self._den, self._entries = weights, den, None

    def __len__(self) -> int:
        return len(self._weights)

    def _tuple(self) -> tuple:
        if self._entries is None:
            values = self._weights.tolist()
            self._entries = (tuple(values) if self._den is None else
                             tuple(Fraction(w, self._den) for w in values))
        return self._entries

    def __getitem__(self, index):
        return self._tuple()[index]

    def __iter__(self):
        return iter(self._tuple())


@dataclass(frozen=True, eq=False)
class LatticeDistribution:
    """Dense law over the contiguous raw range [offset, offset+len-1] at step n.

    In exact mode ``weights`` holds integer numerators over ``den``; in float
    mode it holds the probabilities themselves and ``den`` is None.
    ``probs`` is a lazy read-only sequence over ``weights``: its length is
    ``len(weights)``, and its entries (reduced ``Fraction``s in exact mode,
    floats in float mode) are built once, on the first read of any of them.
    """

    n: int
    offset: int
    weights: np.ndarray
    den: int | None = None

    @cached_property
    def probs(self) -> Sequence:
        return _Probs(self.weights, self.den)

    def items(self) -> Iterator[tuple[int, Fraction | float]]:
        for i, p in enumerate(self.probs):
            yield self.offset + i, p

    def total_mass(self):
        if self.den is None:
            return sum(self.probs)
        return Fraction(sum(self.weights.tolist()), self.den)

    def nonzero(self) -> dict:
        probs = self.probs
        return {self.offset + i: probs[i]
                for i in np.flatnonzero(self.weights != 0).tolist()}

    def is_exact(self) -> bool:
        return self.den is not None


def evolve_iter(model: DriftModel, n_target: int, mode: str = "exact",
                cell_budget: int = DEFAULT_CELL_BUDGET) -> Iterator[LatticeDistribution]:
    """Yield the law of the raw state at every step from start to n_target.

    Each law spans the lowest to the highest state that a live state of the
    last step (one of nonzero weight) reaches through an atom of nonzero
    numerator.  In float mode a reached cell whose mass underflows to 0.0
    stays in the span, but as a zero weight it is not live at the next step.
    Every cell sums its terms in ascending source-state order.  The rows of
    ``_BAND_STEPS`` steps come from one ``law_band`` call, clipped to those
    steps' reachable ranges: a law that leaves them raises
    :class:`UnreachableStateError`, and a live state whose row has no atom
    of nonzero mass raises :class:`ModelValidationError`.
    """
    if mode not in ("exact", "float"):
        raise ValueError(f"mode must be 'exact' or 'float', not {mode!r}")
    if n_target < model.start.n:
        raise ValueError(
            f"target step {n_target} precedes start index {model.start.n}")
    exact = mode == "exact"
    # Exact mode keeps Python-int numerators over one shared (unreduced)
    # denominator, so the accumulation is gcd-free.
    offset = model.start.raw
    weights = np.ones(1, dtype=object if exact else np.float64)
    den = 1 if exact else None
    cells = 1
    yield LatticeDistribution(model.start.n, offset, weights, den)
    values = transition_band(model, model.start.n, offset, offset)[0].tolist()
    down, up = min(values[0], 0), max(values[-1], 0)
    span = values[-1] - values[0]
    for n0 in range(model.start.n, n_target, _BAND_STEPS):
        # One band holds the rows of the next k steps: in t steps the
        # support can move t*down below and t*up above where it is now.
        k = min(_BAND_STEPS, n_target - n0)
        block = numerators = None  # free the last band before building the next
        lo, block_values, block, block_den = band_block(
            model, n0, k, offset + (k - 1) * down, offset + len(weights) - 1 + (k - 1) * up)
        if block_values.tolist() != values:
            raise ModelValidationError(
                f"{model.name}: law_band values at steps {n0}..{n0 + k - 1} "
                f"differ from those at the start step")
        # A row with no atom of nonzero mass loses the mass of its state.
        filled = block.any(axis=2)
        holes = not filled.all()
        for t in range(k):
            n, width = n0 + t, len(weights)
            if offset < lo or offset + width > lo + block.shape[1]:
                rlo, rhi = model.reachable_range(n)
                raise UnreachableStateError(
                    f"{model.name}: states {offset}..{offset + width - 1} at step "
                    f"{n} leave the reachable range [{rlo}, {rhi}]")
            rows = slice(offset - lo, offset - lo + width)
            numerators = block[t, rows]
            if holes:
                dead = np.flatnonzero((weights != 0) & ~filled[t, rows])
                if dead.size:
                    raise ModelValidationError(
                        f"{model.name}: state (n={n}, raw={offset + int(dead[0])}) "
                        f"has no increment of nonzero mass")
            low, high = _support_edges(weights, numerators, values, span)
            cells += high - low + 1
            if cells > cell_budget:
                raise BudgetExceededError(
                    f"{model.name}: DP would use {cells} cells by step {n + 1}, "
                    f"over the budget of {cell_budget}")
            step_den = int(block_den[t])
            if exact:
                masses = np.asarray(numerators, dtype=object)
                den *= step_den
            else:
                masses = band_masses(numerators, step_den)
            # Row i moves to cell i + values[j] - values[0] of acc.  Adding
            # the columns from the highest value down makes every cell sum
            # its terms in ascending source-state order.
            acc = np.zeros(width + span, dtype=weights.dtype)
            for j in range(len(values) - 1, -1, -1):
                shift = values[j] - values[0]
                acc[shift:shift + width] += weights * masses[:, j]
            offset += low
            weights = acc[low - values[0]:high - values[0] + 1]
            yield LatticeDistribution(n + 1, offset, weights, den)


def _support_edges(weights: np.ndarray, numerators: np.ndarray, values: list,
                   span: int) -> tuple[int, int]:
    """Lowest and highest cell, relative to row 0, that a live row (one of
    nonzero weight) reaches through a nonzero atom.

    Only the rows within ``span`` of the lowest (highest) live row L (H) can
    reach the lowest (highest) cell: a live row i > L + span reaches no lower
    than i + values[0] > L + values[-1], and row L reaches at most that.  So
    the search reads two windows of span + 1 rows, not the whole band.
    """
    low, high = 0, len(weights) - 1
    while not weights[low]:
        low += 1
    while not weights[high]:
        high -= 1
    top = max(high - span, 0)
    return (min(low + i + v for i, (w, row) in enumerate(zip(
                    weights[low:low + span + 1].tolist(),
                    numerators[low:low + span + 1].tolist()))
                if w for v, c in zip(values, row) if c),
            max(top + i + v for i, (w, row) in enumerate(zip(
                    weights[top:high + 1].tolist(),
                    numerators[top:high + 1].tolist()))
                if w for v, c in zip(values, row) if c))


def evolve_exact(model: DriftModel, n_target: int, mode: str = "exact",
                 cell_budget: int = DEFAULT_CELL_BUDGET) -> LatticeDistribution:
    """Law of the raw state at step ``n_target`` (forward DP from the start)."""
    dist = None
    for dist in evolve_iter(model, n_target, mode=mode, cell_budget=cell_budget):
        pass
    return dist


def validate_drift_form(model: DriftModel, n_max: int, k: int,
                        state_filter: Callable[[int, int], bool] | None = None) -> float:
    """Worst absolute gap between conditional moments and the drift ansatz.

    Sweeps every DP-reachable state with start <= n <= n_max and compares
    E[a_{n+1}^k | raw] with D_k(n) - (alpha_k(n)/n) S_n.  A raw step v moves
    S by (a*v + c)/d, so the conditional moments of one step are the
    Python-int row sums  sum_j num_ij (a*v_j + c)^k  over den*d^k, read from
    one transition band over the live states; a genuinely affine model
    comes back as exactly 0.0.  ``state_filter(n, raw)`` can restrict the
    sweep to a subset of states.
    """
    if k not in (1, 2, 3):
        raise ValueError(f"conditional moments are defined for k in 1..3, got {k}")
    affine, coeffs = model.affine, model.coeffs
    worst = Fraction(0)
    for dist in evolve_iter(model, n_max, mode="exact"):
        n = dist.n
        raws = (dist.offset + np.flatnonzero(dist.weights != 0)).tolist()
        lo, hi = raws[0], raws[-1]
        rlo, rhi = model.reachable_range(n)
        if lo < rlo or hi > rhi:
            raise UnreachableStateError(
                f"{model.name}: states {lo}..{hi} at step {n} leave the "
                f"reachable range [{rlo}, {rhi}]")
        values, numerators, den = transition_band(model, n, lo, hi)
        powers = np.array([(affine.a * v + affine.c) ** k for v in values.tolist()],
                          dtype=object)
        sums = np.asarray(numerators, dtype=object) @ powers
        scale = den * affine.d ** k
        drift, rate = coeffs.D_n(k, n), coeffs.alpha_over_n(k, n)
        for raw in raws:
            if state_filter is not None and not state_filter(n, raw):
                continue
            worst = max(worst, abs(Fraction(sums[raw - lo], scale)
                                   - (drift - rate * affine.s_value(n, raw))))
    return float(worst)


def moment_of(dist: LatticeDistribution, affine: AffineMap, k: int) -> Fraction | float:
    """E[S^k] under a lattice law, with S the affine image of raw."""
    if k < 0:
        raise ValueError("moment order must be >= 0")
    shift = affine.b + affine.c * dist.n
    if dist.is_exact():
        # S^k = (a*raw + b + c*n)^k / d^k, so over the DP's shared
        # denominator the whole sum reduces once, at the end.
        num = sum(w * (affine.a * (dist.offset + i) + shift) ** k
                  for i, w in enumerate(dist.weights.tolist()) if w)
        return Fraction(num, dist.den * affine.d ** k)
    # Int true division rounds S correctly, as float(affine.s_value(n, raw))
    # does, without a Fraction per cell.
    return math.fsum(p * ((affine.a * (dist.offset + i) + shift) / affine.d) ** k
                     for i, p in enumerate(dist.weights.tolist()) if p != 0)


@dataclass(frozen=True)
class MomentSeries:
    """First and second moments of S_n for each step, via the drift recursions.

    ``k2_exact`` is False when the model's order-2 ansatz is only an
    approximation (circle model), in which case the second-moment column is
    approximate too.
    """

    rows: tuple[tuple[int, Fraction, Fraction], ...]
    k2_exact: bool

    def final(self) -> tuple[int, Fraction, Fraction]:
        return self.rows[-1]


def exact_moments12(model: DriftModel, n_target: int) -> MomentSeries:
    """Run the coupled mean/second-moment recursions from the start state.

        E S_{n+1}   = E S_n + D_1(n) - (alpha_1(n)/n) E S_n
        E S_{n+1}^2 = E S_n^2 + 2 D_1(n) E S_n - 2 (alpha_1(n)/n) E S_n^2
                      + D_2(n) - (alpha_2(n)/n) E S_n
    """
    if n_target < model.start.n:
        raise ValueError(
            f"target step {n_target} precedes start index {model.start.n}")
    coeffs = model.coeffs
    m1 = model.affine.s_value(model.start.n, model.start.raw)
    m2 = m1 * m1
    rows = [(model.start.n, m1, m2)]
    for n in range(model.start.n, n_target):
        d1 = coeffs.D_n(1, n)
        d2 = coeffs.D_n(2, n)
        r1 = coeffs.alpha_over_n(1, n)
        r2 = coeffs.alpha_over_n(2, n)
        m1, m2 = (m1 + d1 - r1 * m1,
                  m2 + 2 * (d1 * m1 - r1 * m2) + d2 - r2 * m1)
        rows.append((n + 1, m1, m2))
    return MomentSeries(rows=tuple(rows), k2_exact=2 in model.exact_moment_orders)


# ---------------------------------------------------------------------------
# scalar growth recursion u_{n+1} = (1 - k_n/(n+c)) u_n + C n^gamma
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LemmaProblem:
    """One instance of the damped growth recursion.

    ``k_fn(n)`` is the damping sequence with limit ``k_limit``; the forcing
    term is C * n**growth.  Solutions should satisfy
    u_n ~ C n^(growth+1) / (growth + k_limit + 1) provided
    growth + k_limit > -1.  When ``k_fn`` is not eventually constant the
    conclusion additionally needs C > 0 and a non-negative trajectory,
    which :func:`lemma_iterate` monitors.
    """

    C: float
    growth: float
    c: float
    k_fn: Callable[[int], float]
    k_limit: float
    u0: float
    n0: int = 1

    def __post_init__(self):
        if self.growth + self.k_limit <= -1:
            raise ValueError("need growth + k_limit > -1 for a sub-polynomial remainder")
        if self.n0 + self.c <= 0:
            raise ValueError("n0 + c must be positive so no step divides by zero")

    def limit_ratio(self) -> float:
        return self.growth + self.k_limit + 1


@dataclass(frozen=True)
class LemmaRun:
    u: float
    constant_k: bool
    min_u: float
    hypothesis_ok: bool


def lemma_iterate(problem: LemmaProblem, n_target: int) -> LemmaRun:
    """Iterate the recursion up to index ``n_target`` (forcing error term 0).

    Flags a hypothesis violation when the damping sequence drifts (so the
    conclusion needs C > 0 and u_n >= 0 throughout) but the trajectory goes
    negative or the forcing constant is not positive.
    """
    u = problem.u0
    constant = True
    min_u = u
    for n in range(problem.n0, n_target):
        kn = problem.k_fn(n)
        if kn != problem.k_limit:
            constant = False
        u = (1.0 - kn / (n + problem.c)) * u + problem.C * n**problem.growth
        if u < min_u:
            min_u = u
    ok = constant or (problem.C > 0 and min_u >= 0)
    return LemmaRun(u=u, constant_k=constant, min_u=min_u, hypothesis_ok=ok)


def lemma_profile(problem: LemmaProblem, n_grid: Sequence[int]) -> list[tuple[int, float]]:
    """Relative error of u_n * (growth+k+1) / (C n^(growth+1)) - 1 on a grid."""
    if problem.C == 0:
        raise ValueError("relative comparison is undefined for C == 0; "
                         "check boundedness of the iterates instead")
    grid = sorted(set(n_grid))
    if grid[0] <= problem.n0:
        raise ValueError("grid points must exceed the start index")
    out = []
    u = problem.u0
    it = iter(grid)
    nxt = next(it)
    for n in range(problem.n0, grid[-1] + 1):
        if n == nxt:
            predicted = problem.C * n ** (problem.growth + 1) / problem.limit_ratio()
            out.append((n, abs(u / predicted - 1.0)))
            nxt = next(it, None)
        u = (1.0 - problem.k_fn(n) / (n + problem.c)) * u \
            + problem.C * n**problem.growth
    return out


def lemma_check(problem: LemmaProblem, n_grid: Sequence[int]) -> float:
    """Worst relative error against the predicted growth over the grid."""
    return max(err for _, err in lemma_profile(problem, n_grid))


# ---------------------------------------------------------------------------
# Gamma-function ratios
# ---------------------------------------------------------------------------

def _gamma_sign(x: float) -> float:
    if x > 0:
        return 1.0
    return -1.0 if (-math.floor(x)) % 2 else 1.0


def gamma_ratio(k: float, c: float, x: float) -> float:
    """Gamma(x + c) / Gamma(x + c - k).

    For integer k this is a plain falling/rising factorial, evaluated as a
    product (valid everywhere, no poles of its own).  Otherwise both Gamma
    arguments must avoid the poles at non-positive integers.  Satisfies the
    telescoping identity ratio(n)/ratio(n+1) = 1 - k/(n+c) and grows like
    x**k for large x.
    """
    z = x + c
    if float(k).is_integer():
        k = int(round(k))
        if k >= 0:
            out = 1.0
            for j in range(1, k + 1):
                out *= z - j
            return out
        out = 1.0
        for j in range(0, -k):
            term = z + j
            if term == 0:
                raise ValueError(f"gamma_ratio pole: Gamma argument {z - k} "
                                 "hits a non-positive integer")
            out *= term
        return 1.0 / out
    for arg in (z, z - k):
        if arg <= 0 and float(arg).is_integer():
            raise ValueError(f"gamma_ratio pole: Gamma argument {arg} "
                             "is a non-positive integer")
    try:
        log_ratio = math.lgamma(z) - math.lgamma(z - k)
    except ValueError as exc:  # pragma: no cover - guarded above
        raise ValueError(f"gamma_ratio pole near x={x}, c={c}, k={k}") from exc
    return _gamma_sign(z) * _gamma_sign(z - k) * math.exp(log_ratio)
