"""Exact distribution engine and asymptotic-recursion tools.

``evolve_iter``/``evolve_exact`` push the full lattice law of a model
forward one step at a time, reading each step's transition rows from
:func:`~driftchain.chain.transition_band`.  In ``exact`` mode the law is
kept as integer numerators over one shared denominator; ``float`` mode runs
the same sweep in doubles.  ``exact_moments12`` runs the closed first and
second moment recursions implied by the drift ansatz, which is much cheaper
than the DP and serves as an independent route to the same numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from .chain import AffineMap, DriftModel, band_masses, transition_band
from .errors import BudgetExceededError

DEFAULT_CELL_BUDGET = 10_000_000


@dataclass(frozen=True, eq=False)
class LatticeDistribution:
    """Dense law over the contiguous raw range [offset, offset+len-1] at step n.

    In exact mode ``weights`` holds integer numerators over ``den``; in float
    mode it holds the probabilities themselves and ``den`` is None.
    """

    n: int
    offset: int
    weights: np.ndarray
    den: int | None = None

    @cached_property
    def probs(self) -> tuple:
        if self.den is None:
            return tuple(self.weights.tolist())
        return tuple(Fraction(c, self.den) for c in self.weights.tolist())

    def items(self) -> Iterator[tuple[int, Fraction | float]]:
        for i, p in enumerate(self.probs):
            yield self.offset + i, p

    def prob(self, raw: int) -> Fraction | float:
        i = raw - self.offset
        if 0 <= i < len(self.probs):
            return self.probs[i]
        return 0 * self.probs[0]

    def total_mass(self):
        return sum(self.probs)

    def nonzero(self) -> dict:
        return {raw: p for raw, p in self.items() if p != 0}

    def is_exact(self) -> bool:
        return self.den is not None


def evolve_iter(model: DriftModel, n_target: int, mode: str = "exact",
                cell_budget: int = DEFAULT_CELL_BUDGET) -> Iterator[LatticeDistribution]:
    """Yield the law of the raw state at every step from start to n_target."""
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
    for n in range(model.start.n, n_target):
        width = len(weights)
        values, numerators, step_den = transition_band(
            model, n, offset, offset + width - 1)
        # The new support runs from the lowest to the highest raw state that
        # a live row reaches through a nonzero atom.
        atoms = numerators != 0
        live = np.flatnonzero(weights != 0)
        first = atoms[live].argmax(axis=1)
        last = atoms.shape[1] - 1 - atoms[live, ::-1].argmax(axis=1)
        new_lo = offset + int((live + values[first]).min())
        new_hi = offset + int((live + values[last]).max())
        cells += new_hi - new_lo + 1
        if cells > cell_budget:
            raise BudgetExceededError(
                f"{model.name}: DP would use {cells} cells by step {n + 1}, "
                f"over the budget of {cell_budget}")
        if exact:
            masses = np.asarray(numerators, dtype=object)
            den *= step_den
        else:
            masses = band_masses(numerators, step_den)
        # Row i moves to cell i + values[j] - values[0] of acc.  Adding the
        # columns from the highest value down makes every cell sum its terms
        # in ascending source-state order.
        acc = np.zeros(width + int(values[-1] - values[0]), dtype=weights.dtype)
        for j in range(len(values) - 1, -1, -1):
            shift = int(values[j] - values[0])
            acc[shift:shift + width] += weights * masses[:, j]
        base = offset + int(values[0])
        offset, weights = new_lo, acc[new_lo - base:new_hi - base + 1]
        yield LatticeDistribution(n + 1, offset, weights, den)


def evolve_exact(model: DriftModel, n_target: int, mode: str = "exact",
                 cell_budget: int = DEFAULT_CELL_BUDGET) -> LatticeDistribution:
    """Law of the raw state at step ``n_target`` (forward DP from the start)."""
    dist = None
    for dist in evolve_iter(model, n_target, mode=mode, cell_budget=cell_budget):
        pass
    return dist


def moment_of(dist: LatticeDistribution, affine: AffineMap, k: int) -> Fraction | float:
    """E[S^k] under a lattice law, with S the affine image of raw."""
    if k < 0:
        raise ValueError("moment order must be >= 0")
    if dist.is_exact():
        # S^k = (a*raw + b + c*n)^k / d^k, so over the DP's shared
        # denominator the whole sum reduces once, at the end.
        shift = affine.b + affine.c * dist.n
        num = sum(w * (affine.a * (dist.offset + i) + shift) ** k
                  for i, w in enumerate(dist.weights.tolist()) if w)
        return Fraction(num, dist.den * affine.d ** k)
    return math.fsum(p * float(affine.s_value(dist.n, raw)) ** k
                     for raw, p in dist.items() if p != 0)


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
