"""Concrete chain models.

Each constructor states its transition law once, as a vectorised integer
``law_band``; the per-state law is ``band_law(law_band)``.  Its drift is
data in the one-shift form of :class:`~driftchain.chain.DriftCoefficients`:
a shift c, the limits alpha_k and D_k, and the corrections e_k, with
alpha_k(n)/n = alpha_k/(n + c) and D_k(n) = D_k + e_k/(n + c).  The test
suite re-derives the sequences from the law with rational arithmetic, so a
wrong limit or correction shows up as a nonzero ``validate_drift_form``
result.

Indexing conventions: the permutation-descent and circle models start at
n = 1 (their S_1 is the first increment), urn models start at n = 0 with
S_0 = 0, and the aggregation model starts at n = 0 particles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .chain import AffineMap, ChainState, DriftCoefficients, DriftModel, band_law
from .errors import DegenerateLimitError, ModelValidationError
from .measures import FiniteMeasure


# ---------------------------------------------------------------------------
# permutation descents
# ---------------------------------------------------------------------------

def make_descents_model() -> DriftModel:
    """Descent count of a uniform random permutation grown by insertion.

    State ``raw`` is the number of descents of a uniform permutation of
    {1..n}.  Inserting n+1 at a uniform position adds a descent unless the
    slot sits just after a descent or at the right end, hence the law below.
    S_n = raw - (n-1)/2 has mean zero and increments +-1/2.
    """

    def law_band(n: int, lo: int, hi: int):
        d = np.arange(lo, hi + 1, dtype=np.int64)
        return np.array([0, 1]), np.column_stack([d + 1, n - d]), n + 1

    coeffs = DriftCoefficients(
        c=1,
        alpha_lim=(Fraction(1), Fraction(0), Fraction(1, 4)),
        D_lim=(Fraction(0), Fraction(1, 4), Fraction(0)),
        D_corr=(Fraction(0),) * 3,
        M=Fraction(1, 2),
    )
    return DriftModel(
        name="descents",
        start=ChainState(1, 0),
        affine=AffineMap(a=2, b=1, c=-1, d=2),
        coeffs=coeffs,
        increment_law=band_law(law_band),
        reachable_range=lambda n: (0, max(0, n - 1)),
        law_band=law_band,
    )


def _descent_counts_by_enumeration(n: int) -> list[int]:
    counts = [0] * n
    for perm in itertools.permutations(range(n)):
        d = sum(1 for i in range(n - 1) if perm[i] > perm[i + 1])
        counts[d] += 1
    return counts


def _descent_counts_by_insertion(n: int) -> list[int]:
    # counts[k] after inserting item m+1 into each gap of each permutation
    counts = [1]
    for m in range(1, n):
        nxt = [0] * (m + 1)
        for k, c in enumerate(counts):
            nxt[k] += c * (k + 1)            # slots that keep the count
            if k + 1 <= m:
                nxt[k + 1] += c * (m - k)    # slots that add a descent
        counts = nxt
    return counts[:n]


def enumerate_descents(n: int) -> FiniteMeasure:
    """Exact law of the descent count of a uniform permutation of {1..n}.

    Computed two independent ways — brute-force enumeration and the
    insertion recursion — which must agree atom for atom.
    """
    if not 1 <= n <= 9:
        raise ValueError("enumeration is limited to 1 <= n <= 9")
    brute = _descent_counts_by_enumeration(n)
    recursed = _descent_counts_by_insertion(n)
    if brute != recursed:
        raise AssertionError(
            f"descent count routes disagree at n={n}: {brute} vs {recursed}")
    total = math.factorial(n)
    return FiniteMeasure(tuple(
        (k, Fraction(c, total)) for k, c in enumerate(brute) if c))


# ---------------------------------------------------------------------------
# balanced two-colour urns
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UrnSpec:
    """A balanced urn adding N balls per draw.

    After drawing a white ball the white count changes by a draw from
    ``mu1`` (support within [-1, N]); after a black ball, by a draw from
    ``mu2`` (support within [0, N+1]).  Either way the total grows by
    exactly N, so after n draws the urn holds a0 + b0 + n*N balls.
    """

    N: int
    mu1: FiniteMeasure
    mu2: FiniteMeasure
    a0: int
    b0: int

    def __post_init__(self):
        if not isinstance(self.N, int) or self.N < 1:
            raise ModelValidationError(f"N must be a positive integer, got {self.N!r}")
        for name, mu, lo, hi in (("mu1", self.mu1, -1, self.N),
                                 ("mu2", self.mu2, 0, self.N + 1)):
            bad = [v for v in mu.support()
                   if not isinstance(v, int) or not lo <= v <= hi]
            if bad:
                raise ModelValidationError(
                    f"{name} atoms {bad} fall outside the allowed support "
                    f"[{lo}, {hi}] for N={self.N}")
        for name, count in (("a0", self.a0), ("b0", self.b0)):
            if not isinstance(count, int) or count < 0:
                raise ModelValidationError(f"{name} must be a non-negative integer")
        if self.a0 + self.b0 < 1:
            raise ModelValidationError("the urn must start with at least one ball")

    def total(self, n: int) -> int:
        return self.a0 + self.b0 + n * self.N


def make_balanced_urn(spec: UrnSpec, name: str | None = None) -> DriftModel:
    """Chain of white-ball counts for a balanced urn; S_n = whites - a0."""
    values = sorted(set(spec.mu1.support()) | set(spec.mu2.support()))
    den = math.lcm(*(m.denominator for mu in (spec.mu1, spec.mu2) for m in mu.masses))
    num1 = [int(spec.mu1.mass(v) * den) for v in values]
    num2 = [int(spec.mu2.mass(v) * den) for v in values]

    m1 = [spec.mu1.moment(k) for k in (1, 2, 3)]
    m2 = [spec.mu2.moment(k) for k in (1, 2, 3)]

    # Out of w = S_n + a0 white balls among total(n) = N (n + c), the k-th
    # increment moment is m2k - (w / total(n)) (m2k - m1k).
    alpha_lim = tuple((m2[k] - m1[k]) / spec.N for k in range(3))
    coeffs = DriftCoefficients(
        c=Fraction(spec.a0 + spec.b0, spec.N),
        alpha_lim=alpha_lim,
        D_lim=tuple(m2),
        D_corr=tuple(-spec.a0 * a for a in alpha_lim),
        M=Fraction(max(abs(v) for v in values)),
    )

    min_inc, max_inc = values[0], values[-1]

    def reachable(n: int) -> tuple[int, int]:
        lo = max(0, spec.a0 + n * min_inc)
        hi = min(spec.total(n), spec.a0 + n * max_inc)
        return lo, hi

    mass_dtype = np.int64 if den < 2**63 else object
    diff = np.array([n1 - n2 for n1, n2 in zip(num1, num2)], dtype=mass_dtype)
    base = np.array(num2, dtype=mass_dtype)
    values_arr = np.array(values, dtype=np.int64)

    def law_band(n: int, lo: int, hi: int):
        # Out of w white balls, increment v has mass
        # (w * mu1(v) + (total - w) * mu2(v)) / total, here over den * total.
        # Both terms lie in [-scale, scale], so int64 holds them below 2**63.
        total = spec.total(n)
        scale = den * total
        dtype = np.int64 if scale < 2**63 else object
        w = np.arange(lo, hi + 1, dtype=dtype)[:, None]
        return (values_arr, w * diff.astype(dtype, copy=False)
                + total * base.astype(dtype, copy=False), scale)

    return DriftModel(
        name=name or f"urn(N={spec.N})",
        start=ChainState(0, spec.a0),
        affine=AffineMap(a=1, b=-spec.a0, c=0, d=1),
        coeffs=coeffs,
        increment_law=band_law(law_band),
        reachable_range=reachable,
        law_band=law_band,
    )


def make_friedman(alpha: int, beta: int, a0: int = 1, b0: int = 1) -> DriftModel:
    """Urn that returns the drawn ball with ``alpha`` of its colour and
    ``beta`` of the other.  Degenerate when alpha == beta (constructing is
    fine; the theory layer flags it)."""
    if alpha < 0 or beta < 0 or alpha + beta < 1:
        raise ModelValidationError(
            "friedman parameters must be non-negative with alpha + beta >= 1")
    spec = UrnSpec(N=alpha + beta,
                   mu1=FiniteMeasure.point(alpha),
                   mu2=FiniteMeasure.point(beta),
                   a0=a0, b0=b0)
    return make_balanced_urn(spec, name=f"friedman({alpha},{beta})")


def make_removal_urn(b: int, mu: FiniteMeasure, a0: int = 1, b0: int = 1) -> DriftModel:
    """Urn where the drawn ball is discarded and ``b`` balls are added, a
    random ``mu``-distributed number of them white (net growth N = b - 1).
    """
    if not isinstance(b, int) or b < 2:
        raise ModelValidationError("removal urn needs an integer b >= 2")
    bad = [v for v in mu.support() if not isinstance(v, int) or not 0 <= v <= b]
    if bad:
        raise ModelValidationError(
            f"mu atoms {bad} fall outside the allowed support [0, {b}]")
    if mu.is_point(0) or mu.is_point(b):
        raise DegenerateLimitError(
            0, "removal urn with mu concentrated on 0 or on b is degenerate (D = 0)")
    spec = UrnSpec(N=b - 1, mu1=mu.shift(-1), mu2=mu, a0=a0, b0=b0)
    return make_balanced_urn(spec, name=f"removal(b={b})")


# ---------------------------------------------------------------------------
# circle model
# ---------------------------------------------------------------------------

def make_circle_model() -> DriftModel:
    """White-ball count for the alternating insertion rule on a circle.

    The arrangement starts (n = 1) with four black and two white balls; at
    step n it holds 2n + 4 balls of which ``raw`` are white, and two more
    balls are inserted according to the colours flanking a uniformly chosen
    gap.  In terms of the white-count surplus sigma = (2n+4) - 2*raw (always
    even and non-negative) the increment law is

        sigma >= 2:  +1 w.p. (raw+2)/(2n+4), 0 w.p. (raw-1)/(2n+4),
                     +2 w.p. (2n+3-2*raw)/(2n+4)
        sigma == 0:  +1 w.p. 1/2, 0 w.p. 1/2  (no all-black window exists)

    The k = 1 drift ansatz is exact on every state, including sigma == 0;
    for k in {2, 3} the sigma == 0 states deviate by O(1/n), so only order
    one is flagged as exact.
    """

    def law_band(n: int, lo: int, hi: int):
        t = 2 * n + 4
        s = np.arange(lo, hi + 1, dtype=np.int64)
        nums = np.column_stack([s - 1, s + 2, 2 * n + 3 - 2 * s])
        surplus0 = s == n + 2
        nums[surplus0] = (t // 2, t // 2, 0)
        return np.array([0, 1, 2]), nums, t

    coeffs = DriftCoefficients(
        c=2,
        alpha_lim=(Fraction(3, 2), Fraction(7, 2), Fraction(15, 2)),
        D_lim=(Fraction(2), Fraction(4), Fraction(8)),
        D_corr=(Fraction(0), Fraction(-1), Fraction(-3)),
        M=Fraction(2),
    )
    return DriftModel(
        name="circle",
        start=ChainState(1, 2),
        affine=AffineMap(a=1, b=0, c=0, d=1),
        coeffs=coeffs,
        increment_law=band_law(law_band),
        reachable_range=lambda n: (2, 2 if n == 1 else n + 2),
        exact_moment_orders=frozenset({1}),
        law_band=law_band,
    )


def circle_surplus(n: int, raw: int) -> int:
    """Black-over-white surplus (2n+4) - 2*raw of a circle state."""
    return 2 * n + 4 - 2 * raw


# ---------------------------------------------------------------------------
# one-dimensional internal aggregation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdlaState:
    """Occupied interval [-L, R] around the origin after L + R particles."""

    L: int
    R: int

    def __post_init__(self):
        if self.L < 0 or self.R < 0:
            raise ModelValidationError("interval arms must be non-negative")


def exit_left_probability(state: IdlaState) -> Fraction:
    """Chance the next walker fills -(L+1) rather than R+1.

    A simple random walk released at 0 must reach one of the two empty
    boundary sites; the ruin probabilities give (R+1)/(L+R+2).
    """
    return Fraction(state.R + 1, state.L + state.R + 2)


def make_idla_model() -> DriftModel:
    """Left-arm length of internal aggregation on the integers.

    ``raw`` is L, the number of negative occupied sites after n particles
    (R = n - L is determined).  S_n = L - n/2 has increments +-1/2.
    """

    def law_band(n: int, lo: int, hi: int):
        left = np.arange(lo, hi + 1, dtype=np.int64)
        return np.array([0, 1]), np.column_stack([left + 1, n - left + 1]), n + 2

    coeffs = DriftCoefficients(
        c=2,
        alpha_lim=(Fraction(1), Fraction(0), Fraction(1, 4)),
        D_lim=(Fraction(0), Fraction(1, 4), Fraction(0)),
        D_corr=(Fraction(0),) * 3,
        M=Fraction(1, 2),
    )
    return DriftModel(
        name="idla",
        start=ChainState(0, 0),
        affine=AffineMap(a=2, b=0, c=-1, d=2),
        coeffs=coeffs,
        increment_law=band_law(law_band),
        reachable_range=lambda n: (0, n),
        law_band=law_band,
    )


def simulate_idla(n: int, rng) -> int:
    """Sample the left-arm length after ``n`` particles."""
    from .chain import simulate_final

    return simulate_final(make_idla_model(), n, rng)


def idla_exact(n: int, mode: str = "exact"):
    """Exact law of the left-arm length after ``n`` particles."""
    from .exact import evolve_exact

    return evolve_exact(make_idla_model(), n, mode=mode)
