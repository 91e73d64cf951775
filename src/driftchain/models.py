"""Model types and the concrete chain models.

A :class:`DriftModel` is a time-inhomogeneous Markov chain on an integer
``raw`` state.  The quantity the limit theory speaks about is an affine
image ``S_n = (a*raw + b + c*n) / d`` of that state (:class:`AffineMap`),
and the model promises that the conditional moments of the increments
``a_{n+1} = S_{n+1} - S_n`` are affine in ``S_n``:

    E[a_{n+1}^k | history] = D_k(n) - (alpha_k(n) / n) * S_n,   k = 1, 2, 3

with coefficients of one shared form, alpha_k(n)/n = alpha_k/(n + c) and
D_k(n) = D_k + e_k/(n + c), which a model holds as data: the shift c, the
limits alpha_k, D_k and the corrections e_k (:class:`DriftCoefficients`).
These types live here, not in :mod:`driftchain.chain`, so that building a
model and computing its CLT constants never imports numpy: only the engines
(:mod:`~driftchain.chain`, :mod:`~driftchain.exact`, :mod:`~driftchain.stats`)
load it, and :mod:`driftchain.chain` imports these names back.

Every built-in law is affine in the state, so each constructor states it
once, as data: an integer :class:`AffineBand`, which is the model's
``law_band``; the per-state law is ``band_law(law_band)``, one row of it.
The band takes one step or a 1-D array of steps, so the Monte Carlo kernel
builds the tables of many steps from one call; it imports numpy when it is
first called, not when it is built.  Everything else a :class:`DriftModel`
holds is derived from the band by :meth:`AffineBand.model`: the drift data,
the orders whose drift form is exact, and the reachable range.  Criterion c9
checks the drift data against the band state by state, so a wrong derivation
shows up as a nonzero ``validate_drift_form`` result.

Indexing conventions: the permutation-descent and circle models start at
n = 1 (their S_1 is the first increment), urn models start at n = 0 with
S_0 = 0, and the aggregation model starts at n = 0 particles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Callable

from .errors import DegenerateLimitError, ModelValidationError
from .measures import FiniteMeasure

if TYPE_CHECKING:
    import numpy as np


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
        return (self.a * raw.astype(float) + self.b + self.c * n) / self.d


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
    # an object array once the denominator reaches 2**63.  ``n`` may also be
    # a 1-D int64 array of steps: then numerators[t, i, j] and
    # denominator[t] belong to step n[t], and ``values`` must be the same
    # at every step.  Built-in models declare it as an AffineBand.
    law_band: Callable[[int | np.ndarray, int, int],
                       tuple[np.ndarray, np.ndarray, int | np.ndarray]]
    # Per-state form of the same law, band_law(law_band) for every model.
    increment_law: Callable[[ChainState], FiniteMeasure]
    # (lo, hi) holding every raw state live at step n.  Built-in models derive
    # it, coeffs and exact_moment_orders from their band (AffineBand.model).
    reachable_range: Callable[[int], tuple[int, int]]
    # Orders k for which the drift ansatz holds exactly on every reachable
    # state.  The circle model only guarantees k = 1.
    exact_moment_orders: frozenset = frozenset({1, 2, 3})


def band_law(law_band: Callable) -> Callable[[ChainState], FiniteMeasure]:
    """Per-state increment law: the nonzero atoms of the state's one-row band."""

    def law(state: ChainState) -> FiniteMeasure:
        values, numerators, den = law_band(state.n, state.raw, state.raw)
        return FiniteMeasure(tuple(
            (v, Fraction(c, int(den)))
            for v, c in zip(values.tolist(), numerators[0].tolist()) if c))

    return law


# ---------------------------------------------------------------------------
# affine transition laws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffineBand:
    """A transition law whose masses are affine in the state and the step.

    Out of state ``raw`` at step n, raw increment ``values[j]`` has mass
    (p0[j] + p1[j] n + q[j] raw) / (d0 + d1 n), where ``den = (d0, d1)``;
    ``patch = (r0, r1, delta)`` adds ``delta`` to the one row raw = r0 + r1 n.
    Construction checks that rows sum to the denominator (sum p0 = d0,
    sum p1 = d1, sum q = sum delta = 0): a short row would leak mass silently
    in the exact DP.  Calling the band is a model's ``law_band``.
    """

    values: tuple[int, ...]
    p0: tuple[int, ...]
    p1: tuple[int, ...]
    q: tuple[int, ...]
    den: tuple[int, int]
    patch: tuple[int, int, tuple[int, ...]] | None = None

    def __post_init__(self):
        deltas = self.patch[2] if self.patch else (0,) * len(self.values)
        lengths = tuple(map(len, (self.values, self.p0, self.p1, self.q, deltas)))
        sums = (sum(self.p0), sum(self.p1), sum(self.q), sum(deltas))
        if len(set(lengths)) > 1 or sums != (*self.den, 0, 0):
            raise ModelValidationError(
                f"band rows must have one entry per value and sum to den={self.den}; "
                f"lengths are {lengths}, sums {sums}")

    @cached_property
    def _columns(self):
        """``values`` as int64, and p0, p1 and q as (values, 1, 1) columns in
        each dtype they fit; built on the first call, so that a model can be
        built without numpy.  Not a field: eq, hash and repr ignore it."""
        import numpy as np

        exact = np.array([self.p0, self.p1, self.q], dtype=object)[..., None, None]
        coeffs = {object: tuple(exact)}
        if all(abs(c) < 2**63 for c in exact.flat):
            coeffs[np.int64] = tuple(exact.astype(np.int64))
        return np.array(self.values, dtype=np.int64), coeffs

    def __call__(self, n, lo: int, hi: int):
        import numpy as np

        # The dtype is chosen in Python ints.  On reachable rows p0 + p1 n and
        # q raw of every built-in band lie within the largest step's
        # denominator, so int64 holds them while it is below 2**63.
        block = isinstance(n, np.ndarray)
        d0, d1 = self.den
        top = int(n.max()) if block else int(n)
        dtype = np.int64 if d0 + d1 * top < 2**63 else object
        values, coeffs = self._columns
        p0, p1, q = coeffs[dtype]
        raw = np.arange(lo, hi + 1, dtype=dtype)
        m = n.astype(dtype)[:, None] if block else top
        # Built value-major, which keeps each value's column contiguous for
        # the kernel's CDF; the band is its (steps, rows, values) view, less
        # the steps axis for a scalar step.
        nums = (p0 + p1 * m + q * raw).transpose(1, 2, 0)
        if not block:
            nums = nums[0]
        if self.patch:
            r0, r1, delta = self.patch
            nums[raw == r0 + r1 * m] += delta
        return values, nums, d0 + d1 * (m[:, 0] if block else m)

    def model(self, name: str, start: ChainState, affine: AffineMap) -> DriftModel:
        """The chain of this law from ``start``, its drift data and range derived.

        A raw step v_j moves S = (a raw + b + g n)/d by t_j/d, t_j = a v_j + g.
        With P0, P1, Q the sums of t_j^k against p0, p1, q, the k-th increment
        moment out of raw is (P0 + P1 n + Q raw)/(d^k (d0 + d1 n)), in the
        one-shift form with c = d0/d1 once raw = (d S - b - g n)/a; the patch
        adds sum_j delta_j t_j^k / (d^k (d0 + d1 n)) on its row.  The range is
        the start's cone cut to the raws where every numerator is >= 0, plus
        the patched row where it borders the cut; a bound the cone implies
        (>= 0 at the start and in slope along the cone's edge) is dropped here.
        """
        a, b, g, d = affine.a, affine.b, affine.c, affine.d
        d0, d1 = self.den
        t = [a * v + g for v in self.values]
        alpha, D, e = [], [], []
        for k in (1, 2, 3):
            P0, P1, Q = (sum(w * x**k for w, x in zip(ws, t))
                         for ws in (self.p0, self.p1, self.q))
            scale = a * d1 * d**k
            alpha.append(Fraction(-d * Q, scale))
            D.append(Fraction(a * P1 - g * Q, scale))
            # e_k = (a P0 - b Q)/scale - D_k d0/d1
            e.append(Fraction(d1 * (a * P0 - b * Q) - d0 * (a * P1 - g * Q), scale * d1))
        coeffs = DriftCoefficients(c=Fraction(d0, d1), alpha_lim=tuple(alpha),
                                   D_lim=tuple(D), D_corr=tuple(e),
                                   M=Fraction(max(map(abs, t)), d))

        n0, r0 = start.n, start.raw
        v_lo, v_hi = min(self.values), max(self.values)
        lower, upper = [], []
        for v, p0, p1, q in zip(self.values, self.p0, self.p1, self.q):
            if p0 + p1 * n0 + q * r0 < 0 or p1 + q * (v_lo if q > 0 else v_hi) < 0:
                if q == 0:
                    raise ModelValidationError(f"{name}: value {v} gets a negative mass")
                (lower if q > 0 else upper).append((p0, p1, q))
        orders, row = frozenset({1, 2, 3}), None
        if self.patch:
            pr0, pr1, delta = self.patch
            orders = frozenset(k for k in orders
                               if sum(dj * x**k for dj, x in zip(delta, t)) == 0)
            if any(p0 + dj + q * pr0 + (p1 + q * pr1) * n0 < 0 or p1 + q * pr1 < 0
                   for p0, p1, q, dj in zip(self.p0, self.p1, self.q, delta)):
                raise ModelValidationError(f"{name}: the patched row gets a negative mass")
            row = pr0, pr1

        def reachable_range(n: int) -> tuple[int, int]:
            lo = cone_lo = r0 + (n - n0) * v_lo
            hi = cone_hi = r0 + (n - n0) * v_hi
            for p0, p1, q in lower:
                lo = max(lo, -((p0 + p1 * n) // q))
            for p0, p1, q in upper:
                hi = min(hi, (p0 + p1 * n) // -q)
            if row:
                raw = row[0] + row[1] * n
                if cone_lo <= raw <= cone_hi and lo - 1 <= raw <= hi + 1:
                    lo, hi = min(lo, raw), max(hi, raw)
            return lo, hi

        return DriftModel(name=name, start=start, affine=affine, coeffs=coeffs,
                          increment_law=band_law(self), reachable_range=reachable_range,
                          exact_moment_orders=orders, law_band=self)


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
    # out of raw descents: 0 w.p. (raw + 1)/(n + 1), 1 w.p. (n - raw)/(n + 1)
    band = AffineBand((0, 1), p0=(1, 0), p1=(0, 1), q=(1, -1), den=(1, 1))
    return band.model("descents", ChainState(1, 0), AffineMap(a=2, b=1, c=-1, d=2))


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
    lcm = math.lcm(*(m.denominator for mu in (spec.mu1, spec.mu2) for m in mu.masses))
    num1 = [int(spec.mu1.mass(v) * lcm) for v in values]
    num2 = [int(spec.mu2.mass(v) * lcm) for v in values]

    # Out of w white balls, increment v has mass
    # (w mu1(v) + (total(n) - w) mu2(v)) / total(n), here over lcm total(n).
    start = spec.a0 + spec.b0
    band = AffineBand(tuple(values),
                      p0=tuple(start * b for b in num2),
                      p1=tuple(spec.N * b for b in num2),
                      q=tuple(a - b for a, b in zip(num1, num2)),
                      den=(lcm * start, lcm * spec.N))
    return band.model(name or f"urn(N={spec.N})", ChainState(0, spec.a0),
                      AffineMap(a=1, b=-spec.a0, c=0, d=1))


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
    gap.  The band gives the increments 0, +1 and +2 the masses
    (raw - 1, raw + 2, 2n + 3 - 2*raw) / (2n + 4) wherever the white-count
    surplus sigma = (2n+4) - 2*raw (always even and non-negative) is at
    least 2.  At sigma == 0, the one row raw = n + 2, no all-black window
    exists: the patch (+1, -2, +1) turns (n + 1, n + 4, -1) there into the
    fair step (n + 2, n + 2, 0).

    The patch has zero first moment, so the k = 1 drift ansatz is exact on
    every state, including sigma == 0; for k in {2, 3} the sigma == 0 states
    deviate by O(1/n), so only order one is derived as exact.
    """
    band = AffineBand((0, 1, 2), p0=(-1, 2, 3), p1=(0, 0, 2), q=(1, 1, -2),
                      den=(4, 2), patch=(2, 1, (1, -2, 1)))
    return band.model("circle", ChainState(1, 2), AffineMap(a=1, b=0, c=0, d=1))


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
    # the left arm grows w.p. exit_left_probability = (n - L + 1)/(n + 2)
    band = AffineBand((0, 1), p0=(1, 1), p1=(0, 1), q=(1, -1), den=(2, 1))
    return band.model("idla", ChainState(0, 0), AffineMap(a=2, b=0, c=-1, d=2))
