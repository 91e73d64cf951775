"""Finitely supported probability measures on an integer lattice.

Masses are exact: each is stored as a ``Fraction`` and they must sum to one
exactly.  A float mass is taken at its binary value, so 0.25/0.75 is a
measure while ten atoms of 0.1 are not.  Zero-mass atoms are dropped on
construction so ``support`` always reports the effective support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Sequence

from .errors import ModelValidationError


def _exact(mass) -> Fraction:
    """``mass`` as a Fraction; a finite float converts at its binary value."""
    if not (isinstance(mass, Rational)
            or isinstance(mass, float) and math.isfinite(mass)):
        raise ModelValidationError(
            f"mass {mass!r} is neither rational nor a finite float")
    return Fraction(mass)


@dataclass(frozen=True)
class FiniteMeasure:
    """A probability measure with finitely many atoms.

    ``atoms`` is a tuple of ``(value, mass)`` pairs kept sorted by value.
    Values must be distinct rationals (integers in all built-in models).
    Masses are given as rationals or finite floats and stored as the
    ``Fraction`` of their exact value; they must sum to exactly one.
    """

    atoms: tuple[tuple[int | Fraction, Fraction], ...]

    def __post_init__(self):
        cleaned = []
        for value, mass in self.atoms:
            if not isinstance(value, Rational):
                raise ModelValidationError(
                    f"atom value {value!r} is not rational")
            mass = _exact(mass)
            if mass < 0:
                raise ModelValidationError(
                    f"negative mass {mass} at value {value}")
            if mass == 0:
                continue
            cleaned.append((value, mass))
        if not cleaned:
            raise ModelValidationError("measure has no mass")
        cleaned.sort(key=lambda a: a[0])
        values = [v for v, _ in cleaned]
        if len(set(values)) != len(values):
            raise ModelValidationError(f"duplicate atom values in {values}")
        total = sum(m for _, m in cleaned)
        if total != 1:
            raise ModelValidationError(
                f"masses sum to {total}, expected exactly 1")
        object.__setattr__(self, "atoms", tuple(cleaned))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int | Fraction, Fraction | float]]) -> "FiniteMeasure":
        return cls(tuple(pairs))

    @classmethod
    def point(cls, value: int | Fraction) -> "FiniteMeasure":
        return cls(((value, Fraction(1)),))

    @classmethod
    def uniform(cls, values: Sequence[int | Fraction]) -> "FiniteMeasure":
        if not values:
            raise ModelValidationError("uniform() needs at least one value")
        w = Fraction(1, len(values))
        return cls(tuple((v, w) for v in values))

    @classmethod
    def mixture(cls, weighted: Sequence[tuple[Fraction | float, "FiniteMeasure"]]) -> "FiniteMeasure":
        """Exact convex combination ``sum w_i * mu_i``; float weights count
        at their binary value and the weights must sum to exactly one."""
        acc: dict = {}
        for weight, mu in weighted:
            weight = _exact(weight)
            if weight == 0:
                continue
            for value, mass in mu.atoms:
                acc[value] = acc.get(value, 0) + weight * mass
        return cls(tuple(acc.items()))

    # -- accessors ---------------------------------------------------------

    @property
    def masses(self) -> tuple:
        return tuple(m for _, m in self.atoms)

    def support(self) -> tuple:
        return tuple(v for v, _ in self.atoms)

    def mass(self, value) -> Fraction:
        for v, m in self.atoms:
            if v == value:
                return m
        return Fraction(0)

    def is_point(self, value=None) -> bool:
        """True if the measure is a single atom (optionally at ``value``)."""
        if len(self.atoms) != 1:
            return False
        return value is None or self.atoms[0][0] == value

    def point_value(self):
        if len(self.atoms) != 1:
            raise ModelValidationError("measure is not a point mass")
        return self.atoms[0][0]

    # -- arithmetic --------------------------------------------------------

    def moment(self, k: int) -> Fraction:
        """k-th raw moment, exact since masses and values are rational."""
        if k < 0:
            raise ValueError("moment order must be >= 0")
        return sum(m * v**k for v, m in self.atoms)

    def shift(self, delta: int | Fraction) -> "FiniteMeasure":
        """Translate every atom by ``delta`` (convolution with a point mass)."""
        return FiniteMeasure(tuple((v + delta, m) for v, m in self.atoms))
