"""Bounded complex functions on finite integer supports.

A :class:`BoundedFunction` stores a sorted integer support and aligned
complex values with ``|value| <= 1`` (up to a 1e-12 slack for values built
from floating transcendentals). Evaluation off the support is exactly zero,
which is the convention every averaging kernel in this package relies on:
sums like ``a + n1 + n2`` may land outside the ambient set and contribute
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bohr import sorted_distinct, sorted_lookup
from .exact import RationalLike, as_rational

_BOUND_TOL = 1e-12


@dataclass(frozen=True)
class BoundedFunction:
    """A function Z -> C supported on finitely many integers, bounded by 1."""

    support: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        support = np.asarray(self.support, dtype=np.int64)
        values = np.asarray(self.values, dtype=np.complex128)
        if support.ndim != 1 or values.shape != support.shape:
            raise ValueError("support and values must be aligned 1-d arrays")
        if support.size and np.any(np.diff(support) <= 0):
            raise ValueError("support must be strictly increasing")
        if values.size and float(np.max(np.abs(values))) > 1 + _BOUND_TOL:
            raise ValueError("values must be bounded by 1 in absolute value")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "values", values)

    @classmethod
    def indicator(cls, elements: np.ndarray) -> "BoundedFunction":
        elements = sorted_distinct(elements)
        return cls(elements, np.ones(elements.size, dtype=np.complex128))

    @classmethod
    def character(
        cls, freq: RationalLike, lo: int, hi: int
    ) -> "BoundedFunction":
        """``n -> e(n * freq)`` on the dense window ``[lo, hi]``.

        Phases are computed from the exact residue ``(n * p) mod q`` so that
        equal angles get bitwise equal values.
        """
        freq = as_rational(freq)
        p, q = freq.numerator % freq.denominator, freq.denominator
        ns = np.arange(lo, hi + 1, dtype=np.int64)
        table = np.exp(2j * np.pi * np.arange(q, dtype=np.float64) / q)
        vals = table[(ns % q) * (p % q) % q]
        return cls(ns, vals)

    @classmethod
    def balanced_indicator(
        cls, subset: np.ndarray, ambient: np.ndarray
    ) -> tuple["BoundedFunction", Fraction]:
        """``1_A - delta`` on the ambient set, zero elsewhere.

        Returns the function and the exact density ``delta = |A cap
        ambient| / |ambient|``. Values use the float image of ``delta`` but
        the returned density is exact.
        """
        ambient = sorted_distinct(ambient)
        subset = sorted_distinct(subset)
        if ambient.size == 0:
            raise ValueError("ambient set is empty")
        inside = sorted_lookup(subset, ambient)[1]
        delta = Fraction(int(np.count_nonzero(inside)), int(ambient.size))
        vals = inside.astype(np.complex128) - complex(float(delta))
        return cls(ambient, vals), delta

    def gather(self, points: np.ndarray) -> np.ndarray:
        """Values at ``points`` (any shape), zero off the support."""
        idx, hit = sorted_lookup(self.support, points)
        if self.support.size == 0:
            return hit.astype(np.complex128)  # all zero
        return np.where(hit, self.values[idx], 0.0 + 0.0j)
