"""Bounded complex functions on finite integer supports.

A :class:`BoundedFunction` stores a sorted integer support and aligned
complex values with ``|value| <= 1`` (up to a 1e-12 slack for values built
from floating transcendentals). Evaluation off the support is exactly zero,
which is the convention every averaging kernel in this package relies on:
sums like ``a + n1 + n2`` may land outside the ambient set and contribute
nothing.

A function owns its arrays: it copies the support and the values once,
so no later write by the caller reaches them. On a run of consecutive
integers the values are copied into an array with a zero pad on each side
that is not an int64 end, and ``values`` is a view of its interior. A
lookup clips each point into the padded range and takes one entry, so a
point off the support reads a pad; other supports are looked up by
:func:`bohrkit.bohr.sorted_lookup`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bohr import INT64_MAX, INT64_MIN, sorted_distinct, sorted_lookup
from .exact import RationalLike, as_rational

_BOUND_TOL = 1e-12


@dataclass(frozen=True)
class BoundedFunction:
    """A function Z -> C supported on finitely many integers, bounded by 1.

    ``support`` and ``values`` are the function's own copies of the arrays
    it was built from (on a run support, ``values`` is the interior of the
    zero-padded array that ``gather`` reads)."""

    support: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        support = np.array(self.support, dtype=np.int64)
        values = np.asarray(self.values, dtype=np.complex128)
        if support.ndim != 1 or values.shape != support.shape:
            raise ValueError("support and values must be aligned 1-d arrays")
        if np.any(support[1:] <= support[:-1]):
            raise ValueError("support must be strictly increasing")
        if not np.all(np.abs(values) <= 1 + _BOUND_TOL):  # NaN fails too
            raise ValueError("values must be bounded by 1 in absolute value")
        # the values, copied once into ``held``; on a run support, with a
        # zero pad on each side that is not an int64 end, kept as ``_padded``
        # (else None), its first entry standing for ``_padded_lo``
        n = support.size
        run = n > 0 and int(support[-1]) - int(support[0]) + 1 == n
        left = int(run and support[0] > INT64_MIN)
        right = int(run and support[-1] < INT64_MAX)
        held = np.zeros(left + n + right, dtype=np.complex128)
        held[left : left + n] = values
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "values", held[left : left + n])
        object.__setattr__(self, "_padded", held if run else None)
        object.__setattr__(self, "_padded_lo", int(support[0]) - left if run else 0)

    @classmethod
    def indicator(cls, elements: np.ndarray) -> "BoundedFunction":
        elements = sorted_distinct(elements)
        return cls(elements, np.ones(elements.size, dtype=np.complex128))

    @classmethod
    def character(
        cls, freq: RationalLike, lo: int, hi: int
    ) -> "BoundedFunction":
        """``n -> e(n * freq)`` on the dense window ``[lo, hi]``.

        Phases are computed from the exact residue ``(n * p) mod q`` of the
        window's first ``min(q, hi - lo + 1)`` points, one period, and repeat
        with period ``q``, so that equal angles get bitwise equal values and
        nothing longer than the window is built. The residues are taken in
        int64 while ``(q - 1)^2`` fits it and in Python integers past that.
        """
        freq = as_rational(freq)
        p, q = freq.numerator % freq.denominator, freq.denominator
        ns = np.arange(lo, hi + 1, dtype=np.int64)
        head = ns[:q].astype(object) if (q - 1) ** 2 > INT64_MAX else ns[:q]
        phases = np.exp(2j * np.pi * (head % q * p % q).astype(np.float64) / q)
        return cls(ns, phases[np.arange(ns.size) % phases.size])

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
        return cls(ambient, inside - complex(float(delta))), delta

    def gather(self, points: np.ndarray) -> np.ndarray:
        """Values at ``points`` (any shape), zero off the support: on a run,
        one ``take`` of the points clipped into the padded range."""
        padded = self._padded
        if padded is not None:
            lo = self._padded_lo
            idx = np.clip(np.asarray(points, dtype=np.int64), lo, lo + padded.size - 1)
            idx -= lo  # in [0, padded.size): nothing wraps at the int64 ends
            return padded.take(idx)
        idx, hit = sorted_lookup(self.support, points)
        if self.support.size == 0:
            return hit.astype(np.complex128)  # all zero
        return np.where(hit, self.values[idx], 0.0 + 0.0j)
