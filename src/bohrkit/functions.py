"""Bounded complex functions on finite integer supports.

A :class:`BoundedFunction` stores a sorted integer support and aligned
complex values with ``|value| <= 1`` (up to a 1e-12 slack for values built
from floating transcendentals). Evaluation off the support is exactly zero,
which is the convention every averaging kernel in this package relies on:
sums like ``a + n1 + n2`` may land outside the ambient set and contribute
nothing.

On a run of consecutive integers the values live once inside an array with
a zero pad on each side that is not an int64 end, ``values`` a view of its
interior that the constructors write into. A lookup clips each point into
the padded range and takes one entry, so a point off the support reads a
pad; other supports are looked up by :func:`bohrkit.bohr.sorted_lookup`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bohr import sorted_distinct, sorted_lookup
from .exact import RationalLike, as_rational

_BOUND_TOL = 1e-12
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _pads(support: np.ndarray) -> tuple[int, int] | None:
    """Pad widths ``(left, right)`` on a run support, else None."""
    if support.size == 0 or int(support[-1]) - int(support[0]) + 1 != support.size:
        return None
    return int(support[0] > _INT64_MIN), int(support[-1] < _INT64_MAX)


def _padded_values(support: np.ndarray) -> np.ndarray:
    """Unset values for ``support``, every one for the caller to write; on a
    run, the interior of its padded array, whose pads are zero."""
    left, right = _pads(support) or (0, 0)
    padded = np.empty(left + support.size + right, dtype=np.complex128)
    padded[:left] = padded[padded.size - right :] = 0
    return padded[left : left + support.size]


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
        # ``_padded``: on a run support, the values and their pads (else
        # None), adopted if ``values`` is already its interior with zero
        # pads; ``_padded_lo``: the integer its first entry stands for
        padded, padded_lo, pads = None, 0, _pads(support)
        if pads is not None:
            (left, right), n, padded = pads, support.size, values.base
            if not (
                isinstance(padded, np.ndarray)
                and padded.dtype == values.dtype
                and padded.strides == values.strides
                and padded.shape == (left + n + right,)
                and values.ctypes.data == padded.ctypes.data + 16 * left
                and not padded[:left].any()
                and not padded[left + n :].any()
            ):
                interior = _padded_values(support)
                interior[:] = values
                values, padded = interior, interior.base
            padded_lo = int(support[0]) - left
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_padded", padded)
        object.__setattr__(self, "_padded_lo", padded_lo)

    @classmethod
    def indicator(cls, elements: np.ndarray) -> "BoundedFunction":
        elements = sorted_distinct(elements)
        vals = _padded_values(elements)
        vals.fill(1)
        return cls(elements, vals)

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
        vals = _padded_values(ns)
        table.take((ns % q) * (p % q) % q, out=vals, mode="clip")  # in range
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
        vals = _padded_values(ambient)
        vals[:] = inside
        vals -= complex(float(delta))
        return cls(ambient, vals), delta

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
