"""Exact rational arithmetic helpers shared across the package.

Everything that decides membership, compares thresholds, or certifies an
inequality runs on ``fractions.Fraction``. Floats appear only in measured
numeric summaries, never in decisions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Rational = Fraction

RationalLike = Union[int, str, Fraction, tuple, list]


def as_rational(x: RationalLike) -> Fraction:
    """Coerce ``x`` to an exact rational.

    Accepts ints, ``Fraction``, strings like ``"3/7"`` or ``"0.25"``, and
    two-element ``[num, den]`` sequences (the wire format used in reports).
    Floats are rejected: silently rationalizing binary floats is how exact
    pipelines grow 53-bit denominators nobody asked for.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a rational")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, (tuple, list)):
        if len(x) != 2:
            raise ValueError(f"rational pair must have 2 entries, got {len(x)}")
        return Fraction(int(x[0]), int(x[1]))
    raise TypeError(f"cannot interpret {type(x).__name__} as an exact rational")


def rational_pair(x: Fraction) -> list[int]:
    """Canonical ``[numerator, denominator]`` wire form, denominator > 0."""
    return [x.numerator, x.denominator]


def torus_distance(x: Fraction) -> Fraction:
    """Distance from ``x`` to the nearest integer, as an exact rational.

    ``||x|| = min(frac(x), 1 - frac(x))`` where ``frac`` is the fractional
    part in [0, 1).
    """
    f = x - (x.numerator // x.denominator)
    return min(f, 1 - f)


def floor_frac(x: Fraction) -> int:
    """Exact floor of a rational."""
    return x.numerator // x.denominator
