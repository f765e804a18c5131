"""Exact rational arithmetic helpers shared across the package.

Everything that decides membership, compares thresholds, or certifies an
inequality runs on ``fractions.Fraction``. Floats appear only in measured
numeric summaries, never in decisions. A result's report form is its fields,
each through :func:`wire` (:class:`Wired`).
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import Any, Union

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


def wire(x: Any) -> Any:
    """Report form of one value: a ``Fraction`` as :func:`rational_pair`, a
    tuple or list as the list of its items' forms, an object with ``as_dict``
    as that dict, anything else (dicts included) as it is."""
    if isinstance(x, Fraction):
        return rational_pair(x)
    if isinstance(x, (tuple, list)):
        return [wire(v) for v in x]
    if hasattr(x, "as_dict"):
        return x.as_dict()
    return x


class Wired:
    """Mixin for result dataclasses whose report form is their fields:
    ``as_dict`` maps each field name to :func:`wire` of its value, in field
    order. A subclass with extra or dropped keys overrides ``as_dict`` and
    edits ``super().as_dict()``."""

    def as_dict(self) -> dict:
        return {f.name: wire(getattr(self, f.name)) for f in dataclasses.fields(self)}


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
