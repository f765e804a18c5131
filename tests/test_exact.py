"""Exact rational helpers: conversions, torus distance, rejection paths."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import pytest

from bohrkit.exact import (
    Wired,
    as_rational,
    floor_frac,
    rational_pair,
    torus_distance,
    wire,
)


def test_as_rational_accepts_int_str_fraction_pairs():
    assert as_rational(3) == Fraction(3)
    assert as_rational("3/7") == Fraction(3, 7)
    assert as_rational(Fraction(2, 5)) == Fraction(2, 5)
    assert as_rational([2, 5]) == Fraction(2, 5)
    assert as_rational((9, 12)) == Fraction(3, 4)


def test_as_rational_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        as_rational(0.5)
    with pytest.raises(TypeError):
        as_rational(True)


def test_rational_pair_is_reduced():
    assert rational_pair(Fraction(6, 4)) == [3, 2]
    assert rational_pair(Fraction(-6, 4)) == [-3, 2]


def test_wire_rule():
    assert wire(Fraction(6, 4)) == [3, 2]
    assert wire((Fraction(1, 2), (3, [Fraction(-2)]))) == [[1, 2], [3, [[-2, 1]]]]
    assert wire(()) == []
    raw = {"x": Fraction(1, 2)}
    assert wire(raw) is raw  # dicts pass as they are
    assert wire(None) is None and wire("a") == "a" and wire(2.5) == 2.5


@dataclass(frozen=True)
class _Leaf(Wired):
    q: Fraction
    tags: tuple[str, ...]


@dataclass(frozen=True)
class _Node(Wired):
    leaf: _Leaf
    kids: tuple[_Leaf, ...]
    missing: Optional[_Leaf] = None


def test_wired_maps_each_field_in_order():
    leaf = _Leaf(Fraction(1, 3), ("a",))
    out = _Node(leaf, (leaf,)).as_dict()
    leaf_form = {"q": [1, 3], "tags": ["a"]}
    assert out == {"leaf": leaf_form, "kids": [leaf_form], "missing": None}
    assert list(out) == ["leaf", "kids", "missing"]


def test_torus_distance_basics():
    assert torus_distance(Fraction(0)) == 0
    assert torus_distance(Fraction(1, 4)) == Fraction(1, 4)
    assert torus_distance(Fraction(3, 4)) == Fraction(1, 4)
    assert torus_distance(Fraction(7, 2)) == Fraction(1, 2)
    assert torus_distance(Fraction(-1, 3)) == Fraction(1, 3)
    assert torus_distance(Fraction(5)) == 0


def test_torus_distance_oracle_small_grid():
    # oracle: minimum over nearby integers of |x - k|
    for num in range(-40, 41):
        for den in (1, 2, 3, 7, 12):
            x = Fraction(num, den)
            oracle = min(abs(x - k) for k in range(-50, 51))
            assert torus_distance(x) == oracle


def test_floor_frac():
    assert floor_frac(Fraction(7, 2)) == 3
    assert floor_frac(Fraction(-7, 2)) == -4
    assert floor_frac(Fraction(4)) == 4
