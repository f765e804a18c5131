"""Bounded functions on integer supports: constructors and gather."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from bohrkit.functions import BoundedFunction


def test_indicator_gather():
    f = BoundedFunction.indicator(np.array([1, 3, 5]))
    got = f.gather(np.array([[0, 1], [3, 4]]))
    assert got.tolist() == [[0, 1], [1, 0]]


def test_bound_enforced():
    with pytest.raises(ValueError):
        BoundedFunction(np.array([0]), np.array([1.5 + 0j]))


def test_support_must_increase():
    with pytest.raises(ValueError):
        BoundedFunction(np.array([3, 1]), np.array([1.0 + 0j, 1.0 + 0j]))


def test_character_unit_modulus_and_phase():
    f = BoundedFunction.character(Fraction(1, 4), -4, 4)
    assert np.allclose(np.abs(f.values), 1.0)
    # n = 1 has phase e(1/4) = i, exactly representable
    idx = np.searchsorted(f.support, 1)
    assert abs(f.values[idx] - 1j) < 1e-15
    idx0 = np.searchsorted(f.support, 0)
    assert f.values[idx0] == 1


def test_character_exact_period():
    f = BoundedFunction.character(Fraction(1, 3), 0, 8)
    vals = f.values
    assert np.allclose(vals[0:3], vals[3:6])
    assert np.allclose(vals[0:3], vals[6:9])


def test_balanced_indicator_exact_density():
    ambient = np.arange(0, 10)
    subset = np.array([0, 1, 2, 3])
    f, delta = BoundedFunction.balanced_indicator(subset, ambient)
    assert delta == Fraction(4, 10)
    on = f.gather(ambient)
    assert abs(on.sum()) < 1e-12
    assert abs(on[0] - (1 - 0.4)) < 1e-15
