"""Bounded functions on integer supports: constructors and gather."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bohrkit.functions import BoundedFunction

_MIN, _MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def test_indicator_gather():
    f = BoundedFunction.indicator(np.array([1, 3, 5]))
    got = f.gather(np.array([[0, 1], [3, 4]]))
    assert got.tolist() == [[0, 1], [1, 0]]


def _gather_case(support, values, points, shape):
    """``(support, values, points)``: two aligned lists and an int64 array."""
    points = np.array(points, dtype=np.int64).reshape(shape)
    return list(support), [complex(v) for v in values], points


@st.composite
def gather_cases(draw):
    """A run, non-run or empty support, anchored at either int64 end or near
    zero, and points of any shape on both sides of it."""
    size = draw(st.integers(0, 10))
    n_gaps = max(size - 1, 0)
    if draw(st.booleans()):
        gaps = [1] * n_gaps
    else:
        gaps = draw(st.lists(st.integers(1, 4), min_size=n_gaps, max_size=n_gaps))
    span = sum(gaps)
    start = draw(st.sampled_from([_MIN, _MAX - span, draw(st.integers(-50, 50))]))
    support = [start + sum(gaps[:i]) for i in range(size)]
    near = st.integers(max(_MIN, start - 3), min(_MAX, start + span + 3))
    shape = draw(st.sampled_from([(), (0,), (7,), (2, 3), (3, 1, 2)]))
    count = int(np.prod(shape))
    point = st.one_of(near, st.sampled_from([_MIN, _MAX, 0]))
    points = draw(st.lists(point, min_size=count, max_size=count))
    part = st.floats(-0.7, 0.7, allow_nan=False)
    values = [complex(draw(part), draw(part)) for _ in support]
    return _gather_case(support, values, points, shape)


@settings(max_examples=200, deadline=None)
@given(gather_cases())
@example(_gather_case(range(-2, 3), [0.5, -0.25j, 1, 0.5j, -1], range(-4, 5), (3, 3)))
@example(_gather_case(range(_MIN, _MIN + 3), [1, 0.5, 0.25], [_MIN, _MIN + 3, _MAX], (3,)))
@example(_gather_case(range(_MAX - 2, _MAX + 1), [1, 0.5, 0.25], [_MAX - 3, _MAX, _MIN], (3,)))
@example(_gather_case([], [], [_MIN, 0, _MAX], (3,)))
def test_gather_matches_dict_lookup(case):
    support, values, points = case
    f = BoundedFunction(np.array(support, dtype=np.int64), np.array(values, dtype=np.complex128))
    lookup = dict(zip(support, values))
    got = f.gather(points)
    assert np.shape(got) == points.shape and got.dtype == np.complex128
    assert np.ravel(got).tolist() == [lookup.get(x, 0j) for x in points.ravel().tolist()]
    if support and support[-1] - support[0] + 1 == len(support):
        # a run keeps its values once, inside the zero-padded array
        pads = (support[0] > _MIN) + (support[-1] < _MAX)
        assert np.shares_memory(f.values, f._padded) and f._padded.size == len(support) + pads
        assert np.count_nonzero(f._padded) == np.count_nonzero(values)
    else:
        assert f._padded is None


def test_run_constructors_write_into_the_padded_array():
    built = [
        BoundedFunction.character(Fraction(1, 5), -3, 4),
        BoundedFunction.indicator(np.arange(5)),
        BoundedFunction.balanced_indicator(np.array([1, 2]), np.arange(5))[0],
    ]
    for f in built:
        assert f.values.base is f._padded  # adopted, not copied a second time
    # a view with a pad that is not zero is copied, so the pads read zero
    for pad in (0, 6):
        buf = np.ones(7, dtype=np.complex128)
        buf[6 - pad] = 0
        f = BoundedFunction(np.arange(5), buf[1:6])
        assert not np.shares_memory(f._padded, buf)
        assert f.gather(np.array([-1, 0, 4, 5])).tolist() == [0, 1, 1, 0]
    buf = np.zeros(7, dtype=np.complex128)
    buf[1:6] = 1
    assert BoundedFunction(np.arange(5), buf[1:6])._padded is buf


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
