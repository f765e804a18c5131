"""Bounded functions on integer supports: constructors and gather."""

from __future__ import annotations

import tracemalloc
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


def test_function_owns_its_arrays():
    # a run support, a non-run support, and the interior of a zero-padded
    # buffer: later writes by the caller reach none of the function's arrays
    buf = np.zeros(7, dtype=np.complex128)
    buf[1:6] = 0.5
    cases = [
        (np.arange(5), np.full(5, 0.5 + 0j)),
        (np.array([0, 2, 3, 7, 9]), np.full(5, 0.5j)),
        (np.arange(5), buf[1:6]),
    ]
    points = np.arange(-2, 12)
    built = [BoundedFunction(support, values) for support, values in cases]
    kept = [(f.support.tolist(), f.values.tolist(), f.gather(points).tolist()) for f in built]
    for support, values in cases:
        support += 1
        values[:] = 0.25
    buf[:] = 0.75
    got = [(f.support.tolist(), f.values.tolist(), f.gather(points).tolist()) for f in built]
    assert got == kept


def test_bound_enforced():
    with pytest.raises(ValueError):
        BoundedFunction(np.array([0]), np.array([1.5 + 0j]))
    # NaN fails the bound, in either part, on a run and a scattered support
    for support in ([0, 1, 2], [0, 2, 5]):
        for nan in (complex(np.nan, 0), complex(0, np.nan)):
            with pytest.raises(ValueError, match="bounded by 1"):
                BoundedFunction(np.array(support), np.array([0, nan, 0]))


def test_support_must_increase():
    with pytest.raises(ValueError):
        BoundedFunction(np.array([3, 1]), np.array([1.0 + 0j, 1.0 + 0j]))


def test_support_order_at_the_int64_ends():
    # neighbours are compared, not subtracted: the difference of the ends wraps
    f = BoundedFunction(np.array([_MIN, _MAX]), np.array([0.5, -0.5j]))
    points = np.array([_MIN, _MIN + 1, 0, _MAX - 1, _MAX])
    assert f.gather(points).tolist() == [0.5, 0j, 0j, 0j, -0.5j]
    with pytest.raises(ValueError, match="strictly increasing"):
        BoundedFunction(np.array([_MAX, _MIN]), np.array([0.5, 0.5]))


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


def _phase_table_character(freq: Fraction, lo: int, hi: int) -> np.ndarray:
    """The values of ``e(n freq)`` read from a table of all ``q`` phases, the
    form ``character`` replaced: the bit reference on small ``q``."""
    p, q = freq.numerator % freq.denominator, freq.denominator
    ns = np.arange(lo, hi + 1, dtype=np.int64)
    table = np.exp(2j * np.pi * np.arange(q, dtype=np.float64) / q)
    return table[(ns % q) * p % q]


@pytest.mark.parametrize("q", [1, 2, 3, 12, 97, 1009, 65537, 2**20 + 7])
def test_character_bits_equal_the_phase_table(q):
    for p in sorted({0, 1, 2 % q, q // 2, q - 1, 2 * q // 3}):
        f = BoundedFunction.character(Fraction(p, q), -5000, 5000)
        want = _phase_table_character(Fraction(p, q), -5000, 5000)
        assert f.values.tobytes() == want.tobytes(), (p, q)


def test_character_builds_nothing_of_size_q():
    # a table of all 2^22 phases alone holds 64 MB
    tracemalloc.start()
    try:
        BoundedFunction.character(Fraction(1, 2**22), 0, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("q", [3_037_000_501, 2**61 - 1, 10**30 + 57])
def test_character_residues_are_exact_at_big_denominators(q):
    # (n mod q) p leaves int64 once (q - 1)^2 does, first at n = -1 mod q
    # and p = q - 1 (the window ends at q - 1 while q fits int64); each
    # phase must come from Python's exact n p mod q
    p, lo = q - 1, min(q, 2**62) - 11
    f = BoundedFunction.character(Fraction(p, q), lo, lo + 10)
    residues = [n * p % q for n in range(lo, lo + 11)]
    want = np.exp(2j * np.pi * np.array(residues, dtype=np.float64) / q)
    assert f.values.tobytes() == want.tobytes()


def test_balanced_indicator_exact_density():
    ambient = np.arange(0, 10)
    subset = np.array([0, 1, 2, 3])
    f, delta = BoundedFunction.balanced_indicator(subset, ambient)
    assert delta == Fraction(4, 10)
    on = f.gather(ambient)
    assert abs(on.sum()) < 1e-12
    assert abs(on[0] - (1 - 0.4)) < 1e-15
