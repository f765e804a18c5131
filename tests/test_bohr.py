"""Bohr set enumeration, entry keys, and regularity certificates.

The membership oracle here is a literal transcription of the definition in
exact rational arithmetic; every vectorized path is checked against it.
"""

from __future__ import annotations

import dataclasses
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bohrkit import bohr
from bohrkit.bohr import (
    BohrSet,
    BohrSpec,
    BudgetExceeded,
    DilationSearch,
    RegularityCertificate,
    enumerate_bohr,
    exact_density,
    find_regular_alpha,
    find_regular_dilation,
    infer_dilation,
    membership_mask,
    regularity_certificate,
    sorted_distinct,
    sorted_lookup,
    spec_from_dict,
    translate_counts,
)
from bohrkit.exact import as_rational, torus_distance
from bohrkit.functions import BoundedFunction

# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def member_oracle(spec: BohrSpec, n: int) -> bool:
    """Literal definition: |n| <= M and ||n theta_j|| <= eps for all j."""
    if abs(n) > spec.M:
        return False
    return all(torus_distance(n * t) <= spec.eps for t in spec.theta)


def alpha_oracle(spec: BohrSpec, n: int) -> Fraction:
    """Literal entry dilation: the least c > 0 with n in the c-dilate."""
    return max(
        [Fraction(abs(n)) / spec.M]
        + [torus_distance(n * t) / spec.eps for t in spec.theta]
    )


def certificate_oracle(spec: BohrSpec) -> RegularityCertificate:
    """Certificate from member_oracle sizes at every literal breakpoint.

    Checked points are alpha(n) - 1 in [-w, w] for every n that can enter a
    dilate up to 1 + w, plus -w, 0 and w; the first failing point ascending
    is the witness.
    """
    d = spec.dim
    w = Fraction(1, 100 * d)
    top = int((1 + w) * spec.M)
    window = range(-top, top + 1)

    def size(x: Fraction) -> int:
        dilate = spec.dilate(1 + x)
        return sum(member_oracle(dilate, n) for n in window)

    breaks = {alpha_oracle(spec, n) - 1 for n in window}
    checked = sorted({-w, Fraction(0), w} | {x for x in breaks if -w <= x <= w})
    base = size(Fraction(0))
    witness = (None, None, None)
    for x in checked:
        sz, dev = size(x), 100 * d * abs(x)
        if sz < base * (1 - dev):
            witness = (x, sz, "lower")
            break
        if sz > base * (1 + dev):
            witness = (x, sz, "upper")
            break
    neg = [x for x in checked if x <= 0]
    gaps = [b - a for a, b in zip(neg, neg[1:])]
    return RegularityCertificate(
        spec, w, witness[0] is None, base, len(checked),
        max(gaps) if gaps else w, size(-w), size(w), *witness,
    )


def dilation_search_oracle(
    spec: BohrSpec, lo, hi, *, max_candidates: int = 64, enum_limit: int = 10**7
) -> DilationSearch:
    """Reference dilation search on literal entry dilations.

    Distinct alphas in (lo, hi) over |n| <= hi M, midpoints, a quadratic
    dedupe, a sort, the cap, and a fresh certificate for every candidate.
    """
    lo, hi = as_rational(lo), as_rational(hi)
    top = int(hi * spec.M)
    alphas = sorted(
        {a for a in (alpha_oracle(spec, n) for n in range(-top, top + 1)) if lo < a < hi}
    )

    vals = [lo] + alphas + [hi]
    mids = [(a + b) / 2 for a, b in zip(vals, vals[1:]) if a != b]
    candidates: list[Fraction] = []
    for c in [lo] + mids + [hi]:
        if c not in candidates:
            candidates.append(c)
    candidates.sort()
    candidates = candidates[:max_candidates]

    tried: list[Fraction] = []
    for c in candidates:
        tried.append(c)
        cert = regularity_certificate(spec.dilate(c), enum_limit=enum_limit)
        if cert.verdict:
            return DilationSearch(True, c, cert, tuple(tried))
    return DilationSearch(
        False,
        None,
        None,
        tuple(tried),
        reason=f"no regular dilation among {len(tried)} candidates in [{lo}, {hi}]",
    )


def enumerate_oracle(spec: BohrSpec) -> list[int]:
    limit = int(spec.M)
    return [n for n in range(-limit, limit + 1) if member_oracle(spec, n)]


_BIG = 2**61 - 1  # int64 residues by doubling; keys past 2^62, so Python ints


def random_spec(rng: random.Random, max_m: int = 500, max_d: int = 3) -> BohrSpec:
    d = rng.randint(1, max_d)
    theta = []
    for _ in range(d):
        q = rng.randint(1, 40)
        p = rng.randint(1, q)
        theta.append(Fraction(p, q))
    eps = Fraction(rng.randint(1, 999), 1000)
    m = Fraction(rng.randint(1, max_m))
    return BohrSpec(tuple(theta), eps, m)


# ---------------------------------------------------------------------------
# construction and membership
# ---------------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        BohrSpec((Fraction(0),), Fraction(1, 2), Fraction(10))
    with pytest.raises(ValueError):
        BohrSpec((Fraction(3, 2),), Fraction(1, 2), Fraction(10))
    with pytest.raises(ValueError):
        BohrSpec((Fraction(1),), Fraction(0), Fraction(10))
    with pytest.raises(ValueError):
        BohrSpec((Fraction(1),), Fraction(1, 2), Fraction(0))


def test_frozen_example_full_interval():
    spec = BohrSpec((Fraction(1),), Fraction(1, 2), Fraction(100))
    elements = enumerate_bohr(spec)
    assert elements.size == 201
    assert elements[0] == -100 and elements[-1] == 100


def test_frozen_example_parity():
    spec = BohrSpec((Fraction(1, 2),), Fraction(499, 1000), Fraction(50))
    elements = enumerate_bohr(spec)
    assert elements.size == 51
    assert np.all(elements % 2 == 0)


def test_frozen_example_dilate_parity():
    spec = BohrSpec((Fraction(1, 2),), Fraction(499, 1000), Fraction(50))
    bigger = spec.dilate(Fraction(101, 100))
    assert bigger.eps == Fraction(499, 1000) * Fraction(101, 100)
    assert bigger.eps == Fraction(50399, 100000)
    assert enumerate_bohr(bigger).size == 101


def test_frozen_example_tiny():
    spec = BohrSpec((Fraction(1, 3),), Fraction(1, 5), Fraction(1))
    assert enumerate_bohr(spec).tolist() == [0]


# Frequency-1 specs, whose set is the candidate window itself: integral,
# fractional and sub-unit M, a tiny eps and a vacuous one; then a spec that
# mixes in a frequency other than 1 and so needs its keys.
_WINDOW_SPECS = [
    BohrSpec((Fraction(1),), Fraction(1, 3), Fraction(40)),
    BohrSpec((Fraction(1), Fraction(1)), Fraction(1, 5), Fraction(81, 2)),
    BohrSpec((Fraction(1),), Fraction(1, 4), Fraction(2, 3)),
    BohrSpec((Fraction(1),), Fraction(1, 2**150), Fraction(17)),
    BohrSpec((Fraction(1), Fraction(1)), Fraction(1, 2), Fraction(9)),
    BohrSpec((Fraction(1),), Fraction(7, 4), Fraction(5)),
    BohrSpec((Fraction(1), Fraction(2, 7)), Fraction(1, 5), Fraction(30)),
]


def test_enumeration_matches_oracle_random():
    rng = random.Random(7)
    for spec in _WINDOW_SPECS + [random_spec(rng, max_m=60) for _ in range(60)]:
        assert enumerate_bohr(spec).tolist() == enumerate_oracle(spec), spec


def test_membership_mask_matches_oracle():
    rng = random.Random(8)
    for _ in range(30):
        spec = random_spec(rng, max_m=80)
        ns = np.arange(-120, 121, dtype=np.int64)
        mask = membership_mask(spec, ns)
        expect = np.array([member_oracle(spec, int(n)) for n in ns])
        assert np.array_equal(mask, expect)


def test_membership_mask_huge_denominators():
    # widths with astronomically large denominators must fall back cleanly;
    # theta = 1 constraints always hold, and denominators whose products
    # (n mod q) p fit int64 and those that need Horner's rule must agree
    # with the oracle
    q31 = 2**31 - 1
    specs = [
        BohrSpec((Fraction(1),), Fraction(1, 2**150), Fraction(3)),
        BohrSpec((Fraction(1), Fraction(2, 7)), Fraction(1, 5), Fraction(81, 2)),
        # one product per residue
        BohrSpec((Fraction(2**30 + 3, q31), Fraction(1)), Fraction(1, 5), Fraction(40)),
        # q * q past int64, though each (n mod q) p fits
        BohrSpec((Fraction(2**30 + 7, 2**31 + 11),), Fraction(1, 5), Fraction(40)),
        # each q fits, their shared denominator does not
        BohrSpec(
            (Fraction(2**30 + 3, q31), Fraction(5, 2**31 - 19)), Fraction(2, 5), Fraction(60)
        ),
        BohrSpec((Fraction(1), Fraction(_BIG // 3, _BIG)), Fraction(1, 4), Fraction(90, 7)),
        BohrSpec((Fraction(12345, _BIG), Fraction(1, 3)), Fraction(1, _BIG), Fraction(10**6)),
    ]
    ns = np.concatenate(
        [np.arange(-200, 201), [10**9, -(10**12), 2**40, -(2**40) - 1]]
    ).astype(np.int64)
    for spec in specs:
        mask = membership_mask(spec, ns)
        expect = np.array([member_oracle(spec, int(n)) for n in ns])
        assert np.array_equal(mask, expect), spec


# Denominators at the residue helper's edges: the smallest, either side of
# 2^31 (where (n mod q) p stops fitting int64 for large p), the largest
# below 2^62, and past it, where residues are exact Python integers.
_EDGE_QS = (2, 3, 2**31 - 1, 2**31 + 1, _BIG, 2**62 - 1, 2**62 + 1)


@st.composite
def residue_inputs(draw):
    """``(q, p, start, length, others)``: a run ``start, ..., start + length
    - 1`` shorter or longer than ``q``, anywhere in int64, and arbitrary
    int64 candidates."""
    q = draw(st.one_of(st.sampled_from(_EDGE_QS), st.integers(2, 60), st.integers(2, 2**62 + 9)))
    p = draw(st.one_of(st.integers(1, q - 1), st.sampled_from([1, q - 1, max(q // 2, 1)])))
    length = draw(st.integers(1, 300))
    start = draw(st.one_of(st.integers(-400, 50), st.integers(-(2**63), 2**63 - 1 - length)))
    others = draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=30))
    return q, p, start, length, others


@settings(max_examples=200, deadline=None)
@given(residue_inputs())
# 0 lies in the second half of a doubled block: a sum of exactly q
@example((_BIG, _BIG - 2, -5, 11, [0, -1]))
@example((2**62 + 1, 2**61 + 5, -3, 7, [-(2**63), 2**63 - 1]))
@example((2, 1, -(2**63), 9, [-(2**63)]))
def test_residues_match_python_ints(inputs):
    q, p, start, length, others = inputs
    run = np.arange(start, start + length, dtype=np.int64)
    got = bohr._residues(run, p, q, run=True)
    assert got.tolist() == [n * p % q for n in range(start, start + min(q, length))]
    got = bohr._residues(np.array(others, dtype=np.int64), p, q, run=False)
    assert got.tolist() == [n * p % q for n in others]
    assert got.dtype == (object if q >= 2**62 else np.int64)


@st.composite
def edge_specs(draw):
    """d in {1, 2} over the edge denominators and small ones; ``eps`` a tie
    (the distance of some candidate), any width up to 3/4, or past 1/2;
    ``M`` integral or not."""
    qs = draw(st.lists(st.one_of(st.sampled_from(_EDGE_QS), st.integers(1, 12)),
                       min_size=1, max_size=2))
    theta = tuple(Fraction(draw(st.integers(1, q)), q) for q in qs)
    M = Fraction(draw(st.integers(1, 300)), draw(st.sampled_from([1, 2, 3])))
    tie = torus_distance(draw(st.integers(1, 300)) * draw(st.sampled_from(theta)))
    eps = draw(st.one_of(
        st.just(tie or Fraction(1, 3)),
        st.fractions(Fraction(1, 50), Fraction(3, 4), max_denominator=60),
        st.sampled_from([Fraction(1, 2), Fraction(7, 5)]),
    ))
    return BohrSpec(theta, eps, M)


@settings(max_examples=120, deadline=None)
@given(
    edge_specs(),
    st.integers(-400, 0),
    st.lists(st.integers(-(2**63), 2**63 - 1), max_size=20),
)
@example(BohrSpec((Fraction(_BIG // 3, _BIG),), Fraction(1, 5), Fraction(61, 2)), -40, [0])
def test_membership_matches_oracle_at_edge_denominators(spec, start, others):
    assert enumerate_bohr(spec).tolist() == enumerate_oracle(spec)
    ns = np.concatenate([np.arange(start, start + 401), np.array(others, dtype=np.int64)])
    assert membership_mask(spec, ns).tolist() == [member_oracle(spec, int(n)) for n in ns]


@pytest.mark.parametrize("M", [Fraction(5), Fraction(11, 2)], ids=["integral", "half"])
@pytest.mark.parametrize("theta", [Fraction(1), Fraction(1, _BIG)], ids=["one", "big"])
def test_membership_mask_at_the_int64_ends(theta, M):
    # |-2^63| does not fit int64: the radius test must not wrap it inside
    spec = BohrSpec((theta,), Fraction(1, 2), M)
    m = int(M)
    ns = [-(2**63), 2**63 - 1, -m - 1, -m, -m + 1, m - 1, m, m + 1]
    got = membership_mask(spec, np.array(ns, dtype=np.int64)).tolist()
    assert got == [member_oracle(spec, n) for n in ns]
    assert got == [False, False, False, True, True, True, True, False]


# int64 residues by doubling (the first three) and by one product each (the
# fourth), and Python-integer residues past 2^62; only the fourth spec's
# keys are int64
_BIG_Q_SPECS = [
    BohrSpec((Fraction(_BIG // 3, _BIG),), Fraction(1, 5), Fraction(3000)),
    BohrSpec((Fraction(12345, _BIG), Fraction(_BIG // 7, _BIG)), Fraction(1, 5), Fraction(3000)),
    BohrSpec((Fraction(2**61 + 3, 2**62 - 1),), Fraction(2, 5), Fraction(2000)),
    BohrSpec((Fraction(2**30 + 7, 2**31 + 11),), Fraction(1, 5), Fraction(2000)),
    BohrSpec((Fraction(2**61 + 5, 2**62 + 1),), Fraction(1, 3), Fraction(2000)),
]


@pytest.mark.parametrize("spec", _BIG_Q_SPECS, ids=range(len(_BIG_Q_SPECS)))
def test_certificate_base_size_is_the_enumerated_size(spec):
    # the certificate counts keys K(n) <= B; enumeration tests each bound
    assert regularity_certificate(spec).base_size == enumerate_bohr(spec).size


def test_enumeration_at_a_big_denominator_builds_no_object_array():
    # measured peak 6.3 MB: the window of 200001 candidates, its residues,
    # q - r and their minimum, 1.6 MB each. An object array of the window
    # alone holds 1.6 MB of pointers and 6.4 MB of Python integers.
    spec = BohrSpec((Fraction(_BIG // 3, _BIG),), Fraction(1, 5), Fraction(10**5))
    expect = enumerate_bohr(spec)
    tracemalloc.start()
    try:
        got = enumerate_bohr(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, expect) and got.dtype == np.int64
    assert peak < 8 * 2**20


# Periods q_j below and above the candidate window 2 floor(M) + 1, windows
# starting at a residue other than 0 (-60 = 3 mod 7) and at 0 (-63 mod 7),
# a period equal to the window (13), tails of 2 and 0 candidates, and keys
# on the exact Python-int path (a huge q, or a huge multiplier) with a short
# period tiled alongside.
_PERIOD_SPECS = [
    BohrSpec((Fraction(1, 3),), Fraction(1, 5), Fraction(10)),
    BohrSpec((Fraction(2, 7),), Fraction(1, 5), Fraction(60)),
    BohrSpec((Fraction(2, 7),), Fraction(1, 5), Fraction(63)),
    BohrSpec((Fraction(3, 8), Fraction(5, 211)), Fraction(1, 4), Fraction(90)),
    BohrSpec((Fraction(4, 13),), Fraction(1, 6), Fraction(13, 2)),
    BohrSpec((Fraction(4, 11), Fraction(1)), Fraction(1, 6), Fraction(6)),
    BohrSpec((Fraction(2, 7), Fraction(12345, _BIG)), Fraction(1, 5), Fraction(40)),
    BohrSpec((Fraction(3, 5),), Fraction(1, _BIG), Fraction(45)),
]


@pytest.mark.parametrize("spec", _PERIOD_SPECS, ids=range(len(_PERIOD_SPECS)))
def test_window_keys_match_oracle_across_periods(spec):
    assert enumerate_bohr(spec).tolist() == enumerate_oracle(spec)
    assert regularity_certificate(spec) == certificate_oracle(spec)
    ns = np.arange(-int(spec.M) - 9, int(spec.M) + 10)
    assert membership_mask(spec, ns).tolist() == [member_oracle(spec, int(n)) for n in ns]


def _one_repeat() -> np.ndarray:
    arr = np.arange(-30, 31)
    arr[17] = arr[16]
    return arr


@pytest.mark.parametrize(
    "ns",
    [np.array([0, 0, 0, 3]), np.arange(40, -41, -1), _one_repeat()],
    ids=["repeats", "descending", "one-repeat"],
)
def test_membership_mask_on_arrays_whose_ends_mimic_a_run(ns):
    # size and ends (or extremes) look like a run of consecutive integers,
    # but the candidates are not one: each must get its own key
    for spec in _PERIOD_SPECS:
        expect = [member_oracle(spec, int(n)) for n in ns]
        assert membership_mask(spec, ns).tolist() == expect, spec


def test_zero_always_member_and_symmetric():
    rng = random.Random(9)
    for _ in range(40):
        spec = random_spec(rng, max_m=50)
        elements = enumerate_bohr(spec)
        assert 0 in elements
        assert np.array_equal(elements, -elements[::-1])


@settings(max_examples=40, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=30),
    q=st.integers(min_value=1, max_value=30),
    eps_num=st.integers(min_value=1, max_value=99),
    m=st.integers(min_value=1, max_value=120),
)
def test_membership_ties_inclusive(p, q, eps_num, m):
    # points with ||n theta|| exactly eps are members
    theta = Fraction(min(p, q), max(p, q))
    spec = BohrSpec((theta,), Fraction(eps_num, 100), Fraction(m))
    elements = set(enumerate_bohr(spec).tolist())
    for n in range(-m, m + 1):
        if torus_distance(n * theta) == spec.eps:
            assert n in elements


def test_pigeonhole_size_bound():
    # |Bohr set| >= eps^d * M, exact rational comparison
    rng = random.Random(20260819)
    for _ in range(200):
        spec = random_spec(rng, max_m=500)
        size = enumerate_bohr(spec).size
        assert Fraction(size) >= spec.eps ** spec.dim * spec.M


def test_enumeration_budget():
    # the candidate window |n| <= floor(M) is charged one unit per integer
    spec = BohrSpec((Fraction(1),), Fraction(1, 2), Fraction(1001, 2))
    assert enumerate_bohr(spec, enum_limit=1001).size == 1001
    with pytest.raises(BudgetExceeded) as refused:
        enumerate_bohr(spec, enum_limit=1000)
    e = refused.value
    assert (e.what, e.unit, e.spent, e.budget) == ("candidate window", "integers", 1001, 1000)
    # refused before allocation
    huge = BohrSpec((Fraction(1),), Fraction(1, 2), Fraction(10**9))
    with pytest.raises(BudgetExceeded):
        enumerate_bohr(huge, enum_limit=1000)


def test_dilate_nesting():
    rng = random.Random(10)
    for _ in range(25):
        spec = random_spec(rng, max_m=60)
        inner = spec.dilate(Fraction(1, 3))
        small = set(enumerate_bohr(inner).tolist())
        big = set(enumerate_bohr(spec).tolist())
        assert small <= big


def test_spec_round_trip():
    spec = BohrSpec((Fraction(2, 7), Fraction(1, 3)), Fraction(1, 5), Fraction(45, 2))
    assert spec_from_dict(spec.as_dict()) == spec


def test_infer_dilation():
    spec = BohrSpec((Fraction(1, 2),), Fraction(1, 4), Fraction(100))
    inner = spec.dilate(Fraction(1, 5))
    assert infer_dilation(inner, spec) == Fraction(1, 5)
    other = BohrSpec((Fraction(1, 3),), Fraction(1, 20), Fraction(20))
    assert infer_dilation(other, spec) is None


def test_exact_density():
    ambient = np.arange(-10, 11)
    subset = np.array([-4, 0, 8])
    assert exact_density(subset, ambient) == Fraction(3, 21)


def test_exact_density_counts_a_repeated_ambient_value_once():
    assert exact_density(np.array([1]), np.array([1, 1])) == 1
    assert exact_density(np.array([2, 5]), np.array([5, 2, 5, 7])) == Fraction(2, 3)


# ---------------------------------------------------------------------------
# regularity
# ---------------------------------------------------------------------------


def test_regular_frozen_full_interval():
    cert = regularity_certificate(BohrSpec((Fraction(1),), Fraction(1, 2), Fraction(100)))
    assert cert.verdict is True
    assert cert.base_size == 201


def test_regular_frozen_parity_pathology():
    cert = regularity_certificate(
        BohrSpec((Fraction(1, 2),), Fraction(499, 1000), Fraction(50))
    )
    assert cert.verdict is False
    assert cert.witness_c == Fraction(1, 499)
    assert cert.witness_side == "upper"
    assert cert.witness_size == 101


def test_regular_frozen_halving():
    cert = regularity_certificate(
        BohrSpec((Fraction(1, 2),), Fraction(1, 4), Fraction(1000))
    )
    assert cert.verdict is True


def test_regularity_witness_recheck():
    # a recorded witness must reproduce the violating size by direct count
    spec = BohrSpec((Fraction(1, 2),), Fraction(499, 1000), Fraction(50))
    cert = regularity_certificate(spec)
    assert cert.verdict is False
    dilated = spec.dilate(1 + cert.witness_c)
    assert enumerate_bohr(dilated).size == cert.witness_size
    # and the claimed bound really fails on that side
    d = spec.dim
    ratio = Fraction(cert.witness_size, cert.base_size)
    bound = 1 + 100 * d * abs(cert.witness_c)
    assert ratio > bound


def test_find_regular_dilation_recertifies():
    rng = random.Random(11)
    hits = 0
    for _ in range(25):
        spec = random_spec(rng, max_m=120)
        search = find_regular_dilation(spec, Fraction(1, 40), Fraction(1, 4))
        if search.found:
            hits += 1
            inner = spec.dilate(search.c)
            again = regularity_certificate(inner)
            assert again.verdict is True
            assert Fraction(1, 40) <= search.c <= Fraction(1, 4)
    assert hits > 0


def test_find_regular_alpha_range():
    rng = random.Random(12)
    for _ in range(20):
        spec = random_spec(rng, max_m=100)
        search = find_regular_alpha(spec)
        if search.found:
            assert Fraction(1, 2) <= search.c <= 1
            scaled = BohrSpec(spec.theta, spec.eps * search.c, spec.M)
            assert regularity_certificate(scaled).verdict is True


def test_certificate_matches_literal_oracle():
    pinned = [
        # a breakpoint at the least key past B (1 - w)
        BohrSpec((Fraction(1),), Fraction(1, 2), Fraction(150)),
        # int64 keys and thresholds just under the overflow preflight
        BohrSpec((Fraction(1),), Fraction(1, 2), Fraction(100 * 2**55 + 1, 2**55)),
        BohrSpec((Fraction(2**30 + 3, 2**31 - 1),), Fraction(1, 5), Fraction(40)),
        BohrSpec((Fraction(_BIG // 2, _BIG),), Fraction(499, 1000), Fraction(50)),
    ]
    for spec in pinned:
        assert regularity_certificate(spec) == certificate_oracle(spec)
    rng = random.Random(13)
    for _ in range(40):
        spec = random_spec(rng, max_m=90)
        assert regularity_certificate(spec) == certificate_oracle(spec)
        c = Fraction(rng.randint(1, 30), rng.randint(1, 30))
        literal = certificate_oracle(spec.dilate(c))
        assert regularity_certificate(spec.dilate(c)) == literal
        # lo == hi tries c alone, certified from the undilated spec's keys
        search = find_regular_dilation(spec, c, c)
        assert search.found == literal.verdict
        assert search.certificate == (literal if literal.verdict else None)


@st.composite
def dilation_inputs(draw):
    # one denominator in four is past the int64 preflight
    qs = st.one_of(st.integers(1, 40), st.integers(1, 40), st.integers(1, 40), st.just(_BIG))
    theta = []
    for q in draw(st.lists(qs, min_size=1, max_size=3)):
        theta.append(Fraction(draw(st.integers(min_value=1, max_value=q)), q))
    M = Fraction(draw(st.integers(20, 150)), draw(st.sampled_from([1, 2, 3, 7])))
    lo = Fraction(draw(st.integers(1, 40)), 41)
    hi = draw(st.sampled_from([lo + Fraction(draw(st.integers(1, 40)), 41), lo]))
    # eps just below a tie at c = lo makes the first candidates fail
    q0 = draw(st.sampled_from([t.denominator for t in theta if t.denominator < _BIG] or [2]))
    tie = Fraction(draw(st.integers(1, max(q0 // 2, 1))), q0) / lo
    eps = draw(st.one_of(
        st.integers(1, 9).map(lambda t: tie * (1 - Fraction(t, 1000))),
        st.fractions(Fraction(1, 100), Fraction(1, 2), max_denominator=1000),
        st.integers(_BIG // 100, _BIG // 2).map(lambda e: Fraction(e, _BIG)),
    ))
    return BohrSpec(tuple(theta), eps, M), lo, hi, draw(st.sampled_from([1, 2, 64]))


_PARITY = BohrSpec((Fraction(1, 2),), Fraction(499, 500), Fraction(100))
_NEAR_PARITY = BohrSpec((Fraction(_BIG // 2, _BIG),), Fraction(499, 500), Fraction(201, 2))


@settings(max_examples=100, deadline=None)
@given(dilation_inputs())
@example((_PARITY, Fraction(1, 2), Fraction(1), 64))
@example((_PARITY, Fraction(1, 2), Fraction(1), 1))
@example((_PARITY, Fraction(1, 2), Fraction(1, 2), 64))
@example((_PARITY.dilate(Fraction(1, 2)), Fraction(999, 1000), Fraction(1), 64))
@example((_NEAR_PARITY, Fraction(1, 2), Fraction(3, 4), 64))
@example((_NEAR_PARITY, Fraction(1, 2), Fraction(3, 4), 2))
def test_find_regular_dilation_matches_oracle(inputs):
    spec, lo, hi, k = inputs
    with pytest.MonkeyPatch.context() as mp:  # hypothesis reruns the body, so no fixture
        mp.setattr(bohr, "_MAX_CANDIDATES", k)
        found = find_regular_dilation(spec, lo, hi)
    assert found == dilation_search_oracle(spec, lo, hi, max_candidates=k)


def test_find_regular_dilation_budget_edge():
    # the budget covers the key index over |n| <= (1+w) hi M, w = 1/(100 d)
    spec = BohrSpec((Fraction(2, 7), Fraction(1, 3)), Fraction(1, 5), Fraction(301, 2))
    lo, hi = Fraction(1, 3), Fraction(5, 6)
    window = 2 * int(Fraction(201, 200) * hi * spec.M) + 1
    find_regular_dilation(spec, lo, hi, enum_limit=window)
    with pytest.raises(BudgetExceeded):
        find_regular_dilation(spec, lo, hi, enum_limit=window - 1)
    # refused before allocation: this window would need 16 PB
    huge = BohrSpec(spec.theta, spec.eps, Fraction(12 * 10**14))
    window = 2 * int(Fraction(201, 200) * hi * huge.M) + 1
    with pytest.raises(BudgetExceeded):
        find_regular_dilation(huge, lo, hi, enum_limit=window - 1)


@st.composite
def dilate_inputs(draw):
    """A spec and a dilation ``c``: the midpoint ``(k1 + k2) / (2B)`` of two
    consecutive distinct keys, as the dilation search forms its candidates,
    or ``k / (B (1 + x))``, which makes ``x`` in ``-w``, ``0``, ``w`` itself a
    breakpoint of the dilate. With ``x = 0`` and the least key past ``B``,
    the first non-members sit on the dilate's boundary, which is where lower
    witnesses come from. One denominator in four is ``2^61 - 1``."""
    qs = st.one_of(st.integers(1, 12), st.integers(1, 40), st.integers(1, 40), st.just(_BIG))
    theta = []
    for q in draw(st.lists(qs, min_size=1, max_size=3)):
        theta.append(Fraction(draw(st.integers(min_value=1, max_value=q)), q))
    # past 100 d, an interval holds keys between B c (1 - w) and B c
    M = Fraction(draw(st.one_of(st.integers(5, 60), st.integers(100, 200))),
                 draw(st.sampled_from([1, 2, 3])))
    # eps at or just below a tie ||n theta|| = j / q puts many keys together
    q0 = draw(st.sampled_from([t.denominator for t in theta if t.denominator < _BIG] or [2]))
    tie = Fraction(draw(st.integers(1, max(q0 // 2, 1))), q0)
    eps = draw(st.one_of(
        st.fractions(Fraction(1, 50), Fraction(1, 2), max_denominator=60),
        st.integers(0, 9).map(lambda t: tie * (1 - Fraction(t, 1000))),
        st.integers(_BIG // 100, _BIG // 2).map(lambda e: Fraction(e, _BIG)),
    ))
    spec = BohrSpec(tuple(theta), eps, M)
    keys, B = bohr._key_index(spec, int(M), 10**7)
    alphas = sorted({int(k) for k in keys if 0 < k <= 2 * B})
    w = Fraction(1, 100 * spec.dim)
    if len(alphas) > 1 and draw(st.booleans()):
        i = draw(st.integers(0, len(alphas) - 2))
        c = Fraction(alphas[i] + alphas[i + 1], 2 * B)
    else:
        past = [k for k in alphas if k > B]
        k = past[0] if past and draw(st.booleans()) else draw(st.sampled_from(alphas or [B]))
        x = draw(st.sampled_from([-w, Fraction(0), w]))
        c = Fraction(k, B) / (1 + x)
    return spec, c, draw(st.sampled_from([0, 0, 3]))


_ALL_SIDES = BohrSpec((Fraction(1, 2),), Fraction(499, 1000), Fraction(50))
_INTERVAL = BohrSpec((Fraction(1),), Fraction(1, 2), Fraction(50))


@settings(max_examples=60, deadline=None)
@given(dilate_inputs())
@example((_ALL_SIDES, Fraction(1), 0))  # upper witness
@example((_ALL_SIDES, Fraction(500, 499), 0))  # lower witness: the odds sit on the boundary
@example((_INTERVAL, Fraction(100, 99), 3))  # -w is the breakpoint of |n| = 50
@example((_INTERVAL, Fraction(100, 101), 0))  # w is the breakpoint of |n| = 50
@example((_INTERVAL, Fraction(3), 0))  # |n| = 149 is the least key past B c (1 - w)
@example((BohrSpec((Fraction(_BIG // 2, _BIG),), Fraction(1, 3), Fraction(40)), Fraction(1, 2), 0))
def test_certificate_of_a_dilate_matches_oracle(inputs):
    # certified from the undilated spec's keys, over the window the dilate
    # needs or a few candidates more, as find_regular_dilation does
    spec, c, extra = inputs
    w = Fraction(1, 100 * spec.dim)
    keys, B = bohr._key_index(spec, int((1 + w) * c * spec.M) + extra, 10**7)
    dilate = spec.dilate(c)
    assert bohr._certify(dilate, keys, B, c) == certificate_oracle(dilate)


def test_tiny_dilate_certifies_in_exact_integers():
    # c = 2^-80 on [-232, 232] leaves only the key 0 in the window, and the
    # factor Q m of its breakpoints is far past int64
    spec = BohrSpec((Fraction(1),), Fraction(1, 2), Fraction(232))
    search = find_regular_dilation(spec, Fraction(1, 2**80), Fraction(1, 2**79))
    assert (search.found, search.c) == (True, Fraction(1, 2**80))
    assert search.certificate == certificate_oracle(spec.dilate(search.c))


def test_certificate_builds_no_fraction_per_breakpoint(monkeypatch):
    # d = 1 and w = 1/100: the interval [-M, M] has a breakpoint at every
    # |n| in [0.99 M, 1.01 M], 61 of them for M = 3000 and 601 for M = 30000
    made = []
    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        made.append(cls)
        return new(cls, *args, **kwargs)

    def fractions_made(M: int) -> int:
        spec = BohrSpec((Fraction(1),), Fraction(1, 2), Fraction(M))
        made.clear()
        cert = regularity_certificate(spec)
        assert cert.num_checked == M // 50 + 1 and cert.verdict
        return len(made)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
    if hasattr(Fraction, "_from_coprime_ints"):  # arithmetic bypasses __new__ from 3.12 on
        coprime = Fraction._from_coprime_ints.__func__

        def counted_coprime(cls, *args):
            made.append(cls)
            return coprime(cls, *args)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counted_coprime))
    assert 0 < fractions_made(3000) == fractions_made(30000)


def test_bohr_set_wrapper():
    spec = BohrSpec((Fraction(1),), Fraction(1, 2), Fraction(10))
    bs = BohrSet.from_spec(spec)
    assert bs.size == 21
    _, inside = sorted_lookup(bs.elements, np.array([0, 10, 11]))
    assert inside.tolist() == [True, True, False]


def test_bohr_set_equality_and_hash():
    # a set is built from its spec alone: two sets of one spec are equal and
    # hold equal elements, and a carried certificate alone tells them apart
    spec = BohrSpec((Fraction(1, 3),), Fraction(1, 4), Fraction(40))
    a, b = BohrSet.from_spec(spec), BohrSet(spec)
    assert a == b and hash(a) == hash(b)
    assert np.array_equal(a.elements, b.elements)
    assert np.array_equal(a.elements, enumerate_bohr(spec))
    certified = BohrSet(spec, regularity_certificate(spec))
    assert a != certified and np.array_equal(certified.elements, a.elements)
    assert a != spec
    assert b in {a} and len({a, b, certified}) == 2
    with pytest.raises(TypeError):
        BohrSet(spec, elements=a.elements)


def test_bohr_set_rejects_a_foreign_certificate():
    spec = BohrSpec((Fraction(1, 3),), Fraction(1, 4), Fraction(40))
    cert = regularity_certificate(spec)
    carried = BohrSet(spec, cert)
    assert carried.certificate is cert and "certificate" not in carried.as_dict()
    with pytest.raises(ValueError, match="another Bohr set"):
        BohrSet(spec.dilate(Fraction(1, 2)), cert)
    # another description of the same integers: the sizes agree, the specs not
    alias = BohrSpec(spec.theta, spec.eps, Fraction(81, 2))
    assert np.array_equal(enumerate_bohr(alias), carried.elements)
    with pytest.raises(ValueError, match="another Bohr set"):
        BohrSet(alias, cert)
    # the spec's own certificate with a forged count of its base
    with pytest.raises(ValueError, match="another Bohr set"):
        BohrSet(spec, dataclasses.replace(cert, base_size=cert.base_size - 1))


_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
_INT64 = st.integers(_INT64_MIN, _INT64_MAX)


@st.composite
def lookup_inputs(draw):
    """Strictly ascending int64 values and points of 0 to 3 dimensions: random
    int64s, the extremes, and values, their neighbours, below and above.
    Half the draws make ``values`` a run of consecutive integers: of length
    1, 2 or more, anywhere, or starting at the lowest int64 or ending at the
    highest."""
    if draw(st.booleans()):
        values = sorted(draw(st.sets(st.one_of(st.integers(-20, 20), _INT64), max_size=10)))
    else:
        length = draw(st.one_of(st.sampled_from([1, 2]), st.integers(3, 40)))
        start = draw(
            st.one_of(
                st.integers(-20, 20),
                st.integers(_INT64_MIN, _INT64_MAX - length + 1),
                st.sampled_from([_INT64_MIN, _INT64_MAX - length + 1]),
            )
        )
        values = list(range(start, start + length))
    near = [v + dv for v in values for dv in (-1, 0, 1) if _INT64_MIN <= v + dv <= _INT64_MAX]
    pool = st.one_of(
        st.integers(-25, 25), _INT64, st.sampled_from([_INT64_MIN, _INT64_MAX] + near)
    )
    shape = tuple(draw(st.lists(st.integers(0, 4), max_size=3)))
    points = draw(st.lists(pool, min_size=math.prod(shape), max_size=math.prod(shape)))
    return np.array(values, dtype=np.int64), np.array(points, dtype=np.int64).reshape(shape)


_EMPTY = np.array([], dtype=np.int64)


def _run(start: int, length: int) -> np.ndarray:
    return np.arange(start, start + length, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(lookup_inputs())
@example((_EMPTY, np.array([[0, _INT64_MIN], [_INT64_MAX, 5]])))
@example((np.array([_INT64_MIN, 0, _INT64_MAX]), np.array([[[_INT64_MIN + 1, _INT64_MAX]]])))
@example((np.array([-3, 4]), np.array([-4, -3, 0, 4, 5])))
@example((_run(_INT64_MIN, 3), np.array([_INT64_MIN, _INT64_MIN + 2, _INT64_MIN + 3, _INT64_MAX])))
@example((_run(_INT64_MAX - 2, 3), np.array([_INT64_MIN, _INT64_MAX - 3, _INT64_MAX - 2, _INT64_MAX])))
@example((_run(_INT64_MIN, 1), np.array(_INT64_MAX)))
@example((_run(_INT64_MAX, 1), np.array(_INT64_MAX)))
@example((_run(-2, 5), np.array(3)))
@example((_run(-2, 5), np.array(-2)))
def test_sorted_lookup_matches_set_oracle(inputs):
    values, points = inputs
    idx, hit = sorted_lookup(values, points)
    assert idx.shape == hit.shape == points.shape
    members = set(values.tolist())
    assert hit.ravel().tolist() == [p in members for p in points.ravel().tolist()]
    assert values[idx[hit]].tolist() == points[hit].tolist()
    assert np.all((0 <= idx) & (idx < max(values.size, 1)))  # callers index with it


def test_sorted_lookup_on_a_run_does_not_search(monkeypatch):
    # a silent fallback to the search would pass every value test above
    def refuse(*args, **kwargs):
        raise AssertionError("searchsorted called")

    monkeypatch.setattr(np, "searchsorted", refuse)
    support = np.arange(-50, 51)
    pts = np.array([[-51, -50, 0], [50, 51, 7]])
    idx, hit = sorted_lookup(support, pts)
    assert hit.tolist() == [[False, True, True], [True, False, True]]
    assert support[idx[hit]].tolist() == pts[hit].tolist()
    f = BoundedFunction(support, support / 64)
    assert f.gather(pts).tolist() == [[0, -50 / 64, 0], [50 / 64, 0, 7 / 64]]
    with pytest.raises(AssertionError, match="searchsorted called"):
        sorted_lookup(np.array([-50, 0, 51]), pts)  # not a run: searched


@st.composite
def distinct_inputs(draw):
    """Ascending, descending, repeated or shuffled values, 1-D or 2-D."""
    values = draw(st.lists(st.one_of(st.integers(-20, 20), _INT64), max_size=12))
    order = draw(st.sampled_from(["ascending", "descending", "repeated", "as drawn"]))
    if order == "ascending":
        values = sorted(set(values))
    elif order == "descending":
        values = sorted(set(values), reverse=True)
    elif order == "repeated":
        values = sorted(values + values[: len(values) // 2])
    arr = np.array(values, dtype=np.int64)
    if draw(st.booleans()) and arr.size % 2 == 0:
        arr = arr.reshape(2, -1)
    return arr


@settings(max_examples=200, deadline=None)
@given(distinct_inputs())
@example(_EMPTY)
@example(np.array([[1, 2], [3, 4]]))  # ascending once flattened, but 2-D
@example(np.array([5, 5]))
def test_sorted_distinct_matches_unique(arr):
    before = arr.copy()
    got = sorted_distinct(arr)
    assert got.dtype == np.int64 and got.ndim == 1
    assert got.tolist() == np.unique(arr).tolist()
    assert not np.shares_memory(got, arr)  # a fresh array, even when nothing moved
    assert np.array_equal(arr, before)


@st.composite
def density_inputs(draw):
    """Unsorted int64 arrays with repeats: an ambient set, a run or scattered
    values, and a subset drawn partly outside it, with fewer or more distinct
    values than the ambient set."""
    if draw(st.booleans()):
        lo = draw(st.integers(-20, 20))
        ambient = list(range(lo, lo + draw(st.integers(1, 25))))
    else:
        ambient = draw(st.lists(st.one_of(st.integers(-20, 20), _INT64), min_size=1, max_size=25))
    ambient = draw(st.permutations(ambient + ambient[: draw(st.integers(0, 3))]))
    subset = draw(st.lists(st.one_of(st.integers(-30, 30), _INT64), max_size=60))
    return np.array(subset, dtype=np.int64), np.array(ambient, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(density_inputs())
@example((_EMPTY, np.array([3, 1, 3])))
@example((np.array([9, 5, 5, -40, 2, 9]), np.array([2, 9, 2])))  # the subset is larger
@example((np.array([_INT64_MAX, 0, _INT64_MIN]), np.arange(-3, 4)))
def test_exact_density_matches_set_oracle(inputs):
    subset, ambient = inputs
    members = set(ambient.tolist())
    expect = Fraction(len(members & set(subset.tolist())), len(members))
    assert exact_density(subset, ambient) == expect


def test_exact_density_looks_the_smaller_side_up(monkeypatch):
    # a lookup of every ambient point gives the same density at window cost
    looked_up = []

    def counted(values, points):
        looked_up.append(np.asarray(points).size)
        return sorted_lookup(values, points)

    monkeypatch.setattr(bohr, "sorted_lookup", counted)
    window, sparse = np.arange(-1000, 1001), np.array([7, -3, 7, 5000, 12])
    cases = [
        (sparse, window, Fraction(3, 2001)),
        (window, sparse, Fraction(3, 4)),
        (window[::-1], window, Fraction(1)),
        (_EMPTY, window, Fraction(0)),
    ]
    for subset, ambient, density in cases:
        looked_up.clear()
        assert exact_density(subset, ambient) == density
        distinct = min(np.unique(subset).size, np.unique(ambient).size)
        assert looked_up == [distinct]


# ---------------------------------------------------------------------------
# translate counts
# ---------------------------------------------------------------------------


def translate_counts_oracle(subset, ambient, shifts, offsets):
    """Literal loops: is ``t + offsets`` inside ``ambient``, and how much of
    ``subset`` it holds, for every shift ``t``."""
    sub, amb = set(subset.tolist()), set(ambient.tolist())
    offs = offsets.tolist()
    inside = [all(t + n in amb for n in offs) for t in shifts.tolist()]
    counts = [sum(t + n in sub for n in offs) for t in shifts.tolist()]
    return inside, counts


@st.composite
def translate_inputs(draw):
    """An interval ambient set with a few holes, a random subset of a wider
    window, 1024 to 1100 offsets and 257 to 600 shifts: every scan runs in
    several chunks of 2^18 / |offsets| rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A, W = 1500, 700
    holes = rng.integers(-A, A + 1, size=draw(st.integers(0, 3)))
    ambient = np.setdiff1d(np.arange(-A, A + 1), holes)
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
    window = np.arange(-A - W, A + W + 1)
    subset = window[rng.random(window.size) < density]
    n_off = draw(st.integers(1024, 1100))
    offsets = np.sort(rng.choice(np.arange(-W, W + 1), size=n_off, replace=False))
    shifts = rng.integers(-A - W, A + W + 1, size=draw(st.integers(257, 600)))
    return subset, ambient, shifts, offsets


@settings(max_examples=25, deadline=None)
@given(translate_inputs())
def test_translate_counts_match_literal_loops(inputs):
    subset, ambient, shifts, offsets = inputs
    chunks = list(translate_counts((ambient, subset), shifts, offsets, budget=10**9))
    assert len(chunks) >= 2
    assert np.concatenate([c for c, _ in chunks]).tolist() == shifts.tolist()
    held = np.concatenate([h for _, (h, _) in chunks])
    counts = np.concatenate([k for _, (_, k) in chunks]).tolist()
    inside = (held == offsets.size).tolist()  # containment is a full count
    assert (inside, counts) == translate_counts_oracle(subset, ambient, shifts, offsets)


def test_translate_counts_budget_boundary():
    ambient = np.arange(-2000, 2001)
    subset = ambient[::3]
    offsets = np.arange(-512, 512)
    shifts = np.arange(-400, 400)
    total = shifts.size * offsets.size
    chunks = list(translate_counts((ambient, subset), shifts, offsets, budget=total))
    assert len(chunks) == 4 and sum(c.size for c, _ in chunks) == shifts.size
    scan = translate_counts((ambient, subset), shifts, offsets, budget=total - 1)
    assert len([next(scan) for _ in range(3)]) == 3  # the last chunk alone is refused
    with pytest.raises(BudgetExceeded) as refused:
        next(scan)
    e = refused.value
    assert (e.what, e.unit, e.spent, e.budget) == ("translate count", "points", total, total - 1)
    assert str(e) == f"translate count needs {total} points, budget {total - 1}"


@st.composite
def dilate_sum_inputs(draw):
    """A spec with d in {1, 2} and a factor ``c = a / b`` in (0, 1). Half the
    widths are ``b j / q`` for the denominator ``q`` of a frequency, and
    ``M`` is a multiple of ``b`` or of ``b / 2``, so ``c eps`` and
    ``(1 - c) eps`` are distances ``||n theta||`` that occur, and ``c M`` and
    ``(1 - c) M`` are often integers: the dilates have members on their
    boundaries (ties)."""
    qs = draw(st.lists(st.integers(1, 12), min_size=1, max_size=2))
    theta = tuple(Fraction(draw(st.integers(1, q)), q) for q in qs)
    b = draw(st.integers(2, 9))
    c = Fraction(draw(st.integers(1, b - 1)), b)
    q = draw(st.sampled_from([t.denominator for t in theta]))
    eps = draw(st.one_of(
        st.integers(1, 3).map(lambda j: Fraction(b * j, q)),
        st.fractions(Fraction(1, 50), Fraction(3, 4), max_denominator=60),
    ))
    M = Fraction(b * draw(st.integers(1, 60 // b)), draw(st.sampled_from([1, 1, 2])))
    return BohrSpec(theta, eps, M), c


@settings(max_examples=200, deadline=None)
@given(dilate_sum_inputs())
@example((BohrSpec((Fraction(1),), Fraction(1, 2), Fraction(40)), Fraction(1, 8)))
@example((BohrSpec((Fraction(1), Fraction(2, 7)), Fraction(2, 7), Fraction(42)), Fraction(1, 2)))
def test_dilate_sums_stay_in_the_bohr_set(inputs):
    # the Bohr triangle inequality, exactly: (1 - c) B + c B lies in B. The
    # Fourier step's plain scan counts a + N_1 against the subset alone on it
    spec, c = inputs
    outer, inner = enumerate_bohr(spec.dilate(1 - c)), enumerate_bohr(spec.dilate(c))
    sums = (outer[:, None] + inner[None, :]).ravel()
    assert membership_mask(spec, sums).all()
    assert all(member_oracle(spec, n) for n in set(sums.tolist()))
