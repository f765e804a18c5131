"""Sumfree checks, Freiman 2-isomorphisms, and the embedding pipeline.

The Freiman oracle below is the unoptimized four-nested-loop transcription;
the vectorized check must agree with it on every instance.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bohrkit.bohr import BudgetExceeded
from bohrkit.patterns import (
    PreconditionError,
    behrend_set,
    pair_search,
    random_set,
    verify_configuration,
)
from bohrkit.sumfree import (
    FreimanMap,
    check_freiman_isomorphic,
    find_configuration_via_embedding,
    find_sumfree_subset,
    is_sumfree_with_respect_to,
    ruzsa_embed,
    threshold_report,
)

# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def freiman_oracle(fm: FreimanMap) -> bool:
    dom = fm.domain.tolist()
    img = {int(a): int(v) for a, v in zip(fm.domain, fm.images)}
    p = fm.modulus
    for a1 in dom:
        for a2 in dom:
            for a3 in dom:
                for a4 in dom:
                    same_dom = a1 + a2 == a3 + a4
                    same_img = (img[a1] + img[a2]) % p == (img[a3] + img[a4]) % p
                    if same_dom != same_img:
                        return False
    return True


def sumfree_oracle(z: list[int], w: set[int]) -> bool:
    return all(
        z[i] + z[j] not in w for i in range(len(z)) for j in range(i + 1, len(z))
    )


def sumfree_subsets_oracle(a: list[int], h: int) -> list[list[int]]:
    """Every h-subset of ``a`` sumfree with respect to ``a``, in lexicographic order."""
    members = set(a)
    return [
        list(c)
        for c in itertools.combinations(sorted(members), h)
        if all(x + y not in members for x, y in itertools.combinations(c, 2))
    ]


# ---------------------------------------------------------------------------
# sumfree predicate
# ---------------------------------------------------------------------------


def test_sumfree_frozen_examples():
    assert is_sumfree_with_respect_to([1, 2], [3]) is False
    assert is_sumfree_with_respect_to([1, 2], [4]) is True
    assert is_sumfree_with_respect_to([5], [10]) is True  # z + z unconstrained


def test_sumfree_matches_oracle():
    rng = random.Random(51)
    for _ in range(40):
        z = sorted(rng.sample(range(-30, 31), rng.randint(1, 12)))
        w = set(rng.sample(range(-60, 61), rng.randint(0, 30)))
        assert is_sumfree_with_respect_to(z, sorted(w)) == sumfree_oracle(z, w)


# ---------------------------------------------------------------------------
# Freiman maps
# ---------------------------------------------------------------------------


def test_freiman_frozen_examples():
    ok = FreimanMap(np.array([0, 1, 3]), 7, np.array([0, 1, 3]))
    assert check_freiman_isomorphic(ok) is True
    # 0 + 0 = 0 and 1 + 2 = 3 collapse mod 3: 0 == (1 + 2) mod 3
    bad = FreimanMap(np.array([0, 1, 2]), 3, np.array([0, 1, 2]))
    assert check_freiman_isomorphic(bad) is False
    tiny = FreimanMap(np.array([9]), 5, np.array([2]))
    assert check_freiman_isomorphic(tiny) is True


def test_freiman_matches_quadruple_oracle():
    rng = random.Random(52)
    agree_true = agree_false = 0
    for _ in range(40):
        n = rng.randint(2, 7)
        dom = np.array(sorted(rng.sample(range(0, 40), n)))
        p = rng.choice([11, 13, 17, 23])
        img = np.array(rng.sample(range(p), n))
        fm = FreimanMap(dom, p, img)
        expect = freiman_oracle(fm)
        assert check_freiman_isomorphic(fm) == expect
        agree_true += expect
        agree_false += not expect
    assert agree_true > 0 and agree_false > 0  # both outcomes exercised


def test_freiman_map_validation():
    with pytest.raises(ValueError):
        FreimanMap(np.array([0, 1]), 5, np.array([2, 2]))  # not injective
    with pytest.raises(ValueError):
        FreimanMap(np.array([1, 0]), 5, np.array([0, 1]))  # unsorted domain
    with pytest.raises(ValueError):
        FreimanMap(np.array([0]), 5, np.array([7]))  # image out of range


def test_freiman_map_round_trip():
    fm = FreimanMap(np.array([0, 1, 3]), 7, np.array([3, 4, 6]), multiplier=1)
    d = fm.as_dict()
    assert d["modulus"] == 7
    assert d["pairs"] == [[0, 3], [1, 4], [3, 6]]
    assert fm.inverse()[4] == 1


# ---------------------------------------------------------------------------
# the embedding
# ---------------------------------------------------------------------------


def test_ruzsa_embed_interval():
    arr = np.arange(1, 21)
    res = ruzsa_embed(arr, Fraction(39, 20))
    assert res.status == "ok"
    assert check_freiman_isomorphic(res.map) is True
    assert res.kept_size * 2 >= arr.size
    assert res.map.modulus <= 8 * Fraction(39, 20) * 20


def test_ruzsa_embed_precondition():
    with pytest.raises(PreconditionError):
        ruzsa_embed(np.arange(1, 21), Fraction(1, 2))


def test_ruzsa_embed_deterministic():
    arr = np.arange(5, 60, 3)
    k = Fraction(100, arr.size)
    a = ruzsa_embed(arr, k, seed=3)
    b = ruzsa_embed(arr, k, seed=3)
    assert a.status == b.status == "ok"
    assert a.map.modulus == b.map.modulus
    assert np.array_equal(a.map.images, b.map.images)


def test_ruzsa_embed_random_inputs_always_verified():
    rng = random.Random(53)
    for _ in range(10):
        arr = np.array(sorted(rng.sample(range(0, 200), rng.randint(4, 24))))
        diffs = np.unique((arr[:, None] - arr[None, :]).reshape(-1))
        k = Fraction(int(diffs.size), int(arr.size))
        res = ruzsa_embed(arr, k, seed=rng.randint(0, 100))
        if res.status == "ok":
            assert check_freiman_isomorphic(res.map) is True
            assert res.kept_size * 2 >= arr.size


# ---------------------------------------------------------------------------
# sumfree subset search
# ---------------------------------------------------------------------------


def test_find_sumfree_frozen_examples():
    got = find_sumfree_subset([1, 2, 3, 4, 5], 2)
    assert got is not None and got.size == 2
    assert is_sumfree_with_respect_to(got, [1, 2, 3, 4, 5])
    assert find_sumfree_subset([1], 1).tolist() == [1]
    assert find_sumfree_subset([1, 2], 3) is None


def test_find_sumfree_lexicographic_first():
    # {1, 5}: 1 + 5 = 6 is outside; earlier pairs collide
    got = find_sumfree_subset([1, 2, 3, 4, 5], 2)
    assert got.tolist() == [1, 5]


def test_find_sumfree_budget():
    with pytest.raises(BudgetExceeded):
        find_sumfree_subset(list(range(1, 40)), 5, budget=3)


sumfree_sets = st.lists(st.integers(-15, 40), max_size=14, unique=True)


@settings(max_examples=300, deadline=None)
@given(a=sumfree_sets, h=st.integers(0, 5))
@example(a=[1, 2, 3, 4, 5], h=2)
@example(a=[-3, 0, 3], h=3)
def test_find_sumfree_matches_combinations_oracle(a, h):
    subsets = sumfree_subsets_oracle(a, h)
    got = find_sumfree_subset(a, h)
    assert (None if got is None else got.tolist()) == (subsets[0] if subsets else None)
    lst = sorted(set(a))
    assert pair_search([lst], h, set(lst), avoid=True, count=True)[0] == len(subsets)


@settings(max_examples=150, deadline=None)
@given(a=sumfree_sets, h=st.integers(1, 5))
def test_find_sumfree_budget_edges(a, h):
    lst = sorted(set(a))
    got = find_sumfree_subset(a, h)
    work = pair_search([lst], h, set(lst), avoid=True)[1] if h <= len(lst) else 0
    at = find_sumfree_subset(a, h, budget=work)
    assert (None if at is None else at.tolist()) == (None if got is None else got.tolist())
    if work:
        with pytest.raises(BudgetExceeded):
            find_sumfree_subset(a, h, budget=work - 1)


def test_find_sumfree_work_pinned():
    # fixed work figure: a change to the search order or the work unit shows here
    arr = random_set(80, 0.5, seed=2)
    assert find_sumfree_subset(arr, 4, budget=11).tolist() == [3, 4, 12, 14]
    with pytest.raises(BudgetExceeded):
        find_sumfree_subset(arr, 4, budget=10)


def test_find_sumfree_random_recheck():
    rng = random.Random(54)
    for _ in range(20):
        arr = sorted(rng.sample(range(1, 80), rng.randint(4, 20)))
        h = rng.randint(1, 4)
        got = find_sumfree_subset(arr, h)
        if got is not None:
            assert got.size == h
            assert is_sumfree_with_respect_to(got, arr)


# ---------------------------------------------------------------------------
# configuration search through the embedding
# ---------------------------------------------------------------------------


def test_embedding_search_finds_and_pulls_back():
    res = find_configuration_via_embedding(np.arange(1, 51), 2)
    assert res.status == "found"
    members = set(range(1, 51))
    assert all(v in members for v in res.config.elements())
    assert verify_configuration(np.arange(1, 51), res.config, 2)


def test_embedding_search_none_only_from_direct_route():
    res = find_configuration_via_embedding(behrend_set(1000), 2)
    assert res.status == "none"
    assert res.route == "direct"
    assert res.finder is not None and res.finder.status == "none"


def test_embedding_search_tiny_input():
    res = find_configuration_via_embedding(np.array([3, 9]), 3)
    assert res.status == "none"
    assert res.route == "direct"


def test_threshold_report_records_without_asserting():
    rep = threshold_report([1, 2, 3], np.arange(10**4), 2)
    assert rep["upper_holds"] is False  # recorded, never enforced
    assert rep["x_size"] == 3 and rep["y_size"] == 10**4
