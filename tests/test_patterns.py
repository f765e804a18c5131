"""Configuration search, tuple counting, and the structure dichotomy.

Counting oracles are literal nested loops over the tuple space, and for
``count_T_s`` also the dense contraction it replaced; progression
counters are cross-checked against each other and against hand counts. The
bit-parallel restricted finder is checked against the recursive
membership-test finder it replaced, kept here unchanged as the oracle; the
bit-parallel extent search against literal combinations, and its word count
against a replay of its walk on sorted lists.
"""

from __future__ import annotations

import contextlib
import inspect
import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction
from typing import Optional, Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bohrkit import patterns
from bohrkit.bohr import BohrSet, BohrSpec, BudgetExceeded, ElementsLike, as_elements
from bohrkit.functions import BoundedFunction
from bohrkit.patterns import (
    WORD_BUDGET,
    Configuration,
    DichotomyOutcome,
    FinderResult,
    FunctionFamily,
    PreconditionError,
    ShiftedAndKernel,
    behrend_set,
    check_counting_bound,
    check_von_neumann,
    count_T_s,
    count_configurations,
    count_patterns_exact,
    count_three_aps_direct,
    count_three_aps_fft,
    dichotomy,
    find_configuration,
    find_configuration_restricted,
    random_set,
    smallness_bound,
    u2_threshold,
    verify_configuration,
)

# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def t2_oracle(f11, f12, f22, base, n1, n2) -> complex:
    """Literal triple loop for s = 2."""
    def val(fn, x):
        lookup = {int(n): complex(v) for n, v in zip(fn.support, fn.values)}
        return lookup.get(int(x), 0j)

    total = 0j
    for a in base:
        for i in n1:
            for j in n2:
                total += (
                    val(f11, 2 * i + a) * val(f12, i + j + a) * val(f22, 2 * j + a)
                )
    return total / (len(base) * len(n1) * len(n2))


def dense_count_oracle(family: FunctionFamily, base, inners) -> complex:
    """``T_s`` by one dense ``einsum(..., optimize=False)`` over every factor,
    walking each tuple ``(a, n_1, ..., n_s)`` with all ``s(s+1)/2`` of them:
    the contraction ``count_T_s`` ran before it summed out one offset at a
    time."""
    a = np.asarray(base, dtype=np.int64)
    ns = [np.asarray(x, dtype=np.int64) for x in inners]
    subs, ops = [], []
    for i, x in enumerate(ns):
        subs.append("a" + "ijklmn"[i])
        ops.append(family.get(i + 1, i + 1).gather(a[:, None] + 2 * x[None, :]))
        for j in range(i + 1, len(ns)):
            subs.append("a" + "ijklmn"[i] + "ijklmn"[j])
            grid = a[:, None, None] + x[None, :, None] + ns[j][None, None, :]
            ops.append(family.get(i + 1, j + 1).gather(grid))
    vals = np.einsum(",".join(subs) + "->a", *ops, optimize=False)
    return complex(np.mean(vals / math.prod(x.size for x in ns)))


def literal_count_oracle(family: FunctionFamily, base, inners) -> complex:
    """``T_s`` by a literal loop over the tuple space, repeats included."""
    s = len(inners)
    pairs = list(itertools.combinations_with_replacement(range(s), 2))
    lookup = {}
    for i, j in pairs:
        f = family.get(i + 1, j + 1)
        lookup[i, j] = {int(n): complex(v) for n, v in zip(f.support, f.values)}
    total = 0j
    for a in base:
        for ns in itertools.product(*inners):
            term = 1 + 0j
            for i, j in pairs:
                term *= lookup[i, j].get(a + ns[i] + ns[j], 0j)
            total += term
    return total / (len(base) * math.prod(len(x) for x in inners))


def config_pairs_oracle(xs: list[int]) -> int:
    """Pairs x < y, same parity, midpoint in the set (s = 2 configurations)."""
    members = set(xs)
    count = 0
    for i, x in enumerate(xs):
        for y in xs[i + 1 :]:
            if (x + y) % 2 == 0 and (x + y) // 2 in members:
                count += 1
    return count


def extent_oracle(xs: Sequence[int], s: int) -> tuple[Optional[tuple[int, ...]], int]:
    """Lexicographically first and number of same-parity s-subsets of the set
    with every pairwise midpoint in the set, by literal enumeration."""
    members = set(xs)
    hits = [
        c
        for c in itertools.combinations(sorted(members), s)
        if len({x % 2 for x in c}) == 1
        and all((x + y) // 2 in members for x, y in itertools.combinations(c, 2))
    ]
    return (hits[0] if hits else None), len(hits)


def element_walk_oracle(
    xs: Sequence[int], k: int, *, midpoints: bool, avoid: bool
) -> tuple[Optional[list[int]], int, int, int]:
    """The shifted-AND kernel's element walk replayed on sorted lists.

    Chooses ``y`` ascending among the candidates and keeps the larger ones
    ``x`` whose pair qualifies: ``(x + y) / 2`` (with ``midpoints``) or
    ``x + y`` is in the set, or with ``avoid`` is not; at the last depth
    every candidate completes a subset. A ``y`` is chosen only while at least
    as many candidates are left, itself included, as points are still to be
    chosen, and a ``y`` whose larger candidates are too few to finish is not
    descended into. Words follow the kernel's meter,
    worked out from the values. When the pair sums ``[2 lo, 2 hi]`` fit in
    no more words than the set has elements, packing costs the words of
    ``[lo, hi]`` and of the sums, and each ``y`` with a larger candidate
    left reads the qualifying sums from ``lo + y`` on. Otherwise the ``i``-th
    element's row costs one word per element above it when first chosen,
    and each choice costs the words of the row's ranks. Returns the first
    subset, the words spent when it is found (the whole walk when there is
    none), the number of subsets and the words of the whole walk.
    """
    xs = sorted(set(xs))
    n = len(xs)
    if not n:
        return None, 0, 0, 0
    members = set(xs)
    rank = {x: i for i, x in enumerate(xs)}

    def qualifies(total: int) -> bool:
        hit = total % 2 == 0 and total // 2 in members if midpoints else total in members
        return hit != avoid

    def words(b: int) -> int:
        return max(1, -(-b // 64))

    lo, span = xs[0], xs[-1] - xs[0]
    ranked = words(2 * span + 1) > n
    rows: dict[int, list[int]] = {}
    work = 0
    if not ranked:
        work = words(span + 1) + words(2 * span + 1)
        bits = next((p + 1 for p in range(2 * span, -1, -1) if qualifies(2 * lo + p)), 0)
    count = 0
    first: Optional[list[int]] = None
    first_work = 0

    def charge(y: int) -> None:
        nonlocal work
        if not ranked:
            work += words(bits - (y - lo))
            return
        i = rank[y]
        if i not in rows:
            work += n - i - 1
            rows[i] = [r for r in range(i + 1, n) if qualifies(y + xs[r])]
        work += words(rows[i][-1] + 1 if rows[i] else 0)

    def walk(prefix: list[int], cand: list[int]) -> None:
        nonlocal count, first, first_work
        if len(prefix) + 1 == k:
            count += len(cand)
            if first is None:
                first, first_work = prefix + [cand[0]], work
            return
        need = k - len(prefix)  # points still to choose, y among them
        for i, y in enumerate(cand):
            if len(cand) - i < need:
                break
            charge(y)
            rest = [x for x in cand[i + 1 :] if qualifies(x + y)]
            if len(rest) >= need - 1:
                walk(prefix + [y], rest)

    walk([], xs)
    return first, (first_work if first else work), count, work


def aps_oracle(xs: list[int]) -> int:
    members = sorted(xs)
    mset = set(xs)
    count = 0
    for i, x in enumerate(members):
        for z in members[i + 1 :]:
            if (x + z) % 2 == 0 and (x + z) // 2 in mset and (x + z) // 2 != x:
                count += 1
    return count


def random_set_oracle(N: int, density, seed) -> list[int]:
    """One ``random()`` of ``random.Random(seed)`` per integer of ``[1, N]``."""
    rng = random.Random(seed)
    return [n for n in range(1, N + 1) if rng.random() < density]


def behrend_oracle(N: int) -> list[int]:
    """The sphere-shell sweep as literal loops over digit tuples."""
    if N < 3:
        return list(range(1, N + 1))
    best: Optional[tuple[tuple[int, int, int, int], list[int]]] = None
    for b in range(3, 13):
        k = (b + 1) // 2
        n_max = 1
        while b**n_max <= N:
            n_max += 1
        for n in range(2, n_max + 1):
            if k**n > 10**6:
                continue
            shells: dict[int, list[int]] = {}
            for digits in itertools.product(range(k), repeat=n):
                val = 0
                for x in reversed(digits):
                    val = val * b + x
                val += 1
                if val > N:
                    continue
                r = sum(x * x for x in digits)
                shells.setdefault(r, []).append(val)
            for r, vals in shells.items():
                key = (len(vals), -n, -b, -r)
                if best is None or key > best[0]:
                    best = (key, vals)
    assert best is not None
    return sorted(best[1])


def restricted_finder_oracle(
    subset: ElementsLike,
    base: ElementsLike,
    inners: Sequence[ElementsLike],
    *,
    budget: int = 10**8,
) -> FinderResult:
    """First s-configuration with ``a`` in the base and ``n_i`` in ``inners[i]``.

    ``a`` ascends over the base; offsets are chosen depth first, each level
    ascending over its own inner set, skipping repeats of earlier choices.
    Each membership test of a sum costs one unit of work.
    """
    s = len(inners)
    if s < 2:
        raise ValueError("configurations need s >= 2")
    members = set(as_elements(subset).tolist())
    base_arr = as_elements(base)
    inner_lists = [as_elements(x).tolist() for x in inners]
    work = 0

    def rec(a: int, prefix: list[int]) -> Optional[list[int]]:
        nonlocal work
        level = len(prefix)
        if level == s:
            return prefix
        for n in inner_lists[level]:
            if n in prefix:
                continue
            ok = True
            for m in prefix + [n]:
                work += 1
                if work > budget:
                    raise BudgetExceeded("finder oracle", "membership tests", work, budget)
                if m + n + a not in members:
                    ok = False
                    break
            if ok:
                got = rec(a, prefix + [n])
                if got is not None:
                    return got
        return None

    try:
        for a in base_arr.tolist():
            got = rec(int(a), [])
            if got is not None:
                cfg = Configuration(int(a), tuple(got))
                assert verify_configuration(
                    np.asarray(sorted(members), dtype=np.int64), cfg, s
                )
                return FinderResult("found", cfg, work, budget, "restricted")
        return FinderResult("none", None, work, budget, "restricted")
    except BudgetExceeded:
        return FinderResult("inconclusive", None, work, budget, "restricted")


def pattern_count_oracle(subset, base, inners) -> int:
    """Literal loop over every ``(a, n_1, ..., n_s)``, repeated offsets included."""
    members = set(subset)
    s = len(inners)
    total = 0
    for a in base:
        for ns in itertools.product(*inners):
            total += all(
                a + ns[i] + ns[j] in members for i in range(s) for j in range(i, s)
            )
    return total


# ---------------------------------------------------------------------------
# configurations and the finder
# ---------------------------------------------------------------------------


def test_configuration_elements_and_validation():
    cfg = Configuration(1, (0, 1))
    assert sorted(cfg.elements()) == [1, 2, 3]
    with pytest.raises(ValueError):
        Configuration(0, (1, 1))


def test_verify_configuration():
    assert verify_configuration(np.array([1, 2, 3]), Configuration(1, (0, 1)), 2)
    assert not verify_configuration(np.array([1, 2, 4]), Configuration(1, (0, 1)), 2)


_I64_LO, _I64_HI = -(2**63), 2**63 - 1


@st.composite
def verify_inputs(draw):
    """A configuration, its sums, some left out, among other int64s, with
    repeats, unsorted; ``a`` near either int64 end puts sums past it."""
    s = draw(st.integers(1, 4))
    ns = tuple(draw(st.lists(st.integers(-6, 6), min_size=s, max_size=s, unique=True)))
    a = draw(st.one_of(
        st.integers(-30, 30), st.integers(_I64_HI - 15, _I64_HI), st.integers(_I64_LO, _I64_LO + 15)
    ))
    config = Configuration(a, ns)
    sums = [v for v in config.elements() if _I64_LO <= v <= _I64_HI]
    left_out = draw(st.sets(st.sampled_from(sums), max_size=1)) if sums else set()
    others = draw(st.lists(st.integers(_I64_LO, _I64_HI), max_size=4))
    values = [v for v in sums if v not in left_out] + others
    values += draw(st.lists(st.sampled_from(values), max_size=4)) if values else []
    subset = np.array(draw(st.permutations(values)), dtype=np.int64)
    return subset, config, draw(st.sampled_from([s, s, s + 1]))


@settings(max_examples=200, deadline=None)
@given(verify_inputs())
@example((np.array([2**63 - 3, 2**63 - 1]), Configuration(2**63 - 3, (0, 2)), 2))  # 2^63 + 1
@example((np.array([-(2**63)]), Configuration(-(2**63), (-1, 0)), 2))  # -2^63 - 2
def test_verify_configuration_matches_set_oracle(inputs):
    subset, config, s = inputs
    members = set(subset.tolist())
    expect = config.s == s and all(v in members for v in config.elements())
    assert verify_configuration(subset, config, s) == expect


def test_finder_frozen_examples():
    res = find_configuration(np.array([1, 2, 3]), 2)
    assert res.status == "found"
    assert (res.config.a, res.config.ns) == (1, (0, 1))

    res = find_configuration(np.arange(0, 5), 3)
    assert res.status == "found"
    assert (res.config.a, res.config.ns) == (0, (0, 1, 2))


def test_finder_none_on_progression_free():
    bs = behrend_set(500)
    res = find_configuration(bs, 2)
    assert res.status == "none"


def test_finder_budget_inconclusive():
    # progression-free input: the scan cannot finish inside ten tests
    res = find_configuration(behrend_set(2000), 2, budget=10)
    assert res.status == "inconclusive"


def test_finder_matches_pair_oracle():
    rng = random.Random(31)
    for _ in range(20):
        xs = sorted(rng.sample(range(-40, 41), rng.randint(3, 20)))
        res = find_configuration(np.array(xs), 2)
        expect = config_pairs_oracle(xs)
        assert (res.status == "found") == (expect > 0)
        assert count_configurations(np.array(xs), 2) == expect


_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


@st.composite
def extent_sets(draw):
    """Small sets with negatives, a few points spread over 10^6 with a wide
    progression among them, or points near the ends of the int64 range."""
    kind = draw(st.sampled_from(["small", "spread", "int64 ends"]))
    if kind == "small":
        return draw(st.lists(st.integers(-20, 30), max_size=14, unique=True))
    if kind == "spread":
        start = draw(st.integers(-10**6, 10**6))
        step = draw(st.integers(1, 4 * 10**5))
        terms = draw(st.integers(0, 5))
        extra = draw(st.lists(st.integers(-10**6, 10**6), max_size=4))
        return sorted({start + i * step for i in range(terms)} | set(extra))
    centre = draw(st.sampled_from([_INT64_MIN, -(2**62), 2**62, _INT64_MAX]))
    near = draw(st.lists(st.integers(-40, 40), max_size=10))
    ends = st.sampled_from([_INT64_MIN, _INT64_MAX, 2**62])
    far = draw(st.lists(st.one_of(ends, st.integers(-90, 90)), max_size=3))
    return sorted({min(max(centre + d, _INT64_MIN), _INT64_MAX) for d in near} | set(far))


@settings(max_examples=300, deadline=None)
@given(xs=extent_sets(), s=st.sampled_from([2, 3, 4, 5]))
@example(xs=list(range(0, 9)), s=4)
@example(xs=[], s=2)
@example(xs=[-7, 3], s=3)  # s larger than the set
@example(xs=[-10**6, 0, 10**6], s=3)
def test_extent_search_matches_combinations_oracle(xs, s):
    first, total = extent_oracle(xs, s)
    walk_first, find_words, walk_total, count_words = element_walk_oracle(
        xs, s, midpoints=True, avoid=False
    )
    assert (walk_first, walk_total) == (None if first is None else list(first), total)
    res = find_configuration(xs, s)
    if first is None:
        assert (res.status, res.config) == ("none", None)
    else:
        a = first[0] % 2
        assert res.status == "found"
        assert (res.config.a, res.config.ns) == (a, tuple((x - a) // 2 for x in first))
    assert res.work == find_words
    assert count_configurations(xs, s) == total
    arr = np.array(sorted(set(xs)), dtype=np.int64)
    kernel = ShiftedAndKernel(10**8)
    kernel.pack_elements(arr, midpoints=True, avoid=False)
    assert (kernel.count_subsets(s), kernel.work) == (total, count_words)


@settings(max_examples=150, deadline=None)
@given(xs=extent_sets(), s=st.sampled_from([2, 3, 4, 5]))
def test_extent_search_budget_edges(xs, s):
    full = find_configuration(xs, s)
    at = find_configuration(xs, s, budget=full.work)
    assert (at.status, at.config, at.work) == (full.status, full.config, full.work)
    _, _, total, work = element_walk_oracle(xs, s, midpoints=True, avoid=False)
    assert count_configurations(xs, s, budget=work) == total
    if full.work:
        # the last word charged is the one past the budget: never "none"
        short = find_configuration(xs, s, budget=full.work - 1)
        assert (short.status, short.config, short.work) == ("inconclusive", None, full.work)
    if work:
        with pytest.raises(BudgetExceeded) as refused:
            count_configurations(xs, s, budget=work - 1)
        e = refused.value
        assert (e.what, e.unit, e.spent, e.budget) == ("bitset kernel", "words", work, work - 1)


@settings(max_examples=200, deadline=None)
@given(
    xs=extent_sets(), k=st.integers(1, 6), midpoints=st.booleans(), avoid=st.booleans()
)
@example(xs=[-(10**6), 0, 10**6], k=2, midpoints=False, avoid=True)  # ranks
@example(xs=list(range(-3, 12)), k=3, midpoints=False, avoid=True)  # values
def test_element_walk_matches_replay(xs, k, midpoints, avoid):
    # both pair tests, kept or avoided, on values and on ranks: subsets and words
    first, find_words, total, count_words = element_walk_oracle(
        xs, k, midpoints=midpoints, avoid=avoid
    )
    arr = np.array(sorted(set(xs)), dtype=np.int64)
    kernel = ShiftedAndKernel(10**8)
    kernel.pack_elements(arr, midpoints=midpoints, avoid=avoid)
    assert (kernel.first_subset(k), kernel.work) == (first, find_words)
    kernel = ShiftedAndKernel(10**8)
    kernel.pack_elements(arr, midpoints=midpoints, avoid=avoid)
    assert (kernel.count_subsets(k), kernel.work) == (total, count_words)


def test_pack_matches_literal_shifts():
    rng = np.random.default_rng(23)
    cases = [[], [0], [7], [8], [63], [64], [0, 7, 8, 63, 64], [64, 0, 8]]
    for n, k in [(9, 9), (200, 37), (5000, 300)]:  # random distinct positions
        cases.append(rng.choice(n, size=k, replace=False).tolist())
    for positions in cases:
        bits = patterns._pack(np.array(positions, dtype=np.int64))
        assert bits == sum(1 << p for p in positions), positions


def test_extent_search_work_pinned():
    # fixed work figures: a change to the search order or the work unit shows here
    # (in 64-bit words read)
    assert find_configuration(behrend_set(500), 2).work == 180
    res = find_configuration(random_set(200, 0.3, seed=3), 4)
    assert (res.status, res.work) == ("found", 140)
    assert (res.config.a, res.config.ns) == (0, (5, 57, 60, 71))
    subset = random_set(60, 0.5, seed=1)
    assert count_configurations(subset, 3, budget=325) == 285
    with pytest.raises(BudgetExceeded):
        count_configurations(subset, 3, budget=324)
    assert find_configuration(behrend_set(500), 2, budget=179).work == 180


def test_extent_search_none_on_behrend_million():
    # 1716 elements over [1, 10^6] and no 3-term progression: "none" is
    # proved inside the default budget of 10^8 words
    res = find_configuration(behrend_set(10**6), 2)
    assert (res.status, res.work) == ("none", 1473185)


class RowAloneKernel(ShiftedAndKernel):
    """The element walk with each rank row built alone when first read, by a
    loop over Python integers: one word per element above it, then the row's
    words per AND. The kernel builds the same rows in numpy blocks."""

    def _rank_row(self, i: int) -> int:
        row = self.rows.get(i)
        if row is None:
            xs = self.xs.tolist()
            self._charge(len(xs) - i - 1)
            members = set(xs)

            def qualifies(total: int) -> bool:
                if self.midpoints:
                    return (total % 2 == 0 and total // 2 in members) != self.avoid
                return (total in members) != self.avoid

            row = sum(1 << j for j in range(i + 1, len(xs)) if qualifies(xs[i] + xs[j]))
            self.rows[i] = row
        self._charge(patterns._words(row.bit_length()))
        return row


@st.composite
def sparse_sets(draw):
    """A small dense pattern dilated far apart, so the walk is over ranks, with
    a few stray points, some at or near the ends of the int64 range."""
    pattern = draw(st.lists(st.integers(-12, 24), min_size=2, max_size=30, unique=True))
    c = draw(st.integers(10**4, 10**6))
    d = draw(st.sampled_from([0, 0, 1, 7]))
    ends = st.sampled_from([_INT64_MIN, _INT64_MAX, 2**62, -(2**62), 2**62 + 3])
    stray = draw(st.lists(st.one_of(ends, st.integers(-10**9, 10**9)), max_size=4))
    return sorted({c * x + d for x in pattern} | set(stray))


@settings(max_examples=150, deadline=None)
@given(
    xs=sparse_sets(),
    k=st.integers(2, 4),
    midpoints=st.booleans(),
    avoid=st.booleans(),
    share=st.fractions(0, 1),
)
@example(xs=[0, 10**5, 2 * 10**5, 4 * 10**5], k=3, midpoints=True, avoid=False, share=Fraction(1, 2))
@example(xs=[-(2**62), 0, 2**62, 2**62 + 3, _INT64_MAX], k=2, midpoints=False, avoid=True,
         share=Fraction(1, 3))
def test_block_rows_match_rows_built_alone(xs, k, midpoints, avoid, share):
    # the rows, the words and the point of refusal, at the full budget, one
    # word short of it and at a share of it (a small budget makes short blocks)
    arr = np.array(xs, dtype=np.int64)

    def walk(cls, budget, how):
        kernel = cls(budget)
        kernel.pack_elements(arr, midpoints=midpoints, avoid=avoid)
        assert kernel.ranked
        try:
            got = kernel.first_subset(k) if how == "first" else kernel.count_subsets(k)
        except BudgetExceeded as e:
            got = ("refused", e.spent)
        return got, kernel.work, kernel.rows

    for how in ("first", "count"):
        alone = walk(RowAloneKernel, 10**8, how)
        assert walk(ShiftedAndKernel, 10**8, how) == alone
        work = alone[1]
        for budget in (work - 1, int(share * work)):
            assert walk(ShiftedAndKernel, budget, how) == walk(RowAloneKernel, budget, how)


def test_rank_row_blocks_are_bounded():
    # a block is a run of rows not built before, of at most 2^18 entries, at
    # most one row longer than the run of rows read right below it, and its
    # rows past the first hold no more lookups than the budget left
    blocks: list[tuple[int, list[int], int, int, bool]] = []

    class Recorded(ShiftedAndKernel):
        def _build_rows(self, i: int) -> None:
            before, left, run = set(self.built) | set(self.rows), self.budget - self.work, 0
            while i - run - 1 in self.rows:
                run += 1
            super()._build_rows(i)
            rows = sorted(set(self.built) - before)
            blocks.append((i, rows, run, left, i + len(rows) in before))

    behrend, spread = behrend_set(10**5), random_set(1500, 0.4, seed=5) * 10**4
    doubling = [(0, 1), (1, 2), (3, 4), (7, 8), (15, 16), (31, 32), (63, 64), (127, 128)]
    cases = [  # set, s, budget, blocks as (first row, rows) when pinned, rows read
        (behrend, 2, 10**8, doubling + [(255, 206)], 461),  # rows read in order
        (behrend, 2, 5000, doubling[:3] + [(7, 3)], 10),  # as far as the budget reaches
        (spread, 3, 10**8, None, 621),  # rows read apart, in 511 blocks
    ]
    for xs, k, budget, shape, read in cases:
        blocks.clear()
        kernel = Recorded(budget)
        kernel.pack_elements(xs, midpoints=True, avoid=False)
        with contextlib.suppress(BudgetExceeded):
            kernel.count_subsets(k)
        assert shape is None or [(i, len(rows)) for i, rows, *_ in blocks] == shape
        assert len(kernel.rows) == read
        for i, rows, run, left, _ in blocks:
            width = xs.size - i - 1
            assert rows == list(range(i, i + len(rows)))
            assert len(rows) * width <= 2**18 and len(rows) <= 1 + run
            assert (len(rows) - 1) * width <= left
    assert len(blocks) == 511
    assert any(stopped and len(rows) <= run for _, rows, run, _, stopped in blocks)
    alone = RowAloneKernel(10**8)
    alone.pack_elements(spread, midpoints=True, avoid=False)
    assert (alone.count_subsets(3), alone.work, alone.rows) == (740827, kernel.work, kernel.rows)


def test_word_meters_default_to_the_word_budget():
    # the exact count meters 64-bit words, as every search does
    for fn in (count_patterns_exact, check_counting_bound):
        assert inspect.signature(fn).parameters["budget"].default == WORD_BUDGET


def test_extent_search_on_wide_sparse_sets():
    # a sparse set walks ranks: its words and memory follow its size, not its range
    tracemalloc.start()
    try:
        res = find_configuration([0, 10**9, 2 * 10**9], 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.status, res.config, res.work) == ("found", Configuration(0, (0, 10**9)), 3)
    assert peak < 10**6
    res = find_configuration([0, 10**12, 3 * 10**12, 4 * 10**12], 2)
    assert (res.status, res.work) == ("none", 9)
    assert count_configurations([-(10**15), 0, 10**15, 2 * 10**15], 2) == 2


def test_extent_search_near_int64_ends():
    # pair sums past the int64 range neither wrap around nor overflow
    top = 2**63 - 1
    res = find_configuration([5 * 10**18, 5 * 10**18 + 2, 5 * 10**18 + 4], 2)
    assert res.config == Configuration(0, (25 * 10**17, 25 * 10**17 + 2))
    res = find_configuration([top - 4, top - 2, top], 2)  # one narrow window
    assert res.config == Configuration(1, (2**62 - 3, 2**62 - 1))
    res = find_configuration([-(2**63), -(2**63) + 2, -(2**63) + 4, 0, top - 2, top], 2)
    assert res.config == Configuration(0, (-(2**62), -(2**62) + 2))  # ranks
    assert find_configuration([-(2**63), -1, 1, top], 2).status == "none"
    assert count_configurations([-(2**62) - 2, -(2**62), 0, 2**62, 2**62 + 2], 2) == 2


def test_restricted_finder_respects_domains():
    base = np.arange(-20, 21)
    inners = [np.array([0, 1]), np.array([0, 1])]
    subset = np.arange(-20, 21)
    res = find_configuration_restricted(subset, base, inners)
    assert res.status == "found"
    cfg = res.config
    assert cfg.ns[0] in (0, 1) and cfg.ns[1] in (0, 1)
    assert verify_configuration(subset, cfg, 2)


def test_restricted_finder_vacuous_on_singletons():
    subset = np.arange(-10, 11)
    res = find_configuration_restricted(subset, subset, [np.array([0]), np.array([0])])
    assert res.status == "none"  # distinct offsets are impossible


sorted_sets = st.lists(st.integers(-25, 25), max_size=40, unique=True).map(sorted)
offset_sets = st.lists(st.integers(-8, 8), min_size=1, max_size=5, unique=True).map(sorted)


@st.composite
def restricted_domains(draw):
    """A base window that may overhang the set's range or miss it, and
    s in {2, 3} inner sets with negative and singleton members."""
    lo = draw(st.integers(-70, 50))
    base = draw(st.lists(st.integers(lo, lo + 40), max_size=20, unique=True).map(sorted))
    inners = draw(st.lists(offset_sets, min_size=2, max_size=3))
    return base, inners


@settings(max_examples=300, deadline=None)
@given(subset=sorted_sets, domain=restricted_domains())
@example(subset=list(range(-10, 11)), domain=(list(range(-10, 11)), [[0], [0]]))
@example(subset=list(range(0, 20)), domain=(list(range(100, 120)), [[-1, 1], [2]]))
@example(subset=[], domain=(list(range(-5, 6)), [[0, 1], [0, 1]]))
# many tuples share the smallest a; the first in inner order must win
@example(subset=list(range(-10, 11)), domain=(list(range(-10, 11)), [[-2, -1, 0, 1, 2]] * 2))
# a later tuple wins with a smaller a through the largest offset sum
@example(subset=[10, 11, 13, 15, 16], domain=([9, 10], [[0, 1], [3]]))
def test_restricted_finder_matches_oracle(subset, domain):
    base, inners = domain
    args = (np.array(subset, dtype=np.int64), np.array(base, dtype=np.int64),
            [np.array(x, dtype=np.int64) for x in inners])
    got = find_configuration_restricted(*args)
    want = restricted_finder_oracle(*args)
    assert (got.status, got.config) == (want.status, want.config)


def test_restricted_finder_budget_inconclusive_not_none():
    subset = behrend_set(2000)
    base = np.arange(-2000, 2001)
    inners = [np.arange(-12, 13), np.arange(-3, 4)]
    assert restricted_finder_oracle(subset, base, inners).status == "none"
    assert restricted_finder_oracle(subset, base, inners, budget=10).status == "inconclusive"
    full = find_configuration_restricted(subset, base, inners)
    assert full.status == "none"
    assert find_configuration_restricted(subset, base, inners, budget=10).status == "inconclusive"
    short = find_configuration_restricted(subset, base, inners, budget=full.work - 1)
    assert short.status == "inconclusive"
    assert find_configuration_restricted(
        subset, base, inners, budget=full.work
    ).status == "none"


@settings(max_examples=150, deadline=None)
@given(subset=sorted_sets, domain=restricted_domains())
def test_count_patterns_exact_matches_literal_loop(subset, domain):
    base, inners = domain
    if not base:
        base = [0]
    count, t = count_patterns_exact(np.array(subset, dtype=np.int64),
                                    np.array(base, dtype=np.int64),
                                    [np.array(x, dtype=np.int64) for x in inners])
    assert count == pattern_count_oracle(subset, base, inners)
    assert t == Fraction(count, len(base) * int(np.prod([len(x) for x in inners])))


# ---------------------------------------------------------------------------
# tuple counts
# ---------------------------------------------------------------------------


def test_count_t2_matches_triple_loop():
    rng = random.Random(32)
    for _ in range(8):
        pts = sorted(rng.sample(range(-25, 26), 18))
        f = BoundedFunction.indicator(np.array(pts))
        fam = FunctionFamily.uniform(f, 2)
        base = list(range(-4, 5))
        n1 = [-1, 0, 1]
        n2 = [-2, 0, 2]
        got = count_T_s(fam, np.array(base), [np.array(n1), np.array(n2)])
        expect = t2_oracle(f, f, f, base, n1, n2)
        assert abs(got - expect) < 1e-12


def test_count_t3_matches_loop():
    rng = random.Random(33)
    pts = sorted(rng.sample(range(-20, 21), 15))
    f = BoundedFunction.indicator(np.array(pts))
    fam = FunctionFamily.uniform(f, 3)
    base = list(range(-2, 3))
    inners = [[-1, 0, 1]] * 3

    lookup = set(pts)
    total = 0
    for a in base:
        for i in inners[0]:
            for j in inners[1]:
                for k in inners[2]:
                    vals = [2 * i + a, i + j + a, i + k + a, 2 * j + a,
                            j + k + a, 2 * k + a]
                    total += all(v in lookup for v in vals)
    expect = total / (len(base) * 27)
    got = count_T_s(fam, np.array(base), [np.array(x) for x in inners])
    assert abs(got - expect) < 1e-12


def _count_family(seed: int, s: int) -> FunctionFamily:
    """A different bounded ``f_ij`` for each pair, each on a support with gaps."""
    rng = np.random.default_rng(seed)
    table = {}
    for i, j in itertools.combinations_with_replacement(range(1, s + 1), 2):
        support = np.flatnonzero(rng.random(71) < 0.8) - 35
        values = rng.random(support.size) * np.exp(2j * np.pi * rng.random(support.size))
        table[(i, j)] = BoundedFunction(support, values)
    return FunctionFamily(s, table)


@st.composite
def count_cases(draw):
    """``(base, inners, seed, rows)``: a base with gaps, ``s`` in {2, 3, 4}
    inner sets (runs, or unsorted lists with repeats, singletons and negative
    offsets), a seed for the family and the rows per chunk."""
    s = draw(st.sampled_from([2, 3, 4]))
    run = st.builds(lambda lo, n: list(range(lo, lo + n)), st.integers(-6, 4), st.integers(1, 4))
    loose = st.lists(st.integers(-6, 6), min_size=1, max_size=4)
    inners = draw(st.lists(st.one_of(run, loose), min_size=s, max_size=s))
    base = draw(st.lists(st.integers(-15, 15), min_size=1, max_size=7, unique=True))
    return base, inners, draw(st.integers(0, 2**32 - 1)), draw(st.sampled_from([1, 2, 3, 2**18]))


@settings(max_examples=150, deadline=None)
@given(case=count_cases())
# unsorted inner sets whose three distinct sums look like a run's count
@example(case=([0, 5], [[1, 0], [0, 1]], 7, 2**18))
# five base points in chunks of two: the last chunk is short
@example(case=([-9, -4, 0, 3, 11], [[-2, -1, 0], [2], [0, 1]], 8, 2))
def test_count_T_s_matches_dense_oracle(case):
    base, inners, seed, rows = case
    family = _count_family(seed, len(inners))
    with mock.patch.object(patterns, "chunk_rows", lambda width: rows):
        got = count_T_s(family, np.array(base), [np.array(x) for x in inners])
    assert abs(got - dense_count_oracle(family, base, inners)) <= 1e-12
    if len(base) * math.prod(len(x) for x in inners) <= 400:
        assert abs(got - literal_count_oracle(family, base, inners)) <= 1e-12


def test_count_T_s_memory_stays_chunked():
    # at 2^21 entries per chunk the whole base went in one chunk: 44.5 MB;
    # at s >= 3 the running sum over (a, n_1..n_{s-1}) is a per-row array too,
    # and at s = 4 it is wider than any N_i x N_j grid
    rng = np.random.default_rng(35)
    support = np.arange(-2100, 2101)
    f = BoundedFunction(support, np.exp(2j * np.pi * rng.random(support.size)))
    base = np.arange(-2000, 2001)
    for sizes in [(21, 11), (21, 11, 7), (11, 7, 5, 3)]:
        inners = [np.arange(-(n // 2), n // 2 + 1) for n in sizes]
        tracemalloc.start()
        try:
            count_T_s(f, base, inners)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, sizes


def test_count_T_s_refuses_sums_past_int64():
    # base + 2 n_1 lies past 2^63 - 1, so off the support: the true count is
    # 0, and a wrapped sum would read 1; the U2 routes refuse these inputs
    # too, so the von Neumann check must stop at the count, before them
    f = BoundedFunction(np.arange(-(2**63), -(2**63) + 8), np.ones(8))
    base, inners = np.array([2**63 - 1]), [np.array([1, 2]), np.array([1, 2])]
    for check in (count_T_s, check_von_neumann):
        with pytest.raises(ValueError, match="^counting sums .* outside int64"):
            check(f, base, inners)


def test_count_patterns_exact_integrality():
    subset = np.arange(0, 30, 3)
    base = np.arange(-5, 6)
    inners = [np.arange(-2, 3), np.arange(-2, 3)]
    count, t = count_patterns_exact(subset, base, inners)
    assert isinstance(count, int)
    assert t == Fraction(count, base.size * inners[0].size * inners[1].size)


def test_counts_charge_the_tuple_space():
    # count_T_s charges |base| * prod |N_i| operations before anything is
    # counted; count_patterns_exact meters only the 64-bit words its walk reads
    subset = np.arange(0, 30, 3)
    base = np.arange(-5, 6)
    inners = [np.arange(-2, 3), np.arange(-2, 3)]
    cost = base.size * inners[0].size * inners[1].size
    f = BoundedFunction.indicator(subset)
    assert count_T_s(f, base, inners, budget=cost) == count_T_s(f, base, inners)
    with pytest.raises(BudgetExceeded) as refused:
        count_T_s(f, base, inners, budget=cost - 1)
    e = refused.value
    assert (e.what, e.unit, e.spent, e.budget) == ("counting", "operations", cost, cost - 1)

    kernel = ShiftedAndKernel(cost)
    kernel.pack(subset, base, [x.tolist() for x in inners])
    count, total = kernel.count(), kernel.work
    assert total < cost  # a charge of the tuple space would refuse first
    got = count_patterns_exact(subset, base, inners, budget=total)
    assert got == (count, Fraction(count, cost))
    with pytest.raises(BudgetExceeded) as refused:
        count_patterns_exact(subset, base, inners, budget=total - 1)
    e = refused.value
    assert (e.what, e.unit, e.spent, e.budget) == ("bitset kernel", "words", total, total - 1)


# ---------------------------------------------------------------------------
# inequalities
# ---------------------------------------------------------------------------


def test_von_neumann_random_families():
    rng = random.Random(34)
    base = np.arange(-6, 7)
    inners = [np.arange(-2, 3), np.arange(-2, 3)]
    for _ in range(15):
        pts = np.array(sorted(rng.sample(range(-20, 21), rng.randint(5, 25))))
        rep = check_von_neumann(BoundedFunction.indicator(pts), base, inners)
        assert rep.holds


def test_counting_bound_on_progression_free_set():
    subset = behrend_set(100)
    base = np.arange(-50, 51)
    inners = [np.arange(-3, 4), np.arange(-3, 4)]
    rep = check_counting_bound(subset, base, inners)
    assert rep.freeness.status == "none"
    assert rep.holds is True
    assert rep.t_value <= rep.bound
    assert rep.bound == Fraction(4, 7)


def test_counting_bound_claims_nothing_on_a_set_with_a_configuration():
    # the whole window holds configurations, so the lemma's hypothesis fails
    # and neither the count nor the comparison is made
    base = np.arange(-50, 51)
    inners = [np.arange(-3, 4), np.arange(-3, 4)]
    rep = check_counting_bound(base, base, inners)
    assert rep.freeness.status == "found"
    assert verify_configuration(base, rep.freeness.config, 2)
    assert (rep.count, rep.t_value, rep.holds) == (None, None, None)
    assert rep.bound == Fraction(4, 7)


# ---------------------------------------------------------------------------
# progression counters and generators
# ---------------------------------------------------------------------------


def test_ap_counters_agree_with_oracle():
    rng = random.Random(35)
    for _ in range(25):
        xs = sorted(rng.sample(range(0, 300), rng.randint(2, 60)))
        expect = aps_oracle(xs)
        assert count_three_aps_direct(np.array(xs)) == expect
        assert count_three_aps_fft(np.array(xs)) == expect


def test_ap_counters_known_values():
    assert count_three_aps_direct(np.array([1, 2, 3, 4, 5])) == 4
    assert count_three_aps_fft(np.array([1, 2, 3, 4, 5])) == 4
    assert count_three_aps_direct(np.array([1, 2, 4, 8])) == 0


def test_behrend_free_and_deterministic():
    bs = behrend_set(1000)
    assert bs.size == behrend_set(1000).size
    assert np.all((1 <= bs) & (bs <= 1000))
    assert count_three_aps_direct(bs) == 0
    assert bs.size >= 30


@pytest.mark.parametrize(
    "Ns", [range(400), [10**3, 2500, 5000, 10**4, 3 * 10**4, 10**5, 10**6]],
    ids=["below-400", "ladder"],
)
def test_behrend_matches_literal_sweep(Ns):
    for N in Ns:
        got = behrend_set(N)
        assert got.dtype == np.int64 and got.tolist() == behrend_oracle(N), N


def test_random_set_deterministic():
    a = random_set(500, 0.3, 42)
    b = random_set(500, 0.3, 42)
    assert np.array_equal(a, b)
    c = random_set(500, 0.3, 43)
    assert not np.array_equal(a, c)
    assert np.all((1 <= a) & (a <= 500))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(-3, 3000),
    st.floats(0, 1, exclude_min=True) | st.just(1.0),
    st.integers(-(2**70), 2**70) | st.sampled_from([0, -1, 2**64, 2**80 + 1]),
)
@example(3000, 1.0, 0)
@example(2000, 0.3, -7)
@example(0, 0.5, 2**65)
def test_random_set_is_the_literal_stream(N, density, seed):
    got = random_set(N, density, seed)
    assert got.dtype == np.int64 and got.tolist() == random_set_oracle(N, density, seed)


@pytest.mark.parametrize("N", [2**18 - 1, 2**18, 2**18 + 1, 3 * 2**18 + 7])
def test_random_set_is_the_literal_stream_across_chunks(N):
    # the stream is drawn in chunks of 2^18; a density that is no double
    # compares exactly, as the loop's float < Fraction does
    cases = [(0.3, 7), (0.25, -3), (0.6, 2**80 + 1)]
    if N == 2**18 + 1:
        cases += [(Fraction(1, 3), 7), (Fraction(2**53 + 1, 2**54), -3)]
    for density, seed in cases:
        got = random_set(N, density, seed)
        assert got.dtype == np.int64 and got.tolist() == random_set_oracle(N, density, seed)


def test_random_set_of_ten_million_is_fast_and_small():
    tracemalloc.start()
    try:
        start = time.perf_counter()
        got = random_set(10**7, 0.001, 1)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 9000 < got.size < 11000 and got[-1] <= 10**7
    assert elapsed < 0.5 and peak < 8 * 2**20


# ---------------------------------------------------------------------------
# the dichotomy
# ---------------------------------------------------------------------------


def _interval_base(m: int) -> BohrSet:
    return BohrSet.from_spec(BohrSpec((Fraction(1),), Fraction(1, 2), Fraction(m)))


def _chain(base: BohrSet, cs) -> list[BohrSet]:
    """The nested dilates N_1 = c_1 base, N_i = c_i N_{i-1}, uncertified."""
    sets = [base]
    for c in cs:
        sets.append(BohrSet.from_spec(sets[-1].spec.dilate(c)))
    return sets[1:]


def test_dichotomy_small_bohr_on_sparse_set():
    base = _interval_base(1000)
    subset = behrend_set(1000)
    chain = _chain(base, [Fraction(1, 320), Fraction(1, 16)])
    out = dichotomy(subset, base, chain, enforce=False)
    assert out.kind == "small-bohr"
    assert Fraction(out.inner_sizes[-1]) <= smallness_bound(2, out.delta)


def test_dichotomy_enforce_raises_on_unmet():
    base = _interval_base(2500)
    evens = base.elements[base.elements % 2 == 0]
    with pytest.raises(PreconditionError):
        dichotomy(evens, base, _chain(base, [Fraction(1, 4), Fraction(1)]), enforce=True)
    # every other precondition met: an inconclusive freeness search alone is unmet
    subset, base = behrend_set(100), _interval_base(100)
    delta = Fraction(subset.size, base.size)
    chain = _chain(base, [delta**2 / 12800, Fraction(1, 2)])
    freeness = FinderResult("inconclusive", None, 0, 0, "restricted")
    out = dichotomy(subset, base, chain, enforce=False, freeness=freeness)
    assert out.unmet == ("freeness search inconclusive within budget",)
    with pytest.raises(PreconditionError, match="^freeness search inconclusive within budget$"):
        dichotomy(subset, base, chain, enforce=True, freeness=freeness)


def test_dichotomy_local_increment_branch():
    # evens in a long interval: every contained doubled translate at even a
    # is all even, so the density jumps from ~1/2 to 1
    base = _interval_base(2500)
    evens = base.elements[base.elements % 2 == 0]
    out = dichotomy(evens, base, _chain(base, [Fraction(1, 4), Fraction(1)]), enforce=False)
    assert out.kind == "local-increment"
    assert out.new_density == 1
    # recheck the recorded translate by direct counting
    a = out.a
    inner = BohrSet.from_spec(base.spec.dilate(Fraction(1, 4)))
    translate = a + 2 * inner.elements
    assert np.all(np.isin(translate, base.elements))
    inside = np.isin(translate, evens).sum()
    assert Fraction(int(inside), inner.size) == Fraction(1)
    assert len(out.unmet) >= 1  # c1 bound and freeness were honestly recorded
    # the branch-2 scan is metered: one point looked up is one unit
    with pytest.raises(BudgetExceeded, match="translate count"):
        dichotomy(
            evens, base, _chain(base, [Fraction(1, 4), Fraction(1)]), enforce=False, budget=1
        )


def test_dichotomy_local_increment_at_exactly_the_required_density():
    # |base| = 363, |N_1| = 165 > the smallness bound 140.4, and 11 even points
    # removed: delta = 32/33, so the required density (33/32) delta is 1, met
    # exactly by the all-odd translate -17 + 2 N_1
    base = _interval_base(181)
    inner = BohrSet.from_spec(base.spec.dilate(Fraction(82, 181)))
    e = base.elements
    subset = e[~((e >= -20) & (e <= 0) & (e % 2 == 0))]
    out = dichotomy(subset, base, [inner, inner], enforce=False)
    assert out.kind == "local-increment"
    assert out.as_dict()["data"]["increment"] == {
        "inner_index": 1, "a": -17, "new_density": [1, 1], "required": [1, 1]
    }


@settings(max_examples=15, deadline=None)
@given(st.integers(360, 450), st.sampled_from([0.88, 0.92, 0.96]), st.integers(0, 2**32 - 1))
def test_dichotomy_local_increment_pick_is_the_literal_rule(m, density, seed):
    # branch 2 takes, over N_1 then N_2, the first base point a (ascending)
    # whose doubled translate a + 2 N_i lies in the base and holds at least
    # (1 + 1/32) delta |N_i| points of the subset
    base = _interval_base(m)
    chain = _chain(base, [Fraction(1, 3), Fraction(1)])
    e = base.elements
    subset = e[np.random.default_rng(seed).random(e.size) < density]
    members, base_pts = set(subset.tolist()), set(e.tolist())
    delta = Fraction(subset.size, e.size)
    pick = None
    for i, bs in enumerate(chain, start=1):
        doubled = (2 * bs.elements).tolist()
        for a in e.tolist():
            if all(a + n in base_pts for n in doubled):
                density_at_a = Fraction(sum(a + n in members for n in doubled), bs.size)
                if density_at_a >= delta * Fraction(33, 32):
                    pick = {"inner_index": i, "a": a, "new_density": density_at_a}
                    break
        if pick:
            break
    assert chain[-1].size > smallness_bound(2, delta)  # branch 1 stays quiet
    try:
        out = dichotomy(subset, base, chain, enforce=False)
    except BudgetExceeded:  # the U2 branch, reached after a clean branch 2
        assert pick is None
        return
    if pick is None:
        assert out.kind != "local-increment"
    else:
        assert out.kind == "local-increment"
        assert (out.inner_index, out.a) == (pick["inner_index"], pick["a"])
        assert out.new_density == pick["new_density"]


def test_dichotomy_large_u2_branch():
    # remove every multiple of 15: no doubled translate gains enough, but
    # the balanced function carries strong period-15 structure
    base = _interval_base(79)
    arr = base.elements
    subset = arr[np.mod(arr, 15) != 0]
    out = dichotomy(subset, base, [base, base], enforce=False, budget=10**9)
    assert out.kind == "large-u2"
    assert out.scanned_pairs == ((1, 2),)
    assert out.norms[-1] >= u2_threshold(2, out.delta)


def test_dichotomy_no_case_when_nothing_fires():
    # the full base: density one, zero balanced function, large inner sets
    base = _interval_base(64)
    out = dichotomy(base.elements, base, [base, base], enforce=False)
    assert out.kind == "no-case"
    assert out.unmet  # honest: preconditions were not certified


def _dichotomy_of_kind(kind: str):
    """The outcomes of the branch tests above, one of each kind."""
    if kind == "small-bohr":
        base = _interval_base(1000)
        chain = _chain(base, [Fraction(1, 320), Fraction(1, 16)])
        return dichotomy(behrend_set(1000), base, chain, enforce=False)
    if kind == "local-increment":
        base = _interval_base(181)
        inner = BohrSet.from_spec(base.spec.dilate(Fraction(82, 181)))
        e = base.elements
        subset = e[~((e >= -20) & (e <= 0) & (e % 2 == 0))]
        return dichotomy(subset, base, [inner, inner], enforce=False)
    if kind == "large-u2":
        base = _interval_base(79)
        subset = base.elements[np.mod(base.elements, 15) != 0]
        return dichotomy(subset, base, [base, base], enforce=False, budget=10**9)
    base = _interval_base(64)
    return dichotomy(base.elements, base, [base, base], enforce=False)


# report forms of real outcomes, pinned as literals: the thresholds the
# report derives from (s, delta) must give these bytes
DICHOTOMY_FORMS = {
    "small-bohr": {
        "data": {
            "freeness": {
                "budget": 100000000,
                "mode": "restricted",
                "status": "none",
                "work": 272,
            },
            "inner_sizes": [7, 1],
            "small": {"size": 1, "threshold": [128192096016, 4913]},
        },
        "delta": [34, 2001],
        "kind": "small-bohr",
        "s": 2,
        "unmet": ["c1 = 1/320 exceeds delta^s/(3200 d s^2) = 289/12812803200"],
    },
    "local-increment": {
        "data": {
            "freeness": {
                "budget": 100000000,
                "config": {"a": -181, "elements": [-181, -180, -179], "ns": [0, 1]},
                "mode": "restricted",
                "status": "found",
                "work": 19596,
            },
            "increment": {
                "a": -17,
                "inner_index": 1,
                "new_density": [1, 1],
                "required": [1, 1],
            },
            "inner_sizes": [165, 165],
        },
        "delta": [32, 33],
        "kind": "local-increment",
        "s": 2,
        "unmet": [
            "c1 = 82/181 exceeds delta^s/(3200 d s^2) = 2/27225",
            "subset is not configuration-free on the restricted domain",
        ],
    },
    "large-u2": {
        "data": {
            "freeness": {
                "budget": 100000000,
                "config": {"a": -79, "elements": [-79, -78, -77], "ns": [0, 1]},
                "mode": "restricted",
                "status": "found",
                "work": 14621,
            },
            "inner_sizes": [159, 159],
            "large_u2": {
                "norm": 0.09747567604524247,
                "norms_scanned": {"1,2": 0.09747567604524247},
                "pair": [1, 2],
                "threshold": [50653, 8039358],
            },
        },
        "delta": [148, 159],
        "kind": "large-u2",
        "s": 2,
        "unmet": [
            "c1 = 1 exceeds delta^s/(3200 d s^2) = 1369/20224800",
            "subset is not configuration-free on the restricted domain",
        ],
    },
    "no-case": {
        "data": {
            "freeness": {
                "budget": 100000000,
                "config": {"a": -64, "elements": [-64, -63, -62], "ns": [0, 1]},
                "mode": "restricted",
                "status": "found",
                "work": 8213,
            },
            "inner_sizes": [129, 129],
            "norms_scanned": {"1,2": 0.0},
            "u2_threshold": [1, 128],
        },
        "delta": [1, 1],
        "kind": "no-case",
        "s": 2,
        "unmet": [
            "c1 = 1 exceeds delta^s/(3200 d s^2) = 1/12800",
            "subset is not configuration-free on the restricted domain",
        ],
    },
}


@pytest.mark.parametrize("kind", list(DICHOTOMY_FORMS))
def test_dichotomy_report_forms_are_pinned(kind):
    out = _dichotomy_of_kind(kind)
    assert out.kind == kind
    assert out.as_dict() == DICHOTOMY_FORMS[kind]


@pytest.mark.parametrize(
    "inner",
    [
        lambda base: [base.spec.dilate(Fraction(1, 8)), base.spec.dilate(Fraction(1, 4))],
        lambda base: [base.spec.dilate(Fraction(1, 8)),
                      BohrSpec((Fraction(1, 2),), Fraction(1, 16), Fraction(4))],
        lambda base: [BohrSpec((Fraction(1),), Fraction(1, 4), Fraction(8)),
                      base.spec.dilate(Fraction(1, 16))],
    ],
    ids=["growing", "other-frequency", "uneven-ratio"],
)
def test_dichotomy_rejects_a_chain_that_is_not_nested(inner):
    base = _interval_base(64)
    chain = [BohrSet.from_spec(spec) for spec in inner(base)]
    with pytest.raises(ValueError, match="nested chain"):
        dichotomy(base.elements[::3], base, chain, enforce=False)


def test_finder_and_dichotomy_vocabularies_are_closed():
    cfg = Configuration(0, (1, 2))
    FinderResult("found", cfg, 3, 10, "restricted")
    for status, config, mode in [
        ("nonex", None, "restricted"),  # an unknown status
        ("none", None, "walk"),  # an unknown mode
        ("found", None, "extent"),  # found without its configuration
        ("none", cfg, "restricted"),  # a configuration with a negative verdict
        ("inconclusive", cfg, "extent"),
    ]:
        with pytest.raises(ValueError, match="finder result"):
            FinderResult(status, config, 3, 10, mode)
    none = FinderResult("none", None, 3, 10, "restricted")
    with pytest.raises(ValueError, match="unknown dichotomy kind"):
        DichotomyOutcome("no-casex", 2, Fraction(1, 2), (), none, (3, 1))
