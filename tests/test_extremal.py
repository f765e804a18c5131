"""Exact extremal sizes r_s(N) at small N, by a literal search.

r_s(N) is the size of the largest subset of [1, N] with no s-configuration:
distinct x_1 < ... < x_s in the set whose pairwise midpoints
(x_i + x_j) / 2 all lie in the set (for s = 2, a 3-term progression). The
search here is plain Python over sets of integers and imports nothing from
``bohrkit``, so a maximum free set it finds is an independent negative
instance: every finder must answer "none" on it.
"""

from __future__ import annotations

import itertools
from functools import cache

import pytest

from bohrkit.patterns import count_configurations, find_configuration
from bohrkit.sumfree import find_configuration_via_embedding

_TOP = {2: 30, 3: 26}  # the largest N searched for each s


def _closes(members: set[int], k: int, s: int) -> bool:
    """Whether ``k``, above every member, completes an s-configuration with
    ``s - 1`` members: the other points are of ``k``'s parity, each
    one's midpoint with ``k`` is a member, and so is every midpoint among
    them. ``k`` is no midpoint, since it exceeds both ends of every pair."""
    near = [x for x in members if (k - x) % 2 == 0 and (x + k) // 2 in members]
    return any(
        all((x + y) // 2 in members for x, y in itertools.combinations(xs, 2))
        for xs in itertools.combinations(near, s - 1)
    )


@cache
def largest_free_set(N: int, s: int) -> tuple[int, ...]:
    """One largest configuration-free subset of [1, N], by branch and bound.

    Decides 1, 2, ..., N in turn: takes ``k`` (when it closes no
    configuration) before leaving it out, and drops a branch whose chosen
    points plus every undecided one cannot beat the best set found. Each N
    is searched from scratch, so no value is derived from another.
    """
    best: list[int] = []
    chosen: list[int] = []
    members: set[int] = set()

    def walk(k: int) -> None:
        nonlocal best
        if len(chosen) + N - k + 1 <= len(best):
            return
        if k > N:
            best = list(chosen)
            return
        if not _closes(members, k, s):
            chosen.append(k)
            members.add(k)
            walk(k + 1)
            chosen.pop()
            members.remove(k)
        walk(k + 1)

    walk(1)
    return tuple(best)


def _is_free(xs, s: int) -> bool:
    """The definition, over every s-subset."""
    members = set(xs)
    return not any(
        len({x % 2 for x in tup}) == 1
        and all((x + y) // 2 in members for x, y in itertools.combinations(tup, 2))
        for tup in itertools.combinations(sorted(members), s)
    )


def _r(s: int) -> list[int]:
    """r_s(0), r_s(1), ..., r_s(top)."""
    return [0] + [len(largest_free_set(N, s)) for N in range(1, _TOP[s] + 1)]


_CASES = [(N, s) for s in (2, 3) for N in range(1, _TOP[s] + 1)]


@pytest.mark.parametrize("s", [2, 3])
def test_extremal_sizes_are_monotone_and_subadditive(s):
    # a free subset of [N + M] splits into one of [N] and a translate of one of [M]
    r = _r(s)
    assert all(a <= b for a, b in zip(r, r[1:]))
    assert all(r[n + m] <= r[n] + r[m] for n in range(len(r)) for m in range(len(r) - n))
    assert r[_TOP[s]] == {2: 12, 3: 16}[s]  # r_2(30) as in OEIS A003002


@pytest.mark.parametrize("s", [2, 3])
def test_extremal_search_matches_brute_force(s):
    # every subset of [N] one larger than the search's maximum holds a configuration
    for N in range(1, 15):
        best = largest_free_set(N, s)
        assert set(best) <= set(range(1, N + 1)) and _is_free(best, s)
        bigger = itertools.combinations(range(1, N + 1), len(best) + 1)
        assert not any(_is_free(xs, s) for xs in bigger), N


@pytest.mark.parametrize("N, s", _CASES, ids=[f"s{s}-N{N}" for N, s in _CASES])
def test_every_finder_answers_none_on_a_maximum_free_set(N, s):
    best = largest_free_set(N, s)
    assert _is_free(best, s)
    assert find_configuration(list(best), s).status == "none"
    assert count_configurations(list(best), s) == 0
    assert find_configuration_via_embedding(list(best), s).status == "none"
