"""Local uniformity norms and certified Fourier scans.

Oracles here are literal loop transcriptions in plain Python complex
arithmetic (the five-index sum for the fourth power and the direct
exponential sum for the grid scan), plus the two kernels the library
replaced: the literal four-operand U2 contraction and the dense
root-of-unity scan. The library paths must match them to roundoff.
"""

from __future__ import annotations

import cmath
import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bohrkit import gowers
from bohrkit.bohr import BohrSet, BohrSpec, BudgetExceeded, chunk_rows
from bohrkit.cli import main as cli_main
from bohrkit.functions import BoundedFunction
from bohrkit.gowers import (
    check_inverse_theorem,
    fourier_grid_maxima,
    inverse_average,
    local_fourier_scan,
    u2_fourth_correlation,
    u2_fourth_direct,
    u2_report,
)

# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def fourth_power_oracle(f, base, n1, n2) -> float:
    """Literal five-loop average of f(a+i+k) conj f(a+i+l) conj f(a+j+k) f(a+j+l)."""
    lookup = {int(n): complex(v) for n, v in zip(f.support, f.values)}

    def val(x: int) -> complex:
        return lookup.get(int(x), 0j)

    total = 0j
    for a in base:
        for i in n1:
            for j in n1:
                for k in n2:
                    for l in n2:
                        total += (
                            val(a + i + k)
                            * val(a + i + l).conjugate()
                            * val(a + j + k).conjugate()
                            * val(a + j + l)
                        )
    count = len(base) * len(n1) ** 2 * len(n2) ** 2
    result = total / count
    assert abs(result.imag) < 1e-10
    return max(result.real, 0.0)


def u2_literal_oracle(f, base, n1, n2) -> float:
    """The literal four-operand contraction over the whole cube at once.

    ``E_a E_{i,j,k,l} T[a,i,k] conj T[a,i,l] conj T[a,j,k] T[a,j,l]`` with
    ``T[a,i,k] = f(a + n1_i + n2_k)``, at cost ``|A| L1^2 L2^2``.
    """
    a, n1, n2 = (np.asarray(x, dtype=np.int64) for x in (base, n1, n2))
    t = f.gather(a[:, None, None] + n1[None, :, None] + n2[None, None, :])
    tc = t.conj()
    block = np.einsum("aik,ail,ajk,ajl->a", t, tc, tc, t, optimize=False)
    return float(np.mean(block.real)) / (n1.size**2 * n2.size**2)


def u2_cube_oracle(f, base, n1, n2) -> float:
    """The correlation route as a cube contraction, chunk by chunk.

    ``E_a E_{i,j} |E_k T[a,i,k] conj T[a,j,k]|^2`` with one
    ``einsum("aik,ajk->aij")`` over each chunk of base points: the kernel
    the pair table replaced. The library must equal it bit for bit.
    """
    a, n1, n2 = (np.asarray(x, dtype=np.int64) for x in (base, n1, n2))
    vals = np.empty(a.size, dtype=np.float64)
    step = max(1, 2**18 // max(n1.size * n2.size, n1.size**2))
    for s in range(0, a.size, step):
        t = f.gather(a[s : s + step, None, None] + n1[None, :, None] + n2[None, None, :])
        m = np.einsum("aik,ajk->aij", t, t.conj(), optimize=False) / n2.size
        vals[s : s + step] = (m.real**2 + m.imag**2).mean(axis=(1, 2))
    return float(np.mean(vals))


def searchsorted_gather(f, points) -> np.ndarray:
    """``f`` at ``points`` by a plain binary search of its support."""
    pts = np.asarray(points, dtype=np.int64)
    if f.support.size == 0:
        return np.zeros(pts.shape, dtype=np.complex128)
    idx = np.minimum(np.searchsorted(f.support, pts), f.support.size - 1)
    return np.where(f.support[idx] == pts, f.values[idx], 0j)


def u2_direct_cube_oracle(f, base, n1, n2) -> float:
    """The direct route as a cube contraction, chunk by chunk.

    ``E_a E_{k,l} |E_i T[a,i,k] conj T[a,i,l]|^2`` with one
    ``einsum("aik,ail->akl")`` over each chunk of base points: the kernel
    the direct pair table replaced. Values are looked up with
    ``np.searchsorted``, not ``f.gather``. The library must equal it bit
    for bit.
    """
    a, n1, n2 = (np.asarray(x, dtype=np.int64) for x in (base, n1, n2))
    vals = np.empty(a.size, dtype=np.float64)
    step = max(1, 2**18 // max(n1.size * n2.size, n2.size**2))
    for s in range(0, a.size, step):
        pts = a[s : s + step, None, None] + n1[None, :, None] + n2[None, None, :]
        t = searchsorted_gather(f, pts)
        m = np.einsum("aik,ail->akl", t, t.conj(), optimize=False) / n1.size
        vals[s : s + step] = (m.real**2 + m.imag**2).mean(axis=(1, 2))
    return float(np.mean(vals))


def scan_oracle(f, base, inner, grid):
    """Direct exponential sums: max_k |E_n f(a+n) e(n k / grid)|."""
    lookup = {int(n): complex(v) for n, v in zip(f.support, f.values)}
    out = []
    for a in base:
        best = 0.0
        for k in range(grid):
            z = sum(
                lookup.get(int(a + n), 0j) * cmath.exp(2j * cmath.pi * n * k / grid)
                for n in inner
            ) / len(inner)
            best = max(best, abs(z))
        out.append(best)
    return out


def dense_scan_oracle(f, base, inner, grid):
    """The dense scan: one ``(L, grid)`` phase matrix, one einsum per chunk.

    Every phase is read from one root-of-unity table by the exact residue
    ``(n * k) mod grid``. Returns per-row maxima and the first maximizing
    ``k`` of the computed magnitudes.
    """
    n = np.asarray(inner, dtype=np.int64)
    a = np.asarray(base, dtype=np.int64)
    table = np.exp(2j * np.pi * np.arange(grid, dtype=np.float64) / grid)
    ks = np.arange(grid, dtype=np.int64)
    phase_matrix = table[(n[:, None] * ks[None, :]) % grid]
    t = f.gather(a[:, None] + n[None, :])
    mags = np.abs(np.einsum("ai,ik->ak", t, phase_matrix, optimize=False) / n.size)
    return mags.max(axis=1), mags.argmax(axis=1)


def literal_fourier(f, a, inner, k, grid) -> complex:
    """``E_n f(a+n) e(n k / grid)`` as a plain Python sum."""
    lookup = {int(n): complex(v) for n, v in zip(f.support, f.values)}
    total = sum(
        lookup.get(int(a + n), 0j) * cmath.exp(2j * cmath.pi * int(n) * k / grid)
        for n in inner
    )
    return total / len(inner)


def random_function(rng: random.Random, lo: int, hi: int) -> BoundedFunction:
    support = np.arange(lo, hi + 1)
    values = np.array(
        [
            rng.uniform(0, 1) * cmath.exp(2j * cmath.pi * rng.uniform(0, 1))
            for _ in support
        ],
        dtype=np.complex128,
    )
    return BoundedFunction(support, values)


# ---------------------------------------------------------------------------
# fourth-power routes
# ---------------------------------------------------------------------------


def test_routes_match_loop_oracle():
    rng = random.Random(21)
    for _ in range(6):
        f = random_function(rng, -12, 12)
        base = list(range(-3, 4))
        n1 = [-1, 0, 1]
        n2 = [-2, 0, 2]
        expect = fourth_power_oracle(f, base, n1, n2)
        direct = u2_fourth_direct(f, np.array(base), np.array(n1), np.array(n2))
        corr = u2_fourth_correlation(f, np.array(base), np.array(n1), np.array(n2))
        assert abs(direct - expect) < 1e-10
        assert abs(corr - expect) < 1e-10


def test_routes_agree_random():
    rng = random.Random(22)
    for _ in range(30):
        f = random_function(rng, -30, 30)
        base = np.arange(-rng.randint(2, 8), rng.randint(3, 9))
        n1 = np.arange(-rng.randint(1, 5), rng.randint(2, 6))
        n2 = np.arange(-rng.randint(1, 5), rng.randint(2, 6))
        d = u2_fourth_direct(f, base, n1, n2)
        c = u2_fourth_correlation(f, base, n1, n2)
        assert abs(d - c) <= 1e-9 * max(1.0, abs(d))


def test_character_norm_is_one():
    rng = random.Random(23)
    for _ in range(10):
        q = rng.randint(2, 30)
        p = rng.randint(1, q - 1)
        f = BoundedFunction.character(Fraction(p, q), -60, 60)
        base = np.arange(-10, 11)
        n1 = np.arange(-5, 6)
        n2 = np.arange(-5, 6)
        norm = u2_fourth_correlation(f, base, n1, n2) ** 0.25
        assert abs(norm - 1.0) < 1e-9


def test_report_contains_agreement():
    f = BoundedFunction.indicator(np.arange(0, 20, 2))
    rep = u2_report(f, np.arange(-5, 6), np.arange(-2, 3), np.arange(-2, 3))
    assert rep.agreement <= 1e-9
    assert rep.norm == pytest.approx(rep.fourth_correlation ** 0.25)
    assert rep.as_dict()["tolerance"] == 1e-9


def test_singleton_inners_collapse_to_mean_fourth():
    # with N1 = N2 = {0} the fourth power is E_a |f(a)|^4
    rng = random.Random(24)
    f = random_function(rng, -10, 10)
    base = np.arange(-6, 7)
    d = u2_fourth_direct(f, base, np.array([0]), np.array([0]))
    expect = float(np.mean(np.abs(f.gather(base)) ** 4))
    assert abs(d - expect) < 1e-12


def _random_values(rng: np.random.Generator, support: np.ndarray, real: bool) -> BoundedFunction:
    values = rng.uniform(-1, 1, support.size).astype(np.complex128)
    if not real:
        values *= np.exp(2j * np.pi * rng.uniform(0, 1, support.size))
    return BoundedFunction(support, values)


def _u2_case(seed: int, real: bool, base, n1, n2):
    lo = min(base) + min(n1) + min(n2) - 3
    hi = max(base) + max(n1) + max(n2) + 3
    f = _random_values(np.random.default_rng(seed), np.arange(lo, hi + 1), real)
    return f, list(base), list(n1), list(n2)


def _long_base(l1: int, l2: int) -> list[int]:
    """A base a few points longer than one chunk of either route.

    Both routes build a ``(rows, L1, L2)`` cube per chunk, and the chunks
    are sized so that no array exceeds 2^18 entries.
    """
    return list(range(-7, 2**18 // (l1 * l2) - 2))


@st.composite
def u2_cases(draw):
    inner = st.lists(st.integers(-9, 9), unique=True, min_size=1, max_size=6)
    # unsorted, sparse and negative offsets; L1 and L2 drawn independently
    n1, n2 = draw(inner), draw(inner)
    if draw(st.integers(0, 7)) == 3:
        base = _long_base(len(n1), len(n2))
    else:
        base = draw(st.lists(st.integers(-20, 20), unique=True, min_size=1, max_size=8))
    return _u2_case(draw(st.integers(0, 2**32 - 1)), draw(st.booleans()), base, n1, n2)


@settings(max_examples=100, deadline=None)
@given(u2_cases())
@example(_u2_case(1, False, [4, -3, 0, 11, 7], [6, -2, 0, 9, -5], [1, -4]))  # L1 > L2
@example(_u2_case(2, True, [-6, 2, 5], [3, -1], [-8, 0, 5, 2, -3, 7]))  # L2 > L1
@example(_u2_case(3, True, _long_base(4, 2), [-2, 0, 1, 3], [1, -1]))
@example(_u2_case(4, False, _long_base(1, 5), [2], [-4, 0, 3, -1, 6]))
def test_u2_routes_match_literal_oracle(case):
    f, base, n1, n2 = case
    expect = u2_literal_oracle(f, base, n1, n2)
    for route in (u2_fourth_direct, u2_fourth_correlation):
        got = route(f, np.array(base), np.array(n1), np.array(n2))
        assert abs(got - expect) <= 1e-12, route.__name__


@pytest.mark.parametrize(
    "route, units, what",
    [(u2_fourth_direct, lambda a, l1, l2: a * l1 * l2**2, "direct route"),
     (u2_fourth_correlation, lambda a, l1, l2: a * l1**2 * l2, "correlation route")],
    ids=["direct", "correlation"],
)
def test_u2_budget_edge(route, units, what):
    f = random_function(random.Random(30), -30, 30)
    base, n1, n2 = np.arange(-4, 5), np.arange(-3, 4), np.arange(-1, 2)
    cost = units(base.size, n1.size, n2.size)
    assert route(f, base, n1, n2, budget=cost) >= 0.0
    with pytest.raises(BudgetExceeded) as refused:
        route(f, base, n1, n2, budget=cost - 1)
    e = refused.value
    assert (e.what, e.unit, e.spent, e.budget) == (what, "operations", cost, cost - 1)
    # the whole cost is checked before anything is allocated
    huge = np.arange(10**6)
    with pytest.raises(BudgetExceeded, match=f"{what} needs"):
        route(f, huge, huge[:10**4], huge[:10**4])


def test_u2_report_runs_at_the_larger_route_cost():
    # N1-first costs |A| L1 L2^2 and N2-first |A| L1^2 L2; the literal
    # contraction's |A| L1^2 L2^2 is no longer needed
    f = random_function(random.Random(31), -30, 30)
    base, n1, n2 = np.arange(-4, 5), np.arange(-3, 4), np.arange(-1, 2)
    budget = base.size * n1.size**2 * n2.size
    assert base.size * n1.size**2 * n2.size**2 > budget
    rep = u2_report(f, base, n1, n2, budget=budget)
    assert rep.agreement <= 1e-12


def _pinned_small():
    rng = np.random.default_rng(7)
    support = np.arange(-40, 41)
    values = rng.uniform(0, 1, support.size) * np.exp(
        2j * np.pi * rng.uniform(0, 1, support.size)
    )
    f = BoundedFunction(support, values)
    return f, np.array([-9, 3, 14, -2, 7]), np.array([5, -3, 0, 11]), np.array([-6, 2])


def _pinned_chunked():
    # 4001 base points at L1 = 31, L2 = 9: several chunks
    rng = np.random.default_rng(11)
    support = np.arange(-2100, 2101)
    f, _ = BoundedFunction.balanced_indicator(rng.choice(support, 1300, replace=False), support)
    return f, np.arange(-2000, 2001), np.arange(-15, 16), np.arange(-4, 5)


def test_correlation_route_bits_are_pinned():
    # values computed while both routes contracted the cube; the correlation
    # route (and with it u2_report, check_von_neumann and dichotomy) must
    # not move by one bit
    assert u2_fourth_correlation(*_pinned_small()).hex() == "0x1.c13e6e2c649eap-5"
    assert u2_fourth_correlation(*_pinned_chunked()).hex() == "0x1.a3e60bd500860p-8"


def test_dichotomy_norm_bits_are_pinned(tmp_path, capsys):
    # `patterns dichotomy` on [-79, 79] minus the multiples of 15, with both
    # inner dilations at c = 1, scans the balanced norm of the pair (1, 2)
    base = BohrSet.from_spec(BohrSpec((Fraction(1),), Fraction(1, 2), Fraction(79)))
    subset = base.elements[base.elements % 15 != 0]
    balanced, _ = BoundedFunction.balanced_indicator(subset, base.elements)
    fourth = u2_fourth_correlation(balanced, base, base, base, budget=10**9)
    assert fourth.hex() == "0x1.7aa7f4805ddeep-14"

    path = tmp_path / "a.txt"
    path.write_text("".join(f"{v}\n" for v in subset.tolist()))
    constants = tmp_path / "c.json"
    constants.write_text('{"x1": "2", "x_rest": "2"}')
    argv = ["patterns", "dichotomy", "--set", str(path), "--constants", str(constants),
            "--budget", str(10**9)]
    assert cli_main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["inner_cs"] == [[1, 1], [1, 1]]
    data = report["outcome"]["data"]["large_u2"]
    assert data["norms_scanned"] == {"1,2": float(f"{fourth**0.25:.12g}")}


def _unstructured(seed: int = 41, size: int = 4000):
    # a sparse wide base and random N1: few (p, d) pairs repeat, so the
    # pair table would hold more entries than the cube
    rng = np.random.default_rng(seed)
    base = rng.integers(-(10**6), 10**6, size)
    n1 = rng.choice(np.arange(-(10**4), 10**4), 31, replace=False)
    n2 = np.arange(-4, 5)
    pts = np.unique(base[:, None] + n1[None, :]).ravel()
    support = np.unique((pts[:, None] + n2[None, :]).ravel())
    support = support[rng.random(support.size) < 0.5]  # half the points are off f
    return _random_values(rng, support, False), base, n1, n2


@st.composite
def correlation_cases(draw):
    """Inputs from both sides of the pair-table choice, as ``(f, base, n1, n2)``."""
    kinds = ["window", "bohr", "sparse", "repeated", "long", "ap", "gapped", "mixed", "edge"]
    kind = draw(st.sampled_from(kinds))
    window = st.integers(0, 7).map(lambda r: list(range(-r, r + 1)))
    if kind == "window":
        lo = draw(st.integers(-50, 50))
        base = list(range(lo, lo + draw(st.integers(1, 300))))
        n1 = draw(window)
        n2 = list(range(draw(st.integers(-6, 0)), draw(st.integers(0, 6)) + 1))
    elif kind == "bohr":
        dim = draw(st.integers(1, 2))
        freqs = tuple(Fraction(draw(st.integers(1, 96)), 97) for _ in range(dim))
        spec = BohrSpec(freqs, Fraction(1, 4), Fraction(draw(st.integers(20, 600))))
        base = BohrSet.from_spec(spec).elements.tolist()
        n1 = BohrSet.from_spec(spec.dilate(Fraction(1, draw(st.integers(5, 30))))).elements.tolist()
        n2 = BohrSet.from_spec(spec.dilate(Fraction(1, draw(st.integers(30, 200))))).elements.tolist()
    elif kind == "sparse":
        base = draw(st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=60))
        n1 = draw(st.lists(st.integers(-(10**4), 10**4), unique=True, min_size=1, max_size=12))
        n2 = draw(st.lists(st.integers(-9, 9), unique=True, min_size=1, max_size=7))
    elif kind == "repeated":
        # unsorted base with repeats; offsets unsorted, N2 possibly repeated
        base = draw(st.lists(st.integers(-40, 40), min_size=1, max_size=120))
        n1 = draw(st.permutations(draw(window)))
        n2 = draw(st.lists(st.integers(-5, 5), min_size=1, max_size=7))
    elif kind == "long":
        # a base past one chunk; with L2 >= L1 the pair table takes two sub-chunks
        n1, n2 = draw(window), draw(window)
        rows = 2**18 // max(len(n1) * len(n2), len(n1) ** 2)
        base = list(range(-5, rows + draw(st.integers(1, 40))))
    elif kind == "ap":
        # a run base; N1 a progression of step 2, one step past a window
        lo = draw(st.integers(-50, 50))
        base = list(range(lo, lo + draw(st.integers(1, 300))))
        r = draw(st.integers(1, 6))
        n1, n2 = list(range(-2 * r, 2 * r + 1, 2)), draw(window)
    elif kind == "gapped":
        # window offsets; the base one point short of a run: a gap, a repeat
        # or two neighbours swapped
        lo = draw(st.integers(-50, 50))
        base = list(range(lo, lo + draw(st.integers(3, 300))))
        i = draw(st.integers(1, len(base) - 2))
        base = draw(st.sampled_from([
            base[:i] + base[i + 1 :],
            base[:i] + [base[i]] + base[i:],
            base[: i - 1] + [base[i], base[i - 1]] + base[i + 1 :],
        ]))
        n1, n2 = draw(window), draw(window)
    elif kind == "mixed":
        # a run base and a window N1; N2 no run: reversed, of step 2 or gapped
        lo = draw(st.integers(-50, 50))
        base = list(range(lo, lo + draw(st.integers(1, 300))))
        n1, r = draw(window), draw(st.integers(1, 5))
        n2 = draw(st.sampled_from([
            list(range(r, -r - 1, -1)),
            list(range(-2 * r, 2 * r + 1, 2)),
            [x for x in range(-r, r + 2) if x != 0],
        ]))
    else:
        r1, r2 = draw(st.integers(0, 7)), draw(st.integers(0, 7))
        return _edge_case(draw(st.integers(0, 2**32 - 1)), draw(st.booleans()),
                          draw(st.booleans()), draw(st.integers(1, 300)), r1, r2)
    seed = draw(st.integers(0, 2**32 - 1))
    return _corr_case(seed, draw(st.booleans()), base, n1, n2)


def _corr_case(seed: int, real: bool, base, n1, n2):
    base, n1, n2 = (np.array(x, dtype=np.int64) for x in (base, n1, n2))
    pts = np.unique((base[:, None] + n1[None, :]).ravel())
    support = np.unique((pts[:, None] + np.unique(n2)[None, :]).ravel())
    lo, hi = int(support[0]), int(support[-1])
    if hi - lo < 10**5:
        support = np.arange(lo - 3, hi + 4)  # a run, looked up by offset
    return _random_values(np.random.default_rng(seed), support, real), base, n1, n2


_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _edge_case(seed: int, real: bool, top: bool, size: int, r1: int, r2: int):
    """A run base of ``size`` points and the windows ``[-r1, r1]``,
    ``[-r2, r2]``, placed so that the farthest sum a pair table forms,
    ``a + n + (n' - n) + m`` with ``n`` on the table side, reaches the top
    (or bottom) int64 end in one of the two routes."""
    reach = max(3 * r1 + r2, 3 * r2 + r1)
    lo = _INT64_MAX - reach - size + 1 if top else _INT64_MIN + reach
    base = np.array([lo + k for k in range(size)], dtype=np.int64)
    n1, n2 = np.arange(-r1, r1 + 1), np.arange(-r2, r2 + 1)
    first, last = max(lo - reach, _INT64_MIN), min(lo + size - 1 + reach, _INT64_MAX)
    support = first + np.arange(last - first + 1)
    return _random_values(np.random.default_rng(seed), support, real), base, n1, n2


_AP_CASE = (range(-40, 160), range(-6, 7, 2), range(-3, 4))  # a run base, N1 of step 2
_GAP_CASE = ([*range(-30, 40), *range(41, 90)], range(-5, 6), range(-2, 3))
_REPEAT_CASE = ([*range(0, 50), 49, *range(50, 80)], range(-4, 5), range(-3, 4))
_MIXED_CASE = (range(-60, 140), range(-7, 8), [2, 1, 0, -1, -2])  # N2 reversed


@settings(max_examples=60, deadline=None)
@given(correlation_cases())
@example(_pinned_small())
@example(_pinned_chunked())
@example(_corr_case(5, False, range(-3, 9715), range(-1, 2), range(-4, 5)))  # 2 sub-chunks
@example(_corr_case(6, True, range(-100, 101), range(-7, 8), [0, 3, -2, 5, 1]))  # L2 = 5
@example(_unstructured(7, 300))
@example(_corr_case(12, False, *_AP_CASE))
@example(_corr_case(13, True, *_GAP_CASE))
@example(_corr_case(14, False, *_REPEAT_CASE))
@example(_corr_case(15, True, *_MIXED_CASE))
@example(_edge_case(16, False, True, 200, 7, 2))
@example(_edge_case(17, True, False, 150, 3, 6))
def test_correlation_route_equals_cube_bit_for_bit(case):
    f, base, n1, n2 = case
    assert u2_fourth_correlation(f, base, n1, n2, budget=10**12) == u2_cube_oracle(f, base, n1, n2)


def _einsum_calls(monkeypatch) -> list[str]:
    calls: list[str] = []
    real = np.einsum

    def record(subscripts, *operands, **kwargs):
        calls.append(subscripts)
        return real(subscripts, *operands, **kwargs)

    monkeypatch.setattr(gowers.np, "einsum", record)
    return calls


def test_correlation_route_picks_the_smaller_side(monkeypatch):
    calls = _einsum_calls(monkeypatch)
    f, base, n1, n2 = _pinned_chunked()  # a 4001-point interval at 31 x 9
    u2_fourth_correlation(f, base, n1, n2)
    assert calls and set(calls) == {"rk,rck->rc"}
    calls.clear()
    u2_fourth_correlation(*_unstructured())
    assert calls and set(calls) == {"aik,ajk->aij"}


def _far_lookups(monkeypatch) -> list[tuple[int, ...]]:
    """Shapes of the points ``gowers`` looks up past 10^5. The routes look
    up the small offsets of ``D`` and ``D + N``; on a base placed past 10^5,
    a far lookup is one of the starts ``chunk + N`` in ``P``."""
    shapes: list[tuple[int, ...]] = []
    real = gowers.sorted_lookup

    def record(values, points):
        pts = np.asarray(points)
        if pts.size and int(pts.max()) > 10**5:
            shapes.append(pts.shape)
        return real(values, points)

    monkeypatch.setattr(gowers, "sorted_lookup", record)
    return shapes


@pytest.mark.parametrize("route", [u2_fourth_correlation, u2_fourth_direct],
                         ids=["correlation", "direct"])
def test_window_inputs_look_no_starts_up(monkeypatch, route):
    # the table side (N1 for the correlation route, N2 for the direct one) is
    # a window of 31; the 3000-point base spans twelve chunks
    window, other = np.arange(-15, 16), np.arange(-4, 5)
    inner = (window, other) if route is u2_fourth_correlation else (other, window)
    far = 10**6
    f = _random_values(np.random.default_rng(5), np.arange(far - 9100, far + 9100), False)
    looked = _far_lookups(monkeypatch)
    run = np.arange(far, far + 3000)
    route(f, run, *inner)
    assert looked == []
    spec = BohrSpec((Fraction(3, 97),), Fraction(1, 4), Fraction(9000))
    bases = {
        "gapped": np.delete(run, 1000),
        "bohr": far + BohrSet.from_spec(spec).elements,
        "sparse": np.arange(far, far + 9000, 3),
    }
    for name, base in bases.items():
        looked.clear()
        route(f, base, *inner)
        assert looked and all(shape[1:] == (31,) for shape in looked), name


def test_window_tables_fill_each_row_once(monkeypatch):
    # `patterns dichotomy`'s inner = base case: [-79, 79] at L1 = L2 = 159
    # takes ten base points a chunk, and consecutive chunks' P share 158
    # rows; carried over, the tables fill |A| + 158 = 317 rows, not 2687
    base = np.arange(-79, 80)
    f, _ = BoundedFunction.balanced_indicator(base[base % 15 != 0], base)
    rows: list[int] = []
    real = BoundedFunction.gather

    def record(self, points):
        pts = np.asarray(points)
        if pts.ndim == 2 and pts.shape[1] == base.size:  # f at p + N, a row each
            rows.append(pts.shape[0])
        return real(self, points)

    monkeypatch.setattr(BoundedFunction, "gather", record)
    for route in (u2_fourth_correlation, u2_fourth_direct):
        rows.clear()
        route(f, base, base, base, budget=10**9)
        assert sum(rows) == 317, route.__name__


def test_direct_route_bits_are_pinned():
    # values computed while the direct route was the literal N1-first cube
    # contraction; its pair table must not move them by one bit
    assert u2_fourth_direct(*_pinned_small()).hex() == "0x1.c13e6e2c649eap-5"
    assert u2_fourth_direct(*_pinned_chunked()).hex() == "0x1.a3e60bd50085ep-8"


@settings(max_examples=60, deadline=None)
@given(correlation_cases(), st.booleans())
@example(_pinned_small(), False)
@example(_pinned_chunked(), True)
@example(_corr_case(8, False, range(-3, 9715), range(-1, 2), range(-4, 5)), True)
@example(_corr_case(9, False, range(-100, 101), [0, 3, -2, 5, 1], range(-7, 8)), False)
@example(_unstructured(10, 300), True)
@example(_corr_case(18, True, *_AP_CASE), True)
@example(_corr_case(19, False, *_GAP_CASE), True)
@example(_corr_case(20, True, *_REPEAT_CASE), False)
@example(_corr_case(21, False, *_MIXED_CASE), True)
@example(_edge_case(22, True, True, 200, 7, 2), True)
@example(_edge_case(23, False, False, 150, 3, 6), False)
def test_direct_route_equals_cube_bit_for_bit(case, swap):
    # swapped, the structured offsets of a case become N2, the side the
    # direct route builds its pair table over
    f, base, n1, n2 = case
    if swap:
        n1, n2 = n2, n1
    got = u2_fourth_direct(f, base, n1, n2, budget=10**12)
    assert got == u2_direct_cube_oracle(f, base, n1, n2)


def test_direct_route_picks_the_smaller_side(monkeypatch):
    calls = _einsum_calls(monkeypatch)
    f, base, n1, n2 = _pinned_chunked()  # a 4001-point interval at 31 x 9
    u2_fourth_direct(f, base, n1, n2)
    assert calls and set(calls) == {"ri,rci->rc"}
    calls.clear()
    f, base, n1, n2 = _unstructured()  # N2 a window, but A + N2 barely repeats
    u2_fourth_direct(f, base, n1, n2)
    assert calls and set(calls) == {"aik,ail->akl"}


def test_direct_route_memory_stays_chunked():
    # a table over all of A + N2 would hold 100031 x 61 floats, 49 MB
    f, _, n1, n2 = _pinned_chunked()
    base = np.arange(-50000, 50001)
    tracemalloc.start()
    try:
        u2_fourth_direct(f, base, n2, n1, budget=10**10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_direct_route_memory_stays_chunked_on_unstructured_n2():
    # N2 - N2 has about L2^2 = 160000 distinct values, so every chunk takes
    # the cube; the offsets D2 + N1 alone would hold 10^7 int64, 80 MB
    rng = np.random.default_rng(22)
    n2 = rng.choice(10**9, size=400, replace=False)
    n1 = np.arange(64)
    f = BoundedFunction.character(Fraction(1, 7), 0, 2000)
    tracemalloc.start()
    try:
        u2_fourth_direct(f, [0], n1, n2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_direct_table_sums_past_int64_are_refused():
    # the direct table forms a + n2 + (n2' - n2) + n1 and (n2' - n2) + n1,
    # past int64 here though every a + n1 + n2 fits
    f = BoundedFunction(np.arange(-(2**63), -(2**63) + 8), np.ones(8))
    cases = [
        ([2**62 - 1], [0], [0, 2**62]),  # a + n2 + d2 reaches 2^63 + 2^62 - 1
        ([-(2**62)], [2**63 - 2**60], [0, 2**61]),  # only d2 + n1 leaves int64
    ]
    for base, n1, n2 in cases:
        with pytest.raises(ValueError, match="direct route"):
            u2_fourth_direct(f, base, n1, n2)
        assert u2_fourth_correlation(f, base, n1, n2) == 0.0


def test_correlation_route_memory_stays_chunked():
    # a table over all of A + N1 would hold 100031 x 61 floats, 49 MB
    f, _, n1, n2 = _pinned_chunked()
    base = np.arange(-50000, 50001)
    tracemalloc.start()
    try:
        u2_fourth_correlation(f, base, n1, n2, budget=10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_sums_past_int64_are_refused():
    # every a + n1 + n2 lies past 2^63 - 1, so off the support: the true
    # fourth power is 0, and a wrapped sum would read 1
    f = BoundedFunction(np.arange(-(2**63), -(2**63) + 8), np.ones(8))
    base, n1, n2 = np.array([2**63 - 1]), np.array([1, 2]), np.array([0, 1])
    for route in (u2_fourth_direct, u2_fourth_correlation):
        with pytest.raises(ValueError, match="outside int64"):
            route(f, base, n1, n2)
    with pytest.raises(ValueError, match="outside int64"):
        local_fourier_scan(f, base, np.array([1, 2, 3]), 16)
    # |-2^63| does not fit int64 either: the grid bound is taken in Python ints
    with pytest.raises(ValueError, match="too coarse"):
        local_fourier_scan(f, np.array([0]), np.array([-(2**63)]), 16)
    # the pair table also forms a + n1 + (n1' - n1) + n2 and (n1' - n1) + n2
    n1 = np.array([0, 2**62])
    with pytest.raises(ValueError, match="correlation route"):
        u2_fourth_correlation(f, np.array([2**62 - 1]), n1, np.array([0]))
    assert u2_fourth_direct(f, np.array([2**62 - 1]), n1, np.array([0])) == 0.0


# ---------------------------------------------------------------------------
# Fourier scans
# ---------------------------------------------------------------------------


def test_scan_matches_direct_exponentials():
    rng = random.Random(25)
    f = random_function(rng, -20, 20)
    base = list(range(-4, 5))
    inner = list(range(-3, 4))
    grid = 16
    scan = local_fourier_scan(f, np.array(base), np.array(inner), grid)
    expect = scan_oracle(f, base, inner, grid)
    assert np.allclose(scan.values, expect, atol=1e-10)


def test_scan_certified_error_bounds_refinement():
    # an 8x finer grid can beat the coarse maximum only within the certificate
    rng = random.Random(26)
    f = random_function(rng, -25, 25)
    base = np.arange(-3, 4)
    inner = np.arange(-4, 5)
    coarse = local_fourier_scan(f, base, inner, 32)
    fine = local_fourier_scan(f, base, inner, 256)
    gap = np.max(fine.values - coarse.values)
    assert gap <= coarse.certified_error + 1e-12


def test_scan_peak_at_character_frequency():
    f = BoundedFunction.character(Fraction(3, 7), -40, 40)
    scan = local_fourier_scan(f, np.array([0]), np.arange(-6, 7), 28)
    # e(n * 3/7) * e(n * k/28) is constant when k/28 = -3/7, i.e. k = 16
    assert scan.argmax[0] == 16
    assert abs(scan.values[0] - 1.0) < 1e-12


def test_scan_grid_too_coarse():
    f = BoundedFunction.indicator(np.arange(-10, 11))
    with pytest.raises(ValueError, match="too coarse"):
        local_fourier_scan(f, np.array([0]), np.arange(-10, 11), 16)


def _next_prime(n: int) -> int:
    while any(n % p == 0 for p in range(2, int(n**0.5) + 1)):
        n += 1
    return n


@st.composite
def scan_cases(draw):
    if draw(st.booleans()):
        lo = draw(st.integers(-12, 0))
        inner = list(range(lo, draw(st.integers(lo, 12)) + 1))
    else:
        # sparse, unsorted, possibly repeated offsets (a repeat counts twice)
        inner = draw(st.lists(st.integers(-12, 12), min_size=1, max_size=9))
    g0 = 4 * (max(abs(n) for n in inner) + 1)
    kind = draw(st.sampled_from(["exact", "prime", "odd-multiple", "power-of-two"]))
    grid = {
        "exact": g0,
        "prime": _next_prime(g0),
        "odd-multiple": g0 * draw(st.sampled_from([3, 5])),
        "power-of-two": 1 << (g0 - 1).bit_length(),
    }[kind]
    base = sorted(draw(st.sets(st.integers(-15, 15), min_size=1, max_size=6)))
    seed = draw(st.integers(0, 2**32 - 1))
    real = draw(st.booleans())
    vals_rng = np.random.default_rng(seed)
    support = np.arange(-30, 31)
    values = vals_rng.uniform(-1, 1, support.size).astype(np.complex128)
    if not real:
        values *= np.exp(2j * np.pi * vals_rng.uniform(0, 1, support.size))
    return BoundedFunction(support, values), base, inner, grid


@settings(max_examples=150, deadline=None)
@given(scan_cases())
def test_fft_scan_matches_dense_oracle(case):
    f, base, inner, grid = case
    scan = local_fourier_scan(f, np.array(base), np.array(inner), grid)
    expect, _ = dense_scan_oracle(f, base, inner, grid)
    assert np.max(np.abs(scan.values - expect)) <= 1e-12
    # the reported index attains the maximum; for real f it may be either
    # of k and grid - k, so the index itself is not compared
    for i, a in enumerate(base):
        top = abs(literal_fourier(f, a, inner, int(scan.argmax[i]), grid))
        assert abs(top - scan.values[i]) <= 1e-12


@pytest.mark.parametrize("grid", [48, 64, 65])
def test_scan_budget_edge(grid):
    # one work unit per FFT operation: |A| * grid * ceil(log2 grid)
    f = random_function(random.Random(29), -30, 30)
    base, inner = np.arange(-3, 4), np.arange(-5, 6)
    cost = base.size * grid * (grid - 1).bit_length()
    scan = local_fourier_scan(f, base, inner, grid, budget=cost)
    assert scan.values.shape == (base.size,)
    with pytest.raises(BudgetExceeded, match="fourier scan needs") as refused:
        local_fourier_scan(f, base, inner, grid, budget=cost - 1)
    e = refused.value
    assert (e.what, e.unit, e.spent, e.budget) == ("fourier scan", "units", cost, cost - 1)


def test_grid_maxima_meter_each_chunk():
    # charged chunk by chunk: a budget that covers the first chunk but not the
    # second yields the first and refuses the second at the running total
    f = random_function(random.Random(28), -30, 30)
    points, inner, grid = np.arange(-50, 50), np.arange(-5, 6), 4096
    step = chunk_rows(grid)
    total = points.size * grid * (grid - 1).bit_length()
    assert len(list(fourier_grid_maxima(f, points, inner, grid, budget=total))) == 2
    scan = fourier_grid_maxima(f, points, inner, grid, budget=total - 1)
    assert next(scan)[0].tolist() == points[:step].tolist()
    with pytest.raises(BudgetExceeded) as refused:
        next(scan)
    e = refused.value
    assert (e.what, e.unit, e.spent, e.budget) == ("fourier scan", "units", total, total - 1)


_THREAD_PROBE = """
import hashlib
import numpy as np
from bohrkit.functions import BoundedFunction
from bohrkit.gowers import local_fourier_scan, u2_fourth_correlation, u2_fourth_direct
from bohrkit.patterns import count_T_s
rng = np.random.default_rng(31)
support = np.arange(-1200, 1201)
f, _ = BoundedFunction.balanced_indicator(rng.choice(support, 900, replace=False), support)
scan = local_fourier_scan(f, np.arange(-1000, 1001), np.arange(-50, 51), 512)
fourth = u2_fourth_correlation(f, np.arange(-1000, 1001), np.arange(-15, 16), np.arange(-4, 5))
direct = u2_fourth_direct(f, np.arange(-1000, 1001), np.arange(-4, 5), np.arange(-15, 16))
g = BoundedFunction(support, np.exp(2j * np.pi * rng.random(support.size)))
t = count_T_s(g, np.arange(-1000, 1001), [np.arange(-5, 6), np.arange(-3, 4), np.arange(-2, 3)])
print(hashlib.sha256(scan.values.tobytes() + scan.argmax.tobytes()).hexdigest(), fourth.hex(),
      direct.hex(), t.real.hex(), t.imag.hex())
"""


def test_scan_bytes_do_not_depend_on_thread_count():
    src = str(Path(__file__).resolve().parent.parent / "src")
    digests = []
    for threads in ("1", "4"):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _THREAD_PROBE],
            env=env, capture_output=True, text=True, check=True,
        )
        digests.append(proc.stdout.strip())
    assert len(digests[0].split()[0]) == 64 and digests[0] == digests[1]


def test_inverse_average_is_mean_square():
    rng = random.Random(27)
    f = random_function(rng, -15, 15)
    base = np.arange(-3, 4)
    inner = np.arange(-2, 3)
    scan = local_fourier_scan(f, base, inner, 12)
    avg = inverse_average(f, base, inner, 12)
    assert avg == pytest.approx(float(np.mean(scan.values**2)))


# ---------------------------------------------------------------------------
# the inverse implication end to end
# ---------------------------------------------------------------------------


def _singleton(spec_m=1):
    spec = BohrSpec((Fraction(1),), Fraction(1, 2), Fraction(spec_m))
    return BohrSet.from_spec(spec)


def test_inverse_check_passes_on_trivial_inners():
    # inners {0}: norm^4 = E|f|^4 and the grid average is E|f|^2 at k = 0
    rng = random.Random(28)
    base = BohrSet.from_spec(BohrSpec((Fraction(1),), Fraction(1, 2), Fraction(40)))
    inner1 = BohrSet.from_spec(base.spec.dilate(Fraction(1, 10**7)))
    inner2 = BohrSet.from_spec(inner1.spec.dilate(Fraction(1, 1000)))
    assert inner1.size == 1 and inner2.size == 1
    support = base.elements
    values = np.array([rng.uniform(0.5, 1.0) + 0j for _ in support])
    f = BoundedFunction(support, values)
    norm = u2_fourth_correlation(f, base.elements, inner1.elements, inner2.elements) ** 0.25
    check = check_inverse_theorem(f, base, inner1, inner2, Fraction(norm), grid=8)
    assert check.status == "pass"
    assert check.norm >= float(check.eta) - 1e-9


def test_inverse_check_hypothesis_not_met():
    base = _singleton(10)
    f = BoundedFunction.indicator(base.elements)
    check = check_inverse_theorem(f, base, base, base, Fraction(1, 2), grid=256)
    assert check.status == "hypothesis-not-met"
    assert any("c1" in r for r in check.reasons)
