"""Additive configurations: finding, counting, and the structure dichotomy.

An *s-configuration* inside a set ``A`` is the value set
``{n_i + n_j + a : 1 <= i <= j <= s}`` for integers ``a`` and pairwise
distinct ``n_1, ..., n_s``; all ``s(s+1)/2`` sums must land in ``A``.

Two search modes are provided, on one shifted-AND kernel. The *extent* mode
uses the midpoint representation: writing ``x_i = 2 n_i + a``, a
configuration in ``A`` is the same thing as ``s`` distinct elements of ``A``
whose pair sums all lie in ``2A`` (each pair then shares a parity and has
its midpoint in ``A``). The extent finder and counter walk chosen elements:
choosing ``y`` keeps the larger candidates in ``2A - y``, one AND of the
candidate bitset with a shifted copy of ``2A``; the sumfree search in
:mod:`bohrkit.sumfree` keeps those outside ``A - y``. On a sparse set, where
that shift would read more words than the set has elements, the bitsets are
over ranks and the candidates that pair with ``y`` are looked up once per
``y`` (for consecutive ``y`` in one block), so the cost follows the size of
the set, not its range. A choice that leaves fewer candidates than points
still to choose is not made. The *restricted* mode takes ``a`` from a base
set and ``n_i`` from per-index inner sets, which is what the counting
operator's domain looks like.

The restricted mode walks offset tuples. For a fixed tuple the valid base
points are ``base ∩ ⋂_{i<=j} (A - n_i - n_j)``: an AND of shifted copies of
the indicator of ``A``. Both ``A`` and the base are packed into Python-int
bitsets over one window of base points, clipped to the ``a`` that can work
at all; walking the offset prefixes depth first, each prefix carries the
running AND as its mask, and an empty mask cuts the whole subtree. In both
modes one unit of work is one 64-bit word read (see :class:`ShiftedAndKernel`).

The counting operator for a family of bounded functions ``f_ij`` is

    T_s = E_{a in base} E_{n_1 in N_1} ... E_{n_s in N_s}
              prod_{i <= j} f_ij(n_i + n_j + a)

evaluated one offset at a time: sum out ``n_s`` with the factors that hold
it, then ``n_{s-1}``, ..., then ``n_1``, each step one ``einsum(...,
optimize=False)`` over the base axis, under an explicit work budget, in
chunks of :func:`bohrkit.bohr.chunk_rows`, after checking that every sum it
forms fits int64. For the indicator of a set the same bitset walk gives the
tuple count as an exact integer, a sum of mask popcounts.

Finders never report a false "none": exceeding a work budget yields
status "inconclusive" with the work spent.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bohr import (
    COUNT_BUDGET,
    INT64_MAX,
    INT64_MIN,
    BohrSet,
    BudgetExceeded,
    ElementsLike,
    as_elements,
    certificates,
    charge,
    chunk_rows,
    exact_density,
    infer_dilation,
    require_int64,
    sorted_distinct,
    sorted_lookup,
    translate_counts,
)
from .exact import Wired, wire
from .functions import BoundedFunction
from .gowers import u2_fourth_correlation

_AXES = "aijklmn"  # einsum axes of count_T_s: the base point, then n_1, ..., n_6
WORD_BUDGET = 10**8  # default 64-bit words a configuration search may read
_FINDER_STATUSES = ("found", "none", "inconclusive")  # vocabularies checked on construction
_FINDER_MODES = ("extent", "restricted")
_DICHOTOMY_KINDS = ("small-bohr", "local-increment", "large-u2", "violation", "no-case")


class PreconditionError(ValueError):
    """A required hypothesis failed and the caller asked for enforcement."""


# ---------------------------------------------------------------------------
# configurations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Configuration:
    """A witness ``(a, (n_1, ..., n_s))`` with the ``n_i`` pairwise distinct."""

    a: int
    ns: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.ns)) != len(self.ns):
            raise ValueError("configuration offsets must be pairwise distinct")

    @property
    def s(self) -> int:
        return len(self.ns)

    def elements(self) -> list[int]:
        """Sorted distinct values ``n_i + n_j + a`` over ``i <= j``."""
        return sorted({self.a + x + y for i, x in enumerate(self.ns) for y in self.ns[i:]})

    def as_dict(self) -> dict:
        return {"a": self.a, "ns": list(self.ns), "elements": self.elements()}


def verify_configuration(subset: np.ndarray, config: Configuration, s: int) -> bool:
    """All sums in the set, offsets distinct, arity as requested."""
    if config.s != s:
        return False
    sums = config.elements()  # ascending
    if sums and not (INT64_MIN <= sums[0] and sums[-1] <= INT64_MAX):
        return False  # a sum outside int64 is in no int64 set
    return bool(np.all(sorted_lookup(sorted_distinct(subset), sums)[1]))


@dataclass(frozen=True)
class FinderResult(Wired):
    """Outcome of a configuration search.

    ``status`` is ``found`` (with a verified witness, and only then a
    ``config``), ``none`` (the search space was exhausted), or
    ``inconclusive`` (budget ran out; never treated as freeness). ``mode``
    is ``extent`` or ``restricted``.
    """

    status: str
    config: Optional[Configuration]
    work: int
    budget: int
    mode: str

    def __post_init__(self) -> None:
        known = self.status in _FINDER_STATUSES and self.mode in _FINDER_MODES
        if not known or (self.config is None) == (self.status == "found"):
            raise ValueError(f"finder result {self.status!r} ({self.mode}), config {self.config}")

    def as_dict(self) -> dict:
        out = super().as_dict()
        if self.config is None:
            del out["config"]
        return out


def _extent_elements(subset: ElementsLike, s: int) -> np.ndarray:
    """Sorted distinct elements of the set, once ``s`` is checked."""
    if s < 2:
        raise ValueError("configurations need s >= 2")
    return sorted_distinct(subset)


def find_configuration(
    subset: ElementsLike, s: int, *, budget: int = WORD_BUDGET
) -> FinderResult:
    """Lexicographically first s-configuration in ``subset``, extent search.

    Searches distinct ``x_1 < ... < x_s`` in the set whose pair sums all lie
    in ``2A`` (the kernel's element walk), then maps back through
    ``a = x_1 mod 2``, ``n_i = (x_i - a) / 2``. Work is counted in 64-bit
    words read; past the budget the result is ``inconclusive`` with the
    words spent, never "none".
    """
    xs = _extent_elements(subset, s)
    kernel = ShiftedAndKernel(budget)
    try:
        kernel.pack_elements(xs, midpoints=True, avoid=False)
        found = kernel.first_subset(s)
    except BudgetExceeded:
        return FinderResult("inconclusive", None, kernel.work, budget, "extent")
    if found is None:
        return FinderResult("none", None, kernel.work, budget, "extent")
    a = found[0] % 2
    cfg = Configuration(a, tuple((x - a) // 2 for x in found))
    assert verify_configuration(xs, cfg, s)
    return FinderResult("found", cfg, kernel.work, budget, "extent")


def count_configurations(subset: ElementsLike, s: int, *, budget: int = WORD_BUDGET) -> int:
    """Exhaustive count of distinct s-configurations inside the set.

    Counts extent tuples ``x_1 < ... < x_s`` (same parity, all pairwise
    midpoints in the set); each corresponds to exactly one ``(a, ns)``. The
    walk is :func:`find_configuration`'s, run to the end, so the budget in
    words guards the whole enumeration (:class:`BudgetExceeded` rather than
    an undercount).
    """
    xs = _extent_elements(subset, s)
    kernel = ShiftedAndKernel(budget)
    kernel.pack_elements(xs, midpoints=True, avoid=False)
    return kernel.count_subsets(s)


def _words(bits: int) -> int:
    return max(1, (bits + 63) >> 6)


def _pack(positions: np.ndarray) -> int:
    """Python-int bitset with bit ``p`` set for each non-negative position.

    The bits are set in one boolean array over ``[0, max]`` and packed with
    bit ``p`` at bit ``p % 8`` of byte ``p // 8``, so the temporary holds one
    byte per bit of span; the kernel charges the words it writes separately.
    """
    if positions.size == 0:
        return 0
    bits = np.zeros(int(positions.max()) + 1, dtype=bool)
    bits[positions] = True
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


class ShiftedAndKernel:
    """Configuration and sumfree searches as ANDs of bitsets, in two walks.

    Bit ``k`` of a mask is the point ``lo + k``; the targets are packed from
    ``lo + tmin`` on, so the points ``p`` with ``p + t`` a target are one
    right shift of ``abits`` by ``t - tmin``. :meth:`pack` loads the walk
    over offset tuples (targets ``A``, points the base points whose every
    ``a + 2 n_i`` lies in the range of ``A``). :meth:`pack_elements` loads
    the walk over chosen elements, where choosing ``y`` ANDs the candidates
    with its *row*, the larger elements that pair with it: on a dense set
    one shift of the qualifying offset pair sums, on a sparse set (where that
    shift reads more words than the set has elements) a bitset over ranks
    built once per ``y`` by lookups.

    The element walk chooses ``k`` points by cardinality: at depth ``d`` a
    choice still needs ``k - d`` points, itself and ``k - d - 1`` of the
    larger candidates that pair with it. So the loop at a depth stops once
    fewer than ``k - d`` candidates are left (each mask's popcount is taken
    once, then counted down), and it does not descend into fewer than
    ``k - d - 1``. For ``k = 2`` that is the whole walk; for larger ``k`` it
    skips only subtrees that hold no subset, so answers are unchanged.

    Work is in 64-bit words: packing costs the words it writes, a shifted
    AND the words of the shifted copy it reads (for the offset walk, cut
    below the best witness once one is known), a rank row one word per
    element it looks up, charged when the walk first reads it, then its own
    words per AND. Rank rows are built ahead in blocks of consecutive rows
    where the walk reads them in order (:meth:`_build_rows`), never more
    than the rest of the budget pays for, and building a row charges
    nothing: the words spent and the point of refusal are those of a walk
    that builds each row alone.
    :class:`BudgetExceeded` is raised as soon as the budget is passed.
    """

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.work = 0
        self.base_mask = 0

    def _charge(self, words: int) -> None:
        self.work += words
        charge("bitset kernel", "words", self.work, self.budget)

    def pack(self, xs: np.ndarray, bs: np.ndarray, inners: list[list[int]]) -> None:
        """Load ``A`` and the base (sorted, distinct) and the inner sets."""
        self.inners = inners
        if xs.size == 0 or bs.size == 0 or not all(inners):
            return
        lows = [min(x) for x in inners]
        highs = [max(x) for x in inners]
        self.tmin = 2 * min(lows)
        self.span = 2 * max(highs) - self.tmin
        self.lo = max(int(bs[0]), int(xs[0]) - 2 * min(highs))
        hi = min(int(bs[-1]), int(xs[-1]) - 2 * max(lows))
        if self.lo > hi:
            return
        origin = self.lo + self.tmin
        self._charge(_words(hi - self.lo + 1) + _words(hi - self.lo + 1 + self.span))
        self.base_mask = _pack(bs[(bs >= self.lo) & (bs <= hi)] - self.lo)
        self.abits = _pack(xs[(xs >= origin) & (xs <= hi + self.tmin + self.span)] - origin)

    def pack_elements(self, xs: np.ndarray, *, midpoints: bool, avoid: bool) -> None:
        """Load a sorted distinct set ``A`` for the element walk.

        A pair ``x, y`` qualifies when ``(x + y) / 2`` (with ``midpoints``)
        or ``x + y`` is in ``A``; with ``avoid``, when it is not.
        """
        self.xs, self.midpoints, self.avoid = xs, midpoints, avoid
        self.rows: dict[int, int] = {}  # rank rows read so far, each charged
        self.built: dict[int, int] = {}  # rank rows built in a block, not yet read
        if xs.size == 0:
            return
        span = int(xs[-1]) - int(xs[0])
        self.ranked = _words(2 * span + 1) > xs.size
        if self.ranked:
            self.base_mask = (1 << xs.size) - 1
            return
        self.lo = self.tmin = 0
        d = xs - xs[0]  # offsets, exact: the span is small here
        if midpoints:  # x + y = 2a exactly when dx + dy = 2 da
            targets = 2 * d
        else:  # x + y = a exactly when dx + dy = da - x0, kept in [0, 2 span]
            x0 = int(xs[0])
            low, high = min(max(x0, 0), span + 1), max(min(2 * span + x0, span), -1)
            targets = d[(d >= low) & (d <= high)] - x0
        self._charge(_words(span + 1) + _words(2 * span + 1))
        self.base_mask, self.abits = _pack(d), _pack(targets)
        if avoid:
            self.abits ^= (1 << (2 * span + 1)) - 1

    def and_shifted(self, mask: int, t: int) -> int:
        """``mask`` restricted to the points ``p`` with ``p + t`` a target."""
        sh = t - self.tmin
        self._charge(_words(self.abits.bit_length() - sh))
        return mask & (self.abits >> sh)

    def _rank_row(self, i: int) -> int:
        """Ranks above ``i`` whose elements pair with the ``i``-th.

        Charged one word per element above ``i`` when first read, whether or
        not :meth:`_build_rows` built it earlier in a block; then its own
        words per AND.
        """
        row = self.rows.get(i)
        if row is None:
            self._charge(self.xs.size - i - 1)
            if i not in self.built:
                self._build_rows(i)
            row = self.rows[i] = self.built.pop(i)
        self._charge(_words(row.bit_length()))
        return row

    def _build_rows(self, i: int) -> None:
        """Rows ``i, i + 1, ...`` in one block over the ranks above ``i``.

        The block holds row ``i`` and at most as many rows after it as the
        walk has read in a run right below ``i``: a walk that reads rows in
        order builds blocks that double, and one that reads them apart, or
        stops early, builds them one at a time. It stops before the first row
        already built, holds at most 2^18 entries
        (:func:`bohrkit.bohr.chunk_rows`), and its rows after ``i`` hold no
        more lookups than the rest of the budget pays for. One lookup of its
        pair targets, one mask of the ranks above each row and one
        ``packbits`` build every row.
        """
        xs = self.xs
        width = xs.size - i - 1
        run = 0
        while i - run - 1 in self.rows:
            run += 1
        end = i + min(chunk_rows(width), width, 1 + run, 1 + (self.budget - self.work) // width)
        stop = i + 1
        while stop < end and stop not in self.rows and stop not in self.built:
            stop += 1
        ys, above = xs[i:stop, None], xs[i + 1:]
        upper = np.arange(i + 1, xs.size) > np.arange(i, stop)[:, None]  # the ranks above a row's
        if self.midpoints:  # a pair of one parity has midpoint ceil(x / 2) + floor(y / 2)
            target = (above - (above >> 1)) + (ys >> 1)
            looked = upper & ((above & 1) == (ys & 1))
        else:  # x + y wraps only past the int64 range, where A has nothing
            target = above + ys
            looked = upper & (((above ^ target) & (ys ^ target)) >= 0)
        hit = np.zeros_like(upper)
        hit[looked] = sorted_lookup(xs, target[looked])[1]
        hit = upper & (hit != self.avoid)
        for r, packed in enumerate(np.packbits(hit, axis=1, bitorder="little"), start=i):
            self.built[r] = int.from_bytes(packed.tobytes(), "little") << (i + 1)

    def _extend(self, prefix: list[int], n: int, mask: int) -> int:
        """AND in every offset sum the new offset ``n`` adds to the prefix."""
        for p in prefix:
            mask = self.and_shifted(mask, p + n)
            if not mask:
                return 0
        return self.and_shifted(mask, 2 * n)

    def first_witness(self) -> Optional[Configuration]:
        """Smallest ``a``, then the first offsets in inner order; distinct offsets."""
        s = len(self.inners)
        best: Optional[Configuration] = None

        def walk(prefix: list[int], mask: int) -> None:
            nonlocal best
            for n in self.inners[len(prefix)]:
                if n in prefix:
                    continue
                if best is not None:
                    # only base points below the best witness can still win
                    mask &= (1 << (best.a - self.lo)) - 1
                    if not mask:
                        return
                m = self._extend(prefix, n, mask)
                if not m:
                    continue
                if len(prefix) + 1 < s:
                    walk(prefix + [n], m)
                    continue
                k = (m & -m).bit_length() - 1
                best = Configuration(self.lo + k, tuple(prefix + [n]))
                self.abits &= (1 << (k + self.span)) - 1

        if self.base_mask:
            walk([], self.base_mask)
        return best

    def count(self) -> int:
        """Sum of ``popcount(mask)`` over all offset tuples, repeats included."""
        s = len(self.inners)

        def walk(prefix: list[int], mask: int) -> int:
            total = 0
            for n in self.inners[len(prefix)]:
                m = self._extend(prefix, n, mask)
                if not m:
                    continue
                total += m.bit_count() if len(prefix) + 1 == s else walk(prefix + [n], m)
            return total

        return walk([], self.base_mask) if self.base_mask else 0

    def _choices(self, cand: int, left: int, need: int) -> Iterator[tuple[int, int, int]]:
        """Each candidate point ascending that can still start ``need`` points,
        with the larger ones that pair with it when they can finish them.

        ``left`` is the popcount of ``cand``, and each ``rest`` comes with
        its own, so every mask is counted once. A point starts ``need`` points
        only with ``need - 1`` candidates above it, so the walk stops once
        fewer than ``need`` are left, and it yields no ``rest`` smaller than
        ``need - 1``. With ``need >= 2`` the largest candidate is never
        chosen: nothing above it pairs with it.
        """
        while left >= need:
            low = cand & -cand
            cand ^= low
            left -= 1
            p = low.bit_length() - 1
            rest = cand & self._rank_row(p) if self.ranked else self.and_shifted(cand, p)
            size = rest.bit_count()
            if size >= need - 1:
                yield p, rest, size

    def first_subset(self, k: int) -> Optional[list[int]]:
        """First ``k``-subset of ``A``, ascending, whose pairs all qualify;
        lexicographic order."""

        def walk(prefix: list[int], cand: int, left: int) -> Optional[list[int]]:
            if len(prefix) + 1 == k:
                return prefix + [(cand & -cand).bit_length() - 1]
            for p, rest, size in self._choices(cand, left, k - len(prefix)):
                found = walk(prefix + [p], rest, size)
                if found:
                    return found
            return None

        mask = self.base_mask
        found = walk([], mask, mask.bit_count()) if mask else None
        if found is None:
            return None
        return self.xs[found].tolist() if self.ranked else [int(self.xs[0]) + p for p in found]

    def count_subsets(self, k: int) -> int:
        """Number of such subsets: candidate popcounts over ``(k - 1)``-prefixes."""

        def walk(depth: int, cand: int, left: int) -> int:
            if depth + 1 == k:
                return left
            choices = self._choices(cand, left, k - depth)
            return sum(walk(depth + 1, rest, size) for _, rest, size in choices)

        mask = self.base_mask
        return walk(0, mask, mask.bit_count()) if mask else 0


def find_configuration_restricted(
    subset: ElementsLike,
    base: ElementsLike,
    inners: Sequence[ElementsLike],
    *,
    budget: int = WORD_BUDGET,
) -> FinderResult:
    """First s-configuration with ``a`` in the base and ``n_i`` in ``inners[i]``.

    The witness is the lexicographically first one: the smallest ``a``, then
    the first offset tuple in inner order, each inner set taken ascending and
    offsets already chosen skipped. The search runs on bitsets: offset
    prefixes are walked depth first, each carrying the set of base points
    that satisfy all its sums as an AND of shifted copies of ``1_A``. A
    subtree is cut when its mask is empty or holds no point below the best
    witness so far, and later masks are truncated below that witness.

    One unit of work is one 64-bit word read by a shifted AND (packing the
    window costs its words too), so a budget in words bounds wall time.
    "none" is reported only after the walk has finished.
    """
    s = len(inners)
    if s < 2:
        raise ValueError("configurations need s >= 2")
    xs = sorted_distinct(subset)
    bs = sorted_distinct(base)
    inner_lists = [sorted_distinct(x).tolist() for x in inners]
    kernel = ShiftedAndKernel(budget)
    try:
        kernel.pack(xs, bs, inner_lists)
        cfg = kernel.first_witness()
    except BudgetExceeded:
        return FinderResult("inconclusive", None, kernel.work, budget, "restricted")
    if cfg is None:
        return FinderResult("none", None, kernel.work, budget, "restricted")
    assert verify_configuration(xs, cfg, s)
    return FinderResult("found", cfg, kernel.work, budget, "restricted")


# ---------------------------------------------------------------------------
# the counting operator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FunctionFamily:
    """Bounded functions ``f_ij`` indexed by pairs ``1 <= i <= j <= s``."""

    s: int
    table: dict

    @classmethod
    def uniform(cls, f: BoundedFunction, s: int) -> "FunctionFamily":
        return cls(s, {(i, j): f for i in range(1, s + 1) for j in range(i, s + 1)})

    def get(self, i: int, j: int) -> BoundedFunction:
        return self.table[(i, j)]


def _tuple_space(
    base: ElementsLike, inners: Sequence[ElementsLike]
) -> tuple[np.ndarray, list[np.ndarray], int]:
    """The base and inner arrays and the tuple-space size ``|base| * prod |N_i|``,
    checked: at least two inner sets, none empty."""
    if len(inners) < 2:
        raise ValueError("need at least two inner sets")
    a = as_elements(base)
    ns = [as_elements(x) for x in inners]
    if a.size == 0 or min(x.size for x in ns) == 0:
        raise ValueError("base and inner sets must be nonempty")
    return a, ns, a.size * math.prod(x.size for x in ns)


def count_T_s(
    family: Union[FunctionFamily, BoundedFunction],
    base: ElementsLike,
    inners: Sequence[ElementsLike],
    *,
    budget: int = COUNT_BUDGET,
) -> complex:
    """Average of ``prod_{i<=j} f_ij(n_i + n_j + a)`` over the tuple space.

    Sums out ``n_s``, then ``n_{s-1}``, ..., then ``n_1``: each step is one
    ``einsum`` of the running sum and the factors that hold that offset, each
    ``f_ik`` looked up once per distinct ``n_i + n_k`` and spread to its grid.
    Chunked over the base axis by :func:`bohrkit.bohr.chunk_rows` of the widest
    array a row builds (a grid or the running sum). The whole tuple space is
    charged against ``budget`` in operations before anything is counted, and
    every sum ``a + 2 n_i`` and ``a + n_i + n_j`` is checked to fit int64
    before anything is allocated.
    """
    a, ns, cost = _tuple_space(base, inners)
    charge("counting", "operations", cost, budget)
    s = len(ns)
    if s >= len(_AXES):
        raise ValueError(f"s = {s} too large for dense counting")
    if isinstance(family, BoundedFunction):
        family = FunctionFamily.uniform(family, s)
    if family.s != s:
        raise ValueError("family arity does not match the inner sets")
    ext = [(int(x.min()), int(x.max())) for x in (a, *ns)]
    for i, j in itertools.combinations_with_replacement(range(1, s + 1), 2):
        require_int64("counting", ext[0], ext[i], ext[j])
    sizes = [x.size for x in ns]
    spread = {}  # (i, k): the distinct n_i + n_k, their grid index, whether a sliding view
    for i, k in itertools.combinations(range(s), 2):
        offsets = ns[i][:, None] + ns[k][None, :]
        q = sorted_distinct(offsets)
        qidx = sorted_lookup(q, offsets)[0]
        run = np.array_equal(qidx, np.arange(sizes[i])[:, None] + np.arange(sizes[k]))
        spread[i, k] = q, qidx, run
    step = chunk_rows(max(math.prod(sizes[:-1]), *(sizes[i] * sizes[k] for i, k in spread)))
    vals = np.empty(a.size, dtype=np.complex128)
    for lo in range(0, a.size, step):
        chunk = a[lo : lo + step]
        ops, subs = [], []  # after the step that sums out n_k: the running sum alone
        for k in reversed(range(s)):
            ops.append(family.get(k + 1, k + 1).gather(chunk[:, None] + 2 * ns[k][None, :]))
            subs.append("a" + _AXES[k + 1])
            for i in range(k):
                q, qidx, run = spread[i, k]
                g = family.get(i + 1, k + 1).gather(chunk[:, None] + q[None, :])
                ops.append(sliding_window_view(g, sizes[k], axis=1) if run else g[:, qidx])
                subs.append("a" + _AXES[i + 1] + _AXES[k + 1])
            out = _AXES[: k + 1]
            ops, subs = [np.einsum(",".join(subs) + "->" + out, *ops, optimize=False)], [out]
        vals[lo : lo + step] = ops[0]
    return complex(np.mean(vals / (cost // a.size)))


def count_patterns_exact(
    subset: ElementsLike,
    base: ElementsLike,
    inners: Sequence[ElementsLike],
    *,
    budget: int = WORD_BUDGET,
) -> tuple[int, Fraction]:
    """Exact tuple count and density for the indicator of ``subset``.

    Returns ``(count, count / (|base| * prod |N_i|))``. The count is an
    integer by construction: the sum over every offset tuple, repeated
    offsets included as in the dense contraction, of the popcount of
    ``base ∩ ⋂_{i<=j} (A - n_i - n_j)``, walked as in
    :func:`find_configuration_restricted`, and like it metered in 64-bit words
    read against ``budget`` (``WORD_BUDGET`` by default, as every word meter);
    the tuple space itself is not charged.
    """
    a, ns, cost = _tuple_space(base, inners)
    bs = sorted_distinct(a)
    if bs.size != a.size:
        raise ValueError("base points must be distinct")
    kernel = ShiftedAndKernel(budget)
    kernel.pack(sorted_distinct(subset), bs, [x.tolist() for x in ns])
    count = kernel.count()
    return count, Fraction(count, cost)


# ---------------------------------------------------------------------------
# inequality checks built on the counting operator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VonNeumannReport:
    """``|T_s|`` against the smallest admissible pairwise U2 norm."""

    t_value: complex
    norms: dict
    bound: float
    holds: bool

    def as_dict(self) -> dict:
        return {
            "t_re": self.t_value.real,
            "t_im": self.t_value.imag,
            "norms": {f"{i},{j}": v for (i, j), v in sorted(self.norms.items())},
            "bound": self.bound,
            "holds": self.holds,
            "tolerance": 1e-9,
        }


def check_von_neumann(
    family: Union[FunctionFamily, BoundedFunction],
    base: ElementsLike,
    inners: Sequence[ElementsLike],
    *,
    budget: int = COUNT_BUDGET,
) -> VonNeumannReport:
    """Check ``|T_s| <= min_{i<j} ||f_ij||_{U2(base, N_i, N_j)}``.

    The inequality is unconditional for finite sets (two Cauchy-Schwarz
    steps, all other factors bounded by one), so it is asserted with only a
    1e-9 roundoff allowance.
    """
    s = len(inners)
    if isinstance(family, BoundedFunction):
        family = FunctionFamily.uniform(family, s)
    t = count_T_s(family, base, inners, budget=budget)
    norms: dict = {}
    for i in range(1, s + 1):
        for j in range(i + 1, s + 1):
            fourth = u2_fourth_correlation(
                family.get(i, j), base, inners[i - 1], inners[j - 1], budget=budget
            )
            norms[(i, j)] = fourth**0.25
    bound = min(norms.values())
    holds = abs(t) <= bound + 1e-9
    return VonNeumannReport(t_value=t, norms=norms, bound=bound, holds=holds)


@dataclass(frozen=True)
class CountingBoundReport(Wired):
    """Configuration-freeness forces the indicator count to be tiny."""

    freeness: FinderResult
    count: Optional[int]
    t_value: Optional[Fraction]
    bound: Fraction
    holds: Optional[bool]


def check_counting_bound(
    subset: ElementsLike,
    base: ElementsLike,
    inners: Sequence[ElementsLike],
    *,
    budget: int = WORD_BUDGET,
) -> CountingBoundReport:
    """If no configuration lives on the restricted domain, ``T_s(1_A) <= s^2/|N_s|``.

    Only tuples with a repeated offset can contribute, and with nested inner
    sets each collision event has probability at most ``1/|N_s|``. The
    comparison is exact: both sides are rationals. ``budget`` is the exact
    count's, in 64-bit words read (``WORD_BUDGET`` by default); the freeness
    search runs at its own default.
    """
    s = len(inners)
    sizes = [as_elements(x).size for x in inners]
    bound = Fraction(s * s, sizes[-1])
    freeness = find_configuration_restricted(subset, base, inners)
    if freeness.status != "none":
        return CountingBoundReport(freeness, None, None, bound, None)
    count, t = count_patterns_exact(subset, base, inners, budget=budget)
    return CountingBoundReport(freeness, count, t, bound, t <= bound)


# ---------------------------------------------------------------------------
# the structure dichotomy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DichotomyOutcome:
    """Which branch fired, with what the scan measured on the way.

    ``kind`` is one of ``small-bohr``, ``local-increment``, ``large-u2``,
    ``violation`` (every branch scanned clean *and* every precondition was
    certified) or ``no-case`` (branches clean but some precondition was not
    certified, so nothing is claimed). ``freeness`` is the restricted search
    the preconditions read and ``inner_sizes`` the sizes ``|N_i|``. Branch
    2's witness is the base point ``a`` whose doubled translate ``a + 2 N_i``
    (``i = inner_index``) lies in the base and holds the subset at
    ``new_density``; ``norms`` are the balanced U2 norms of
    :attr:`scanned_pairs`, in scan order. No threshold is stored: the report
    form derives each from ``(s, delta)``.
    """

    kind: str
    s: int
    delta: Fraction
    unmet: tuple[str, ...]
    freeness: FinderResult
    inner_sizes: tuple[int, ...]
    inner_index: Optional[int] = None
    a: Optional[int] = None
    new_density: Optional[Fraction] = None
    norms: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _DICHOTOMY_KINDS:
            raise ValueError(f"unknown dichotomy kind {self.kind!r}")

    @property
    def scanned_pairs(self) -> tuple[tuple[int, int], ...]:
        """The pairs ``(i, j)``, ``i < j``, whose norms were scanned; for
        ``large-u2`` the last is the large one."""
        return tuple(itertools.combinations(range(1, self.s + 1), 2))[: len(self.norms)]

    def as_dict(self) -> dict:
        s, delta = self.s, self.delta
        data = {"freeness": wire(self.freeness), "inner_sizes": wire(self.inner_sizes)}
        if self.kind == "small-bohr":
            threshold = wire(smallness_bound(s, delta))
            data["small"] = {"size": self.inner_sizes[-1], "threshold": threshold}
        elif self.kind == "local-increment":
            data["increment"] = {
                "inner_index": self.inner_index,
                "a": self.a,
                "new_density": wire(self.new_density),
                "required": wire(delta * increment_factor(s)),
            }
        else:
            norms = {f"{i},{j}": v for (i, j), v in zip(self.scanned_pairs, self.norms)}
            threshold = wire(u2_threshold(s, delta))
            if self.kind == "large-u2":
                data["large_u2"] = {
                    "pair": list(self.scanned_pairs[-1]),
                    "norm": self.norms[-1],
                    "threshold": threshold,
                    "norms_scanned": norms,
                }
            else:
                data.update(norms_scanned=norms, u2_threshold=threshold)
        out = {"kind": self.kind, "s": s, "delta": wire(delta), "unmet": wire(self.unmet)}
        return {**out, "data": data}


def smallness_bound(s: int, delta: Fraction) -> Fraction:
    """The small-Bohr threshold ``32 s^2 / delta^(s(s+1)/2)`` on ``|N_s|``."""
    return Fraction(32 * s * s) / delta ** (s * (s + 1) // 2)


def increment_factor(s: int) -> Fraction:
    """The local-increment factor ``1 + 1/(8 s^2)`` on the density."""
    return 1 + Fraction(1, 8 * s * s)


def u2_threshold(s: int, delta: Fraction) -> Fraction:
    """The large-norm threshold ``delta^(s(s+1)/2) / (32 s^2)``."""
    return delta ** (s * (s + 1) // 2) / (32 * s * s)


def dichotomy(
    subset: ElementsLike,
    base: BohrSet,
    inner_sets: Sequence[BohrSet],
    *,
    enforce: bool = True,
    budget: int = COUNT_BUDGET,
    freeness: Optional[FinderResult] = None,
) -> DichotomyOutcome:
    """Run the four-way case scan for a configuration-free dense subset.

    ``inner_sets`` is the nested chain ``N_1 = c_1 * base``, ``N_i = c_i *
    N_{i-1}`` with each ``c_i`` in ``(0, 1]`` (``ValueError`` otherwise).
    Preconditions (freeness on the restricted domain, ``c_1 <= delta^s /
    (3200 d s^2)``, regularity of the base and every inner set, certified
    only for sets that carry no certificate) are checked first; with
    ``enforce`` they must all hold, otherwise the scan still runs and the
    unmet list is recorded; without ``freeness`` the restricted finder runs
    at its default budget. Branches are scanned in a fixed order: small
    innermost set, local density increment on a doubled translate, large
    balanced U2 norm. If no branch fires the outcome is ``violation`` only
    when every precondition was certified. ``budget`` bounds each branch-2
    translate scan (:func:`bohrkit.bohr.translate_counts`) and each U2
    evaluation, not the call: a call runs at most ``s`` translate scans and
    ``s(s-1)/2`` U2 evaluations.
    """
    s = len(inner_sets)
    if s < 2:
        raise ValueError("need at least two inner dilations")
    chain = [base, *inner_sets]
    cs = [infer_dilation(inner.spec, outer.spec) for outer, inner in zip(chain, inner_sets)]
    if any(c is None or c > 1 for c in cs):
        raise ValueError("inner sets must form a nested chain of dilates of the base")
    subset_arr = sorted_distinct(subset)
    delta = exact_density(subset_arr, base.elements)
    if delta == 0:
        raise ValueError("subset has density zero on the base")

    unmet: list[str] = []
    c1_bound = delta**s / (3200 * base.spec.dim * s * s)
    if cs[0] > c1_bound:
        unmet.append(f"c1 = {cs[0]} exceeds delta^s/(3200 d s^2) = {c1_bound}")
    names = ["base"] + [f"inner{i + 1}" for i in range(s)]
    for name, cert in zip(names, certificates(chain)):
        if not cert.verdict:
            unmet.append(f"{name} not regular (witness c = {cert.witness_c})")
    if freeness is None:
        freeness = find_configuration_restricted(subset_arr, base, inner_sets)
    if freeness.status == "found":
        unmet.append("subset is not configuration-free on the restricted domain")
    elif freeness.status == "inconclusive":
        unmet.append("freeness search inconclusive within budget")
    if unmet and enforce:
        raise PreconditionError("; ".join(unmet))

    def outcome(kind: str, **evidence) -> DichotomyOutcome:
        sizes = tuple(b.size for b in inner_sets)
        return DichotomyOutcome(kind, s, delta, tuple(unmet), freeness, sizes, **evidence)

    # branch 1: the innermost set is already small
    if Fraction(inner_sets[-1].size) <= smallness_bound(s, delta):
        return outcome("small-bohr")

    # branch 2: the first base point whose doubled translate a + 2 N_i sits
    # inside the base and carries density at least `required`
    required = delta * increment_factor(s)
    for i, bs in enumerate(inner_sets, start=1):
        need = math.ceil(bs.size * required)
        offsets = 2 * bs.elements
        scan = translate_counts((base.elements, subset_arr), base.elements, offsets, budget=budget)
        for chunk, (held, counts) in scan:
            hit = np.nonzero((held == offsets.size) & (counts >= need))[0]
            if hit.size:
                k = int(hit[0])
                density = Fraction(int(counts[k]), bs.size)
                return outcome(
                    "local-increment", inner_index=i, a=int(chunk[k]), new_density=density
                )

    # branch 3: some pairwise balanced norm is large
    balanced, _ = BoundedFunction.balanced_indicator(subset_arr, base.elements)
    threshold = float(u2_threshold(s, delta))
    norms: list[float] = []
    for i, j in itertools.combinations(range(1, s + 1), 2):
        fourth = u2_fourth_correlation(
            balanced, base, inner_sets[i - 1], inner_sets[j - 1], budget=budget
        )
        norms.append(fourth**0.25)
        if norms[-1] >= threshold:
            return outcome("large-u2", norms=tuple(norms))
    return outcome("violation" if not unmet else "no-case", norms=tuple(norms))


# ---------------------------------------------------------------------------
# generators and 3-term progression counters
# ---------------------------------------------------------------------------


def behrend_set(N: int) -> np.ndarray:
    """A 3-progression-free subset of ``[1, N]`` from sphere shells.

    Digit vectors ``x`` in base ``b`` with digits below ``(b+1)//2`` add
    without carries, so ``u + v = 2w`` forces the digitwise equation; on a
    fixed shell ``sum x_i^2 = r`` the parallelogram law then forces
    ``u = v = w``. The sweep picks the (dimension, base, shell) with the most
    elements fitting in ``[1, N]``; ties go to the smallest dimension, then
    base, then radius, over every dimension ``n >= 2`` whose full block
    ``[0, k)^n`` has at most 10^6 vectors.

    Each base's block grows one digit at a time, and a vector whose value
    ``1 + sum_i x_i b^i`` passes ``N`` is dropped as soon as it does: a
    further digit only adds to it. So every dimension is scored on exactly
    the vectors that fit, and the set is the one the sweep over full blocks
    picks, element for element.
    """
    if N < 3:
        return np.arange(1, N + 1, dtype=np.int64)
    best: Optional[tuple[tuple[int, int, int, int], np.ndarray]] = None
    for b in range(3, 13):
        k = (b + 1) // 2
        digits = np.arange(k, dtype=np.int64)
        vals, radii = np.ones(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
        n = 0
        while b**n <= N and k ** (n + 1) <= 10**6:
            vals = np.add.outer(vals, digits * b**n).ravel()
            radii = np.add.outer(radii, digits * digits).ravel()
            fits = vals <= N
            vals, radii, n = vals[fits], radii[fits], n + 1
            if n < 2:
                continue
            shells = np.bincount(radii)
            r = int(np.argmax(shells))  # the least radius of a largest shell
            key = (int(shells[r]), -n, -b, -r)
            if best is None or key > best[0]:
                best = (key, vals[radii == r])
    assert best is not None
    return np.sort(best[1])


def random_set(N: int, density: float, seed: int) -> np.ndarray:
    """Each of ``1..N`` kept independently with the given probability.

    ``n`` is kept when the ``n``-th ``random()`` of ``random.Random(seed)``
    is below ``density``. That generator's Mersenne Twister state is handed
    to numpy's ``MT19937``, whose ``random()`` forms each double from two
    32-bit outputs exactly as CPython's does, and the stream is drawn in
    chunks of :func:`bohrkit.bohr.chunk_rows`. So the set is the per-integer
    loop's, element for element, for every seed ``random.Random`` accepts.
    """
    if not (0 < density <= 1):
        raise ValueError("density must be in (0, 1]")
    # the least double not below density: a double is below one iff below the other
    cut = float(density)
    if cut < density:
        cut = math.nextafter(cut, math.inf)
    state = random.Random(seed).getstate()[1]
    bitgen = np.random.MT19937(0)  # a fixed seed reads no OS entropy; replaced below
    bitgen.state = {
        "bit_generator": "MT19937",
        "state": {"key": np.array(state[:-1], dtype=np.uint32), "pos": state[-1]},
    }
    rng, step = np.random.Generator(bitgen), chunk_rows(1)
    kept = [np.zeros(0, dtype=np.int64)]
    for lo in range(0, max(N, 0), step):
        draws = rng.random(min(step, N - lo))
        kept.append(np.flatnonzero(draws < cut) + (lo + 1))
    return np.concatenate(kept)


def count_three_aps_direct(subset: ElementsLike) -> int:
    """Nontrivial 3-term progressions ``x < y < z`` with ``x + z = 2y``."""
    xs = sorted_distinct(subset)
    members = set(xs.tolist())
    count = 0
    lst = xs.tolist()
    for ii in range(len(lst)):
        for jj in range(ii + 1, len(lst)):
            sm = lst[ii] + lst[jj]
            if sm % 2 == 0 and sm // 2 in members:
                count += 1
    return count


def count_three_aps_fft(subset: ElementsLike) -> int:
    """Same count through a convolution; rounding is checked, not assumed."""
    xs = sorted_distinct(subset)
    if xs.size == 0:
        return 0
    lo, hi = int(xs[0]), int(xs[-1])
    width = hi - lo + 1
    vec = np.zeros(width, dtype=np.float64)
    vec[xs - lo] = 1.0
    size = 1
    while size < 2 * width:
        size *= 2
    fv = np.fft.rfft(vec, size)
    conv = np.fft.irfft(fv * fv, size)
    rounded = np.rint(conv)
    if float(np.max(np.abs(conv - rounded))) >= 0.5 - 1e-6:
        raise ValueError("convolution rounding margin exhausted; use the direct count")
    total = 0
    for y in xs.tolist():
        m = 2 * y - 2 * lo
        r = int(rounded[m]) if 0 <= m < size else 0
        total += r - 1
    assert total % 2 == 0
    return total // 2
