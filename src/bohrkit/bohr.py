"""Bohr sets over the integers with exact rational arithmetic.

A Bohr set here is the set of integers ``n`` with ``|n| <= M`` and
``||n * theta_j|| <= eps`` for every frequency ``theta_j``, where ``||x||``
is the distance from ``x`` to the nearest integer. Frequencies, ``eps`` and
``M`` are exact rationals, ties are inclusive, and every membership decision
is an integer comparison. Floats never decide anything in this module.

Design principles:

  * membership is the definition read as a conjunction of integer bounds:
    ``|n| <= floor(M)`` and, for each frequency ``theta_j = p_j/q_j``,
    ``min(r, q_j - r) <= floor(eps q_j)`` with ``r = n p_j mod q_j``; a
    frequency whose bound cannot fail (``theta_j = 1``, or ``eps >= 1/2``)
    costs nothing. Residues are exact int64 for every ``q_j < 2^62``,
    however large the denominators' least common multiple: on a window of
    consecutive candidates they repeat with period ``q_j``, so one period is
    computed (by doubling when ``(n mod q_j) p_j`` could pass int64) and its
    decisions tiled; any other candidates take Horner's rule over the digits
    of ``p_j``. Only ``q_j >= 2^62`` makes an object array,
  * keys are formed only where dilates must be ordered (certificates and
    the dilation search): the *entry dilation* of ``n`` is
    ``alpha(n) = max(|n|/M, max_j ||n theta_j|| / eps)``, represented exactly
    as ``K(n) / B`` for a shared denominator ``B``; then
    ``n in (1+c) * Lambda  <=>  K(n) <= B * (1+c)``. Keys are an object
    array of exact Python integers only when a product ``|n| mult_M`` or
    ``min(r, q_j - r) mult_j`` reaches 2^62, never because of ``q_j`` alone,
  * one key index serves every dilate: ``alpha_{c Lambda}(n) =
    alpha_Lambda(n) / c``, so one sorted key array over the widest window
    answers the size of every dilate, every certificate and every candidate
    of a dilation search with ``searchsorted``,
  * regularity certificates evaluate the two-sided size bound, in integers,
    at every membership breakpoint inside the window plus the window
    endpoints and 0;
    on the positive side this is equivalent to the for-all-real-dilation
    statement (sizes are step functions jumping exactly at breakpoints, and
    both bounds are tightest at the left end of each constant piece); on the
    negative side the certificate records the largest gap between consecutive
    checked points so downstream estimates can add an explicit slack term.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional

import numpy as np

from .exact import RationalLike, Wired, as_rational, floor_frac

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1  # the int64 range, in Python ints
_INT64_SAFE = 2**62
_CHUNK_ENTRIES = 2**18  # entries in the largest array one chunk builds


class BudgetExceeded(RuntimeError):
    """Raised by :func:`charge`: ``what`` needs ``spent`` ``unit`` of work, past ``budget``."""

    def __init__(self, what: str, unit: str, spent: int, budget: int) -> None:
        super().__init__(what, unit, spent, budget)
        self.what, self.unit, self.spent, self.budget = what, unit, spent, budget

    def __str__(self) -> str:
        return f"{self.what} needs {self.spent} {self.unit}, budget {self.budget}"


def charge(what: str, unit: str, spent: int, budget: int) -> None:
    """The one budget rule: refuse ``what`` when ``spent``, its total with the work
    it is about to do already charged, passes ``budget``."""
    if spent > budget:
        raise BudgetExceeded(what, unit, spent, budget)


# default budgets, read by every signature, ``EngineLimits`` and the CLI
ENUM_LIMIT = 10**7  # candidates one Bohr-set enumeration may scan
COUNT_BUDGET = 5 * 10**8  # operations of a count, contraction or scan


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BohrSpec(Wired):
    """Exact description of a Bohr set: frequencies, width ``eps``, radius ``M``.

    ``eps >= 1/2`` or ``M < 1`` mark the description as ``degenerate`` (the torus
    constraint is vacuous, or the set collapses toward ``{0}``); degeneracy is
    a reportable flag, never an error.
    """

    theta: tuple[Fraction, ...]
    eps: Fraction
    M: Fraction

    def __post_init__(self) -> None:
        theta = tuple(as_rational(t) for t in self.theta)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "eps", as_rational(self.eps))
        object.__setattr__(self, "M", as_rational(self.M))
        if len(self.theta) < 1:
            raise ValueError("need at least one frequency")
        for t in self.theta:
            if not (0 < t <= 1):
                raise ValueError(f"frequency {t} outside (0, 1]")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.M <= 0:
            raise ValueError("M must be positive")

    @property
    def dim(self) -> int:
        return len(self.theta)

    @property
    def degenerate(self) -> bool:
        return self.eps >= Fraction(1, 2) or self.M < 1

    def dilate(self, c: RationalLike) -> "BohrSpec":
        """The dilate ``c * Lambda``: same frequencies, ``c*eps`` and ``c*M``."""
        c = as_rational(c)
        if c <= 0:
            raise ValueError("dilation factor must be positive")
        return BohrSpec(self.theta, c * self.eps, c * self.M)

    def as_dict(self) -> dict:
        return {**super().as_dict(), "dim": self.dim, "degenerate": self.degenerate}


# ---------------------------------------------------------------------------
# residues and entry keys: alpha(n) = K(n) / B
# ---------------------------------------------------------------------------


def _torus_bounds(spec: BohrSpec) -> list[tuple[int, int, int]]:
    """``(p, q, b)`` for each frequency ``p/q`` whose constraint can fail.

    ``||n p/q|| <= eps`` holds exactly when ``min(r, q - r) <= b`` with
    ``r = n p mod q`` and ``b = floor(eps q)``. No distance exceeds ``q // 2``,
    so a frequency with ``b >= q // 2`` (``theta = 1``, or ``eps >= 1/2``)
    constrains nothing and is left out.
    """
    en, ed = spec.eps.numerator, spec.eps.denominator
    out = []
    for t in spec.theta:
        p, q = t.numerator, t.denominator
        b = en * q // ed
        if b < q // 2:
            out.append((p, q, b))
    return out


def _residues(ns: np.ndarray, p: int, q: int, *, run: bool) -> np.ndarray:
    """``n p mod q`` for the int64 candidates ``ns``, exact: int64 when
    ``q < 2^62``, an object array of Python integers otherwise.

    ``run`` says that ``ns`` is a run of consecutive integers; the residues
    then repeat with period ``q``, and only the first ``min(q, |ns|)`` are
    returned. With ``s = 63 - bitlength(q)`` any ``x < q`` times any
    ``d < 2^s`` fits int64, so when ``p < 2^s`` each residue is
    ``(n mod q) p mod q``. On a run with a larger ``p`` the residues are
    filled by doubling from the first: with ``m`` known,
    ``r[m:2m] = (r[:m] + m p mod q) mod q``, every sum below ``2q``. Any
    other ``ns`` takes Horner's rule over the base-``2^s`` digits of ``p``.
    """
    if run:
        ns = ns[:q]
    if q >= _INT64_SAFE:
        return ns.astype(object) % q * p % q
    s = 63 - q.bit_length()
    if run and p >> s:
        r = np.empty(ns.size, dtype=np.int64)
        r[0] = int(ns[0]) * p % q
        m = 1
        while m < r.size:
            x = r[m : 2 * m]
            np.add(r[: x.size], m * p % q, out=x)
            np.subtract(x, q * (x >= q), out=x)
            m *= 2
        return r
    x = ns % q
    top = s * ((p.bit_length() - 1) // s)
    r = x * (p >> top) % q
    for i in range(top - s, -1, -s):
        r = (r << s) % q + x * ((p >> i) & ((1 << s) - 1)) % q
        np.subtract(r, q * (r >= q), out=r)
    return r


def _fold(acc: np.ndarray, period: np.ndarray, ufunc: np.ufunc) -> None:
    """``acc = ufunc(acc, term)`` in place, where ``term`` repeats ``period``
    from the first entry of ``acc`` on (``period`` may be as long as ``acc``)."""
    q = period.size
    whole = acc.size - acc.size % q
    rows = acc[:whole].reshape(-1, q)
    ufunc(rows, period, out=rows)
    ufunc(acc[whole:], period[: acc.size - whole], out=acc[whole:])


def _entry_keys(spec: BohrSpec, ns: np.ndarray) -> tuple[np.ndarray, int]:
    """Exact entry keys ``K(n)`` of the window ``ns`` and their shared denominator ``B``.

    ``alpha(n) = K(n)/B`` is the smallest dilation of the description that
    contains ``n``, with ``K(n) = max(|n| mult_M, max_j min(r, q_j - r) mult_j)``
    and ``r = n p_j mod q_j``. ``ns`` is a run of consecutive integers, so
    each residue term is computed for one period and taken into the keys one
    period-long row at a time. Constraints with ``theta_j = 1`` always hold
    and are skipped. Keys are int64 when every product ``|n| mult_M`` and
    ``min(r, q_j - r) mult_j`` stays below 2^62, otherwise an object array
    of exact Python integers.
    """
    en, ed = spec.eps.numerator, spec.eps.denominator
    mn, md = spec.M.numerator, spec.M.denominator
    pq = [(t.numerator, t.denominator) for t in spec.theta if t != 1]
    B = math.lcm(mn, *(en * q for _, q in pq))
    mult_M = md * (B // mn)
    comps = [(p, q, ed * (B // (en * q))) for p, q in pq]
    nmax = max(-int(ns[0]), int(ns[-1]), 1)
    exact = nmax * mult_M >= _INT64_SAFE or any(
        q >= _INT64_SAFE or q // 2 * mult >= _INT64_SAFE for _, q, mult in comps
    )
    keys = np.abs(ns.astype(object) if exact else ns)
    keys *= mult_M
    for p, q, mult in comps:
        r = _residues(ns, p, q, run=True)
        term = np.minimum(r, q - r)
        _fold(keys, (term.astype(object) if exact else term) * mult, np.maximum)
    return keys, B


def _window(nmax: int, enum_limit: int) -> np.ndarray:
    """The candidates ``|n| <= nmax``, refused before allocation past ``enum_limit``."""
    charge("candidate window", "integers", 2 * nmax + 1, enum_limit)
    return np.arange(-nmax, nmax + 1, dtype=np.int64)


def _key_index(spec: BohrSpec, nmax: int, enum_limit: int) -> tuple[np.ndarray, int]:
    """Ascending entry keys of every candidate ``|n| <= nmax``, and ``B``."""
    keys, B = _entry_keys(spec, _window(nmax, enum_limit))
    keys.sort()
    return keys, B


def _count_leq(keys: np.ndarray, threshold: int) -> int:
    """How many sorted keys are <= threshold (threshold a Python int)."""
    if keys.dtype != object:
        threshold = min(threshold, _INT64_SAFE)  # int64 keys are all below it
    return int(np.searchsorted(keys, threshold, side="right"))


def _distinct_keys(keys: np.ndarray, lo: int, hi: int) -> list[int]:
    """Ascending distinct sorted keys ``k`` with ``lo < k <= hi``, as Python ints."""
    return _drop_repeats(keys[_count_leq(keys, lo) : _count_leq(keys, hi)]).tolist()


def _drop_repeats(arr: np.ndarray) -> np.ndarray:
    """The first of each run of equal values in a sorted array."""
    return arr[np.concatenate(([True], arr[1:] != arr[:-1]))] if arr.size else arr


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def enumerate_bohr(spec: BohrSpec, *, enum_limit: int = ENUM_LIMIT) -> np.ndarray:
    """All members of the Bohr set, ascending int64.

    Candidates are ``|n| <= floor(M)``; ``0`` is always a member. Raises
    :class:`BudgetExceeded` when the candidate window exceeds ``enum_limit``.
    A candidate is kept when it passes every frequency's bound (see
    :func:`_torus_bounds`), each decided for one period of residues and
    tiled over the window. When no bound can fail (every frequency is 1, or
    ``eps >= 1/2``) the set is the candidate window itself, returned as it
    is; ``enum_limit`` refuses an oversized window all the same.
    """
    ns = _window(floor_frac(spec.M), enum_limit)
    bounds = _torus_bounds(spec)
    if not bounds:
        return ns
    keep = np.ones(ns.size, dtype=bool)
    for p, q, b in bounds:
        r = _residues(ns, p, q, run=True)
        _fold(keep, np.minimum(r, q - r) <= b, np.logical_and)
    return ns[keep]


def membership_mask(spec: BohrSpec, ns: np.ndarray) -> np.ndarray:
    """Boolean membership mask for an int64 array of candidates:
    ``|n| <= floor(M)`` and every frequency's bound, compared in int64."""
    ns = np.asarray(ns, dtype=np.int64)
    m = floor_frac(spec.M)
    keep = (ns >= max(-m, INT64_MIN)) & (ns <= min(m, INT64_MAX))
    for p, q, b in _torus_bounds(spec):
        r = _residues(ns, p, q, run=False)
        keep &= np.minimum(r, q - r) <= b
    return keep


@dataclass(frozen=True)
class BohrSet:
    """A spec and, once known, its regularity certificate, carried so that
    no step certifies it again. The elements (ascending int64) are the
    spec's, enumerated when the set is built, so equality and hash read the
    spec and the certificate only."""

    spec: BohrSpec
    certificate: Optional[RegularityCertificate] = None
    elements: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", enumerate_bohr(self.spec))
        cert = self.certificate
        if cert is not None and (cert.spec != self.spec or cert.base_size != self.size):
            raise ValueError("the certificate belongs to another Bohr set")

    @classmethod
    def from_spec(cls, spec: BohrSpec) -> "BohrSet":
        return cls(spec)

    @property
    def size(self) -> int:
        return int(self.elements.size)

    def as_dict(self) -> dict:
        return {"spec": self.spec.as_dict(), "size": self.size}


ElementsLike = np.ndarray | BohrSet | Sequence[int]


def as_elements(x: ElementsLike) -> np.ndarray:
    """The integers of a Bohr set, array or sequence, as they come."""
    if isinstance(x, BohrSet):
        return x.elements
    return np.asarray(x, dtype=np.int64)


def sorted_distinct(x: ElementsLike) -> np.ndarray:
    """Ascending distinct int64 values of ``x``, flattened, in a fresh array.

    A strictly ascending 1-D input is only copied; any other is sorted and
    its repeats dropped (``np.unique`` hashes first: far slower on big input).
    """
    arr = as_elements(x)
    if arr.ndim == 1 and bool(np.all(arr[1:] > arr[:-1])):
        return arr.copy()
    return _drop_repeats(np.sort(arr.ravel()))


def sorted_lookup(values: np.ndarray, points) -> tuple[np.ndarray, np.ndarray]:
    """``(idx, hit)`` for ``points`` of any shape in ``values``.

    ``values`` must be strictly ascending (sorted and distinct). ``hit`` marks
    the points in ``values``, and there ``values[idx] == point``; elsewhere
    ``idx`` is a clipped position (all zero when ``values`` is empty).

    Because ``values`` ascends strictly, it is a run of consecutive integers
    exactly when ``values[-1] - values[0] + 1 == values.size``. A run (an
    interval support, ``[N]``, a window) is answered by arithmetic: a point
    clipped into ``[values[0], values[-1]]`` is a hit when it did not move, and
    its offset from ``values[0]`` is its index; any other input is searched.
    """
    pts = np.asarray(points, dtype=np.int64)
    if values.size == 0:
        return np.zeros(pts.shape, dtype=np.intp), np.zeros(pts.shape, dtype=bool)
    lo, hi = int(values[0]), int(values[-1])
    if hi - lo + 1 == values.size:
        idx = np.asarray(np.clip(pts, lo, hi))  # an array even for one point
        hit = idx == pts
        idx -= lo  # in [0, size): nothing wraps at the int64 ends
        return idx, hit
    idx = np.asarray(np.searchsorted(values, pts))
    np.minimum(idx, values.size - 1, out=idx)
    return idx, values[idx] == pts


def exact_density(subset: np.ndarray, ambient: np.ndarray) -> Fraction:
    """``|subset ∩ ambient| / |ambient|`` exactly; the intersection counts distinct values.

    Both inputs are made sorted and distinct, and the smaller is looked up in
    the larger: the count is the same either way, and the lookup then costs
    ``min(|subset|, |ambient|)`` points, each answered by arithmetic when the
    larger side is a run (a window) and by a binary search otherwise.
    """
    if ambient.size == 0:
        raise ValueError("ambient set is empty")
    ambient, subset = sorted_distinct(ambient), sorted_distinct(subset)
    small, large = (subset, ambient) if subset.size <= ambient.size else (ambient, subset)
    hit = sorted_lookup(large, small)[1]
    return Fraction(int(np.count_nonzero(hit)), int(ambient.size))


def chunk_rows(width: int) -> int:
    """Rows per chunk when each row builds arrays of ``width`` entries: the
    largest array a chunk builds holds at most 2^18 entries, unless one row
    alone needs more."""
    return max(1, _CHUNK_ENTRIES // width)


def require_int64(what: str, *parts: tuple[int, int]) -> None:
    """Raise ``ValueError`` unless ``x_1``, ``x_1 + x_2``, ... all fit int64
    for every ``x_i`` in the ``i``-th ``(lo, hi)`` range.

    Checked in Python integers, so a kernel that forms these sums left to
    right in int64 never wraps: a wrapped point could land on the support.
    """
    lo = hi = 0
    for part_lo, part_hi in parts:
        lo, hi = lo + part_lo, hi + part_hi
        if lo < INT64_MIN or hi > INT64_MAX:
            raise ValueError(f"{what} sums reach [{lo}, {hi}], outside int64")


def translate_counts(
    sets: Sequence[np.ndarray],
    shifts: np.ndarray,
    offsets: np.ndarray,
    *,
    budget: int,
) -> Iterator[tuple[np.ndarray, list[np.ndarray]]]:
    """How much of each of ``sets`` every translate ``t + offsets`` holds, chunk by chunk.

    ``sets`` are sorted distinct arrays and ``offsets`` is distinct. For
    consecutive chunks of ``shifts`` yields ``(chunk, counts)``:
    ``counts[k][r]`` is ``|(chunk[r] + offsets) ∩ sets[k]|``, an exact
    integer. A translate lies in ``sets[k]`` exactly when that count is
    ``offsets.size``.

    One work unit is one translate point, ``rows * |offsets|`` per chunk
    whatever the number of sets; the chunk that would take the total past
    ``budget`` raises :class:`BudgetExceeded` before it is computed.
    """
    step = chunk_rows(offsets.size)
    spent = 0
    for lo in range(0, shifts.size, step):
        chunk = shifts[lo : lo + step]
        spent += chunk.size * offsets.size
        charge("translate count", "points", spent, budget)
        pts = chunk[:, None] + offsets[None, :]
        counts = [np.count_nonzero(sorted_lookup(s, pts)[1], axis=1) for s in sets]
        del pts  # no chunk-sized array stays alive across the yield
        yield chunk, counts


# ---------------------------------------------------------------------------
# regularity certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegularityCertificate(Wired):
    """Outcome of the two-sided dilation-stability check.

    The check asks, for every ``c`` with ``|c| <= window`` drawn from the
    breakpoint grid, whether

        (1 - 100 d |c|) * |Lambda|  <=  |(1+c) Lambda|  <=  (1 + 100 d |c|) * |Lambda|.

    ``max_negative_gap`` is the largest spacing between consecutive checked
    points in ``[-window, 0]``; for real ``c`` between checked points on the
    negative side the lower bound holds with an extra ``100 d`` times that
    gap of slack. On the positive side the checked points are exhaustive.

    Each ``c`` is checked in integers (see :func:`_certify`): with
    ``m = 100 d`` it is held as ``c = (TN - SN)/SN`` for integers ``TN`` and
    ``SN > 0``, and it passes when
    ``base (SN - m |TN - SN|) <= size SN <= base (SN + m |TN - SN|)``. Only
    ``window``, ``max_negative_gap`` and ``witness_c`` are rationals.
    """

    spec: BohrSpec
    window: Fraction
    verdict: bool
    base_size: int
    num_checked: int
    max_negative_gap: Fraction
    size_at_minus_window: int
    size_at_plus_window: int
    witness_c: Optional[Fraction] = None
    witness_size: Optional[int] = None
    witness_side: Optional[str] = None

    def as_dict(self) -> dict:
        out = super().as_dict()
        if self.witness_c is None:
            del out["witness_c"], out["witness_size"], out["witness_side"]
        return out


def _certify(
    spec: BohrSpec, keys: np.ndarray, B: int, c: Fraction
) -> RegularityCertificate:
    """Certificate of ``spec``, the ``c``-dilate of the spec indexed by ``keys``.

    Entry dilations scale as ``alpha_{c Lambda}(n) = alpha_Lambda(n) / c``, so
    ``n in (1+x) * spec  <=>  K(n) <= B c (1+x)``: every size is one count
    against the same sorted keys, which must cover ``|n| <= (1+w) c M``.

    The check runs in integers. With ``B c = P/Q`` and ``m = 100 d``, a point
    ``x`` is held as ``TN`` with ``x = (TN - SN)/SN`` and ``SN = P m``: the
    breakpoint of key ``k`` is ``TN = k Q m``, and ``-w``, ``0`` and ``w`` are
    ``P (m-1)``, ``P m`` and ``P (m+1)``, merged in by value. The size at a
    breakpoint is the rank of its key's last occurrence in the sorted keys,
    and a point fails the lower or the upper bound when

        size SN < base (SN - m |TN - SN|)   or   size SN > base (SN + m |TN - SN|).

    These are int64 when the largest product fits, else exact Python
    integers; only the witness ``c`` and the largest negative gap are
    rationals.
    """
    m = 100 * spec.dim
    scale = B * c
    P, Q = scale.numerator, scale.denominator
    SN = P * m

    base_size = _count_leq(keys, P // Q)
    if base_size == 0:
        raise ValueError("Bohr set is empty; 0 should always be a member")

    lo_key = -(-P * (m - 1) // (Q * m))  # ceil: keys from here on have x >= -w
    hi_key = P * (m + 1) // (Q * m)  # floor: keys up to here have x <= w
    first, size_plus = _count_leq(keys, lo_key - 1), _count_leq(keys, hi_key)
    size_minus = _count_leq(keys, P * (m - 1) // (Q * m))
    run = keys[first:size_plus]
    # the last occurrence of each distinct key: its rank is the size there
    ends = np.flatnonzero(np.append(run[1:] != run[:-1], run.size > 0))

    # every product and factor below is at most max(|keys| * 2 P (m+1), Q m)
    dtype = object if max(keys.size * 2 * P * (m + 1), Q * m) >= _INT64_SAFE else np.int64
    tn = run[ends].astype(dtype) * (Q * m)
    sizes = (ends + (first + 1)).astype(dtype)
    # -w before every breakpoint, 0 among them, w after; a point that is
    # also a breakpoint sits next to it and is kept once
    at = int(np.searchsorted(tn, SN))
    tn = np.concatenate(([P * (m - 1)], tn[:at], [SN], tn[at:], [P * (m + 1)]))
    sizes = np.concatenate(([size_minus], sizes[:at], [base_size], sizes[at:], [size_plus]))
    keep = np.append(True, tn[1:] != tn[:-1])
    tn, sizes = tn[keep], sizes[keep]

    dev = m * np.abs(tn - SN)
    lower = sizes * SN < base_size * (SN - dev)
    upper = sizes * SN > base_size * (SN + dev)
    failed = np.flatnonzero(lower | upper)
    witness_c = witness_size = witness_side = None
    if failed.size:
        i = failed[0]
        witness_c = Fraction(int(tn[i]) - SN, SN)
        witness_size = int(sizes[i])
        witness_side = "lower" if lower[i] else "upper"

    neg = tn[tn <= SN]  # -w and 0 at least
    return RegularityCertificate(
        spec=spec,
        window=Fraction(1, m),
        verdict=witness_c is None,
        base_size=base_size,
        num_checked=int(tn.size),
        max_negative_gap=Fraction(int(np.diff(neg).max()), SN),
        size_at_minus_window=size_minus,
        size_at_plus_window=size_plus,
        witness_c=witness_c,
        witness_size=witness_size,
        witness_side=witness_side,
    )


def regularity_certificate(
    spec: BohrSpec, *, enum_limit: int = ENUM_LIMIT
) -> RegularityCertificate:
    """Certify or refute dilation stability of ``spec`` on its window.

    Checked dilations: all entry breakpoints ``alpha(n) - 1`` inside
    ``[-w, w]`` with ``w = 1/(100 d)``, plus ``-w``, ``0`` and ``w``. A
    failure reports the first failing ``c`` (ascending) and the failing side.
    """
    w = Fraction(1, 100 * spec.dim)
    keys, B = _key_index(spec, floor_frac((1 + w) * spec.M), enum_limit)
    return _certify(spec, keys, B, Fraction(1))


# ---------------------------------------------------------------------------
# searching for regular dilations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DilationSearch(Wired):
    """Result of scanning ``[lo, hi]`` for a dilation with a true certificate."""

    found: bool
    c: Optional[Fraction]
    certificate: Optional[RegularityCertificate]
    tried: tuple[Fraction, ...]
    reason: str = ""

    def as_dict(self) -> dict:
        out = super().as_dict()
        if not self.found:
            del out["c"], out["certificate"]
        return out


def certificates(sets: Sequence[BohrSet]) -> list[RegularityCertificate]:
    """Each set's certificate: the one carried, else one per distinct spec."""
    known = {bs.spec: bs.certificate for bs in sets if bs.certificate is not None}
    for bs in sets:
        if bs.spec not in known:
            known[bs.spec] = regularity_certificate(bs.spec)
    return [known[bs.spec] for bs in sets]


_MAX_CANDIDATES = 64  # dilations the regular-dilation search tries at most


def find_regular_dilation(
    spec: BohrSpec,
    lo: RationalLike,
    hi: RationalLike,
    *,
    enum_limit: int = ENUM_LIMIT,
) -> DilationSearch:
    """First dilation ``c`` in ``[lo, hi]`` whose dilate certifies regular.

    Candidates are ``lo``, then midpoints between consecutive distinct entry
    dilations ``alpha(n)`` falling in ``(lo, hi)`` (with ``lo`` and ``hi`` as
    virtual neighbors), then ``hi``, ascending, capped at ``_MAX_CANDIDATES``.
    Midpoints keep the dilated boundary as far as possible from any element's
    entry threshold, which is where certificates fail.

    One sorted key index over ``|n| <= (1+w) hi M`` with ``w = 1/(100 d)``
    serves the candidate scan and every candidate's certificate; ``enum_limit``
    bounds that window, checked before anything is allocated.
    """
    lo, hi = as_rational(lo), as_rational(hi)
    if not (0 < lo <= hi):
        raise ValueError("need 0 < lo <= hi")
    w = Fraction(1, 100 * spec.dim)
    keys, B = _key_index(spec, floor_frac((1 + w) * hi * spec.M), enum_limit)

    # keys with lo < alpha < hi; [lo] + midpoints + [hi] is strictly ascending
    # when lo < hi, so the capped candidates need no more of them than the cap
    inside = _distinct_keys(keys, floor_frac(lo * B), -floor_frac(-hi * B) - 1)
    vals = [lo] + [Fraction(k, B) for k in inside[:_MAX_CANDIDATES]] + [hi]
    mids = [(a + b) / 2 for a, b in zip(vals, vals[1:])]
    candidates = ([lo] + mids + [hi] if lo < hi else [lo])[:_MAX_CANDIDATES]

    for i, c in enumerate(candidates):
        cert = _certify(spec.dilate(c), keys, B, c)
        if cert.verdict:
            return DilationSearch(True, c, cert, tuple(candidates[: i + 1]))
    return DilationSearch(
        False,
        None,
        None,
        tuple(candidates),
        reason=f"no regular dilation among {len(candidates)} candidates in [{lo}, {hi}]",
    )


def find_regular_alpha(spec: BohrSpec, *, enum_limit: int = ENUM_LIMIT) -> DilationSearch:
    """Scan ``[1/2, 1]`` for a regular dilation of ``spec``."""
    return find_regular_dilation(spec, Fraction(1, 2), Fraction(1), enum_limit=enum_limit)


def spec_from_dict(payload: dict) -> BohrSpec:
    """Rebuild a spec from its ``as_dict`` form (rationals as pairs or strings)."""
    theta = tuple(as_rational(t) for t in payload["theta"])
    return BohrSpec(theta, as_rational(payload["eps"]), as_rational(payload["M"]))


def infer_dilation(inner: BohrSpec, outer: BohrSpec) -> Optional[Fraction]:
    """The exact ``c`` with ``inner = c * outer``, or None if there is none.

    Requires identical frequencies and a shared ratio ``inner.eps/outer.eps
    == inner.M/outer.M``.
    """
    if inner.theta != outer.theta:
        return None
    c_eps = inner.eps / outer.eps
    c_m = inner.M / outer.M
    if c_eps != c_m:
        return None
    return c_eps
