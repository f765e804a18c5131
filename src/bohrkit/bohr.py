"""Bohr sets over the integers with exact rational arithmetic.

A Bohr set here is the set of integers ``n`` with ``|n| <= M`` and
``||n * theta_j|| <= eps`` for every frequency ``theta_j``, where ``||x||``
is the distance from ``x`` to the nearest integer. Frequencies, ``eps`` and
``M`` are exact rationals, ties are inclusive, and every membership decision
is an integer comparison. Floats never decide anything in this module.

Design principles:

  * one integer key per candidate element: the *entry dilation* of ``n`` is
    ``alpha(n) = max(|n|/M, max_j ||n theta_j|| / eps)`` and is represented
    exactly as ``K(n) / B`` for a shared denominator ``B``; then
    ``n in (1+c) * Lambda  <=>  K(n) <= B * (1+c)``, so sizes of dilates are
    ``searchsorted`` queries against one sorted key array,
  * regularity certificates evaluate the two-sided size bound at every
    membership breakpoint inside the window plus the window endpoints and 0;
    on the positive side this is equivalent to the for-all-real-dilation
    statement (sizes are step functions jumping exactly at breakpoints, and
    both bounds are tightest at the left end of each constant piece); on the
    negative side the certificate records the largest gap between consecutive
    checked points so downstream estimates can add an explicit slack term,
  * a vectorized int64 path with overflow preflight, falling back to plain
    Python integers when moduli or key magnitudes would overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .exact import RationalLike, as_rational, floor_frac, rational_pair

_INT64_SAFE = 2**62


class BudgetExceeded(RuntimeError):
    """A computation would exceed its configured enumeration or work budget."""


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BohrSpec:
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

    def contains(self, n: int) -> bool:
        """Exact membership test for a single integer."""
        n = int(n)
        if abs(n) * self.M.denominator > self.M.numerator:
            return False
        en, ed = self.eps.numerator, self.eps.denominator
        for t in self.theta:
            p, q = t.numerator % t.denominator, t.denominator
            r = (n % q) * p % q
            if min(r, q - r) * ed > en * q:
                return False
        return True

    def as_dict(self) -> dict:
        return {
            "theta": [rational_pair(t) for t in self.theta],
            "eps": rational_pair(self.eps),
            "M": rational_pair(self.M),
            "dim": self.dim,
            "degenerate": self.degenerate,
        }


# ---------------------------------------------------------------------------
# entry keys: alpha(n) = K(n) / B
# ---------------------------------------------------------------------------


def _key_basis(spec: BohrSpec) -> tuple[int, int, list[tuple[int, int, int]]]:
    """Shared denominator and per-constraint multipliers for entry keys.

    Returns ``(B, mult_M, comps)`` where ``comps[j] = (p_j, q_j, mult_j)``,
    ``K_M(n) = |n| * mult_M`` and ``K_j(n) = min(r, q_j - r) * mult_j`` with
    ``r = n p_j mod q_j``, so that ``alpha(n) = max(...) / B`` exactly.
    """
    en, ed = spec.eps.numerator, spec.eps.denominator
    mn, md = spec.M.numerator, spec.M.denominator
    B = mn
    comps_raw = []
    for t in spec.theta:
        p, q = t.numerator % t.denominator, t.denominator
        B = math.lcm(B, en * q)
        comps_raw.append((p, q))
    mult_M = md * (B // mn)
    comps = [(p, q, ed * (B // (en * q))) for p, q in comps_raw]
    return B, mult_M, comps


def entry_keys(spec: BohrSpec, ns: np.ndarray) -> tuple[list[int], int]:
    """Exact entry keys ``K(n)`` and shared denominator ``B``.

    ``alpha(n) = K(n)/B`` is the smallest dilation of the description containing
    ``n``; in particular ``n`` is a member iff ``K(n) <= B``. Keys are plain
    Python integers (no overflow), in the order of ``ns``.
    """
    B, mult_M, comps = _key_basis(spec)
    keys = []
    for n in ns:
        n = int(n)
        k = abs(n) * mult_M
        for p, q, mult in comps:
            r = (n % q) * p % q
            k = max(k, min(r, q - r) * mult)
        keys.append(k)
    return keys, B


def _vector_keys_safe(spec: BohrSpec, nmax: int) -> bool:
    """Whether int64 vectorized key computation cannot overflow for |n|<=nmax."""
    B, mult_M, comps = _key_basis(spec)
    if mult_M >= _INT64_SAFE or nmax * mult_M >= _INT64_SAFE:
        return False
    for p, q, mult in comps:
        if q * q >= _INT64_SAFE or (q // 2 + 1) * mult >= _INT64_SAFE:
            return False
    return True


def _vector_keys(spec: BohrSpec, ns: np.ndarray) -> tuple[np.ndarray, int]:
    """int64 entry keys for candidates ``ns``; caller must preflight safety."""
    B, mult_M, comps = _key_basis(spec)
    ns = np.asarray(ns, dtype=np.int64)
    keys = np.abs(ns) * np.int64(mult_M)
    for p, q, mult in comps:
        r = (ns % q) * (p % q) % q
        np.maximum(keys, np.minimum(r, q - r) * np.int64(mult), out=keys)
    return keys, B


def _candidate_keys(spec: BohrSpec, nmax: int, enum_limit: int):
    """Sorted entry keys for all candidates ``|n| <= nmax``.

    Returns ``(ns, keys, B, order)`` with ``keys`` ascending and ``ns``
    reordered to match. Uses the int64 path when safe, otherwise exact Python
    integers (capped by ``enum_limit`` either way).
    """
    count = 2 * nmax + 1
    if count > enum_limit:
        raise BudgetExceeded(
            f"candidate window has {count} integers, budget is {enum_limit}"
        )
    ns = np.arange(-nmax, nmax + 1, dtype=np.int64)
    if _vector_keys_safe(spec, nmax):
        keys, B = _vector_keys(spec, ns)
        order = np.argsort(keys, kind="stable")
        return ns[order], keys[order], B, True
    key_list, B = entry_keys(spec, ns)
    order = sorted(range(len(key_list)), key=lambda i: key_list[i])
    ns_sorted = ns[np.asarray(order, dtype=np.int64)]
    keys_sorted = [key_list[i] for i in order]
    return ns_sorted, keys_sorted, B, False


def _count_leq(keys, threshold: int) -> int:
    """How many sorted keys are <= threshold (threshold a Python int)."""
    if isinstance(keys, np.ndarray):
        hi = int(np.iinfo(np.int64).max)
        t = min(max(int(threshold), -1), hi)
        return int(np.searchsorted(keys, t, side="right"))
    import bisect

    return bisect.bisect_right(keys, threshold)


def _distinct_keys(keys, lo: int, hi: int) -> list[int]:
    """Ascending distinct sorted keys ``k`` with ``lo < k <= hi``, as Python ints."""
    window = keys[_count_leq(keys, lo) : _count_leq(keys, hi)]
    if isinstance(keys, np.ndarray):
        return sorted_distinct(window).tolist()
    return sorted(set(window))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def enumerate_bohr(spec: BohrSpec, *, enum_limit: int = 10**7) -> np.ndarray:
    """All members of the Bohr set, ascending int64.

    Candidates are ``|n| <= floor(M)``; ``0`` is always a member. Raises
    :class:`BudgetExceeded` when the candidate window exceeds ``enum_limit``.
    """
    nmax = floor_frac(spec.M)
    if nmax < 0:
        nmax = 0
    count = 2 * nmax + 1
    if count > enum_limit:
        raise BudgetExceeded(
            f"candidate window has {count} integers, budget is {enum_limit}"
        )
    ns = np.arange(-nmax, nmax + 1, dtype=np.int64)
    mask = membership_mask(spec, ns)
    return ns[mask]


def membership_mask(spec: BohrSpec, ns: np.ndarray) -> np.ndarray:
    """Boolean membership mask for an int64 array of candidates."""
    ns = np.asarray(ns, dtype=np.int64)
    mn, md = spec.M.numerator, spec.M.denominator
    en, ed = spec.eps.numerator, spec.eps.denominator
    nmax = int(np.max(np.abs(ns))) if ns.size else 0
    if md < _INT64_SAFE and nmax * md < _INT64_SAFE:
        mask = np.abs(ns) * np.int64(md) <= np.int64(min(mn, _INT64_SAFE))
    else:
        mask = np.asarray([abs(int(n)) * md <= mn for n in ns], dtype=bool)
    for t in spec.theta:
        p, q = t.numerator % t.denominator, t.denominator
        if p == 0:
            continue
        if q * q < _INT64_SAFE and q * ed < _INT64_SAFE and en * q < _INT64_SAFE:
            r = (ns % q) * (p % q) % q
            mask &= np.minimum(r, q - r) * np.int64(ed) <= np.int64(en * q)
        else:
            ok = np.asarray(
                [min((int(n) % q) * p % q, q - (int(n) % q) * p % q) * ed <= en * q
                 for n in ns],
                dtype=bool,
            )
            mask &= ok
    return mask


@dataclass(frozen=True)
class BohrSet:
    """A spec together with its enumerated elements (ascending int64)."""

    spec: BohrSpec
    elements: np.ndarray

    @classmethod
    def from_spec(cls, spec: BohrSpec, *, enum_limit: int = 10**7) -> "BohrSet":
        return cls(spec, enumerate_bohr(spec, enum_limit=enum_limit))

    @property
    def size(self) -> int:
        return int(self.elements.size)

    def contains_array(self, ns: np.ndarray) -> np.ndarray:
        """Membership of ``ns`` decided against the enumerated elements."""
        ns = np.asarray(ns, dtype=np.int64)
        idx = np.searchsorted(self.elements, ns)
        idx = np.clip(idx, 0, self.size - 1)
        return self.elements[idx] == ns

    def as_dict(self) -> dict:
        return {"spec": self.spec.as_dict(), "size": self.size}


ElementsLike = Union[np.ndarray, BohrSet, Sequence[int]]


def as_elements(x: ElementsLike) -> np.ndarray:
    """The integers of a Bohr set, array or sequence, as they come."""
    if isinstance(x, BohrSet):
        return x.elements
    return np.asarray(x, dtype=np.int64)


def sorted_distinct(x: ElementsLike) -> np.ndarray:
    """Ascending distinct int64 values of ``x``, flattened.

    A sort plus a neighbour compare: ``np.unique`` gives the same array but
    hashes first, which costs far more on large sorted inputs.
    """
    arr = np.sort(as_elements(x).ravel())
    return arr[np.concatenate(([True], arr[1:] != arr[:-1]))] if arr.size else arr


def exact_density(subset: np.ndarray, ambient: np.ndarray) -> Fraction:
    """``|subset ∩ ambient| / |ambient|`` exactly; the intersection counts distinct values."""
    if ambient.size == 0:
        raise ValueError("ambient set is empty")
    sub, amb = sorted_distinct(subset), sorted_distinct(ambient)
    # each distinct ambient value occurs in sub at most once
    inter = np.searchsorted(sub, amb, side="right") - np.searchsorted(sub, amb)
    return Fraction(int(inter.sum()), int(ambient.size))


# ---------------------------------------------------------------------------
# regularity certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegularityCertificate:
    """Outcome of the two-sided dilation-stability check.

    The check asks, for every ``c`` with ``|c| <= window`` drawn from the
    breakpoint grid, whether

        (1 - 100 d |c|) * |Lambda|  <=  |(1+c) Lambda|  <=  (1 + 100 d |c|) * |Lambda|.

    ``max_negative_gap`` is the largest spacing between consecutive checked
    points in ``[-window, 0]``; for real ``c`` between checked points on the
    negative side the lower bound holds with an extra ``100 d`` times that
    gap of slack. On the positive side the checked points are exhaustive.
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

    @property
    def shift_slack(self) -> Fraction:
        """Additive slack ``100 d * max_negative_gap`` for shift estimates."""
        return 100 * self.spec.dim * self.max_negative_gap

    def as_dict(self) -> dict:
        out = {
            "spec": self.spec.as_dict(),
            "window": rational_pair(self.window),
            "verdict": self.verdict,
            "base_size": self.base_size,
            "num_checked": self.num_checked,
            "max_negative_gap": rational_pair(self.max_negative_gap),
            "size_at_minus_window": self.size_at_minus_window,
            "size_at_plus_window": self.size_at_plus_window,
        }
        if self.witness_c is not None:
            out["witness_c"] = rational_pair(self.witness_c)
            out["witness_size"] = self.witness_size
            out["witness_side"] = self.witness_side
        return out


def regularity_certificate(
    spec: BohrSpec, *, enum_limit: int = 10**7
) -> RegularityCertificate:
    """Certify or refute dilation stability of ``spec`` on its window.

    Checked dilations: all entry breakpoints ``alpha(n) - 1`` inside
    ``[-w, w]`` with ``w = 1/(100 d)``, plus ``-w``, ``0`` and ``w``. A
    failure reports the first failing ``c`` (ascending) and the failing side.
    """
    d = spec.dim
    w = Fraction(1, 100 * d)
    nmax_frac = (1 + w) * spec.M
    nmax = floor_frac(nmax_frac)
    if nmax < 0:
        nmax = 0
    _, keys, B, _ = _candidate_keys(spec, nmax, enum_limit)

    base_size = _count_leq(keys, B)
    if base_size == 0:
        raise ValueError("Bohr set is empty; 0 should always be a member")

    lo_key = B - (B * w.numerator) // w.denominator  # ceil breakpoints >= B(1-w)
    hi_key_frac = B * (1 + w)
    hi_key = floor_frac(hi_key_frac)
    cs: set[Fraction] = {-w, Fraction(0), w}
    for k in _distinct_keys(keys, lo_key - 1, hi_key):
        c = Fraction(k, B) - 1
        if -w <= c <= w:
            cs.add(c)

    checked = sorted(cs)
    witness_c = witness_size = witness_side = None
    for c in checked:
        thr = floor_frac(B * (1 + c))
        size = _count_leq(keys, thr)
        dev = 100 * d * abs(c)
        # lower: size >= base * (1 - dev); upper: size <= base * (1 + dev)
        if size * 1 < base_size * (1 - dev):
            witness_c, witness_size, witness_side = c, size, "lower"
            break
        if size * 1 > base_size * (1 + dev):
            witness_c, witness_size, witness_side = c, size, "upper"
            break

    neg = [c for c in checked if c <= 0]
    gaps = [b - a for a, b in zip(neg, neg[1:])]
    max_gap = max(gaps) if gaps else w

    size_lo = _count_leq(keys, floor_frac(B * (1 - w)))
    size_hi = _count_leq(keys, floor_frac(B * (1 + w)))
    return RegularityCertificate(
        spec=spec,
        window=w,
        verdict=witness_c is None,
        base_size=base_size,
        num_checked=len(checked),
        max_negative_gap=max_gap,
        size_at_minus_window=size_lo,
        size_at_plus_window=size_hi,
        witness_c=witness_c,
        witness_size=witness_size,
        witness_side=witness_side,
    )


# ---------------------------------------------------------------------------
# searching for regular dilations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DilationSearch:
    """Result of scanning ``[lo, hi]`` for a dilation with a true certificate."""

    found: bool
    c: Optional[Fraction]
    certificate: Optional[RegularityCertificate]
    tried: tuple[Fraction, ...]
    reason: str = ""

    def as_dict(self) -> dict:
        out = {
            "found": self.found,
            "tried": [rational_pair(c) for c in self.tried],
            "reason": self.reason,
        }
        if self.found:
            out["c"] = rational_pair(self.c)
            out["certificate"] = self.certificate.as_dict()
        return out


def find_regular_dilation(
    spec: BohrSpec,
    lo: RationalLike,
    hi: RationalLike,
    *,
    max_candidates: int = 64,
    enum_limit: int = 10**7,
) -> DilationSearch:
    """First dilation ``c`` in ``[lo, hi]`` whose dilate certifies regular.

    Candidates are ``lo``, then midpoints between consecutive distinct entry
    dilations ``alpha(n)`` falling in ``(lo, hi)`` (with ``lo`` and ``hi`` as
    virtual neighbors), then ``hi``, ascending, capped at ``max_candidates``.
    Midpoints keep the dilated boundary as far as possible from any element's
    entry threshold, which is where certificates fail.
    """
    lo, hi = as_rational(lo), as_rational(hi)
    if not (0 < lo <= hi):
        raise ValueError("need 0 < lo <= hi")
    nmax = floor_frac(hi * spec.M)
    if nmax < 0:
        nmax = 0
    _, keys, B, _ = _candidate_keys(spec, nmax, enum_limit)

    lo_key = floor_frac(lo * B)
    hi_key = floor_frac(hi * B)
    alphas: list[Fraction] = []
    for k in _distinct_keys(keys, lo_key, hi_key):
        a = Fraction(k, B)
        if lo < a < hi:
            alphas.append(a)

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


def find_regular_alpha(
    spec: BohrSpec, *, max_candidates: int = 64, enum_limit: int = 10**7
) -> DilationSearch:
    """Scan ``[1/2, 1]`` for a regular dilation of ``spec``."""
    return find_regular_dilation(
        spec,
        Fraction(1, 2),
        Fraction(1),
        max_candidates=max_candidates,
        enum_limit=enum_limit,
    )


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
