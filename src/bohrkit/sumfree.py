"""Sumfree subsets, Freiman 2-isomorphisms, and verified embeddings.

A set ``Z`` is *sumfree with respect to* ``W`` when ``z1 + z2`` avoids ``W``
for every pair of distinct ``z1 != z2`` in ``Z`` (``z + z`` is allowed); the
predicate looks the pair sums up in ``W`` in blocks. The sumfree search is
the element walk of the shifted-AND kernel in :mod:`bohrkit.patterns` that
also runs the extent configuration search: there a pair ``x, y`` must have
``x + y`` in ``2A``, here ``z1 + z2`` must miss ``A``. Both meter their work
in 64-bit words read.

The embedding compresses a set of integers with small difference set into a
prime cyclic group through ``a -> (lam * a) mod p`` restricted to the most
popular half-interval of residues, which preserves additive quadruples in
both directions. Every returned map passes an exact check that covers all
quadruples. A map ``a -> lam * a mod p`` with ``lam`` invertible is one
exactly when the distinct sums of ``dom + dom`` have distinct residues mod
``p``: formed as an OR of shifted bitsets and counted by one ``bincount`` on
a dense span, or by one sort of the ``n(n+1)/2`` pair sums on a sparse one.
Any other map is checked by the partition test: it is a 2-isomorphism iff the
partition of the pairs ``i <= j`` by domain sum equals their partition by
image sum, which one sort of the pair sums decides in ``O(n^2 log n)`` time.
So the randomness in ``lam`` affects only the success rate, never soundness.

:func:`find_configuration_via_embedding` reports that embedding for its input
and answers by the direct configuration search on the input itself.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .bohr import (
    INT64_MAX,
    ElementsLike,
    chunk_rows,
    require_int64,
    sorted_distinct,
    sorted_lookup,
)
from .exact import RationalLike, Wired, as_rational
from .patterns import (
    Configuration,
    FinderResult,
    PreconditionError,
    WORD_BUDGET,
    ShiftedAndKernel,
    find_configuration,
)


def is_sumfree_with_respect_to(z: ElementsLike, w: ElementsLike) -> bool:
    """True iff ``z1 + z2`` misses ``w`` for all distinct ``z1 != z2`` in ``z``.

    The pair sums are looked up in ``w`` a block of rows at a time, each block
    at most 2^18 sums (:func:`bohrkit.bohr.chunk_rows`). A sum past the int64
    range is in no int64 set: the element walk's sign test drops it rather
    than let it wrap onto another value.
    """
    zs, ws = sorted_distinct(z), sorted_distinct(w)
    lo = 0
    while lo < zs.size - 1:
        hi = min(zs.size - 1, lo + chunk_rows(zs.size - lo - 1))
        ys, above = zs[lo:hi, None], zs[lo + 1:]
        sums = above + ys
        looked = np.arange(lo + 1, zs.size) > np.arange(lo, hi)[:, None]
        looked &= ((above ^ sums) & (ys ^ sums)) >= 0
        if np.any(sorted_lookup(ws, sums[looked])[1]):
            return False
        lo = hi
    return True


# ---------------------------------------------------------------------------
# Freiman maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FreimanMap:
    """``a -> images[a]`` into residues mod ``modulus``, domain sorted."""

    domain: np.ndarray
    modulus: int
    images: np.ndarray
    multiplier: int = 0

    def __post_init__(self) -> None:
        domain = np.asarray(self.domain, dtype=np.int64)
        images = np.asarray(self.images, dtype=np.int64)
        if domain.shape != images.shape or domain.ndim != 1:
            raise ValueError("domain and images must be aligned 1-d arrays")
        if np.any(domain[1:] <= domain[:-1]):  # compared, not subtracted: no wrap
            raise ValueError("domain must be strictly increasing")
        if sorted_distinct(images).size != images.size:
            raise ValueError("map must be injective on its domain")
        if images.size and (int(images.min()) < 0 or int(images.max()) >= self.modulus):
            raise ValueError("images must be residues mod the modulus")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "images", images)

    def as_dict(self) -> dict:
        return {
            "modulus": self.modulus,
            "multiplier": self.multiplier,
            "pairs": [[int(a), int(v)] for a, v in zip(self.domain, self.images)],
        }


def _sums_collide(dom: np.ndarray, p: int) -> bool:
    """Whether two distinct sums of ``dom + dom`` (sorted distinct, its pair
    sums in int64) are congruent mod ``p``.

    Two distinct sums differ by at most twice the span, so below ``p`` none
    are. A span whose sums fit in no more 64-bit words than ``dom`` has points
    is dense: the sums are an OR of shifted copies of its bitset, and one
    ``bincount`` of their residues finds a repeat. Otherwise the pair sums
    are sorted once; more distinct sums than ``p`` must collide.
    """
    if dom.size == 0:
        return False
    lo, span = int(dom[0]), int(dom[-1]) - int(dom[0])
    if 2 * span < p:
        return False
    if (2 * span) // 64 + 1 <= dom.size:
        bits = np.zeros(span + 1, dtype=bool)
        bits[dom - lo] = True
        row = int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")
        sums = 0
        for d in (dom - lo).tolist():
            sums |= row << d
        packed = np.frombuffer(sums.to_bytes(span // 4 + 1, "little"), dtype=np.uint8)
        offsets = np.flatnonzero(np.unpackbits(packed, bitorder="little"))
        return int(np.bincount((offsets + 2 * lo) % p).max()) > 1
    iu, ju = np.triu_indices(dom.size)
    sums = sorted_distinct(dom[iu] + dom[ju])
    return sums.size > p or sorted_distinct(sums % p).size < sums.size


def check_freiman_isomorphic(fm: FreimanMap) -> bool:
    """Exact two-direction 2-isomorphism check.

    The map is a Freiman 2-isomorphism when, for every quadruple
    ``(a1, a2, a3, a4)`` from the domain, ``a1 + a2 == a3 + a4`` holds exactly
    when ``phi(a1) + phi(a2) == phi(a3) + phi(a4) (mod modulus)``.

    A map ``a -> lam * a mod p`` (``multiplier`` ``lam`` prime to the modulus
    ``p``, its images checked equal to ``lam * a mod p`` in ``O(n)``) sends a
    sum ``D`` to ``lam * D mod p``, so it is one exactly when the distinct
    sums of ``dom + dom`` have distinct residues mod ``p``; see
    :func:`_sums_collide`.

    Any other map goes through the partition test. The condition says two
    partitions of the unordered pairs ``i <= j`` are equal: the one by domain
    sum ``D`` and the one by image sum ``I`` mod the modulus (ordered pairs
    give the same partitions, since both sums are symmetric). Two partitions
    of one set are equal iff ``#D == #(D, I) == #I`` distinct values. One
    ``lexsort`` by ``(D, I)`` puts each ``D`` class in a run: the first count
    holds iff ``I`` is constant on every run, and then the second iff the
    runs' ``I`` values are distinct. ``O(n^2 log n)`` time and ``O(n^2)``
    memory for ``n`` domain points, in integers only.

    A pair sum outside int64 raises ``ValueError`` rather than wrap, on
    either route.
    """
    for what, values in (("domain pair", fm.domain), ("image pair", fm.images)):
        if values.size:
            ends = (int(values.min()), int(values.max()))
            require_int64(what, ends, ends)
    p, lam = fm.modulus, fm.multiplier
    if (
        0 < p
        and (p - 1) ** 2 <= INT64_MAX  # (a mod p) * (lam mod p) stays in int64
        and math.gcd(lam, p) == 1
        and np.array_equal(fm.domain % p * (lam % p) % p, fm.images)
    ):
        return not _sums_collide(fm.domain, p)
    iu, ju = np.triu_indices(fm.domain.size)
    dom_sums = fm.domain[iu] + fm.domain[ju]
    img_sums = (fm.images[iu] + fm.images[ju]) % fm.modulus
    order = np.lexsort((img_sums, dom_sums))
    dom_sorted = dom_sums[order]
    img_sorted = img_sums[order]
    same_dom = dom_sorted[1:] == dom_sorted[:-1]
    if bool(np.any(img_sorted[1:][same_dom] != img_sorted[:-1][same_dom])):
        return False  # one domain sum, two image sums
    run_imgs = np.concatenate((img_sorted[:1], img_sorted[1:][~same_dom]))
    return sorted_distinct(run_imgs).size == run_imgs.size


def difference_size(arr: np.ndarray) -> int:
    """``|A - A|`` of a sorted distinct array; ``ValueError`` when a
    difference leaves int64 (it would wrap onto another)."""
    if arr.size:
        require_int64("difference", (int(arr[0]), int(arr[-1])), (-int(arr[-1]), -int(arr[0])))
    return int(sorted_distinct(arr[:, None] - arr[None, :]).size)


@dataclass(frozen=True)
class EmbedResult(Wired):
    """A verified embedding, or the reason there is none.

    ``status`` is ``ok`` (``map`` passed :func:`check_freiman_isomorphic`) or
    ``failed`` (primes and multipliers up to the cap were exhausted). The
    measured quantities used to drive the search are recorded either way.
    """

    status: str
    map: Optional[FreimanMap]
    k_declared: Fraction
    diff_size: int
    domain_size: int
    kept_size: int
    attempts: int
    c_embed: int
    seed: int
    reason: str = ""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _popular_half_interval(residues: np.ndarray, p: int) -> np.ndarray:
    """Boolean mask of the cyclic half-open window holding the most residues.

    Window length ``ceil(p/2)``; candidate window starts are the residues
    themselves (a maximizing window can always be slid left onto a point).
    Ties break toward the smallest start.
    """
    length = (p + 1) // 2
    rs = np.sort(residues)
    ext = np.concatenate([rs, rs + p])
    counts = np.searchsorted(ext, rs + length, side="left") - np.arange(rs.size)
    best_start = rs[int(np.argmax(counts))]  # the first maximum: the smallest start
    return (residues - best_start) % p < length


EMBED_RETRIES = 64  # default attempts of one embedding
_C_EMBED = 8  # moduli reach up to _C_EMBED * k * |a|; reports record it as c_embed


def ruzsa_embed(
    a: ElementsLike,
    k: RationalLike,
    *,
    retries: int = EMBED_RETRIES,
    seed: int = 0,
) -> EmbedResult:
    """Embed at least half of ``a`` into a prime cyclic group, verified.

    Requires the declared doubling to hold: ``|a - a| <= k * |a|`` (checked
    exactly; :class:`PreconditionError` otherwise). Primes ascend through
    ``(|a|, 8 * k * |a|]``; for each, a few seeded multipliers are
    tried, the most popular half-interval of the image is kept, and the
    restricted map must pass :func:`check_freiman_isomorphic` to be returned.
    """
    arr = sorted_distinct(a)
    n = arr.size
    if n == 0:
        raise ValueError("cannot embed an empty set")
    k = as_rational(k)
    diff_size = difference_size(arr)
    if diff_size > k * n:
        raise PreconditionError(
            f"difference set has {diff_size} elements, exceeding K|A| = {k * n}"
        )
    return _embed(arr, k, diff_size, retries, seed)


def _embed(arr: np.ndarray, k: Fraction, diff_size: int, retries: int, seed: int) -> EmbedResult:
    """:func:`ruzsa_embed`'s search once its precondition holds: ``arr`` is
    nonempty, sorted and distinct, and ``|arr - arr| = diff_size <= k |arr|``."""
    n = arr.size
    cap_frac = _C_EMBED * k * n
    cap = int(cap_frac) if cap_frac == int(cap_frac) else int(cap_frac) + 1
    rng = random.Random(seed)
    attempts = 0
    tries_per_prime = 4
    p = n
    while attempts < retries:
        p += 1
        if p > cap:
            break
        if not _is_prime(p):
            continue
        for _ in range(tries_per_prime):
            if attempts >= retries:
                break
            attempts += 1
            lam = rng.randrange(1, p)
            residues = (arr % p) * lam % p
            keep = _popular_half_interval(residues, p)
            dom = arr[keep]
            img = residues[keep]
            if sorted_distinct(img).size != img.size:
                continue
            if dom.size * 2 < n:
                continue
            fm = FreimanMap(dom, p, img, multiplier=lam)
            if check_freiman_isomorphic(fm):
                return EmbedResult(
                    "ok", fm, k, diff_size, n, int(dom.size),
                    attempts, _C_EMBED, seed,
                )
    return EmbedResult(
        "failed", None, k, diff_size, n, 0, attempts, _C_EMBED, seed,
        reason=f"no verified map among {attempts} attempts with modulus <= {cap}",
    )


# ---------------------------------------------------------------------------
# sumfree subset search
# ---------------------------------------------------------------------------


def find_sumfree_subset(
    a: ElementsLike, h: int, *, budget: int = WORD_BUDGET
) -> Optional[np.ndarray]:
    """Lexicographically first ``B`` of size ``h``, sumfree with respect to ``a``.

    The element walk of the shifted-AND kernel over the sorted elements,
    keeping after each choice ``y`` the larger candidates ``x`` with
    ``x + y`` outside ``a``. Work is counted in 64-bit words read, and
    :class:`BudgetExceeded` is raised when the budget is passed (never a
    silent "none"). For ``h <= 1`` there is no pair to test and no word is
    read. The result is re-checked before being returned.
    """
    if h < 0:
        raise ValueError("h must be nonnegative")
    arr = sorted_distinct(a)
    if h > arr.size:
        return None
    if h <= 1:
        return arr[:h].copy()
    kernel = ShiftedAndKernel(budget)
    kernel.pack_elements(arr, midpoints=False, avoid=True)
    got = kernel.first_subset(h)
    if got is None:
        return None
    out = np.asarray(got, dtype=np.int64)
    assert is_sumfree_with_respect_to(out, arr)
    return out


# ---------------------------------------------------------------------------
# configuration search with the embedding reported
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EmbeddingSearch(Wired):
    """A configuration search on the input, with the input's embedding.

    ``status`` and ``config`` are the answer of ``finder``, the direct search
    on the input. ``route`` names the search that decided, always ``direct``;
    it stays while the bench reads it, and the next change to the bench may
    drop it. ``embed`` is the verified embedding built at the measured
    doubling ``embed.k_declared``, or the reason there is none.
    """

    status: str  # found | none | inconclusive
    config: Optional[Configuration]
    route: str
    embed: EmbedResult
    finder: FinderResult


def find_configuration_via_embedding(
    y3: ElementsLike,
    h: int,
    *,
    budget: int = WORD_BUDGET,
    seed: int = 0,
) -> EmbeddingSearch:
    """Search the input for an h-configuration, and report its embedding.

    The doubling ``K = |Y3 - Y3| / |Y3|`` is measured exactly, once, and
    declared to the search of :func:`ruzsa_embed` (which it meets by
    construction), whose result is reported as it is. The answer is one
    :func:`find_configuration` on the input itself, under ``budget`` words;
    the embedding never decides it.
    """
    arr = sorted_distinct(y3)
    if arr.size == 0:
        raise ValueError("empty input set")
    diff_size = difference_size(arr)  # |Y3 - Y3|, once: it is both K and the embedding's
    emb = _embed(arr, Fraction(diff_size, int(arr.size)), diff_size, EMBED_RETRIES, seed)
    direct = find_configuration(arr, h, budget=budget)
    return EmbeddingSearch(direct.status, direct.config, "direct", emb, direct)
