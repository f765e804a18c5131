"""Local box-uniformity norms and certified local Fourier maxima.

The fourth power of the local U2 norm of ``f`` relative to a base set ``A``
and inner sets ``N1``, ``N2`` is

    E_{a in A} E_{n1, n1' in N1} E_{n2, n2' in N2}
        f(a+n1+n2) conj f(a+n1+n2') conj f(a+n1'+n2) f(a+n1'+n2').

Both routes evaluate the cube ``T[a, i, k] = f(a + n1_i + n2_k)`` and are
the two Cauchy-Schwarz squares of the same sum; they are kept side by side
and never merged:

  * ``u2_fourth_correlation`` sums over ``N2`` first:
    ``E_a E_{i,j} | E_k T[a,i,k] conj T[a,j,k] |^2``, cost ``|A| L1^2 L2``;
  * ``u2_fourth_direct`` sums over ``N1`` first:
    ``E_a E_{k,l} | E_i T[a,i,k] conj T[a,i,l] |^2``, cost ``|A| L1 L2^2``.

The ``N2``-first square at ``(a, i, j)`` depends only on the pair
``(a + n1_i, n1_j - n1_i)``, and the ``N1``-first square at ``(a, k, l)``
only on ``(a + n2_k, n2_l - n2_k)``. Where ``A + N`` is barely bigger than
``A`` (windows, intervals, Bohr sets) few pairs are distinct, so for each
chunk of base points each route fills a pair table over the distinct
``P = chunk + N`` and ``D = N - N`` (``N = N1`` for the correlation route,
``N2`` for the direct one) when ``|P| |D| < rows L^2`` and contracts the
cube otherwise; each route's budget stays an upper bound on the products
either branch computes. The choice is made from the input sizes alone, and
the table's entries are computed by the same contraction, division and
square as the cube's, so each route equals its own cube contraction bit for
bit whichever runs. The two tables are written apart, so a fault in one
shows as a disagreement between the routes.

A run is a strictly ascending array of consecutive integers (an interval, a
window). When the base is a run and the route's table side ``N`` is one,
``P`` and ``D`` are runs as well, and each route reads that structure
instead of rebuilding it:

  * ``P = [chunk_0 + n_0, chunk_last + n_last]`` comes by arithmetic, with no
    sort and no :func:`~bohrkit.bohr.sorted_lookup`;
  * the square at ``(a, i, j)`` is ``S[a - chunk_0 + i, j - i + L - 1]``, so
    a chunk's ``(rows, L, L)`` block is one read-only ``as_strided`` view of
    the table (strides ``|D|``, ``|D| - 1`` and ``1`` entries), copied to a
    contiguous block before its mean;
  * consecutive chunks' ``P`` share ``L - 1`` rows, which are carried into
    the next chunk's table instead of computed again;
  * when ``D`` and the other inner set are both runs, the looked-up values
    of ``f`` at ``p + (D + N')`` are spread to the ``(d, n')`` grid by a
    sliding-window view instead of an index array.

None of this moves a bit: a table row depends only on its ``p``, and each
``einsum`` and mean receives the same values in the same order as through
the index arrays. Any other input (a base with a gap or a repeat, an inner
set that is not a run) is sorted and looked up as before.

Each square is a two-operand ``einsum(..., optimize=False)`` followed by a
square, so results are bitwise reproducible across thread counts, and both
routes are means of squared magnitudes, so neither can come out negative.
Because they contract in different orders they round differently; agreement
within 1e-9 is asserted by callers that need it. Every kernel here, the
Fourier scan included, walks its base points in chunks sized by one bound:
the largest array a chunk builds holds at most 2^18 entries, unless one base
point alone needs more (:func:`bohrkit.bohr.chunk_rows`, the one chunk
rule). Before anything is allocated, each kernel checks in Python integers
that every sum of points it forms fits int64; a wrapped sum could land on
the support.

The Fourier scan evaluates windowed exponential sums on a rational grid
with an explicit derivative-based error certificate. Each base point's grid
values come from one inverse FFT of its window placed at the residues
``n mod grid`` (pocketfft, single-threaded, so the values are bitwise
reproducible as well); the reported maximizing index is one that attains the
computed maximum, and for real ``f`` it may be either of ``k`` and
``grid - k``, whose magnitudes agree in exact arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .bohr import (
    COUNT_BUDGET,
    BohrSet,
    ElementsLike,
    as_elements,
    certificates,
    charge,
    chunk_rows,
    infer_dilation,
    require_int64,
    sorted_distinct,
    sorted_lookup,
)
from .exact import RationalLike, Wired, as_rational
from .functions import BoundedFunction

FOURIER_GRID = 512  # default points of a Fourier scan's frequency grid


def _gather_cube(
    f: BoundedFunction, base: np.ndarray, n1: np.ndarray, n2: np.ndarray
) -> np.ndarray:
    """``T[a, i, k] = f(base_a + n1_i + n2_k)`` for one chunk of ``base``."""
    pts = base[:, None, None] + n1[None, :, None] + n2[None, None, :]
    return f.gather(pts)


def _pair_table(
    f: BoundedFunction, p: np.ndarray, d: np.ndarray, n2: np.ndarray
) -> np.ndarray:
    """``S[r, c] = |E_k f(p_r + n2_k) conj f(p_r + d_c + n2_k)|^2``.

    Built over consecutive sub-chunks of ``p`` whose largest array holds at
    most 2^18 entries (:func:`bohrkit.bohr.chunk_rows`), with the cube's
    contraction, division and square, so each entry has the bits of the
    cube entry it stands for. ``f`` is looked up once per distinct offset
    ``d + n2`` and spread to the ``(d, n2)`` grid: by index, or, when ``d``
    and ``n2`` are both runs (``qidx[c, k] == c + k``), as a sliding-window
    view of the looked-up row, which holds the same values in the same order.
    """
    offsets = d[:, None] + n2[None, :]
    q = sorted_distinct(offsets)
    qidx = sorted_lookup(q, offsets)[0]
    sliding = np.array_equal(qidx, np.arange(d.size)[:, None] + np.arange(n2.size))
    table = np.empty((p.size, d.size), dtype=np.float64)
    step = chunk_rows(d.size * n2.size)
    for s in range(0, p.size, step):
        ps = p[s : s + step]
        x = f.gather(ps[:, None] + n2[None, :])
        g = f.gather(ps[:, None] + q[None, :]).conj()
        y = sliding_window_view(g, n2.size, axis=1) if sliding else g[:, qidx]
        m = np.einsum("rk,rck->rc", x, y, optimize=False) / n2.size
        table[s : s + step] = m.real**2 + m.imag**2
    return table


def _extent(x: np.ndarray) -> tuple[int, int]:
    return int(x.min()), int(x.max())


def _is_run(x: np.ndarray) -> bool:
    """Whether ``x`` is a run: strictly ascending consecutive integers."""
    return int(x[-1]) - int(x[0]) + 1 == x.size and bool(np.all(x[1:] > x[:-1]))


def u2_fourth_direct(
    f: BoundedFunction,
    base: ElementsLike,
    inner1: ElementsLike,
    inner2: ElementsLike,
    *,
    budget: int = COUNT_BUDGET,
) -> float:
    """Fourth power via the ``N1``-first square.

    ``E_a E_{k,l} |E_i T[a,i,k] conj T[a,i,l]|^2`` with
    ``T[a,i,k] = f(a + n1_i + n2_k)``. The square at ``(a, k, l)`` depends
    only on ``(p, d) = (a + n2_k, n2_l - n2_k)``, so per chunk of base points
    the route fills the pair table
    ``S[p, d] = |E_i f(p + n1_i) conj f(p + d + n1_i)|^2`` over the distinct
    ``P2 = chunk + N2`` and ``D2 = N2 - N2`` when ``|P2| |D2| < rows L2^2``,
    and contracts the cube ``einsum("aik,ail->akl")`` otherwise; either way
    the sum over ``i`` runs in the same order, so the bits are the cube's.
    On a run base and a window ``N2``, ``P2`` comes by arithmetic, the table
    is read through a sheared view and carries its last ``L2 - 1`` rows into
    the next chunk's table; with ``N1`` a window too, the ``(d, n1)`` grid is
    a sliding view of the looked-up row (see the module docstring). Those
    reads hand the same values in the same order to the same ``einsum`` and
    mean, so the bits do not move.
    The cost ``|A| L1 L2^2`` (one unit per multiply-add), an upper bound on
    both, and the int64 fit of every sum ``a + n1 + n2`` and
    ``a + n2 + d2 + n1`` are checked before anything is allocated.
    """
    a = as_elements(base)
    n1 = as_elements(inner1)
    n2 = as_elements(inner2)
    if min(a.size, n1.size, n2.size) == 0:
        raise ValueError("base and inner sets must be nonempty")
    charge("direct route", "operations", a.size * n1.size * n2.size**2, budget)
    lo2, hi2 = _extent(n2)
    d_ext = (lo2 - hi2, hi2 - lo2)  # the extremes of N2 - N2
    # the cube forms a + n1 + n2; the table a + n2 (+ d) + n1, and d + n1
    require_int64("direct route", _extent(a), _extent(n1), (lo2, hi2))
    require_int64("direct route", _extent(a), (lo2, hi2), d_ext, _extent(n1))
    require_int64("direct route", d_ext, _extent(n1))
    diffs = n2[None, :] - n2[:, None]  # diffs[k, l] = n2_l - n2_k
    d = sorted_distinct(diffs)
    didx = sorted_lookup(d, diffs)[0]
    vals = np.empty(a.size, dtype=np.float64)
    step = chunk_rows(max(n1.size * n2.size, n2.size**2))
    # on a run base and a window N2, P2 and D2 are runs: the chunk's rows of
    # P2 follow by arithmetic, the last L2 - 1 of them open the next chunk's
    # table, and the square at (a, k, l) is S[a - a0 + k, l - k + L2 - 1]
    window = _is_run(a) and _is_run(n2)
    carry = np.empty((0, d.size), dtype=np.float64)  # rows carried into P2
    for s in range(0, a.size, step):
        chunk = a[s : s + step]
        if window:
            p = int(chunk[0]) + int(n2[0]) + np.arange(chunk.size + n2.size - 1)
        else:
            starts = chunk[:, None] + n2[None, :]
            p = sorted_distinct(starts)
        if p.size * d.size < chunk.size * n2.size**2:
            # S[r, c] over sub-chunks of P2, f looked up once per distinct d + n1
            # and spread to the (d, n1) grid by index, or by a sliding view
            # when qidx[c, i] == c + i
            offsets = d[:, None] + n1[None, :]
            q = sorted_distinct(offsets)
            qidx = sorted_lookup(q, offsets)[0]
            slide = np.array_equal(qidx, np.arange(d.size)[:, None] + np.arange(n1.size))
            table = np.empty((p.size, d.size), dtype=np.float64)
            table[: carry.shape[0]] = carry
            sub = chunk_rows(d.size * n1.size)
            for r in range(carry.shape[0], p.size, sub):
                ps = p[r : r + sub]
                x = f.gather(ps[:, None] + n1[None, :])
                g = f.gather(ps[:, None] + q[None, :]).conj()
                y = sliding_window_view(g, n1.size, axis=1) if slide else g[:, qidx]
                m = np.einsum("ri,rci->rc", x, y, optimize=False) / n1.size
                table[r : r + sub] = m.real**2 + m.imag**2
            if window:
                carry = table[p.size - (n2.size - 1) :]
                w = table.itemsize
                sheared = as_strided(
                    table.reshape(-1)[n2.size - 1 :],
                    shape=(chunk.size, n2.size, n2.size),
                    strides=(d.size * w, (d.size - 1) * w, w),
                    writeable=False,
                )
                sq = np.ascontiguousarray(sheared)
            else:
                pidx = sorted_lookup(p, starts)[0]
                sq = table.take(pidx[:, :, None] * d.size + didx)
        else:
            carry = carry[:0]
            t = _gather_cube(f, chunk, n1, n2)
            m = np.einsum("aik,ail->akl", t, t.conj(), optimize=False) / n1.size
            sq = m.real**2 + m.imag**2
        vals[s : s + step] = sq.mean(axis=(1, 2))
    return float(np.mean(vals))


def u2_fourth_correlation(
    f: BoundedFunction,
    base: ElementsLike,
    inner1: ElementsLike,
    inner2: ElementsLike,
    *,
    budget: int = COUNT_BUDGET,
) -> float:
    """Fourth power via the ``N2``-first square: pair correlations, squared.

    ``E_a E_{i,j} |E_k T[a,i,k] conj T[a,j,k]|^2``. The square at ``(a, i, j)``
    depends only on the pair ``(p, d) = (a + n1_i, n1_j - n1_i)``, so for
    each chunk of base points, with ``P`` the distinct ``chunk + N1`` and
    ``D`` the distinct ``N1 - N1``, the route computes one of:

      * the pair table ``S[p, d]`` (:func:`_pair_table`), read back at every
        ``(a, i, j)``, when ``|P| |D| < rows L1^2``: few distinct pairs, as on
        windows, intervals and Bohr sets, where ``A + N1`` is barely bigger
        than ``A``;
      * the cube contraction ``einsum("aik,ajk->aij")`` otherwise.

    Both sum over ``k`` in the same order and square the same way, so the
    result equals the cube contraction's bit for bit whichever runs. On a
    run base and a window ``N1``, ``P`` comes by arithmetic, the table is
    read through a sheared view and carries its last ``L1 - 1`` rows into
    the next chunk's table; with ``N2`` a window too, the table's ``(d, n2)``
    grid is a sliding view (see the module docstring). Those reads hand the
    same values in the same order to the same ``einsum`` and mean, so the
    bits do not move. The
    budget counts the cube, ``|A| L1^2 L2``, an upper bound on the products
    either computes; it is checked, as is that no sum ``a + n1 + d + n2``
    leaves int64, before anything is allocated.
    """
    a = as_elements(base)
    n1 = as_elements(inner1)
    n2 = as_elements(inner2)
    if min(a.size, n1.size, n2.size) == 0:
        raise ValueError("base and inner sets must be nonempty")
    charge("correlation route", "operations", a.size * n1.size**2 * n2.size, budget)
    lo1, hi1 = _extent(n1)
    d_ext = (lo1 - hi1, hi1 - lo1)  # the extremes of N1 - N1
    # every sum either side forms: a + n1 (+ d) + n2, and d + n2
    require_int64("correlation route", _extent(a), (lo1, hi1), d_ext, _extent(n2))
    require_int64("correlation route", d_ext, _extent(n2))
    diffs = n1[None, :] - n1[:, None]  # diffs[i, j] = n1_j - n1_i
    d = sorted_distinct(diffs)
    didx = sorted_lookup(d, diffs)[0]
    vals = np.empty(a.size, dtype=np.float64)
    step = chunk_rows(max(n1.size * n2.size, n1.size**2))
    # a run base and a window N1 make P and D runs: P follows by arithmetic,
    # its last L1 - 1 rows start the next chunk's table, and the square at
    # (a, i, j) is S[a - a0 + i, j - i + L1 - 1], one sheared view of S
    window = _is_run(a) and _is_run(n1)
    carried = np.empty((0, d.size), dtype=np.float64)  # rows of P already filled
    for s in range(0, a.size, step):
        chunk = a[s : s + step]
        if window:
            p = int(chunk[0]) + int(n1[0]) + np.arange(chunk.size + n1.size - 1)
        else:
            starts = chunk[:, None] + n1[None, :]
            p = sorted_distinct(starts)
        if p.size * d.size < chunk.size * n1.size**2:
            if window:
                fresh = _pair_table(f, p[carried.shape[0] :], d, n2)
                table = np.concatenate((carried, fresh))
                carried = table[table.shape[0] - n1.size + 1 :]
                item = table.itemsize
                view = as_strided(
                    table.reshape(-1)[n1.size - 1 :],
                    shape=(chunk.size, n1.size, n1.size),
                    strides=(d.size * item, (d.size - 1) * item, item),
                    writeable=False,
                )
                sq = np.ascontiguousarray(view)
            else:
                pidx = sorted_lookup(p, starts)[0]
                sq = _pair_table(f, p, d, n2).take(pidx[:, :, None] * d.size + didx)
        else:
            carried = carried[:0]
            t = _gather_cube(f, chunk, n1, n2)
            m = np.einsum("aik,ajk->aij", t, t.conj(), optimize=False) / n2.size
            sq = m.real**2 + m.imag**2
        vals[s : s + step] = sq.mean(axis=(1, 2))
    return float(np.mean(vals))


@dataclass(frozen=True)
class U2Report(Wired):
    fourth_direct: float
    fourth_correlation: float
    norm: float
    agreement: float

    def as_dict(self) -> dict:
        return {**super().as_dict(), "tolerance": 1e-9}


def u2_report(
    f: BoundedFunction,
    base: ElementsLike,
    inner1: ElementsLike,
    inner2: ElementsLike,
    *,
    budget: int = COUNT_BUDGET,
) -> U2Report:
    """Both routes side by side, with their absolute disagreement."""
    fd = u2_fourth_direct(f, base, inner1, inner2, budget=budget)
    fc = u2_fourth_correlation(f, base, inner1, inner2, budget=budget)
    return U2Report(fd, fc, fc**0.25, abs(fd - fc))


# ---------------------------------------------------------------------------
# certified local Fourier maxima on a rational grid
# ---------------------------------------------------------------------------


def _scan_units(rows: int, grid: int) -> int:
    """Scan work for ``rows`` base points: ``rows * grid * ceil(log2 grid)``."""
    return rows * grid * (grid - 1).bit_length()


def fourier_grid_maxima(
    f: BoundedFunction,
    points: np.ndarray,
    inner: np.ndarray,
    grid: int,
    *,
    budget: int,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Grid maxima of ``|E_{n in inner} f(a+n) e(n k / grid)|``, chunk by chunk.

    For each base point ``a`` of ``points``, ``f(a+n)`` (times the
    multiplicity of ``n``) goes to slot ``n mod grid`` of a zero row. The
    caller guarantees ``grid > 2 max|n| + 1``, so no two offsets share a slot
    and the unnormalised inverse FFT of the row at ``k`` is exactly the
    exponential sum at ``k / grid``. Yields ``(chunk, values, argmax)`` for
    consecutive chunks of about ``2^18 / grid`` points; ``argmax`` is an
    index attaining the computed maximum.

    One work unit is one FFT operation, ``rows * grid * ceil(log2 grid)``
    per chunk; the chunk that would take the total past ``budget`` raises
    :class:`BudgetExceeded` before it is computed.
    """
    offsets, mult = np.unique(inner, return_counts=True)
    step = chunk_rows(grid)
    buf = np.zeros((min(step, points.size), grid), dtype=np.complex128)
    # position of (row, offset) in the flattened buffer, row-major as gather returns it
    flat = (np.arange(buf.shape[0])[:, None] * grid + offsets % grid).reshape(-1)
    spent = 0
    for lo in range(0, points.size, step):
        a = points[lo : lo + step]
        spent += _scan_units(a.size, grid)
        charge("fourier scan", "units", spent, budget)
        rows = buf[: a.size]
        # one unnamed temporary, so that no chunk-sized array stays alive across the yield
        rows.reshape(-1)[flat[: a.size * offsets.size]] = (
            f.gather(a[:, None] + offsets[None, :]) * mult
        ).ravel()
        mags = np.abs(np.fft.ifft(rows, axis=1, norm="forward"))
        k = mags.argmax(axis=1)
        values = np.take_along_axis(mags, k[:, None], axis=1)[:, 0] / inner.size
        del mags  # nor are the magnitudes kept across it
        yield a, values, k


@dataclass(frozen=True)
class FourierScan:
    """Per-base-point grid maxima of ``|E_{n in N} f(a+n) e(n y)|``.

    ``values[a]`` is the maximum over grid frequencies ``k/grid``;
    ``argmax[a]`` is a ``k`` that attains it as computed. For real ``f`` the
    magnitudes at ``k`` and ``grid - k`` agree in exact arithmetic, so which
    of the two is reported depends on rounding. The true supremum over all
    real frequencies exceeds ``values[a]`` by at most
    ``certified_error = pi * max|n| / grid`` (a derivative bound over half a
    grid spacing).
    """

    grid: int
    certified_error: float
    values: np.ndarray
    argmax: np.ndarray

    def as_dict(self) -> dict:
        return {
            "grid": self.grid,
            "certified_error": self.certified_error,
            "max_value": float(np.max(self.values)) if self.values.size else 0.0,
        }


def local_fourier_scan(
    f: BoundedFunction,
    base: ElementsLike,
    inner: ElementsLike,
    grid: int,
    *,
    budget: int = COUNT_BUDGET,
) -> FourierScan:
    """Grid scan of the windowed exponential sum for every base point.

    Requires ``grid >= 4 * (max|n| + 1)`` so the grid resolves the fastest
    oscillation. Each base point's ``grid`` values come from one inverse FFT
    of its window (:func:`fourier_grid_maxima`), in ``O(grid log grid)``
    rather than ``O(|N| grid)``. One work unit is one FFT operation; the
    whole cost ``|A| * grid * ceil(log2 grid)`` is checked against
    ``budget`` before anything is allocated.
    """
    a = as_elements(base)
    n = as_elements(inner)
    if min(a.size, n.size) == 0:
        raise ValueError("base and inner sets must be nonempty")
    lo, hi = _extent(n)
    maxn = max(-lo, hi)  # in Python ints: np.abs wraps at -2^63
    if grid < 4 * (maxn + 1):
        raise ValueError(f"grid {grid} too coarse; need at least {4 * (maxn + 1)}")
    charge("fourier scan", "units", _scan_units(a.size, grid), budget)
    require_int64("fourier scan", _extent(a), (lo, hi))

    _, vals, arg = zip(*fourier_grid_maxima(f, a, n, grid, budget=budget))
    err = math.pi * maxn / grid
    return FourierScan(
        grid=grid,
        certified_error=err,
        values=np.concatenate(vals),
        argmax=np.concatenate(arg),
    )


def inverse_average(
    f: BoundedFunction,
    base: ElementsLike,
    inner: ElementsLike,
    grid: int,
    *,
    budget: int = COUNT_BUDGET,
) -> float:
    """``E_a (grid max)^2``: a certified lower bound for ``E_a sup^2``."""
    scan = local_fourier_scan(f, base, inner, grid, budget=budget)
    return float(np.mean(scan.values**2))


# ---------------------------------------------------------------------------
# the norm-to-Fourier implication, checked end to end
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InverseCheck(Wired):
    """Outcome of checking the large-norm => large-Fourier-energy implication.

    ``status`` is one of ``pass`` (grid average already clears the
    threshold), ``fail`` (even adding the grid slack cannot reach it),
    ``inconclusive`` (inside the slack band), or ``hypothesis-not-met``
    (with the unmet hypotheses listed; no conclusion is claimed).
    """

    status: str
    reasons: tuple[str, ...]
    eta: Fraction
    c1: Optional[Fraction]
    c2: Optional[Fraction]
    norm: float
    fourth_direct: float
    fourth_correlation: float
    inverse_avg: Optional[float]
    threshold: Fraction
    certified_error: Optional[float]
    slack: Optional[float]
    grid: int

    def as_dict(self) -> dict:
        return {**super().as_dict(), "tolerance": 1e-9}


def check_inverse_theorem(
    f: BoundedFunction,
    base: BohrSet,
    inner1: BohrSet,
    inner2: BohrSet,
    eta: RationalLike,
    *,
    grid: int = FOURIER_GRID,
    budget: int = COUNT_BUDGET,
) -> InverseCheck:
    """Check that a large local U2 norm forces large averaged Fourier energy.

    Hypotheses (all checked, exactly where rational): ``inner1 = c1 * base``
    with ``c1 <= eta^8 / (5000 d)``, ``inner2 = c2 * inner1`` with
    ``c2 <= eta^2 / (400 d)``, all three sets regular (each distinct spec
    certified once), and U2 norm at least ``eta``. Conclusion threshold:
    ``eta^8 / 40`` for ``E_a sup^2``, tested against the certified grid
    lower bound with slack ``2 err + err^2``. When a hypothesis fails the
    scan is not run and its fields stay ``None``.
    """
    eta = as_rational(eta)
    if not (0 < eta <= 1):
        raise ValueError("eta must be in (0, 1]")
    d = base.spec.dim
    reasons: list[str] = []

    c1 = infer_dilation(inner1.spec, base.spec)
    c2 = infer_dilation(inner2.spec, inner1.spec)
    if c1 is None:
        reasons.append("inner1 is not a dilate of base")
    elif c1 > eta**8 / (5000 * d):
        reasons.append(f"c1 = {c1} exceeds eta^8/(5000 d) = {eta**8 / (5000 * d)}")
    if c2 is None:
        reasons.append("inner2 is not a dilate of inner1")
    elif c2 > eta**2 / (400 * d):
        reasons.append(f"c2 = {c2} exceeds eta^2/(400 d) = {eta**2 / (400 * d)}")
    certs = certificates((base, inner1, inner2))
    for name, cert in zip(("base", "inner1", "inner2"), certs):
        if not cert.verdict:
            reasons.append(f"{name} is not regular (witness c = {cert.witness_c})")

    rep = u2_report(f, base, inner1, inner2, budget=budget)
    if rep.agreement > 1e-9:
        raise ValueError(
            f"u2 route disagreement {rep.agreement}; kernels are inconsistent"
        )
    if rep.norm < float(eta) - 1e-9:
        reasons.append(f"norm {rep.norm} below eta = {float(eta)}")

    threshold = eta**8 / 40
    status, ia, err, slack = "hypothesis-not-met", None, None, None
    if not reasons:
        scan = local_fourier_scan(f, base, inner2, grid, budget=budget)
        ia = float(np.mean(scan.values**2))
        err = scan.certified_error
        slack = 2 * err + err * err
        thr = float(threshold)
        if ia >= thr:
            status = "pass"
        elif ia + slack < thr:
            status = "fail"
        else:
            status = "inconclusive"
    return InverseCheck(
        status=status,
        reasons=tuple(reasons),
        eta=eta,
        c1=c1,
        c2=c2,
        norm=rep.norm,
        fourth_direct=rep.fourth_direct,
        fourth_correlation=rep.fourth_correlation,
        inverse_avg=ia,
        threshold=threshold,
        certified_error=err,
        slack=slack,
        grid=grid,
    )
