"""The certified density-increment iteration.

One step of the driver does, in order: look for a configuration on the
restricted domain (success exit), run the structure dichotomy, and when the
dichotomy reports a large balanced norm, convert it into a density increment
through the windowed Fourier scan. Every step's claim is re-measured exactly
(set sizes and densities as rationals on actual enumerated sets) before the
step is accepted; printed constant formulas are reproduced bit-exactly in
:class:`ConstantTable` (the scan thresholds in :mod:`bohrkit.patterns`) but
never trusted as a substitute for measurement. A step enumerates and
certifies each Bohr set once; a transition hands the set it built on.

State bookkeeping: the ambient set is always a genuine Bohr set in *current*
coordinates, and an affine map ``original = mult * x + offset`` links current
coordinates to the input set. One private engine state holds the current set,
the ambient spec and that map, and :func:`run` and :func:`recheck_run` move it
through one checked function, so ``run`` accepts no move that the recheck
rejects. The doubled translate ``a + 2 * target``
renormalizes ``x -> (x - a) / 2`` (``mult`` doubles); the translate ``t +
target`` of the Fourier step subtracts ``t``. Either way the new ambient set
is ``target`` itself (for the Fourier step, the set the scan enumerated) and
``offset`` gains ``mult`` times the shift. Configuration witnesses transport
through the same map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import partial
from typing import Optional

import numpy as np

from .bohr import (
    COUNT_BUDGET,
    BohrSet,
    BohrSpec,
    BudgetExceeded,
    certificates,
    find_regular_dilation,
    infer_dilation,
    membership_mask,
    regularity_certificate,
    sorted_distinct,
    sorted_lookup,
    translate_counts,
)
from .exact import RationalLike, Wired, as_rational, wire
from .functions import BoundedFunction
from .gowers import FOURIER_GRID, fourier_grid_maxima, inverse_average
from .patterns import (
    WORD_BUDGET,
    Configuration,
    DichotomyOutcome,
    FinderResult,
    PreconditionError,
    dichotomy,
    find_configuration_restricted,
    increment_factor,
    verify_configuration,
)

# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

_INCREMENT_STATUSES = ("translate", "refined", "no-witness", "hypothesis-not-met")

_PRACTICAL_DEFAULTS = {
    "x1": Fraction(1, 160),
    "x_rest": Fraction(1, 8),
    "c_prime": Fraction(1, 8),
    "eta": Fraction(1, 4),
    "min_increment": Fraction(1, 10**6),
}

_OVERRIDABLE = tuple(_PRACTICAL_DEFAULTS)


@dataclass(frozen=True)
class ConstantTable:
    """Exact step constants, either the printed formulas or fast defaults.

    ``faithful`` evaluates the printed formulas as exact rationals in
    ``(s, d, delta)``. ``practical`` swaps the contraction rates for fixed
    fractions that let desk-size instances move. The scan thresholds, shared
    by both modes, live in :mod:`bohrkit.patterns` (``smallness_bound``,
    ``increment_factor``, ``u2_threshold``). Overrides act on the table
    only: no run report, step record, dichotomy row or trace records them, so
    a report alone does not say which practical constants produced it.
    """

    mode: str
    overrides: dict

    @classmethod
    def for_mode(cls, mode: str, overrides: Optional[dict] = None) -> "ConstantTable":
        """The table of ``mode``; only ``practical`` takes overrides (an empty
        dict overrides nothing, so ``faithful`` accepts it)."""
        if mode not in ("faithful", "practical"):
            raise ValueError("mode must be faithful or practical")
        if mode == "faithful" and overrides:
            raise ValueError("faithful mode takes no overrides")
        clean: dict = {}
        for name, value in (overrides or {}).items():
            if name not in _OVERRIDABLE:
                raise ValueError(
                    f"unknown constant {name!r}; can override {_OVERRIDABLE}"
                )
            if value is not None:
                clean[name] = as_rational(value)
        return cls(mode, clean)

    def _pick(self, name: str, faithful_value: Fraction) -> Fraction:
        if self.mode == "faithful":
            return faithful_value
        return self.overrides.get(name, _PRACTICAL_DEFAULTS[name])

    def x1(self, s: int, d: int, delta: Fraction) -> Fraction:
        return self._pick("x1", Fraction(1, 2**85 * s**24 * d) * delta ** (6 * s * (s + 1)))

    def x_rest(self, s: int, d: int, delta: Fraction) -> Fraction:
        return self._pick("x_rest", Fraction(1, 2**20 * s**4 * d) * delta ** (s * (s + 1)))

    def c_prime(self, s: int, d: int, delta: Fraction) -> Fraction:
        return self._pick("c_prime", Fraction(1, 2**37 * s**8 * d) * delta ** (2 * s * (s + 1)))

    def eta(self, s: int, delta: Fraction) -> Fraction:
        return self._pick("eta", Fraction(1, 2**23 * s**8) * delta ** (2 * s * (s + 1)))

    def min_increment(self) -> Fraction:
        return self._pick("min_increment", Fraction(0))

    # caps on a faithful run: at most k_max steps, dimension at most d_max

    @staticmethod
    def k_max(s: int, delta: Fraction) -> Fraction:
        return Fraction(2**55) * Fraction(s**16) / delta ** (4 * s * (s + 1))

    @staticmethod
    def d_max(s: int, delta: Fraction) -> Fraction:
        return Fraction(2**29) * Fraction(s**8) / delta ** (2 * s * (s + 1))


# ---------------------------------------------------------------------------
# the Fourier-witness increment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IncrementOutcome(Wired):
    """Result of hunting a density increment through the windowed scan.

    ``status``: ``translate`` (a plain translate of the inner set already
    carries the increment), ``refined`` (a new frequency was adjoined and a
    translate of the refined set carries it), ``no-witness`` (scan exhausted,
    including grid refinements), or ``hypothesis-not-met`` (enforced
    hypotheses failed; nothing was scanned). ``new_set`` is the Bohr set
    whose translate carries the increment, as the scan enumerated it: the
    inner set itself for ``translate``, the refined set for ``refined``; it,
    ``translate`` and ``delta_after`` are set for these two statuses only.
    """

    status: str
    unmet: tuple[str, ...]
    delta_before: Fraction
    grid_used: int
    a_star: Optional[int] = None
    translate: Optional[int] = None
    y: Optional[Fraction] = None
    new_set: Optional[BohrSet] = None
    delta_after: Optional[Fraction] = None
    scan_value: Optional[float] = None
    inverse_avg: Optional[float] = None
    guaranteed_bound: Optional[float] = None
    bound_asserted: bool = False

    def __post_init__(self) -> None:
        if self.status not in _INCREMENT_STATUSES:
            raise ValueError(f"unknown increment status {self.status!r}")
        moved = self.status in _INCREMENT_STATUSES[:2]
        if any((v is not None) != moved for v in (self.new_set, self.translate, self.delta_after)):
            raise ValueError("new_set, translate and delta_after come with a translate or refined")

    @property
    def new_spec(self) -> Optional[BohrSpec]:
        return self.new_set.spec if self.new_set is not None else None

    @property
    def increment(self) -> Optional[Fraction]:
        if self.delta_after is None:
            return None
        return self.delta_after - self.delta_before

    def as_dict(self) -> dict:
        out = super().as_dict()
        del out["new_set"]
        out["new_spec"] = wire(self.new_spec)
        return out


_GRID_RETRIES = 2  # grid misses retry at 8x and then 64x the starting grid


def fourier_increment(
    subset: np.ndarray,
    base: BohrSet,
    inner1: BohrSet,
    c_prime: RationalLike,
    eta: RationalLike,
    *,
    grid: int = FOURIER_GRID,
    enforce: bool = True,
    budget: int = COUNT_BUDGET,
) -> IncrementOutcome:
    """Find a translate (possibly of a refined Bohr set) where the subset is denser.

    The balanced function ``f = 1_A - delta`` on the base set is scanned over
    base points ``a`` in the ``(1 - c1)``-dilate (so ``a + inner`` stays in
    the base). If some ``a`` already has ``E_{n in inner} f(a+n) >=
    eta^3/128``, the first such ``a`` (ascending) gives the witness. Otherwise
    the first ``a`` with ``E f > -eta/32`` and grid Fourier value at least
    ``eta/2`` nominates a frequency; the refined set adjoins it with widths
    scaled by ``c_prime * c1``, and the best translate ``a + n1`` with the
    refined set inside the base is taken. Every translate decision compares
    an exact integer count (:func:`bohrkit.bohr.translate_counts`, metered
    one point at a time); grid misses retry with an 8x finer grid, twice.

    ``budget`` bounds each scan, not the call. A call runs at most eight:
    the inverse average when it is enforced, the plain translate scan, and
    for each of the three grid passes one Fourier scan and one refined count.

    With ``enforce`` the printed hypotheses (mean zero, real values,
    ``c1 <= eta^3 / (2^15 d)``, ``c_prime <= eta / (2^13 d)``, grid Fourier
    energy at least ``eta^2``) must hold or the scan is not run.
    """
    c_prime = as_rational(c_prime)
    eta = as_rational(eta)
    if not (0 < eta <= 1):
        raise ValueError("eta must be in (0, 1]")
    d = base.spec.dim
    c1 = infer_dilation(inner1.spec, base.spec)
    if c1 is None or not (0 < c1 < 1):
        raise ValueError("inner set must be a proper dilate of the base")

    subset_sorted = sorted_distinct(subset)
    f, delta = BoundedFunction.balanced_indicator(subset_sorted, base.elements)

    unmet: list[str] = []
    mean_f = float(np.abs(np.mean(f.values)))
    if mean_f > 1e-9:
        unmet.append(f"balanced mean {mean_f} not zero")
    if c1 > eta**3 / (2**15 * d):
        unmet.append(f"c1 = {c1} exceeds eta^3/(2^15 d) = {eta**3 / (2**15 * d)}")
    if c_prime > eta / (2**13 * d):
        unmet.append(f"c_prime = {c_prime} exceeds eta/(2^13 d) = {eta / (2**13 * d)}")

    n1 = inner1.elements
    maxn = int(np.max(np.abs(n1)))
    grid_eff = max(grid, 4 * (maxn + 1))

    ia = None
    if enforce:
        ia = inverse_average(f, base.elements, n1, grid_eff, budget=budget)
        if ia < float(eta**2):
            unmet.append(f"grid Fourier energy {ia} below eta^2 = {float(eta**2)}")
    if unmet and enforce:
        return IncrementOutcome(
            status="hypothesis-not-met",
            unmet=tuple(unmet),
            delta_before=delta,
            grid_used=grid_eff,
            inverse_avg=ia,
        )

    # plain translate: for a in the (1 - c1)-dilate, a + N1 lies in the base
    # (Bohr triangle inequality), so E_n f(a+n) = count/L - delta exactly and
    # only the subset is counted
    shrunk = BohrSet.from_spec(base.spec.dilate(1 - c1))
    L = int(n1.size)
    take = math.ceil(L * (delta + eta**3 / 128))
    keep = math.floor(L * (delta - eta / 32))
    kept: list[np.ndarray] = []  # base points with E f > -eta/32
    scan = translate_counts((subset_sorted,), shrunk.elements, n1, budget=budget)
    for chunk, (counts,) in scan:
        hit = np.nonzero(counts >= take)[0]
        if hit.size:
            k = int(hit[0])
            a_star = int(chunk[k])
            d_after = Fraction(int(counts[k]), L)
            return IncrementOutcome(
                status="translate",
                unmet=tuple(unmet),
                delta_before=delta,
                grid_used=grid_eff,
                a_star=a_star,
                translate=a_star,
                new_set=inner1,
                delta_after=d_after,
                scan_value=float(d_after - delta),
                inverse_avg=ia,
            )
        kept.append(chunk[counts > keep])
    cand = np.concatenate(kept)

    (inner_cert,) = certificates([inner1])
    slack = min(
        200.0 * float(c_prime) * d + 100.0 * d * float(inner_cert.max_negative_gap),
        2.0,
    )

    def refined_pass(grid: int) -> Optional[IncrementOutcome]:
        """One grid pass of the refined-witness search; None means retry finer.

        The scan stops at the first qualifying base point, so its work is
        metered chunk by chunk as it is spent rather than preflighted for
        every candidate: one unit is one FFT operation, ``rows * grid *
        ceil(log2 grid)`` per chunk of base points. The translates of the
        refined set are counted under the same budget, one unit per point.
        """
        if cand.size == 0:
            return None
        thr_sup = float(eta) / 2
        for chunk, vals, ks in fourier_grid_maxima(f, cand, n1, grid, budget=budget):
            good = np.nonzero(vals >= thr_sup)[0]
            if good.size == 0:
                continue
            r = int(good[0])
            a_star = int(chunk[r])
            k_star = int(ks[r])
            # for real f the scan may report k or grid - k (equal magnitudes);
            # ||n k/grid|| = ||n (grid - k)/grid||, so either y gives the same
            # refined Bohr set
            y = Fraction(k_star, grid) if k_star else Fraction(1)
            new_spec = BohrSpec(
                base.spec.theta + (y,),
                c_prime * c1 * base.spec.eps,
                c_prime * c1 * base.spec.M,
            )
            refined = BohrSet.from_spec(new_spec)
            rows = a_star + n1  # the translates a* + n1 + refined
            full = refined.size  # a translate in the base is counted in full there
            scan = translate_counts(
                (base.elements, subset_sorted), rows, refined.elements, budget=budget
            )
            counts = np.concatenate([np.where(held == full, c, -1) for _, (held, c) in scan])
            if counts.max() < 0:  # no translate inside the base
                return None
            best = int(np.argmax(counts))
            best_density = Fraction(int(counts[best]), refined.size)
            inc = best_density - delta
            if inc < eta / 32:
                return None
            val = float(vals[r])
            eps_new = float(new_spec.eps)
            guar = ((val - slack - 8 * eps_new) - (float(eta) / 32 + slack)) / 2
            asserted = False
            if guar > 0:
                if float(inc) < guar - 1e-9:
                    raise ValueError(
                        f"measured increment {float(inc)} fell below the guaranteed "
                        f"bound {guar}; the derivation is falsified"
                    )
                asserted = True
            return IncrementOutcome(
                status="refined",
                unmet=tuple(unmet),
                delta_before=delta,
                grid_used=grid,
                a_star=a_star,
                translate=int(rows[best]),
                y=y,
                new_set=refined,
                delta_after=best_density,
                scan_value=val,
                inverse_avg=ia,
                guaranteed_bound=guar if guar > 0 else None,
                bound_asserted=asserted,
            )
        return None

    for attempt in range(_GRID_RETRIES + 1):
        outcome = refined_pass(grid_eff * 8**attempt)
        if outcome is not None:
            return outcome
    return IncrementOutcome(
        status="no-witness",
        unmet=tuple(unmet),
        delta_before=delta,
        grid_used=grid_eff * 8**_GRID_RETRIES,
        inverse_avg=ia,
    )


# ---------------------------------------------------------------------------
# the iteration driver
# ---------------------------------------------------------------------------


_MAX_STEPS = 32  # a run that takes this many steps stops at ``limit``


@dataclass(frozen=True)
class EngineLimits:
    """An engine run's budgets. ``count_budget`` bounds each scan of a step,
    not the step: one step may run its :func:`bohrkit.patterns.dichotomy` (up
    to ``s`` translate scans and ``s(s-1)/2`` U2 evaluations) and then its
    :func:`fourier_increment` (up to eight scans), each scan under the whole
    budget. ``finder_budget`` bounds the step's freeness search in words."""

    count_budget: int = COUNT_BUDGET
    finder_budget: int = WORD_BUDGET
    grid: int = FOURIER_GRID


class ChainLink:
    """One planned inner dilate ``N_i = c * N_{i-1}`` (``i = index``): the
    factor the regular-dilation search found for the ``target`` rate after
    trying ``tried`` factors, and ``|N_i|``. A slotted class, not a frozen
    dataclass: a dataclass costs about fifty more objects per import of the
    package."""

    __slots__ = ("index", "c", "target", "size", "tried")

    def __init__(self, index: int, c: Fraction, target: Fraction, size: int, tried: int):
        self.index, self.c, self.target, self.size, self.tried = index, c, target, size, tried

    def as_dict(self) -> dict:
        return {name: wire(getattr(self, name)) for name in self.__slots__}


@dataclass(frozen=True)
class StepRecord:
    """One accepted engine step: where it ran and what it measured and chose.

    The step ran on the ambient ``spec`` at density ``delta``, with the map
    ``original = mult * x + offset`` back to the input and the planned
    ``chain``. Its evidence is the restricted ``finder`` result that found a
    configuration, or the ``dichotomy`` outcome, with the Fourier
    ``increment`` a large norm was turned into. ``case`` is read off the
    evidence and the report's ``d`` off the spec; :attr:`payload` is the
    evidence's report form. Data it holds twice must agree at construction
    (``ValueError`` otherwise).
    """

    step: int
    delta: Fraction
    spec: BohrSpec
    mult: int
    offset: int
    chain: tuple[ChainLink, ...] = ()
    finder: Optional[FinderResult] = None
    dichotomy: Optional[DichotomyOutcome] = None
    increment: Optional[IncrementOutcome] = None

    def __post_init__(self) -> None:
        chain, finder, dich, inc = self.chain, self.finder, self.dichotomy, self.increment
        new = inc.new_spec if inc else None
        if [link.index for link in chain] != list(range(1, len(chain) + 1)):
            raise ValueError("chain links are not numbered 1, 2, ...")
        if finder and (dich or inc or (finder.status, finder.mode) != ("found", "restricted")):
            raise ValueError("a finder record holds one restricted find and nothing else")
        if finder and finder.config.s != len(chain):
            raise ValueError(f"a configuration of arity {finder.config.s} on {len(chain)} links")
        if dich and (dich.s, dich.delta) != (len(chain), self.delta):
            raise ValueError(
                f"dichotomy (s, delta) = ({dich.s}, {dich.delta}) differs from the step"
            )
        if dich and dich.inner_sizes != tuple(link.size for link in chain):
            raise ValueError(f"inner sizes {list(dich.inner_sizes)} are not the link sizes")
        if dich and (dich.kind == "large-u2") != (inc is not None):
            raise ValueError(f"a {dich.kind} dichotomy with{'' if inc else 'out'} an increment")
        if inc and inc.delta_before != self.delta:
            raise ValueError(f"increment from {inc.delta_before}, not the step's density")
        if inc and (new is None or (inc.status == "refined") != (new.dim > self.spec.dim)):
            raise ValueError("an increment moves, refined exactly when it adds a frequency")

    @property
    def case(self) -> str:
        if self.increment is not None:
            return f"fourier-{self.increment.status}"
        if self.dichotomy is not None:
            return self.dichotomy.kind
        return "config"

    @property
    def config_original(self) -> Optional[Configuration]:
        """The finder's configuration mapped back to the input's coordinates."""
        cfg = self.finder.config if self.finder is not None else None
        if cfg is None:
            return None
        m = self.mult
        return Configuration(m * cfg.a + self.offset, tuple(m * n for n in cfg.ns))

    @property
    def payload(self) -> dict:
        """The certificate: the report form of the chain and the evidence."""
        out = {"chain": wire(self.chain)} if self.chain else {}
        if self.finder is not None:
            out["config"] = wire(self.finder.config)
            out["config_original"] = wire(self.config_original)
        for name in ("finder", "dichotomy", "increment"):
            if getattr(self, name) is not None:
                out[name] = wire(getattr(self, name))
        return out

    def as_dict(self) -> dict:
        return {
            "step": self.step,
            "case": self.case,
            "d": self.spec.dim,
            "delta": wire(self.delta),
            "eps": wire(self.spec.eps),
            "M": wire(self.spec.M),
            "spec": self.spec.as_dict(),
            "mult": self.mult,
            "offset": self.offset,
            "certificate": self.payload,
        }


_EXIT_CODES = {"found": 0, "exhausted": 1, "limit": 3, "violation": 3}

# the status a run ends in when its last record is of a terminal case
_TERMINAL_STATUS = {
    "config": "found",
    "small-bohr": "exhausted",
    "violation": "violation",
    "no-case": "limit",
}


@dataclass(frozen=True)
class RunResult(Wired):
    """Why a run ended, its records numbered from 0 (none after one of a
    terminal case), and its ``final`` state (``mult``, ``offset``, ``d``,
    ``set_size``). The report's ``status``, ``exit_code`` and ``config`` are
    derived: the status from the records and the final set, its code, and
    for ``found`` the last record's configuration in input coordinates."""

    reason: str
    steps: tuple[StepRecord, ...]
    final: dict

    def __post_init__(self) -> None:
        if [rec.step for rec in self.steps] != list(range(len(self.steps))):
            raise ValueError("records are not numbered 0, 1, ...")
        for rec in self.steps[:-1]:
            if rec.case in _TERMINAL_STATUS:
                raise ValueError(f"step {rec.step}: records follow the terminal {rec.case} record")

    @property
    def status(self) -> str:
        """The last record's terminal status; after a move or no record,
        ``exhausted`` when the final set is empty and ``limit`` otherwise."""
        last = self.steps[-1].case if self.steps else None
        if last in _TERMINAL_STATUS:
            return _TERMINAL_STATUS[last]
        return "exhausted" if self.final.get("set_size") == 0 else "limit"

    @property
    def exit_code(self) -> int:
        return _EXIT_CODES[self.status]

    @property
    def config(self) -> Optional[Configuration]:
        return self.steps[-1].config_original if self.status == "found" else None

    def as_dict(self) -> dict:
        derived = {"status": self.status, "exit_code": self.exit_code, "config": wire(self.config)}
        return {**super().as_dict(), **derived}


@dataclass(frozen=True)
class _State:
    """Where the iteration stands: the current set ``work`` (sorted, distinct)
    on the ambient ``spec``, and the map ``original = mult * x + offset`` back
    to the input's coordinates.

    Each transition keeps the points of ``work`` in ``shift + scale * target``
    and renormalizes them by ``x -> (x - shift) / scale``, so the new ambient
    set is ``target`` itself. ``target.elements`` ascend, hence so does the
    new set.
    """

    work: np.ndarray
    spec: BohrSpec
    mult: int = 1
    offset: int = 0

    @classmethod
    def start(cls, subset: np.ndarray, N: int) -> "_State":
        """The input on the width-``N`` integer window (frequency 1 makes the
        torus constraint vacuous)."""
        arr = sorted_distinct(subset)
        window = BohrSpec((Fraction(1),), Fraction(1, 2), Fraction(N))
        return cls(arr[(arr >= -N) & (arr <= N)], window)

    def final(self) -> dict:
        """The ``final`` entry of a run's result."""
        return dict(mult=self.mult, offset=self.offset, d=self.spec.dim, set_size=self.work.size)

    def _moved(self, shift: int, scale: int, target: BohrSet) -> "_State":
        idx, hit = sorted_lookup(self.work, shift + scale * target.elements)
        mult, offset = self.mult, self.offset
        kept = self.work[idx[hit]]
        return _State((kept - shift) // scale, target.spec, mult * scale, offset + mult * shift)


def _checked_move(state: _State, rec: StepRecord, target: BohrSet) -> tuple[_State, list[str]]:
    """The state after the transition ``rec`` claims onto ``target``, and
    every complaint against it; :func:`run` and :func:`recheck_run` accept
    each move only through here.

    A ``local-increment`` record moves to the doubled translate ``a + 2 *
    target``, renormalized by ``x -> (x - a) / 2``, and must gain the factor
    ``increment_factor(s)``. A ``fourier-*`` record moves to the translate
    ``t + target``, moved back by ``t``. Its ``target`` must refine the
    ambient spec (the ambient frequencies first, then any adjoined ones,
    with ``eps`` and ``M`` shrunk by one common ratio in (0, 1)), and the
    density must rise. Either way the translate must lie in the ambient set
    and the re-measured density must equal the record's claim.
    """
    spec, step, dich, inc = state.spec, rec.step, rec.dichotomy, rec.increment
    problems = []
    if inc is None:
        shift, scale, claim, name = dich.a, 2, dich.new_density, "increment"
        outside = "doubled translate leaves the base"
    else:
        shift, scale, claim, name = inc.translate, 1, inc.delta_after, "fourier"
        outside = "refined translate leaves the ambient set"
        new = target.spec
        ratio = infer_dilation(BohrSpec(new.theta[: spec.dim], new.eps, new.M), spec)
        if ratio is None or not 0 < ratio < 1:
            problems.append(f"step {step}: new spec is not a refinement of the ambient spec")
    if not bool(np.all(membership_mask(spec, shift + scale * target.elements))):
        problems.append(f"step {step}: {outside}")
    moved = state._moved(shift, scale, target)
    got = Fraction(int(moved.work.size), target.size)
    if got != claim:
        problems.append(f"step {step}: {name} density fails recheck")
    if inc is None and got < rec.delta * increment_factor(dich.s):
        problems.append(f"step {step}: increment below the required factor")
    elif inc is not None and got <= rec.delta:
        problems.append(f"step {step}: fourier step did not gain density")
    return moved, problems


def plan_inner_dilations(
    spec: BohrSpec,
    s: int,
    table: ConstantTable,
    delta: Fraction,
) -> Optional[tuple[list[BohrSet], tuple[ChainLink, ...]]]:
    """Regular nested dilates targeting the table rates, each set carrying
    the certificate its dilation search found, and their links; None when stuck."""
    sets: list[BohrSet] = []
    links: list[ChainLink] = []
    current = spec
    for i in range(1, s + 1):
        d = current.dim
        target = table.x1(s, d, delta) if i == 1 else table.x_rest(s, d, delta)
        search = find_regular_dilation(current, target / 2, target)
        if not search.found or search.c > 1:  # a dilate past 1 is not nested
            return None
        current = current.dilate(search.c)
        sets.append(BohrSet(current, search.certificate))
        links.append(ChainLink(i, search.c, target, sets[-1].size, len(search.tried)))
    return sets, tuple(links)


def run(
    subset: np.ndarray,
    N: int,
    s: int = 2,
    *,
    mode: str = "faithful",
    overrides: Optional[dict] = None,
    limits: Optional[EngineLimits] = None,
) -> RunResult:
    """Iterate until a configuration is found or the set is certified thin.

    The ambient chain starts at the width-``N`` integer window (frequency 1
    makes the torus constraint vacuous); a set that misses the window ends
    ``exhausted`` before the window is enumerated. Each step either exits
    with a verified configuration mapped back to input coordinates,
    renormalizes into a denser sub-Bohr-set, or stops with ``exhausted``
    (the certified small-set branch fired: freeness holds on the restricted
    domain of the planned chain only, an empty claim when some ``|N_i| < s -
    i + 1`` leaves no distinct offset tuple) or ``limit`` (budgets, caps, or
    a witness the scan could not certify). The result stores the reason and
    the records; its status is read off them (see :attr:`RunResult.status`).
    """
    table = ConstantTable.for_mode(mode, overrides)
    if s < 2:
        raise ValueError("s must be at least 2")
    limits = limits or EngineLimits()

    state = _State.start(subset, N)
    records: list[StepRecord] = []

    def finish(reason: str) -> RunResult:
        return RunResult(reason, tuple(records), state.final())

    if state.work.size == 0:  # a move keeps a nonempty set: its density rises
        return finish("set is empty on the ambient Bohr set")
    try:
        ambient = BohrSet.from_spec(state.spec)  # a transition carries its set over
    except BudgetExceeded as exc:
        return finish(f"enumeration budget: {exc}")
    for step in range(_MAX_STEPS):
        spec, work = state.spec, state.work
        delta = Fraction(work.size, ambient.size)  # the state keeps work in ambient

        if mode == "faithful":
            if Fraction(step) > table.k_max(s, delta):
                return finish("printed iteration cap exceeded")
            if Fraction(spec.dim) > table.d_max(s, delta):
                return finish("printed dimension cap exceeded")

        chain = plan_inner_dilations(spec, s, table, delta)
        if chain is None:
            return finish("no regular dilation found for the chain")
        inner_sets, links = chain
        record = partial(StepRecord, step, delta, spec, state.mult, state.offset, links)

        budget = limits.finder_budget
        freeness = find_configuration_restricted(work, ambient, inner_sets, budget=budget)
        if freeness.status == "found":
            rec = record(finder=freeness)
            if not verify_configuration(subset, rec.config_original, s):
                return finish("transported configuration failed verification")
            records.append(rec)
            return finish("configuration found")
        if freeness.status == "inconclusive":
            return finish("freeness search inconclusive within budget")

        try:
            out = dichotomy(
                work,
                ambient,
                inner_sets,
                enforce=(mode == "faithful"),
                budget=limits.count_budget,
                freeness=freeness,
            )
        except PreconditionError as exc:
            return finish(f"dichotomy precondition failed: {exc}")
        except BudgetExceeded as exc:
            return finish(f"dichotomy budget: {exc}")

        if out.kind == "small-bohr":
            records.append(record(dichotomy=out))
            return finish("innermost Bohr set certified small")

        if out.kind == "large-u2":
            _, j = out.scanned_pairs[-1]
            try:
                inc = fourier_increment(
                    work,
                    ambient,
                    inner_sets[j - 1],
                    table.c_prime(s, spec.dim, delta),
                    table.eta(s, delta),
                    grid=limits.grid,
                    enforce=(mode == "faithful"),
                    budget=limits.count_budget,
                )
            except BudgetExceeded as exc:
                return finish(f"fourier scan budget: {exc}")
            if inc.status in ("no-witness", "hypothesis-not-met"):
                return finish(f"fourier increment: {inc.status}")
            if inc.increment < table.min_increment():
                return finish("fourier witness gain below acceptance")
            rec, target = record(dichotomy=out, increment=inc), inc.new_set
        elif out.kind == "local-increment":
            rec, target = record(dichotomy=out), inner_sets[out.inner_index - 1]
        else:  # violation / no-case
            records.append(record(dichotomy=out))
            if out.kind == "violation":
                return finish("all dichotomy branches clean under certified preconditions")
            return finish("no dichotomy branch fired (preconditions unmet)")

        moved, problems = _checked_move(state, rec, target)
        if problems:
            return finish("transition rejected: " + "; ".join(problems))
        records.append(rec)
        state, ambient = moved, target

    return finish(f"step cap {_MAX_STEPS} reached")


# ---------------------------------------------------------------------------
# replaying and rechecking a finished run
# ---------------------------------------------------------------------------


def recheck_run(subset: np.ndarray, N: int, result: RunResult) -> list[str]:
    """Independently re-verify every accepted step of a run from its records.

    Replays the state transforms and re-measures each step's claim on freshly
    enumerated sets, each once: the start window, then the set each move
    lands on, carried over as the next ambient set as in :func:`run`. Each
    record's chain is rebuilt and recounted, and its dichotomy, if any, is
    run again and must equal the record's (see :func:`_rederived`). A
    ``config`` record's configuration is checked in the input; a
    ``local-increment`` or ``fourier-*`` move by the rule ``run`` accepted it
    by (see :func:`_checked_move`). The ``final`` state must be the replay's.
    The status, ``exit_code`` and ``config`` are read off the records and the
    final state, so rechecking these rechecks them. Returns the list of
    discrepancies (empty means the whole trace rechecks); a start window
    past the enumeration budget is one, not an error.
    """
    problems: list[str] = []
    state = _State.start(subset, N)
    try:
        ambient = BohrSet.from_spec(state.spec) if result.steps else None
    except BudgetExceeded as exc:
        return [f"start window does not rebuild: {exc}"]
    for rec in result.steps:
        spec = state.spec
        if rec.spec != spec:
            problems.append(f"step {rec.step}: ambient spec drifted")
            break
        if (rec.mult, rec.offset) != (state.mult, state.offset):
            problems.append(f"step {rec.step}: affine map drifted")
            break
        delta = Fraction(state.work.size, ambient.size)  # the state keeps work in ambient
        if delta != rec.delta:
            problems.append(f"step {rec.step}: recorded density {rec.delta} remeasures {delta}")
            break
        inner_sets, complaints = _rederived(rec, state.work, ambient)
        if complaints:
            problems += complaints
            break
        if rec.case == "config":
            cfg = rec.config_original
            if not verify_configuration(subset, cfg, cfg.s):
                problems.append(f"step {rec.step}: configuration not in the input set")
            break
        if rec.case == "local-increment":
            target = inner_sets[rec.dichotomy.inner_index - 1]
        elif rec.increment is not None:  # a fourier-translate's set is a rebuilt inner set
            new, built = rec.increment.new_spec, {bs.spec: bs for bs in inner_sets}
            target = built.get(new) or BohrSet.from_spec(new)
        else:
            break  # a terminal dichotomy record, re-derived above
        state, complaints = _checked_move(state, rec, target)
        ambient = target
        problems += complaints
    final = state.final()
    if not problems and result.final != final:
        keys = sorted(k for k in {**final, **result.final} if result.final.get(k) != final.get(k))
        problems.append(f"final state differs from the replay in {', '.join(keys)}")
    return problems


def _rederived(
    rec: StepRecord, work: np.ndarray, ambient: BohrSet
) -> tuple[list[BohrSet], list[str]]:
    """The chain of ``rec`` rebuilt from its factors and recounted, and every
    complaint against it and the dichotomy, rerun on it after the freeness
    search at the recorded budget. A ``small-bohr`` or ``violation`` claim
    rests on certified preconditions, so its inner sets must certify regular.
    A chain or dichotomy that cannot rerun (a factor out of range, a budget
    passed) is a complaint, not an error."""
    dich, step = rec.dichotomy, rec.step
    try:
        inner_sets, spec = [], rec.spec
        for link in rec.chain:  # certified only where a dichotomy reruns on them
            spec = spec.dilate(link.c)
            cert = regularity_certificate(spec) if dich else None
            inner_sets.append(BohrSet(spec, cert))
        sizes = [bs.size for bs in inner_sets]
        if sizes != [link.size for link in rec.chain]:
            return inner_sets, [f"step {step}: inner sizes recount as {sizes}"]
        if dich is None:
            return inner_sets, []
        budget = dich.freeness.budget
        freeness = find_configuration_restricted(work, ambient, inner_sets, budget=budget)
        out = dichotomy(work, ambient, inner_sets, enforce=False, freeness=freeness)
    except (BudgetExceeded, ValueError) as exc:
        return [], [f"step {step}: chain and dichotomy do not rerun: {exc}"]
    differ = [f.name for f in fields(out) if getattr(out, f.name) != getattr(dich, f.name)]
    if differ:
        return inner_sets, [f"step {step}: dichotomy reruns with a different {', '.join(differ)}"]
    return inner_sets, [
        f"step {step}: inner{i} not regular (witness c = {bs.certificate.witness_c})"
        for i, bs in enumerate(inner_sets, start=1)
        if dich.kind in ("small-bohr", "violation") and not bs.certificate.verdict
    ]
