"""Constant tables, the Fourier increment step, and the full engine.

The faithful constant table is checked against an independent big-rational
evaluator written from the same printed formulas; the Fourier step against a
fully hand-derived parity example; the engine state's two transitions against
a literal loop oracle; engine runs against exact replays, and the replay
against a census that forges every leaf of real step records.
"""

from __future__ import annotations

import dataclasses
import json
import random
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bohrkit import bohr, increment, patterns
from bohrkit.bohr import BohrSet, BohrSpec, BudgetExceeded, enumerate_bohr
from bohrkit.exact import torus_distance
from bohrkit.increment import (
    ChainLink,
    ConstantTable,
    EngineLimits,
    IncrementOutcome,
    RunResult,
    StepRecord,
    fourier_increment,
    plan_inner_dilations,
    recheck_run,
    run,
)
from bohrkit.patterns import (
    Configuration,
    behrend_set,
    dichotomy,
    increment_factor,
    random_set,
    smallness_bound,
    u2_threshold,
    verify_configuration,
)
from bohrkit.reports import emit_report

# ---------------------------------------------------------------------------
# independent constant evaluation
# ---------------------------------------------------------------------------


def faithful_oracle(s: int, d: int, delta: Fraction) -> dict:
    """The printed formulas, evaluated independently with Fractions."""
    b = s * (s + 1) // 2
    return {
        "x1": Fraction(1, 2**85) / s**24 / d * delta ** (6 * s * (s + 1)),
        "x_rest": Fraction(1, 2**20) / s**4 / d * delta ** (s * (s + 1)),
        "eta": Fraction(1, 2**23) / s**8 * delta ** (2 * s * (s + 1)),
        "c_prime": Fraction(1, 2**37) / s**8 / d * delta ** (2 * s * (s + 1)),
        "smallness": 32 * s * s * delta ** (-b),
        "u2_threshold": delta**b / (32 * s * s),
        "case2_factor": 1 + Fraction(1, 8 * s * s),
        "k_max": Fraction(2**55) * s**16 * delta ** (-4 * s * (s + 1)),
        "d_max": Fraction(2**29) * s**8 * delta ** (-2 * s * (s + 1)),
    }


def test_faithful_matches_independent_evaluation():
    rng = random.Random(41)
    t = ConstantTable.for_mode("faithful")
    for _ in range(20):
        s = rng.randint(2, 4)
        d = rng.randint(1, 5)
        delta = Fraction(rng.randint(1, 99), 100)
        oracle = faithful_oracle(s, d, delta)
        assert t.x1(s, d, delta) == oracle["x1"]
        assert t.x_rest(s, d, delta) == oracle["x_rest"]
        assert t.eta(s, delta) == oracle["eta"]
        assert t.c_prime(s, d, delta) == oracle["c_prime"]
        assert smallness_bound(s, delta) == oracle["smallness"]
        assert u2_threshold(s, delta) == oracle["u2_threshold"]
        assert increment_factor(s) == oracle["case2_factor"]
        assert t.k_max(s, delta) == oracle["k_max"]
        assert t.d_max(s, delta) == oracle["d_max"]


def test_faithful_spot_value():
    t = ConstantTable.for_mode("faithful")
    assert t.x1(2, 1, Fraction(1, 2)) == Fraction(1, 2**145)
    assert t.eta(2, Fraction(1, 2)) == Fraction(1, 2**43)
    assert smallness_bound(2, Fraction(1, 2)) == 1024
    assert u2_threshold(2, Fraction(1, 2)) == Fraction(1, 1024)


def test_practical_defaults_and_overrides():
    p = ConstantTable.for_mode("practical")
    assert p.x1(2, 1, Fraction(1, 2)) == Fraction(1, 160)
    assert p.x_rest(2, 1, Fraction(1, 2)) == Fraction(1, 8)
    assert p.eta(2, Fraction(1, 2)) == Fraction(1, 4)
    assert p.min_increment() == Fraction(1, 10**6)
    q = ConstantTable.for_mode("practical", {"eta": Fraction(1, 8)})
    assert q.eta(3, Fraction(1, 3)) == Fraction(1, 8)


def test_practical_rejects_unknown_override():
    with pytest.raises(ValueError, match="unknown constant"):
        ConstantTable.for_mode("practical", {"bogus": Fraction(1)})


def test_faithful_rejects_overrides():
    with pytest.raises(ValueError):
        run(np.arange(1, 10), 10, mode="faithful", overrides={"eta": Fraction(1, 2)})
    # an empty table of overrides names no constant
    assert ConstantTable.for_mode("faithful", {}) == ConstantTable("faithful", {})
    with pytest.raises(ValueError, match="mode must be faithful or practical"):
        ConstantTable.for_mode("exact")


# ---------------------------------------------------------------------------
# the Fourier increment step
# ---------------------------------------------------------------------------


def _interval(m) -> BohrSet:
    return BohrSet.from_spec(BohrSpec((Fraction(1),), Fraction(1, 2), Fraction(m)))


def test_fourier_increment_refined_parity_example():
    # hand-derived: evens in [-1800, 1800], window dilate 1/6, eta = 0.48;
    # the scan lands on y = 1/2 and the refined set is every even point of
    # a parity-selecting sub-Bohr-set
    base = _interval(1800)
    evens = base.elements[base.elements % 2 == 0]
    inner = BohrSet.from_spec(base.spec.dilate(Fraction(1, 6)))
    assert inner.size == 601
    out = fourier_increment(
        evens, base, inner, Fraction(1, 8), Fraction(48, 100),
        grid=1204, enforce=False,
    )
    assert out.status == "refined"
    assert out.a_star == -1500
    assert out.translate == -1764
    assert out.y == Fraction(1, 2)
    assert out.new_set.spec == out.new_spec
    assert np.array_equal(out.new_set.elements, enumerate_bohr(out.new_spec))
    assert out.new_spec.theta == (Fraction(1), Fraction(1, 2))
    assert out.new_spec.eps == Fraction(1, 96)
    assert out.new_spec.M == Fraction(75, 2)
    assert out.delta_before == Fraction(1801, 3601)
    assert out.delta_after == 1
    assert out.increment == Fraction(1800, 3601)
    assert out.guaranteed_bound is None and out.bound_asserted is False
    assert len(out.unmet) == 2  # c1 and c_prime hypothesis failures recorded
    # replay the claimed density exactly
    new_ambient = BohrSet.from_spec(out.new_spec)
    shifted = evens - out.translate
    inside = shifted[np.isin(shifted, new_ambient.elements)]
    assert Fraction(int(inside.size), new_ambient.size) == out.delta_after


def test_fourier_increment_refined_translate_stays_in_the_base():
    # the parity example with the evens running on past the base: a translate
    # a* + n1 + refined that pokes out of [-1800, 1800] holds as many evens,
    # but only translates inside the base are candidates
    base = _interval(1800)
    inner = BohrSet.from_spec(base.spec.dilate(Fraction(1, 6)))
    out = fourier_increment(
        np.arange(-3000, 3001, 2), base, inner, Fraction(1, 8), Fraction(48, 100),
        grid=1204, enforce=False,
    )
    assert (out.status, out.a_star, out.translate) == ("refined", -1500, -1764)
    assert out.delta_after == 1
    assert np.all(np.abs(out.translate + out.new_set.elements) <= 1800)


def test_fourier_increment_asserts_its_guaranteed_bound():
    # the evens of [-2000, 2000] with c_prime tiny enough that the printed
    # bound is positive: the refined pass checks the measured increment
    # against it (the branch that raises "the derivation is falsified")
    base = _interval(2000)
    evens = base.elements[base.elements % 2 == 0]
    inner = BohrSet.from_spec(base.spec.dilate(Fraction(1, 2)))
    out = fourier_increment(
        evens, base, inner, Fraction(1, 10**5), Fraction(48, 100), enforce=False
    )
    assert (out.status, out.a_star, out.translate) == ("refined", -1000, -2000)
    assert out.new_spec.theta == (Fraction(1), Fraction(1, 2))
    assert (out.new_spec.eps, out.new_spec.M) == (Fraction(1, 400000), Fraction(1, 100))
    assert (out.delta_before, out.delta_after) == (Fraction(2001, 4001), 1)
    assert out.bound_asserted is True
    assert out.guaranteed_bound == pytest.approx(0.14049, abs=1e-5)
    assert out.increment >= out.guaranteed_bound


@pytest.mark.parametrize(
    "spec, c1",
    [(BohrSpec((Fraction(1),), Fraction(1, 2), Fraction(200)), Fraction(1, 8)),
     (BohrSpec((Fraction(1), Fraction(2, 7)), Fraction(1, 5), Fraction(150)), Fraction(1, 6))],
    ids=["interval", "two-frequency"],
)
def test_plain_scan_translates_lie_in_the_base(monkeypatch, spec, c1):
    # the plain scan counts each a + N_1 against the subset alone: for a in
    # the (1 - c1)-dilate the translate lies in the base, so it counts |N_1|
    # there, by the kernel and by a literal loop
    base, inner = BohrSet.from_spec(spec), BohrSet.from_spec(spec.dilate(c1))
    scanned, real = [], increment.translate_counts

    def logged(sets, shifts, offsets, **kwargs):
        if len(sets) == 1:
            scanned.append((shifts, offsets))
        return real(sets, shifts, offsets, **kwargs)

    monkeypatch.setattr(increment, "translate_counts", logged)
    evens = base.elements[base.elements % 2 == 0]
    fourier_increment(evens, base, inner, Fraction(1, 8), Fraction(48, 100), enforce=False)
    ((shifts, offsets),) = scanned
    assert shifts.tolist() == enumerate_bohr(spec.dilate(1 - c1)).tolist()
    assert offsets.tolist() == inner.elements.tolist()
    scan = real((base.elements,), shifts, offsets, budget=shifts.size * offsets.size)
    assert all((held == offsets.size).all() for _, (held,) in scan)
    members = set(base.elements.tolist())
    assert all(a + n in members for a in shifts.tolist() for n in offsets.tolist())


def test_fourier_increment_translate_case():
    # a solid left half is so lopsided that a single translate already wins
    base = _interval(200)
    left = base.elements[base.elements <= 0]
    inner = BohrSet.from_spec(base.spec.dilate(Fraction(1, 8)))
    out = fourier_increment(
        left, base, inner, Fraction(1, 8), Fraction(48, 100),
        grid=128, enforce=False,
    )
    assert out.status == "translate"
    assert out.a_star == -175 and out.translate == -175
    assert out.new_spec == inner.spec
    assert out.new_set is inner
    assert out.delta_after == 1
    assert out.increment == Fraction(200, 401)
    assert out == fourier_increment(
        left, base, inner, Fraction(1, 8), Fraction(48, 100), grid=128, enforce=False
    )
    with pytest.raises(BudgetExceeded, match="translate count"):
        fourier_increment(
            left, base, inner, Fraction(1, 8), Fraction(48, 100),
            grid=128, enforce=False, budget=1,
        )


def _literal_members(spec: BohrSpec) -> list[int]:
    """The Bohr set of ``spec`` by its definition, ascending."""
    m = int(spec.M)
    return [
        n for n in range(-m, m + 1)
        if abs(n) <= spec.M and all(torus_distance(n * t) <= spec.eps for t in spec.theta)
    ]


@st.composite
def translate_pick_inputs(draw):
    m = draw(st.integers(40, 160))
    theta = draw(st.sampled_from([(Fraction(1),), (Fraction(1), Fraction(1, 7))]))
    spec = BohrSpec(theta, Fraction(1, 2) if len(theta) == 1 else Fraction(1, 5), Fraction(m))
    c1 = Fraction(draw(st.integers(1, m // 4)), m)
    # a random subset of the given density, or the points off a residue class
    # mod k (k = 1 is the whole window), where every translate gains nearly 0
    kind = draw(st.sampled_from([0.2, 0.5, 0.8, 1, 2, 3, 5]))
    eta = draw(st.sampled_from([Fraction(1, 4), Fraction(48, 100), Fraction(1)]))
    return spec, c1, kind, draw(st.integers(0, 2**32 - 1)), eta


@settings(max_examples=40, deadline=None)
@given(translate_pick_inputs())
def test_fourier_increment_translate_pick_is_the_literal_rule(inputs):
    # the first a of the (1 - c1)-dilate, ascending, whose translate a + N1
    # gains at least eta^3/128 over the base density, counted exactly
    spec, c1, kind, seed, eta = inputs
    window = np.arange(-2 * int(spec.M), 2 * int(spec.M) + 1)
    if isinstance(kind, float):
        subset = window[np.random.default_rng(seed).random(window.size) < kind]
    else:
        subset = window[(window % kind != seed % kind) | (kind == 1)]
    members = set(subset.tolist())
    base_pts = _literal_members(spec)
    delta = Fraction(sum(n in members for n in base_pts), len(base_pts))
    inner = BohrSet.from_spec(spec.dilate(c1))
    offsets = inner.elements.tolist()
    pick = None
    for a in _literal_members(spec.dilate(1 - c1)):
        gain = Fraction(sum(a + n in members for n in offsets), len(offsets)) - delta
        if gain >= eta**3 / 128:
            pick = (a, gain)
            break
    out = fourier_increment(
        subset, BohrSet.from_spec(spec), inner, Fraction(1, 8), eta, grid=16, enforce=False
    )
    if pick is None:
        assert out.status != "translate"
    else:
        assert (out.status, out.a_star, out.translate) == ("translate", pick[0], pick[0])
        assert out.increment == pick[1] and out.scan_value == float(pick[1])


def test_fourier_increment_enforce_reports_unmet():
    base = _interval(200)
    evens = base.elements[base.elements % 2 == 0]
    inner = BohrSet.from_spec(base.spec.dilate(Fraction(1, 8)))
    out = fourier_increment(
        evens, base, inner, Fraction(1, 8), Fraction(48, 100),
        grid=128, enforce=True,
    )
    assert out.status == "hypothesis-not-met"
    assert out.unmet
    assert out.new_spec is None and out.increment is None


# ---------------------------------------------------------------------------
# the engine state and its two transitions
# ---------------------------------------------------------------------------


def transition_oracle(subset, N: int, moves) -> dict:
    """Current point -> input point after ``moves``, by literal loops.

    A ``doubled`` move by ``a`` onto ``T`` keeps each ``n`` in ``T`` whose
    point ``a + 2n`` is held; a ``translated`` move by ``t`` keeps each ``n``
    whose point ``t + n`` is held. The input point rides along unchanged.
    """
    held = {x: x for x in subset if -N <= x <= N}
    for kind, shift, target in moves:
        scale = 2 if kind == "doubled" else 1
        moved = {}
        for n in target.elements.tolist():
            if shift + scale * n in held:
                moved[n] = held[shift + scale * n]
        held = moved
    return held


@st.composite
def transition_chains(draw):
    N = draw(st.integers(8, 60))
    window = range(-N - 3, N + 4)  # a few input points fall outside [-N, N]
    mask = draw(st.lists(st.booleans(), min_size=len(window), max_size=len(window)))
    moves = []
    for _ in range(draw(st.integers(0, 3))):
        q = draw(st.integers(1, 12))
        theta = (Fraction(1), Fraction(draw(st.integers(1, q)), q))
        spec = BohrSpec(theta, Fraction(draw(st.integers(1, 4)), 8), draw(st.integers(1, N)))
        kind = draw(st.sampled_from(["doubled", "translated"]))
        moves.append((kind, draw(st.integers(-N // 2, N // 2)), BohrSet.from_spec(spec)))
    return [x for x, keep in zip(window, mask) if keep], N, moves


@settings(max_examples=150, deadline=None)
@given(transition_chains())
@example((list(range(-20, 21)), 20, [
    ("doubled", 3, _interval(6)), ("translated", 2, _interval(3)), ("doubled", -1, _interval(1)),
]))
def test_state_transitions_match_loop_oracle(chain):
    subset, N, moves = chain
    state = increment._State.start(np.array(subset, dtype=np.int64), N)
    for kind, shift, target in moves:
        state = state._moved(shift, 2 if kind == "doubled" else 1, target)
        assert state.spec == target.spec
    held = transition_oracle(subset, N, moves)
    assert state.work.tolist() == sorted(held)
    assert [state.mult * x + state.offset for x in sorted(held)] == [held[x] for x in sorted(held)]


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


def test_run_practical_finds_configuration():
    subset = random_set(2000, 0.3, 7)
    result = run(subset, 2000, 2, mode="practical")
    assert result.status == "found"
    assert result.exit_code == 0
    assert verify_configuration(subset, result.config, 2)
    assert recheck_run(subset, 2000, result) == []


def test_run_practical_behrend_exhausts():
    subset = behrend_set(3000)
    result = run(subset, 3000, 2, mode="practical")
    assert result.status == "exhausted"
    assert result.exit_code == 1
    assert result.steps[-1].case == "small-bohr"
    assert recheck_run(subset, 3000, result) == []


def test_run_behrend_1e5_takes_certified_step():
    # the exhaustive freeness walk fits the default finder budget of 10^8 words
    subset = behrend_set(10**5)
    result = run(subset, 10**5, 2, mode="practical")
    assert result.status == "exhausted"
    assert [r.case for r in result.steps] == ["small-bohr"]
    assert recheck_run(subset, 10**5, result) == []


def test_run_certifies_and_enumerates_each_spec_once(monkeypatch):
    # the base, N_1 and N_2 of the one small-bohr step: the chain keeps the
    # certificates its dilation search found, and the dichotomy reuses them
    certified, enumerated = [], []

    def counting(name, log):
        inner = getattr(bohr, name)

        def wrapper(spec, *args, **kwargs):
            log.append(spec)
            return inner(spec, *args, **kwargs)

        for module in (bohr, increment):
            if getattr(module, name, None) is inner:
                monkeypatch.setattr(module, name, wrapper)

    counting("_certify", certified)
    counting("enumerate_bohr", enumerated)
    result = run(behrend_set(10**5), 10**5, 2, mode="practical")
    assert [r.case for r in result.steps] == ["small-bohr"]
    assert len(certified) == len(set(certified)) == 3
    assert len(enumerated) == len(set(enumerated)) == 3
    assert set(certified) == set(enumerated)


def test_chain_past_one_is_not_planned():
    # practical x1 = 4 searches [2, 4]: a dilate that grows is not nested
    subset = behrend_set(3000)
    table = ConstantTable.for_mode("practical", {"x1": Fraction(4)})
    spec = BohrSpec((Fraction(1),), Fraction(1, 2), Fraction(3000))
    assert plan_inner_dilations(spec, 2, table, Fraction(1, 10)) is None
    result = run(subset, 3000, 2, mode="practical", overrides={"x1": Fraction(4)})
    assert (result.status, result.reason) == ("limit", "no regular dilation found for the chain")


def test_run_faithful_terminates_step_one():
    base = np.arange(-1000, 1001)
    evens = base[base % 2 == 0]
    result = run(evens, 1000, 2, mode="faithful")
    assert result.status == "exhausted"
    assert len(result.steps) == 1
    assert result.steps[0].case == "small-bohr"
    # the faithful dilation chain pins both inner sets to {0}
    assert result.steps[0].dichotomy.inner_sizes == (1, 1)
    assert recheck_run(evens, 1000, result) == []


def test_run_step_cap_limit(monkeypatch):
    monkeypatch.setattr(increment, "_MAX_STEPS", 0)
    subset = random_set(500, 0.4, 3)
    result = run(subset, 500, 2, mode="practical")
    assert (result.status, result.reason) == ("limit", "step cap 0 reached")
    assert result.exit_code == 3


def test_recheck_detects_tampering():
    subset = random_set(2000, 0.3, 7)
    result = run(subset, 2000, 2, mode="practical")
    assert result.status == "found"
    # replay against a different input set: the replay must complain
    other = random_set(2000, 0.3, 8)
    assert recheck_run(other, 2000, result) != []


def _behrend_small_bohr_run():
    subset = behrend_set(3000)
    result = run(subset, 3000, 2, mode="practical")
    assert result.steps[-1].case == "small-bohr"
    return subset, result


def _forge_last(result: RunResult, dichotomy=None, **fields) -> RunResult:
    """``result`` with its last record's ``fields`` replaced, and the fields
    of its dichotomy outcome named in ``dichotomy``."""
    rec = result.steps[-1]
    if dichotomy:
        fields["dichotomy"] = dataclasses.replace(rec.dichotomy, **dichotomy)
    forged = dataclasses.replace(rec, **fields)
    return dataclasses.replace(result, steps=result.steps[:-1] + (forged,))


def _objections(subset, N: int, forge) -> list[str]:
    """What ``recheck_run`` reports on the result ``forge`` builds, or the
    ``ValueError`` that refuses to build it."""
    try:
        forged = forge()
    except ValueError as exc:
        return [f"refused at construction: {exc}"]
    return recheck_run(subset, N, forged)


def _resized(chain, sizes):
    return tuple(ChainLink(k.index, k.c, k.target, n, k.tried) for k, n in zip(chain, sizes))


@pytest.mark.parametrize(
    "field, value, complaint",
    [("inner_sizes", (7, 1), "inner sizes recount"),
     ("delta", Fraction(1, 2), "dichotomy (s, delta) = (2, 1/2) differs")],
)
def test_recheck_rederives_forged_small_bohr(field, value, complaint):
    # sizes forged in the links and the dichotomy alike are recounted; an
    # (s, delta) that disagrees with the step is refused when it is built.
    # Either way the innermost size stays below the threshold the report
    # derives from (s, delta)
    subset, result = _behrend_small_bohr_run()
    chain = result.steps[-1].chain
    links = {"chain": _resized(chain, value)} if field == "inner_sizes" else {}
    problems = _objections(
        subset, 3000, lambda: _forge_last(result, dichotomy={field: value}, **links)
    )
    assert len(problems) == 1 and complaint in problems[0]


def test_small_bohr_record_derives_its_threshold():
    # the small entry of the report is derived, so no record can drop it
    # or carry another threshold
    _, result = _behrend_small_bohr_run()
    dich = result.steps[-1].dichotomy
    small = dich.as_dict()["data"]["small"]
    assert small["size"] == dich.inner_sizes[-1]
    assert Fraction(*small["threshold"]) == smallness_bound(2, dich.delta)
    with pytest.raises(TypeError):
        dataclasses.replace(dich, small=None)


@pytest.mark.parametrize(
    "kind, status, code", [("violation", "violation", 3), ("no-case", "limit", 3)]
)
def test_recheck_rederives_relabelled_small_bohr(kind, status, code):
    # the real chain certifies and the freeness search reruns clean, but its
    # innermost set is small: branch 1 fires before any other case is reached.
    # The relabelled kind alone sets the status the result reports
    subset, result = _behrend_small_bohr_run()
    forged = _forge_last(result, dichotomy={"kind": kind})
    assert forged.steps[-1].case == kind and (forged.status, forged.exit_code) == (status, code)
    assert recheck_run(subset, 3000, forged) == [
        f"step {result.steps[-1].step}: dichotomy reruns with a different kind"
    ]


def test_recheck_certifies_the_small_bohr_chain():
    # the innermost set becomes M = 199/100 (c_2 = 398/1875 after c_1 = 1/320
    # on N = 3000): size 3 and not regular. The record holds the outcome the
    # dichotomy gives on that chain, so it reruns equal, and admits the
    # irregular set in its unmet list; a small-bohr claim still needs it regular
    subset, result = _behrend_small_bohr_run()
    rec = result.steps[-1]
    first, second = rec.chain
    chain = (first, ChainLink(2, Fraction(398, 1875), second.target, 3, second.tried))
    inner = [BohrSet.from_spec(rec.spec.dilate(first.c))]
    inner.append(BohrSet.from_spec(inner[0].spec.dilate(chain[1].c)))
    out = dichotomy(subset, BohrSet.from_spec(rec.spec), inner, enforce=False)
    assert out.kind == "small-bohr" and "inner2 not regular (witness c = 1/199)" in out.unmet
    forged = dataclasses.replace(
        result, steps=(dataclasses.replace(rec, chain=chain, dichotomy=out),)
    )
    assert recheck_run(subset, 3000, forged) == [
        f"step {rec.step}: inner2 not regular (witness c = 1/199)"
    ]


def test_recheck_reruns_freeness_for_small_bohr():
    subset, result = _behrend_small_bohr_run()
    members = set(subset.tolist())
    x = next(v for v in range(100, 3000) if not {v, v + 1, v + 2} & members)
    # same density on the ambient window, but a + {0, 1, 2} is a configuration
    # with n_1 = 1 in the first inner set and n_2 = 0 in the second
    other = np.sort(np.concatenate([subset[3:], [x, x + 1, x + 2]]))
    assert other.size == subset.size
    assert recheck_run(other, 3000, result) == [
        f"step {result.steps[-1].step}: dichotomy reruns with a different unmet, freeness"
    ]


def _parity_fourier_run():
    # the parity example as a one-step run: N = 1800 makes its interval base
    # the run's own starting spec
    base = _interval(1800)
    evens = base.elements[base.elements % 2 == 0]
    inner = BohrSet.from_spec(base.spec.dilate(Fraction(1, 6)))
    out = fourier_increment(
        evens, base, inner, Fraction(1, 8), Fraction(48, 100),
        grid=1204, enforce=False,
    )
    rec = StepRecord(0, out.delta_before, base.spec, 1, 0, increment=out)
    final = {"mult": 1, "offset": -1764, "d": 2, "set_size": 37}
    return evens, RunResult("hand-built", (rec,), final)


def test_recheck_accepts_hand_built_fourier_record():
    evens, result = _parity_fourier_run()
    assert recheck_run(evens, 1800, result) == []


def _evens_local_increment_run():
    # the evens of [-2500, 2500] with the chain c = 1/4, 1 as a one-step run:
    # every contained doubled translate at even a is all even
    base = _interval(2500)
    evens = base.elements[base.elements % 2 == 0]
    inner = BohrSet.from_spec(base.spec.dilate(Fraction(1, 4)))
    out = dichotomy(evens, base, [inner, inner], enforce=False)
    assert out.kind == "local-increment"
    links = (
        ChainLink(1, Fraction(1, 4), Fraction(1, 4), inner.size, 1),
        ChainLink(2, Fraction(1), Fraction(1), inner.size, 1),
    )
    rec = StepRecord(0, out.delta, base.spec, 1, 0, links, dichotomy=out)
    final = {"mult": 2, "offset": -1250, "d": 1, "set_size": 1251}
    return evens, RunResult("hand-built", (rec,), final)


def test_recheck_accepts_hand_built_local_increment_record():
    evens, result = _evens_local_increment_run()
    assert result.steps[0].dichotomy.new_density == 1
    assert recheck_run(evens, 2500, result) == []


@pytest.mark.parametrize(
    "forged, complaint",
    [
        # a + 2 N_1 = [2, 2502] pokes out of the base, at the density 1250/1251
        # it holds there; the rerun picks the first contained translate
        ({"a": 1252, "new_density": Fraction(1250, 1251)}, "with a different a, new_density"),
        ({"new_density": Fraction(1, 2)}, "with a different new_density"),
    ],
    ids=["translate-leaves-base", "forged-density"],
)
def test_recheck_rederives_forged_local_increment_record(forged, complaint):
    evens, result = _evens_local_increment_run()
    problems = recheck_run(evens, 2500, _forge_last(result, dichotomy=forged))
    assert len(problems) == 1 and complaint in problems[0]


@pytest.mark.parametrize("index", [0, 3, 7])
def test_recheck_refuses_an_inner_index_off_the_chain(index):
    # an index off the chain would replay the move on N_0 or past the chain
    evens, result = _evens_local_increment_run()
    problems = recheck_run(evens, 2500, _forge_last(result, dichotomy={"inner_index": index}))
    assert problems == ["step 0: dichotomy reruns with a different inner_index"]


def _forge_translate(evens):
    # a translate that pokes out of [-1800, 1800], with its density claim
    # re-measured so that only the containment check can object
    refined = BohrSet.from_spec(BohrSpec(
        (Fraction(1), Fraction(1, 2)), Fraction(1, 96), Fraction(75, 2)
    ))
    shifted = evens + 1800
    got = Fraction(int(np.isin(shifted, refined.elements).sum()), refined.size)
    return {"translate": -1800, "delta_after": got}


def _forge_spec(theta, eps):
    def forge(evens):
        # the same integer set as the true refined spec, so the density holds
        return {"new_set": BohrSet.from_spec(BohrSpec(theta, eps, Fraction(75, 2)))}
    return forge


@pytest.mark.parametrize(
    "forge, complaint",
    [(_forge_translate, "refined translate leaves the ambient set"),
     # a refined record must add a frequency: one that drops the ambient
     # frequency for another is refused when it is built
     (_forge_spec((Fraction(1, 2),), Fraction(1, 96)), "refined exactly when it adds"),
     (_forge_spec((Fraction(1), Fraction(1, 2)), Fraction(1, 48)), "not a refinement")],
    ids=["shifted-translate", "dropped-frequency", "uneven-shrink"],
)
def test_recheck_rederives_forged_fourier_record(forge, complaint):
    evens, result = _parity_fourier_run()
    inc = dataclasses.replace(result.steps[0].increment, **forge(evens))
    problems = _objections(evens, 1800, lambda: _forge_last(result, increment=inc))
    assert len(problems) == 1 and complaint in problems[0]


# ---------------------------------------------------------------------------
# the engine's own transitions
# ---------------------------------------------------------------------------


def _forced_thresholds(monkeypatch, factor=None):
    """No set is small, and with ``factor`` no local increment is large
    enough: ``increment`` imports the factor by name, so patch it there too."""
    monkeypatch.setattr(patterns, "smallness_bound", lambda s, delta: Fraction(0))
    for module in (patterns, increment):
        if factor is not None:
            monkeypatch.setattr(module, "increment_factor", lambda s: Fraction(factor))


# canonical reports of the two transition runs, written compactly
_LOCAL_RUN = (
    '{"config":null,"exit_code":3,"final":{"d":1,"mult":4,"offset":14,"set_size":1},'
    '"reason":"no dichotomy branch fired (preconditions unmet)","status":"limit",'
    '"steps":[{"M":[1000,1],"case":"local-increment","certificate":{"chain":[{"c":[1,'
    '320],"index":1,"size":7,"target":[1,160],"tried":1},{"c":[1,16],"index":2,"size":1,'
    '"target":[1,8],"tried":1}],"dichotomy":{"data":{"freeness":{"budget":100000000,'
    '"mode":"restricted","status":"none","work":272},"increment":{"a":8,"inner_index":1,'
    '"new_density":[1,7],"required":[187,10672]},"inner_sizes":[7,1]},"delta":[34,2001],'
    '"kind":"local-increment","s":2,'
    '"unmet":["c1 = 1/320 exceeds delta^s/(3200 d s^2) = 289/12812803200"]}},"d":1,"delta":[34,'
    '2001],"eps":[1,2],"mult":1,"offset":0,"spec":{"M":[1000,1],"degenerate":true,'
    '"dim":1,"eps":[1,2],"theta":[[1,1]]},"step":0},{"M":[25,8],"case":"local-increment",'
    '"certificate":{"chain":[{"c":[1,320],"index":1,"size":1,"target":[1,160],"tried":1},'
    '{"c":[1,16],"index":2,"size":1,"target":[1,8],"tried":1}],'
    '"dichotomy":{"data":{"freeness":{"budget":100000000,"mode":"restricted",'
    '"status":"none","work":3},"increment":{"a":3,"inner_index":1,"new_density":[1,1],'
    '"required":[33,224]},"inner_sizes":[1,1]},"delta":[1,7],"kind":"local-increment",'
    '"s":2,"unmet":["c1 = 1/320 exceeds delta^s/(3200 d s^2) = 1/627200"]}},"d":1,"delta":[1,7],'
    '"eps":[1,640],"mult":2,"offset":8,"spec":{"M":[25,8],"degenerate":false,"dim":1,'
    '"eps":[1,640],"theta":[[1,1]]},"step":1},{"M":[5,512],"case":"no-case",'
    '"certificate":{"chain":[{"c":[1,320],"index":1,"size":1,"target":[1,160],"tried":1},'
    '{"c":[1,16],"index":2,"size":1,"target":[1,8],"tried":1}],'
    '"dichotomy":{"data":{"freeness":{"budget":100000000,"mode":"restricted",'
    '"status":"none","work":3},"inner_sizes":[1,1],"norms_scanned":{"1,2":0.0},'
    '"u2_threshold":[1,128]},"delta":[1,1],"kind":"no-case","s":2,'
    '"unmet":["c1 = 1/320 exceeds delta^s/(3200 d s^2) = 1/12800"]}},"d":1,"delta":[1,1],'
    '"eps":[1,204800],"mult":4,"offset":14,"spec":{"M":[5,512],"degenerate":true,"dim":1,'
    '"eps":[1,204800],"theta":[[1,1]]},"step":2}]}'
)

_FOURIER_RUN = (
    '{"config":null,"exit_code":3,"final":{"d":1,"mult":1,"offset":14,"set_size":1},'
    '"reason":"no dichotomy branch fired (preconditions unmet)","status":"limit",'
    '"steps":[{"M":[300,1],"case":"fourier-translate","certificate":{"chain":[{"c":[1,'
    '320],"index":1,"size":1,"target":[1,160],"tried":1},{"c":[1,16],"index":2,"size":1,'
    '"target":[1,8],"tried":1}],"dichotomy":{"data":{"freeness":{"budget":100000000,'
    '"mode":"restricted","status":"none","work":15},"inner_sizes":[1,1],'
    '"large_u2":{"norm":0.393183236324,"norms_scanned":{"1,2":0.393183236324},"pair":[1,'
    '2],"threshold":[32,217081801]}},"delta":[16,601],"kind":"large-u2","s":2,'
    '"unmet":["c1 = 1/320 exceeds delta^s/(3200 d s^2) = 1/18060050"]},"increment":{"a_star":14,'
    '"bound_asserted":false,"delta_after":[1,1],"delta_before":[16,601],"grid_used":512,'
    '"guaranteed_bound":null,"inverse_avg":null,"new_spec":{"M":[15,256],'
    '"degenerate":true,"dim":1,"eps":[1,10240],"theta":[[1,1]]},'
    '"scan_value":0.973377703827,"status":"translate","translate":14,'
    '"unmet":["c1 = 1/5120 exceeds eta^3/(2^15 d) = 1/2097152",'
    '"c_prime = 1/8 exceeds eta/(2^13 d) = 1/32768"],"y":null}},"d":1,"delta":[16,601],'
    '"eps":[1,2],"mult":1,"offset":0,"spec":{"M":[300,1],"degenerate":true,"dim":1,'
    '"eps":[1,2],"theta":[[1,1]]},"step":0},{"M":[15,256],"case":"no-case",'
    '"certificate":{"chain":[{"c":[1,320],"index":1,"size":1,"target":[1,160],"tried":1},'
    '{"c":[1,16],"index":2,"size":1,"target":[1,8],"tried":1}],'
    '"dichotomy":{"data":{"freeness":{"budget":100000000,"mode":"restricted",'
    '"status":"none","work":3},"inner_sizes":[1,1],"norms_scanned":{"1,2":0.0},'
    '"u2_threshold":[1,128]},"delta":[1,1],"kind":"no-case","s":2,'
    '"unmet":["c1 = 1/320 exceeds delta^s/(3200 d s^2) = 1/12800"]}},"d":1,"delta":[1,1],'
    '"eps":[1,10240],"mult":1,"offset":14,"spec":{"M":[15,256],"degenerate":true,"dim":1,'
    '"eps":[1,10240],"theta":[[1,1]]},"step":1}]}'
)


@pytest.mark.parametrize(
    "N, factor, cases, report",
    [(1000, None, ["local-increment", "local-increment", "no-case"], _LOCAL_RUN),
     (300, 100, ["fourier-translate", "no-case"], _FOURIER_RUN)],
    ids=["local-increment", "fourier"],
)
def test_run_takes_both_transitions(monkeypatch, N, factor, cases, report):
    _forced_thresholds(monkeypatch, factor)
    subset = behrend_set(N)
    result = run(subset, N, 2, mode="practical")
    assert [r.case for r in result.steps] == cases
    assert recheck_run(subset, N, result) == []
    canonical = json.loads(emit_report(result.as_dict()))
    assert json.dumps(canonical, sort_keys=True, separators=(",", ":")) == report


@pytest.mark.parametrize(
    "N, forced, kwargs, reason",
    [(2 * 10**4, None, {"limits": EngineLimits(finder_budget=2000)},
      "freeness search inconclusive within budget"),
     (1000, _forced_thresholds, {"limits": EngineLimits(count_budget=1000)},
      "dichotomy budget: translate count needs 14007 points, budget 1000"),
     (300, partial(_forced_thresholds, factor=100), {"overrides": {"min_increment": 1}},
      "fourier witness gain below acceptance")],
    ids=["finder-budget", "count-budget", "min-increment"],
)
def test_run_limit_exits(monkeypatch, N, forced, kwargs, reason):
    # each exit stops before a record is written, so the recheck has nothing to replay
    if forced is not None:
        forced(monkeypatch)
    subset = behrend_set(N)
    result = run(subset, N, 2, mode="practical", **kwargs)
    assert (result.status, result.reason, result.steps) == ("limit", reason, ())
    assert recheck_run(subset, N, result) == []


def _logged(monkeypatch, name):
    """The specs handed to ``bohr.<name>`` from now on, wherever it is read."""
    log, inner = [], getattr(bohr, name)

    def wrapper(spec, *args, **kwargs):
        log.append(spec)
        return inner(spec, *args, **kwargs)

    for module in (bohr, increment):
        if getattr(module, name, None) is inner:
            monkeypatch.setattr(module, name, wrapper)
    return log


@pytest.mark.parametrize(
    "N, factor", [(1000, None), (300, 100)], ids=["local-increment", "fourier"]
)
def test_recheck_certifies_and_enumerates_each_spec_once(monkeypatch, N, factor):
    # a move carries the set it checked on over as the next ambient set, and
    # a fourier-translate target is the rebuilt inner set it names
    _forced_thresholds(monkeypatch, factor)
    subset = behrend_set(N)
    result = run(subset, N, 2, mode="practical")
    certified = _logged(monkeypatch, "_certify")
    enumerated = _logged(monkeypatch, "enumerate_bohr")
    assert recheck_run(subset, N, result) == []
    assert len(certified) == len(set(certified))
    assert len(enumerated) == len(set(enumerated))


def test_run_rejects_a_move_recheck_rejects(monkeypatch):
    # a forged outcome whose doubled translate a + 2 N_1 = [992, 1004] pokes
    # out of the window [-1000, 1000], with its density claim re-measured so
    # that only the containment check can object
    subset, real = behrend_set(1000), dichotomy
    members = set(subset.tolist())

    def forged(work, ambient, inner_sets, **kwargs):
        out = real(work, ambient, inner_sets, **kwargs)
        monkeypatch.setattr(increment, "dichotomy", real)  # forge the first step only
        n1, a = inner_sets[0].elements.tolist(), 998
        got = Fraction(sum(a + 2 * n in members for n in n1), len(n1))
        assert n1 == list(range(-3, 4)) and got > out.delta * increment_factor(2)
        forged_fields = {"kind": "local-increment", "inner_index": 1, "a": a, "new_density": got}
        return dataclasses.replace(out, **forged_fields)

    monkeypatch.setattr(increment, "dichotomy", forged)
    result = run(subset, 1000, 2, mode="practical")
    assert (result.status, result.steps) == ("limit", ())
    assert result.reason == "transition rejected: step 0: doubled translate leaves the base"


def _step_of_case(case: str) -> StepRecord:
    """A real record of each case ``run`` reaches, and the two hand-built ones."""
    if case == "config":
        return run(random_set(2000, 0.3, 7), 2000, 2, mode="practical").steps[-1]
    if case == "small-bohr":
        return _behrend_small_bohr_run()[1].steps[-1]
    if case == "local-increment":
        return _evens_local_increment_run()[1].steps[0]
    return _parity_fourier_run()[1].steps[0]


# report forms of real records, pinned as literals: the trace and the run
# report carry these bytes, whatever form the records keep their evidence in
STEP_FORMS = {
    "config": {
        "M": [2000, 1],
        "case": "config",
        "certificate": {
            "chain": [
                {"c": [1, 320], "index": 1, "size": 13, "target": [1, 160], "tried": 1},
                {"c": [1, 16], "index": 2, "size": 1, "target": [1, 8], "tried": 1},
            ],
            "config": {"a": 2, "elements": [2, 7, 12], "ns": [5, 0]},
            "config_original": {"a": 2, "elements": [2, 7, 12], "ns": [5, 0]},
            "finder": {
                "budget": 100000000,
                "config": {"a": 2, "elements": [2, 7, 12], "ns": [5, 0]},
                "mode": "restricted",
                "status": "found",
                "work": 192,
            },
        },
        "d": 1,
        "delta": [648, 4001],
        "eps": [1, 2],
        "mult": 1,
        "offset": 0,
        "spec": {
            "M": [2000, 1],
            "degenerate": True,
            "dim": 1,
            "eps": [1, 2],
            "theta": [[1, 1]],
        },
        "step": 0,
    },
    "small-bohr": {
        "M": [3000, 1],
        "case": "small-bohr",
        "certificate": {
            "chain": [
                {"c": [1, 320], "index": 1, "size": 19, "target": [1, 160], "tried": 1},
                {"c": [1, 16], "index": 2, "size": 1, "target": [1, 8], "tried": 1},
            ],
            "dichotomy": {
                "data": {
                    "freeness": {
                        "budget": 100000000,
                        "mode": "restricted",
                        "status": "none",
                        "work": 2113,
                    },
                    "inner_sizes": [19, 1],
                    "small": {"size": 1, "threshold": [3457728288016, 29791]},
                },
                "delta": [62, 6001],
                "kind": "small-bohr",
                "s": 2,
                "unmet": ["c1 = 1/320 exceeds delta^s/(3200 d s^2) = 961/115238403200"],
            },
        },
        "d": 1,
        "delta": [62, 6001],
        "eps": [1, 2],
        "mult": 1,
        "offset": 0,
        "spec": {
            "M": [3000, 1],
            "degenerate": True,
            "dim": 1,
            "eps": [1, 2],
            "theta": [[1, 1]],
        },
        "step": 0,
    },
    "local-increment": {
        "M": [2500, 1],
        "case": "local-increment",
        "certificate": {
            "chain": [
                {"c": [1, 4], "index": 1, "size": 1251, "target": [1, 4], "tried": 1},
                {"c": [1, 1], "index": 2, "size": 1251, "target": [1, 1], "tried": 1},
            ],
            "dichotomy": {
                "data": {
                    "freeness": {
                        "budget": 100000000,
                        "config": {
                            "a": -2500,
                            "elements": [-2500, -2498, -2496],
                            "ns": [0, 2],
                        },
                        "mode": "restricted",
                        "status": "found",
                        "work": 7201492,
                    },
                    "increment": {
                        "a": -1250,
                        "inner_index": 1,
                        "new_density": [1, 1],
                        "required": [27511, 53344],
                    },
                    "inner_sizes": [1251, 1251],
                },
                "delta": [2501, 5001],
                "kind": "local-increment",
                "s": 2,
                "unmet": [
                    "c1 = 1/4 exceeds delta^s/(3200 d s^2) = 6255001/320128012800",
                    "subset is not configuration-free on the restricted domain",
                ],
            },
        },
        "d": 1,
        "delta": [2501, 5001],
        "eps": [1, 2],
        "mult": 1,
        "offset": 0,
        "spec": {
            "M": [2500, 1],
            "degenerate": True,
            "dim": 1,
            "eps": [1, 2],
            "theta": [[1, 1]],
        },
        "step": 0,
    },
    "fourier-refined": {
        "M": [1800, 1],
        "case": "fourier-refined",
        "certificate": {
            "increment": {
                "a_star": -1500,
                "bound_asserted": False,
                "delta_after": [1, 1],
                "delta_before": [1801, 3601],
                "grid_used": 1204,
                "guaranteed_bound": None,
                "inverse_avg": None,
                "new_spec": {
                    "M": [75, 2],
                    "degenerate": False,
                    "dim": 2,
                    "eps": [1, 96],
                    "theta": [[1, 1], [1, 2]],
                },
                "scan_value": 0.4999997689678546,
                "status": "refined",
                "translate": -1764,
                "unmet": [
                    "c1 = 1/6 exceeds eta^3/(2^15 d) = 27/8000000",
                    "c_prime = 1/8 exceeds eta/(2^13 d) = 3/51200",
                ],
                "y": [1, 2],
            },
        },
        "d": 1,
        "delta": [1801, 3601],
        "eps": [1, 2],
        "mult": 1,
        "offset": 0,
        "spec": {
            "M": [1800, 1],
            "degenerate": True,
            "dim": 1,
            "eps": [1, 2],
            "theta": [[1, 1]],
        },
        "step": 0,
    },
}


@pytest.mark.parametrize("case", list(STEP_FORMS))
def test_step_record_report_forms_are_pinned(case):
    rec = _step_of_case(case)
    assert rec.case == case
    assert rec.as_dict() == STEP_FORMS[case]


def test_recheck_reports_records_missing_their_witness():
    # a relabelled outcome holds none of the evidence its new case moves on
    subset, result = _behrend_small_bohr_run()
    forged = _forge_last(result, dichotomy={"kind": "local-increment"})
    assert forged.status == "limit"
    assert recheck_run(subset, 3000, forged) == [
        f"step {result.steps[-1].step}: dichotomy reruns with a different kind"
    ]
    evens, result = _parity_fourier_run()
    inc = dataclasses.replace(
        result.steps[0].increment,
        status="no-witness", new_set=None, translate=None, delta_after=None,
    )
    assert _objections(evens, 1800, lambda: _forge_last(result, increment=inc)) == [
        "refused at construction: an increment moves, refined exactly when it adds a frequency"
    ]


_EMPTIED = "final state differs from the replay in set_size"


def _emptied(result: RunResult) -> dict:
    return {**result.final, "set_size": 0}


def test_recheck_derives_exhaustion_of_an_empty_trace():
    # a trace with no records is exhausted exactly when its final set is
    # empty, and the replay recounts that set from the input
    final = {"mult": 1, "offset": 0, "d": 1, "set_size": 0}
    forged = RunResult("forged", (), final)
    assert forged.status == "exhausted"
    assert recheck_run(random_set(2000, 0.3, 7), 2000, forged) == [_EMPTIED]
    assert recheck_run(np.array([-2500, 2001]), 2000, forged) == []
    real = run(np.array([-2500, 2001]), 2000, 2, mode="practical")
    assert (real.status, real.steps) == ("exhausted", ())


def test_an_empty_set_ends_exhausted_at_every_N():
    # the empty set is found before the window is enumerated, so a window past
    # the enumeration budget does not turn it into a limit
    empty = np.array([], dtype=np.int64)
    for subset, N in [(empty, 100), (empty, 10**7), (np.array([-(10**8)]), 10**7)]:
        result = run(subset, N, 2)
        assert (result.status, result.steps, result.final["set_size"]) == ("exhausted", (), 0)
        assert recheck_run(subset, N, result) == []


def test_recheck_of_a_window_past_the_budget_is_a_complaint():
    # replayed at an N whose start window cannot be enumerated, a run's
    # records are not rechecked; that is reported, not raised
    subset = random_set(2000, 0.3, 7)
    result = run(subset, 2000, 2, mode="practical")
    assert recheck_run(subset, 10**7, result) == [
        "start window does not rebuild: candidate window needs 20000001 integers,"
        " budget 10000000"
    ]


def _forge_found(result):
    """Each forgery of a found run: a builder and the problems its result
    rechecks with, or the error that refuses to build it."""
    rec = result.steps[-1]
    other = Configuration(rec.finder.config.a + 1, rec.finder.config.ns)
    trailing = dataclasses.replace(rec, step=rec.step + 1)
    return {
        # the status, the config and the exit code are derived, so none can be set
        "status": (lambda: dataclasses.replace(result, status="exhausted"), TypeError),
        "no-config": (lambda: dataclasses.replace(result, config=None), TypeError),
        "exit-code": (lambda: dataclasses.replace(result, exit_code=1), TypeError),
        # the result names the configuration of its last record: forging it
        # means forging the record
        "other-config": (
            lambda: _forge_last(result, finder=dataclasses.replace(rec.finder, config=other)),
            [f"step {rec.step}: configuration not in the input set"],
        ),
        "trailing-record": (
            lambda: dataclasses.replace(result, steps=result.steps + (trailing,)),
            [f"refused at construction: step {rec.step}: records follow the terminal config"
             " record"],
        ),
        # an emptied final set does not outrank the config record
        "emptied-final": (lambda: dataclasses.replace(result, final=_emptied(result)), [_EMPTIED]),
    }


@pytest.mark.parametrize(
    "forgery",
    ["status", "other-config", "no-config", "exit-code", "trailing-record", "emptied-final"],
)
def test_recheck_derives_status_of_found_run(forgery):
    subset = random_set(2000, 0.3, 7)
    result = run(subset, 2000, 2, mode="practical")
    assert result.status == "found" and result.steps[-1].case == "config"
    assert result.config == result.steps[-1].config_original
    forge, expected = _forge_found(result)[forgery]
    if expected is TypeError:
        with pytest.raises(TypeError):
            forge()
    else:
        assert _objections(subset, 2000, forge) == expected
        if forgery != "trailing-record":
            assert forge().status == "found"


def _forge_small_bohr(result, subset):
    """Each forgery of a small-bohr run: a builder, the status and exit code
    its result reports, and the problems it rechecks with."""
    rec = result.steps[-1]
    members = set(subset.tolist())
    a = next(x for x in range(3000) if x not in members)
    finder = patterns.FinderResult("found", Configuration(a, (1, 2)), 1, 100, "restricted")
    config = dataclasses.replace(rec, dichotomy=None, finder=finder)
    trailing = dataclasses.replace(rec, step=rec.step + 1)
    return {
        "config-record": (
            lambda: dataclasses.replace(result, steps=(config,)), "found", 0,
            [f"step {rec.step}: configuration not in the input set"],
        ),
        "trailing-record": (
            lambda: dataclasses.replace(result, steps=result.steps + (trailing,)), None, None,
            [f"refused at construction: step {rec.step}: records follow the terminal"
             " small-bohr record"],
        ),
        "emptied-trace": (
            lambda: dataclasses.replace(result, steps=(), final=_emptied(result)), "exhausted", 1,
            [_EMPTIED],
        ),
    }


@pytest.mark.parametrize("forgery", ["config-record", "trailing-record", "emptied-trace"])
def test_recheck_derives_status_of_small_bohr_run(forgery):
    subset, result = _behrend_small_bohr_run()
    forge, status, code, problems = _forge_small_bohr(result, subset)[forgery]
    assert _objections(subset, 3000, forge) == problems
    if status is not None:
        assert (forge().status, forge().exit_code) == (status, code)


def _record_of_case(case: str) -> StepRecord:
    """A record of each case: the real ones of :func:`_step_of_case`, and a
    ``violation`` or ``no-case`` one relabelled from the small-bohr record."""
    if case in ("violation", "no-case"):
        rec = _step_of_case("small-bohr")
        return dataclasses.replace(rec, dichotomy=dataclasses.replace(rec.dichotomy, kind=case))
    return _step_of_case(case)


# the status after a last record of each case (None: no record), with a
# final set that is unknown, nonempty or empty
_STATUS_TABLE = {
    None: ("limit", "limit", "exhausted"),
    "config": ("found", "found", "found"),
    "small-bohr": ("exhausted", "exhausted", "exhausted"),
    "violation": ("violation", "violation", "violation"),
    "no-case": ("limit", "limit", "limit"),
    "local-increment": ("limit", "limit", "exhausted"),
    "fourier-refined": ("limit", "limit", "exhausted"),
}


@pytest.mark.parametrize("case", list(_STATUS_TABLE))
def test_status_is_read_off_the_last_record(case):
    steps = () if case is None else (dataclasses.replace(_record_of_case(case), step=0),)
    for final, status in zip([{}, {"set_size": 5}, {"set_size": 0}], _STATUS_TABLE[case]):
        result = RunResult("", steps, final)
        assert result.as_dict()["status"] == result.status == status
        assert (result.config is None) == (status != "found")


@pytest.mark.parametrize("case", ["config", "small-bohr", "violation", "no-case"])
def test_no_record_follows_a_terminal_one(case):
    terminal, moving = _record_of_case(case), _step_of_case("fourier-refined")
    ends = RunResult("", (moving, dataclasses.replace(terminal, step=1)), {})
    assert ends.status == _STATUS_TABLE[case][0]
    with pytest.raises(ValueError, match=f"step 0: records follow the terminal {case} record"):
        RunResult("", (terminal, dataclasses.replace(moving, step=1)), {})


def test_run_rejects_bad_mode():
    with pytest.raises(ValueError):
        run(np.arange(1, 5), 5, mode="sloppy")


def test_config_record_arity_is_the_chain_length():
    # the first two offsets of a found 3-configuration make a 2-configuration
    # whose sums lie in the input too: only the record's arity can object
    subset = random_set(3000, 0.5, 3)
    overrides = {"x1": Fraction(1, 4), "x_rest": Fraction(1, 2)}
    result = run(subset, 3000, 3, mode="practical", overrides=overrides)
    assert result.status == "found" and recheck_run(subset, 3000, result) == []
    rec = result.steps[-1]
    cfg = rec.finder.config
    short = dataclasses.replace(rec.finder, config=Configuration(cfg.a, cfg.ns[:2]))
    assert verify_configuration(subset, Configuration(cfg.a, cfg.ns[:2]), 2)
    with pytest.raises(ValueError, match="arity 2 on 3 links"):
        _forge_last(result, finder=short)


def test_recheck_recounts_a_config_records_chain():
    subset = random_set(2000, 0.3, 7)
    result = run(subset, 2000, 2, mode="practical")
    forged = _forge_last(result, chain=_resized(result.steps[-1].chain, (14, 1)))
    assert recheck_run(subset, 2000, forged) == ["step 0: inner sizes recount as [13, 1]"]


@pytest.mark.parametrize("key", ["mult", "offset", "d", "set_size"])
def test_recheck_compares_the_final_state(monkeypatch, key):
    # the local-increment transition run ends away from the identity map
    _forced_thresholds(monkeypatch)
    subset = behrend_set(1000)
    result = run(subset, 1000, 2, mode="practical")
    assert result.final == {"mult": 4, "offset": 14, "d": 1, "set_size": 1}
    forged = dataclasses.replace(result, final={**result.final, key: result.final[key] + 1})
    assert recheck_run(subset, 1000, forged) == [f"final state differs from the replay in {key}"]


def test_increment_and_run_vocabularies_are_closed():
    with pytest.raises(ValueError, match="unknown increment status"):
        IncrementOutcome("no-witnessx", (), Fraction(1, 3), 512)
    with pytest.raises(ValueError, match="come with a translate or refined"):
        IncrementOutcome("no-witness", (), Fraction(1, 3), 512, translate=4)
    with pytest.raises(ValueError, match="come with a translate or refined"):
        IncrementOutcome("translate", (), Fraction(1, 3), 512, translate=4)
    _, result = _behrend_small_bohr_run()
    with pytest.raises(ValueError, match="not numbered 0, 1"):
        dataclasses.replace(result, steps=result.steps * 2)


# ---------------------------------------------------------------------------
# the forgery census: every leaf of every record is re-derived or refused
# ---------------------------------------------------------------------------

# leaves that no recheck reads, keyed by their paths (record fields joined by
# dots, list positions dropped), each group with the reason it is report-only
REPORT_ONLY = {
    ("chain.target",): "the table's rate for the dilation search; no record holds the"
    " practical overrides that set it",
    ("chain.tried",): "the dilation search's effort against that rate",
    ("chain.c",): "read through the set it rebuilds, which is recounted, certified and"
    " rerun on; every factor small enough to rebuild {0} from {0} rebuilds the same set,"
    " and only the search's rate tells them apart",
    ("finder.work", "finder.budget"): "a config record's search effort, not a claim: its"
    " configuration is checked in the input itself",
    ("dichotomy.freeness.budget",): "the freeness rerun's allowance, read from the record:"
    " any budget above the recorded work walks the same",
    (
        "increment.a_star", "increment.y", "increment.scan_value", "increment.grid_used",
        "increment.inverse_avg", "increment.guaranteed_bound", "increment.bound_asserted",
        "increment.unmet",
    ): "the Fourier scan's witness, which needs the table's c_prime and eta to rerun",
    ("reason",): "free text",
}

# fields whose None means "no such record", not a value to forge
_ABSENT_RECORDS = {"finder", "dichotomy", "increment", "config", "new_spec"}


def _parts(value):
    """The named parts of a record value, or None for a leaf; a Fourier
    increment's ``new_set`` is walked as the ``new_spec`` its report carries."""
    if isinstance(value, IncrementOutcome):
        out = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
        del out["new_set"]
        return {**out, "new_spec": value.new_spec}
    if dataclasses.is_dataclass(value):
        return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    if isinstance(value, ChainLink):
        return {name: getattr(value, name) for name in ChainLink.__slots__}
    if isinstance(value, tuple):
        return dict(enumerate(value))
    if isinstance(value, dict):
        return dict(value)
    return None


def _with_part(value, key, part):
    """``value`` rebuilt with one part replaced, through its constructor."""
    if isinstance(value, IncrementOutcome) and key == "new_spec":
        return dataclasses.replace(value, new_set=BohrSet.from_spec(part))
    if dataclasses.is_dataclass(value):
        return dataclasses.replace(value, **{key: part})
    if isinstance(value, ChainLink):
        return ChainLink(**{**_parts(value), key: part})
    if isinstance(value, tuple):
        return value[:key] + (part,) + value[key + 1:]
    return {**value, key: part}


def _perturbed(leaf):
    """Another value of the leaf's kind: a bool flipped, a ``Fraction``
    doubled (1/7 for 0), a number plus 1, a string suffixed, None set to 1."""
    if isinstance(leaf, bool):
        return not leaf
    if isinstance(leaf, Fraction):
        return leaf * 2 if leaf else Fraction(1, 7)
    if isinstance(leaf, (int, float)):
        return leaf + 1
    if isinstance(leaf, str):
        return leaf + "x"
    assert leaf is None
    return 1


def _forgeries(value, path=()):
    """``(path, build)`` for each leaf: ``build()`` makes ``value`` with that
    leaf perturbed, rebuilding every record on the way up."""
    parts = _parts(value)
    if parts is None:
        yield path, lambda: _perturbed(value)
        return
    for key, part in parts.items():
        if part is None and key in _ABSENT_RECORDS:
            continue
        for sub, build in _forgeries(part, (*path, key)):
            yield sub, lambda build=build, key=key: _with_part(value, key, build())


def _census_runs():
    """``(name, subset, N, make, force)`` for the runs of :func:`_step_of_case`
    and the two transition runs: ``make()`` builds the result once ``force``,
    when there is one, has patched the thresholds the run needs."""
    found = random_set(2000, 0.3, 7)
    yield "config", found, 2000, partial(run, found, 2000, 2, mode="practical"), None
    behrend = behrend_set(3000)
    yield "small-bohr", behrend, 3000, lambda: _behrend_small_bohr_run()[1], None
    evens = _evens_local_increment_run()[0]
    yield "local-increment", evens, 2500, lambda: _evens_local_increment_run()[1], None
    parity = _parity_fourier_run()[0]
    yield "fourier-refined", parity, 1800, lambda: _parity_fourier_run()[1], None
    for name, N, factor in [("local-transitions", 1000, None), ("fourier-transition", 300, 100)]:
        subset = behrend_set(N)
        make = partial(run, subset, N, 2, mode="practical")
        yield name, subset, N, make, partial(_forced_thresholds, factor=factor)


def test_forgery_census(monkeypatch):
    report_only = {path: key for key in REPORT_ONLY for path in key}
    accepted, used = [], set()
    for name, subset, N, make, force in _census_runs():
        with monkeypatch.context() as patch:
            if force is not None:
                force(patch)
            result = make()
            assert recheck_run(subset, N, result) == [], name
            for path, build in _forgeries(result):
                leaf = ".".join(k for k in path if isinstance(k, str) and k != "steps")
                if _objections(subset, N, build):
                    continue
                if leaf in report_only:
                    used.add(report_only[leaf])
                else:
                    accepted.append(f"{name}: {'.'.join(map(str, path))}")
    stale = [key for key in REPORT_ONLY if key not in used]
    assert (accepted, stale) == ([], [])
    assert len(REPORT_ONLY) <= 8


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["random", "behrend"]),
    st.integers(200, 3000),
    st.sampled_from([2, 3]),
    st.sampled_from(["practical", "faithful"]),
    st.integers(0, 10**6),
)
@example("random", 232, 2, "faithful", 0)  # a faithful chain factor Q m past int64
@example("behrend", 3000, 3, "practical", 0)
def test_real_runs_recheck_clean(kind, N, s, mode, seed):
    # the dichotomy rerun must reproduce every record run makes, whatever it
    # ends in: a false alarm here would fail the engine's own runs
    subset = random_set(N, 0.3, seed) if kind == "random" else behrend_set(N)
    result = run(subset, N, s, mode=mode)
    assert recheck_run(subset, N, result) == []


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(["random", "behrend"]),
    st.integers(200, 3000),
    st.sampled_from([2, 3]),
    st.sampled_from(["practical", "faithful"]),
    st.integers(0, 10**6),
)
@example("behrend", 3000, 3, "practical", 0)
def test_step_density_is_the_exact_density(kind, N, s, mode, seed):
    # run and recheck read a step's density as |work| / |ambient|, which is
    # exact while the state keeps its set inside the ambient set: every
    # freeness search both make sees a set and an ambient set where it is
    subset = random_set(N, 0.3, seed) if kind == "random" else behrend_set(N)
    seen, real = [], increment.find_configuration_restricted

    def spy(work, ambient, inner_sets, **kwargs):
        seen.append(Fraction(work.size, ambient.size))
        assert seen[-1] == bohr.exact_density(work, ambient.elements)
        return real(work, ambient, inner_sets, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(increment, "find_configuration_restricted", spy)
        result = run(subset, N, s, mode=mode)
        ran = len(seen)
        assert recheck_run(subset, N, result) == []
    deltas = [rec.delta for rec in result.steps]
    assert seen[: len(deltas)] == deltas and set(seen[ran:]) <= set(deltas)
