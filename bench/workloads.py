"""The four benchmark workloads, built from a seed through bohrkit's public API.

Each builder generates its inputs from the workload seed (this is the set-up
the benchmark times) and returns a list of :class:`Instance`. Calling an
instance runs the library, checks the output independently (``oracles``) and
returns an :class:`Outcome` with the verdict, deterministic work units and the
report to emit. The library never sees the seed, only the generated inputs.

Why these workloads (the layer each one loads, and what it leaves idle):

* ``engine``: ``increment.run`` plus ``recheck_run``, the users' main path.
  The restricted finder in ``patterns`` is nearly all of it; the Fourier
  scan is never reached, because every run ends on step 0.
* ``widths``: enumeration, regularity certificates and the regular-dilation
  search in ``bohr``, including the big-integer fallback. ``patterns`` and
  ``gowers`` are idle.
* ``uniformity``: both U2 routes, the Fourier scan, the inverse check, the
  counting contraction and ``fourier_increment`` (``gowers`` and
  ``count_T_s``). ``bohr`` and the finders are idle.
* ``search``: extent search proving absence on Behrend sets and finding first
  hits on random sets, exhaustive counts, sumfree subsets and Freiman
  embeddings (the only workload that loads ``sumfree``).

Every workload also runs a share of its instances through ``bohrkit.cli.main``
in-process on input files written during set-up, which times ``cli`` and
``reports`` on real outputs.

Instance sizes are fixed and only the random content varies with the seed, so
the work of a battery changes little from seed to seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from oracles import (
    bohr_members,
    check_configuration,
    check_freiman_map,
    check_sumfree,
    count_configurations_literal,
    require,
    torus_distance,
    translate_density,
)


@dataclass
class Outcome:
    verdict: str
    decided: bool
    work: dict
    report: object


@dataclass
class Instance:
    name: str
    inputs: dict
    call: Callable[[], Outcome]


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(np.asarray(arr, dtype=np.int64)).tobytes())
        h.update(b"|")
    return h.hexdigest()[:16]


def _write_set(path: str, elements) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{int(v)}\n" for v in elements))
    return path


def _write_spec(path: str, spec) -> str:
    payload = {
        "theta": [[t.numerator, t.denominator] for t in spec.theta],
        "eps": [spec.eps.numerator, spec.eps.denominator],
        "M": [spec.M.numerator, spec.M.denominator],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


def _cli_instance(bk, name: str, inputs: dict, argv: list[str],
                  check: Callable[[int, object], tuple[str, bool, dict]]) -> Instance:
    """An instance that runs one command through ``bohrkit.cli.main`` in-process.

    Exit code 3 is the documented budget stop (undecided); 2 and 4 are
    failures. The printed report must be the canonical emission of itself.
    """

    def call() -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = bk.cli.main(argv)
        require(code in (0, 1, 3), f"exit code {code}: {err.getvalue().strip()}")
        if code == 3:
            return Outcome("budget", False, {"exit": code}, {"exit": code})
        text = out.getvalue()
        report = bk.parse_report(text)
        require(bk.emit_report(report) == text, "CLI output is not canonical JSON")
        verdict, decided, work = check(code, report)
        work["exit"] = code
        return Outcome(verdict, decided, work, report)

    return Instance(name, inputs, call)


# ---------------------------------------------------------------------------
# engine: increment.run + recheck_run
# ---------------------------------------------------------------------------

ENGINE_RANDOM_LADDER = (2500, 5000, 10**4, 2 * 10**4)
ENGINE_BEHREND_LADDER = (2500, 5000, 10**4)
ENGINE_S3_N = 5000
ENGINE_FAITHFUL_N = 3000
ENGINE_LIMIT_N = 10**5
ENGINE_LIMIT_FINDER_BUDGET = 10**6
REACH_BUDGET_S = 1.0
REACH_START_N = 2500
REACH_MAX_N = 2500 * 2**9


def _run_work(result) -> dict:
    finder = 0
    tried = 0
    for rec in result.steps:
        pay = rec.payload
        if "finder" in pay:
            finder += pay["finder"]["work"]
        elif "dichotomy" in pay:
            finder += pay["dichotomy"]["data"].get("freeness", {}).get("work", 0)
        tried += sum(note["tried"] for note in pay.get("chain", []))
    return {"steps": len(result.steps), "finder_work": finder, "dilations_tried": tried}


def check_run(bk, subset: np.ndarray, members: set, N: int, s: int, result) -> Outcome:
    """``recheck_run`` must find nothing, and a found configuration is re-read
    element by element from the input set."""
    require(result.status in ("found", "exhausted", "limit"),
            f"run ended with status {result.status}: {result.reason}")
    problems = bk.recheck_run(subset, N, result)
    require(problems == [], f"recheck_run reported {problems}")
    if result.status == "found":
        cfg = result.config
        check_configuration(members, cfg.a, cfg.ns, s)
    decided = result.status in ("found", "exhausted")
    return Outcome(result.status, decided, _run_work(result), result.as_dict())


def _engine_run(bk, name: str, subset: np.ndarray, N: int, s: int, mode: str,
                seed: Optional[int], limits=None) -> Instance:
    members = set(subset.tolist())

    def call() -> Outcome:
        result = bk.run(subset, N, s, mode=mode, limits=limits)
        return check_run(bk, subset, members, N, s, result)

    inputs = {"N": N, "s": s, "mode": mode, "seed": seed, "data": digest(subset)}
    return Instance(name, inputs, call)


def _check_cli_run(members: set, s: int, trace_path: Optional[str]):
    def check(code: int, report) -> tuple[str, bool, dict]:
        status = report["status"]
        require(status in ("found", "exhausted", "limit"), f"engine status {status}")
        require(code == report["exit_code"], "exit code differs from the report")
        if status == "found":
            cfg = report["config"]
            check_configuration(members, cfg["a"], cfg["ns"], s)
        if trace_path is not None:
            with open(trace_path, encoding="utf-8") as fh:
                lines = [json.loads(line) for line in fh]
            require(lines == report["steps"], "--out trace differs from the reported steps")
        return status, status in ("found", "exhausted"), {"steps": len(report["steps"])}

    return check


def build_engine(bk, seed: int, files: str) -> list[Instance]:
    rng = random.Random(f"engine:{seed}")
    out: list[Instance] = []
    for N in ENGINE_RANDOM_LADDER:
        sd = rng.randrange(2**31)
        out.append(_engine_run(bk, f"run.random.N{N}.s2", bk.random_set(N, 0.3, sd),
                               N, 2, "practical", sd))
    for N in ENGINE_BEHREND_LADDER:
        out.append(_engine_run(bk, f"run.behrend.N{N}.s2", bk.behrend_set(N),
                               N, 2, "practical", None))
    sd = rng.randrange(2**31)
    out.append(_engine_run(bk, f"run.random.N{ENGINE_S3_N}.s3",
                           bk.random_set(ENGINE_S3_N, 0.3, sd), ENGINE_S3_N, 3, "practical", sd))
    out.append(_engine_run(bk, f"run.behrend.N{ENGINE_S3_N}.s3", bk.behrend_set(ENGINE_S3_N),
                           ENGINE_S3_N, 3, "practical", None))
    sd = rng.randrange(2**31)
    out.append(_engine_run(bk, f"run.random.N{ENGINE_FAITHFUL_N}.faithful",
                           bk.random_set(ENGINE_FAITHFUL_N, 0.3, sd), ENGINE_FAITHFUL_N, 2,
                           "faithful", sd))
    out.append(_engine_run(bk, f"run.behrend.N{ENGINE_LIMIT_N}.limit",
                           bk.behrend_set(ENGINE_LIMIT_N), ENGINE_LIMIT_N, 2, "practical", None,
                           bk.EngineLimits(finder_budget=ENGINE_LIMIT_FINDER_BUDGET)))

    sd = rng.randrange(2**31)
    rand = bk.random_set(5000, 0.3, sd)
    rand_path = _write_set(os.path.join(files, "random5000.txt"), rand)
    trace_path = os.path.join(files, "run-trace.jsonl")
    out.append(_cli_instance(
        bk, "cli.increment-run.random.N5000", {"N": 5000, "s": 2, "seed": sd, "data": digest(rand)},
        ["increment", "run", "--set", rand_path, "--out", trace_path],
        _check_cli_run(set(rand.tolist()), 2, trace_path)))
    beh = bk.behrend_set(10**4)
    beh_path = _write_set(os.path.join(files, "behrend10000.txt"), beh)
    out.append(_cli_instance(
        bk, "cli.increment-run.behrend.N10000", {"N": 10**4, "s": 2, "data": digest(beh)},
        ["increment", "run", "--set", beh_path], _check_cli_run(set(beh.tolist()), 2, None)))
    return out


def reach_probe(bk, seed: int, timed) -> tuple[int, list[dict]]:
    """Largest ladder rung whose Behrend and random runs each finish, checked,
    inside ``REACH_BUDGET_S``. Rungs double from ``REACH_START_N``; ``timed``
    returns a call's result, wall time and host-adjusted time."""
    rng = random.Random(f"reach:{seed}")
    reach, rungs = 0, []
    N = REACH_START_N
    while N <= REACH_MAX_N:
        sd = rng.randrange(2**31)
        times = {}
        for kind, subset in (("behrend", bk.behrend_set(N)), ("random", bk.random_set(N, 0.3, sd))):
            members = set(subset.tolist())
            _, _, times[kind] = timed(lambda: check_run(
                bk, subset, members, N, 2, bk.run(subset, N, 2, mode="practical")))
            if times[kind] > REACH_BUDGET_S:
                break
        rungs.append({"N": N, **times})
        if max(times.values()) > REACH_BUDGET_S:
            break
        reach = N
        N *= 2
    return reach, rungs


# ---------------------------------------------------------------------------
# widths: enumeration, certificates, regular dilations
# ---------------------------------------------------------------------------

# (d, M, eps, run find_regular_alpha); denominators are fixed primes so that
# set sizes, and with them the work, hardly depend on the seed
WIDTH_CASES = (
    (1, 3000, Fraction(1, 5), True),
    (1, 10**4, Fraction(1, 5), True),
    (1, 2 * 10**4, Fraction(1, 5), False),
    (1, 3 * 10**4, Fraction(1, 10), False),
    (2, 10**4, Fraction(1, 4), True),
    (2, 3 * 10**4, Fraction(1, 4), False),
    (2, 10**5, Fraction(1, 4), False),
    (3, 10**4, Fraction(1, 3), True),
    (3, 10**5, Fraction(1, 3), False),
)
WIDTH_PRIMES = (1009, 2003, 3001)
BIGINT_PRIME = 2**61 - 1
BIGINT_CASES = ((1, 3000), (2, 3000), (1, 10**4))
LITERAL_LIMIT = 3000
SPOT_CHECKS = 256
CLI_ENUM_M = 5 * 10**4


def _random_spec(bk, rng: random.Random, d: int, M: int, eps: Fraction, primes):
    theta = tuple(Fraction(rng.randrange(1, q), q) for q in primes[:d])
    return bk.BohrSpec(theta, eps, Fraction(M))


def _spec_inputs(spec, seed) -> dict:
    return {"d": spec.dim, "M": int(spec.M), "seed": seed,
            "data": digest([t.numerator for t in spec.theta])}


def check_enumeration(spec, elements: np.ndarray, rng: random.Random) -> None:
    """Literal membership for every candidate on small windows, otherwise for
    ``SPOT_CHECKS`` sampled candidates (members and non-members alike)."""
    top = spec.M.numerator // spec.M.denominator
    if top <= LITERAL_LIMIT:
        want = bohr_members(spec.theta, spec.eps, spec.M)
        require(elements.tolist() == want, "enumeration differs from the literal loop")
        return
    require(bool(np.all(np.diff(elements) > 0)), "enumeration is not strictly increasing")
    present = set(elements.tolist())
    for _ in range(SPOT_CHECKS):
        n = rng.randint(-top, top)
        lit = all(torus_distance(n * t) <= spec.eps for t in spec.theta)
        require(lit == (n in present), f"membership of {n} differs from the literal test")


def check_certificate(bk, spec, cert) -> None:
    """Sizes in the certificate are recounted by enumerating the dilates."""
    w = cert.window
    require(w == Fraction(1, 100 * spec.dim), "certificate window is not 1/(100 d)")
    require(cert.base_size == bk.enumerate_bohr(spec).size, "base size recount differs")
    require(cert.size_at_minus_window == bk.enumerate_bohr(spec.dilate(1 - w)).size,
            "size at -window recount differs")
    require(cert.size_at_plus_window == bk.enumerate_bohr(spec.dilate(1 + w)).size,
            "size at +window recount differs")
    if not cert.verdict:
        c = cert.witness_c
        size = bk.enumerate_bohr(spec.dilate(1 + c)).size
        require(size == cert.witness_size, "witness size recount differs")
        dev = 100 * spec.dim * abs(c)
        if cert.witness_side == "lower":
            require(size < cert.base_size * (1 - dev), "lower witness does not fail")
        else:
            require(size > cert.base_size * (1 + dev), "upper witness does not fail")


def check_dilation(bk, spec, search, lo: Fraction, hi: Fraction) -> Outcome:
    require(len(search.tried) >= 1, "no candidate tried")
    if search.found:
        c = search.c
        require(lo <= c <= hi, f"found c = {c} outside [{lo}, {hi}]")
        require(search.tried[-1] == c, "found c is not the last candidate tried")
        recert = bk.regularity_certificate(spec.dilate(c))
        require(recert.verdict, f"found c = {c} does not re-certify")
        require(recert.base_size == search.certificate.base_size, "certificate size differs")
    verdict = "found" if search.found else "not-found"
    return Outcome(verdict, search.found, {"tried": len(search.tried)}, search.as_dict())


def _certificate_call(bk, spec) -> Callable[[], Outcome]:
    def call() -> Outcome:
        cert = bk.regularity_certificate(spec)
        check_certificate(bk, spec, cert)
        verdict = "regular" if cert.verdict else "irregular"
        return Outcome(verdict, True, {"num_checked": cert.num_checked}, cert.as_dict())

    return call


def _width_instances(bk, spec, seed, tag: str, alpha: bool, check_rng_seed: int) -> list[Instance]:
    inputs = _spec_inputs(spec, seed)
    out = []

    def enum_call() -> Outcome:
        elements = bk.enumerate_bohr(spec)
        check_enumeration(spec, elements, random.Random(check_rng_seed))
        return Outcome("enumerated", True, {"elements": int(elements.size)},
                       {"spec": spec.as_dict(), "size": int(elements.size)})

    lo, hi = Fraction(1, 8), Fraction(1, 4)

    def dilation_call() -> Outcome:
        return check_dilation(bk, spec, bk.find_regular_dilation(spec, lo, hi), lo, hi)

    def alpha_call() -> Outcome:
        return check_dilation(bk, spec, bk.find_regular_alpha(spec), Fraction(1, 2), Fraction(1))

    out.append(Instance(f"enum.{tag}", inputs, enum_call))
    out.append(Instance(f"certificate.{tag}", inputs, _certificate_call(bk, spec)))
    out.append(Instance(f"dilation.{tag}", inputs, dilation_call))
    if alpha:
        out.append(Instance(f"alpha.{tag}", inputs, alpha_call))
    return out


def build_widths(bk, seed: int, files: str) -> list[Instance]:
    rng = random.Random(f"widths:{seed}")
    out: list[Instance] = []
    for d, M, eps, alpha in WIDTH_CASES:
        spec = _random_spec(bk, rng, d, M, eps, WIDTH_PRIMES)
        out += _width_instances(bk, spec, seed, f"d{d}.M{M}", alpha, rng.randrange(2**31))
    for d, M in BIGINT_CASES:
        spec = _random_spec(bk, rng, d, M, Fraction(1, 5), (BIGINT_PRIME,) * d)
        out.append(Instance(f"certificate.bigint.d{d}.M{M}", _spec_inputs(spec, seed),
                            _certificate_call(bk, spec)))

    interval = bk.BohrSpec((Fraction(1),), Fraction(1, 2), Fraction(CLI_ENUM_M))
    enum_path = _write_spec(os.path.join(files, "interval.json"), interval)

    def check_enum(code: int, report) -> tuple[str, bool, dict]:
        require(report["size"] == 2 * CLI_ENUM_M + 1, "interval size differs")
        require(report["elements"] == list(range(-CLI_ENUM_M, CLI_ENUM_M + 1)),
                "interval elements differ")
        return "enumerated", True, {"elements": report["size"]}

    out.append(_cli_instance(bk, f"cli.bohr-enum.M{CLI_ENUM_M}", {"d": 1, "M": CLI_ENUM_M},
                             ["bohr", "enum", "--spec", enum_path], check_enum))
    spec = _random_spec(bk, rng, 2, 10**4, Fraction(1, 4), WIDTH_PRIMES)
    spec_path = _write_spec(os.path.join(files, "spec.json"), spec)

    def check_regular(code: int, report) -> tuple[str, bool, dict]:
        require(report["base_size"] == bk.enumerate_bohr(spec).size, "base size recount differs")
        require((code == 0) == report["verdict"], "exit code disagrees with the verdict")
        return ("regular" if report["verdict"] else "irregular"), True, {
            "num_checked": report["num_checked"]}

    def check_alpha(code: int, report) -> tuple[str, bool, dict]:
        if report["found"]:
            c = Fraction(*report["c"])
            require(Fraction(1, 2) <= c <= 1, "alpha outside [1/2, 1]")
            require(bk.regularity_certificate(spec.dilate(c)).verdict, "alpha does not re-certify")
        return ("found" if report["found"] else "not-found"), report["found"], {
            "tried": len(report["tried"])}

    out.append(_cli_instance(bk, "cli.bohr-regular.d2.M10000", _spec_inputs(spec, seed),
                             ["bohr", "regular", "--spec", spec_path], check_regular))
    out.append(_cli_instance(bk, "cli.bohr-find-alpha.d2.M10000", _spec_inputs(spec, seed),
                             ["bohr", "find-alpha", "--spec", spec_path], check_alpha))
    return out


# ---------------------------------------------------------------------------
# uniformity: U2 routes, Fourier scan, inverse check, counting, increments
# ---------------------------------------------------------------------------

U2_TOL = 1e-9
BASE_M = 2000
INVERSE_M = 30000


def _interval(bk, M: int):
    return bk.BohrSet.from_spec(bk.BohrSpec((Fraction(1),), Fraction(1, 2), Fraction(M)))


def _window(r: int) -> np.ndarray:
    return np.arange(-r, r + 1, dtype=np.int64)


def check_u2(rep) -> None:
    require(abs(rep.fourth_direct - rep.fourth_correlation) <= U2_TOL,
            f"U2 routes disagree by {abs(rep.fourth_direct - rep.fourth_correlation)}")
    require(abs(rep.agreement - abs(rep.fourth_direct - rep.fourth_correlation)) <= 1e-15,
            "reported agreement is not the route difference")


def literal_fourier(values: dict, a: int, ns, k: int, grid: int) -> complex:
    total = sum(values.get(a + n, 0j) * complex(math.cos(2 * math.pi * n * k / grid),
                                                math.sin(2 * math.pi * n * k / grid))
                for n in ns)
    return total / len(ns)


def literal_pattern_count(members: set, base, inners) -> int:
    s = len(inners)
    total = 0
    for a in base:
        for ns in itertools.product(*inners):
            if all(a + ns[i] + ns[j] in members for i in range(s) for j in range(i, s)):
                total += 1
    return total


def build_uniformity(bk, seed: int, files: str) -> list[Instance]:
    rng = random.Random(f"uniformity:{seed}")
    out: list[Instance] = []
    base = _interval(bk, BASE_M)
    sd = rng.randrange(2**31)
    subset = bk.random_set(2 * BASE_M + 1, 0.3, sd) - (BASE_M + 1)
    members = set(subset.tolist())
    f, delta = bk.BoundedFunction.balanced_indicator(subset, base.elements)
    values = dict(zip(f.support.tolist(), f.values.tolist()))
    q = rng.choice((7, 11, 13, 17, 19))
    freq = Fraction(rng.randrange(1, q), q)
    char = bk.BoundedFunction.character(freq, -BASE_M - 20, BASE_M + 20)
    rand_inputs = {"M": BASE_M, "seed": sd, "data": digest(subset)}
    char_inputs = {"M": BASE_M, "seed": seed, "data": digest([freq.numerator, q])}

    def u2_call(fn, r1, r2, unit_norm):
        def call() -> Outcome:
            rep = bk.u2_report(fn, base, _window(r1), _window(r2))
            check_u2(rep)
            if unit_norm:
                require(abs(rep.norm - 1.0) <= U2_TOL, f"character norm {rep.norm} is not 1")
            a, l1, l2 = base.size, 2 * r1 + 1, 2 * r2 + 1
            return Outcome("agree", True, {"ops_direct": a * l1**2 * l2**2,
                                           "ops_correlation": a * l1**2 * l2}, rep.as_dict())
        return call

    out.append(Instance("u2-report.balanced.15x5", rand_inputs, u2_call(f, 7, 2, False)))
    out.append(Instance("u2-report.character.11x5", char_inputs, u2_call(char, 5, 2, True)))

    def corr_call() -> Outcome:
        n1, n2 = _window(15), _window(4)
        fourth = bk.u2_fourth_correlation(f, base, n1, n2)
        head = base.elements[:48]
        sub_c = bk.u2_fourth_correlation(f, head, n1, n2)
        sub_d = bk.u2_fourth_direct(f, head, n1, n2)
        require(abs(sub_c - sub_d) <= U2_TOL, "routes disagree on the 48-point sub-base")
        require(0.0 <= fourth <= 1.0, f"fourth power {fourth} outside [0, 1]")
        return Outcome("agree", True, {"ops_correlation": base.size * 31**2 * 9},
                       {"fourth": fourth, "sub_direct": sub_d, "sub_correlation": sub_c})

    out.append(Instance("u2-correlation.balanced.31x9", rand_inputs, corr_call))

    scan_rng_seed = rng.randrange(2**31)

    def scan_call() -> Outcome:
        ns, grid = _window(50), 512
        scan = bk.local_fourier_scan(f, base, ns, grid)
        check_rng = random.Random(scan_rng_seed)
        for _ in range(3):
            i = check_rng.randrange(base.size)
            a = int(base.elements[i])
            top = abs(literal_fourier(values, a, ns.tolist(), int(scan.argmax[i]), grid))
            require(abs(top - scan.values[i]) <= 1e-9, "scan maximum differs from the literal sum")
            k = check_rng.randrange(grid)
            other = abs(literal_fourier(values, a, ns.tolist(), k, grid))
            require(other <= scan.values[i] + 1e-9, "scan missed a larger grid value")
        return Outcome("scanned", True, {"ops": base.size * ns.size * grid}, scan.as_dict())

    out.append(Instance("fourier-scan.balanced.L101.G512", rand_inputs, scan_call))

    def inverse_average_call() -> Outcome:
        ns, grid = _window(15), 256
        ia = bk.inverse_average(f, base, ns, grid)
        again = float(np.mean(bk.local_fourier_scan(f, base, ns, grid).values ** 2))
        require(ia == again, "inverse average is not the mean squared scan maximum")
        return Outcome("scanned", True, {"ops": 2 * base.size * ns.size * grid},
                       {"inverse_average": ia})

    out.append(Instance("inverse-average.balanced.L31.G256", rand_inputs, inverse_average_call))

    big = _interval(bk, INVERSE_M)
    inner1 = bk.BohrSet.from_spec(big.spec.dilate(Fraction(1, 6000)))
    inner2 = bk.BohrSet.from_spec(inner1.spec.dilate(Fraction(1, 1000)))
    big_char = bk.BoundedFunction.character(freq, -INVERSE_M - 10, INVERSE_M + 10)

    def inverse_call() -> Outcome:
        eta = Fraction(99, 100)
        chk = bk.check_inverse_theorem(big_char, big, inner1, inner2, eta, grid=64)
        require(chk.status in ("pass", "fail", "inconclusive", "hypothesis-not-met"),
                f"unknown inverse status {chk.status}")
        require(abs(chk.fourth_direct - chk.fourth_correlation) <= U2_TOL, "U2 routes disagree")
        if chk.status == "pass":
            require(chk.inverse_avg >= float(chk.threshold), "pass below threshold")
        if chk.status == "fail":
            require(chk.inverse_avg + chk.slack < float(chk.threshold), "fail inside slack")
        return Outcome(chk.status, chk.status in ("pass", "fail"),
                       {"ops_scan": big.size * inner2.size * 64}, chk.as_dict())

    out.append(Instance("inverse-check.character.M30000", char_inputs, inverse_call))

    def von_neumann_call(radii):
        def call() -> Outcome:
            inners = [_window(r) for r in radii]
            rep = bk.check_von_neumann(f, base, inners)
            require(rep.holds, "von Neumann inequality fails")
            for norm in rep.norms.values():
                require(abs(rep.t_value) <= norm + 1e-9, "count exceeds a pairwise norm")
            tuples = base.size * math.prod(2 * r + 1 for r in radii)
            return Outcome("pass", True, {"tuples": tuples}, rep.as_dict())
        return call

    out.append(Instance("von-neumann.s3.11x7x5", rand_inputs, von_neumann_call((5, 3, 2))))
    out.append(Instance("von-neumann.s2.21x11", rand_inputs, von_neumann_call((10, 5))))

    def count_call(base_elems, radii, literal):
        def call() -> Outcome:
            inners = [_window(r) for r in radii]
            count, t = bk.count_patterns_exact(subset, base_elems, inners)
            denom = len(base_elems) * math.prod(len(x) for x in inners)
            require(t == Fraction(count, denom), "density is not count / tuples")
            if literal:
                want = literal_pattern_count(members, np.asarray(base_elems).tolist(),
                                             [x.tolist() for x in inners])
                require(count == want, f"count {count} differs from the literal loop {want}")
            return Outcome("counted", True, {"tuples": denom}, {"count": count, "t": t})
        return call

    out.append(Instance("count.s3.11x7x5", rand_inputs, count_call(base.elements, (5, 3, 2), False)))
    out.append(Instance("count.s3.literal.201", rand_inputs,
                        count_call(_window(100), (3, 2, 2), True)))

    def increment_call(sub, sub_members, base_set, r, enforce):
        inner = bk.BohrSet.from_spec(base_set.spec.dilate(Fraction(r, int(base_set.spec.M))))
        base_members = set(base_set.elements.tolist())

        def call() -> Outcome:
            inc = bk.fourier_increment(sub, base_set, inner, Fraction(1, 8), Fraction(1, 4),
                                       enforce=enforce)
            before = translate_density(sub_members, base_set.elements.tolist())
            require(inc.delta_before == before, "density before differs from the literal count")
            if inc.status in ("translate", "refined"):
                spec = inc.new_spec
                points = [inc.translate + n for n in bohr_members(spec.theta, spec.eps, spec.M)]
                require(all(p in base_members for p in points), "increment set leaves the base")
                after = translate_density(sub_members, points)
                require(after == inc.delta_after, "density after differs from the literal count")
                require(after > before, "increment does not raise the density")
            elif inc.status == "hypothesis-not-met":
                require(len(inc.unmet) > 0, "hypothesis-not-met without reasons")
            decided = inc.status in ("translate", "refined")
            return Outcome(inc.status, decided, {"grid_used": inc.grid_used}, inc.as_dict())
        return call

    out.append(Instance("fourier-increment.enforce.M2000", rand_inputs,
                        increment_call(subset, members, base, 12, True)))
    modulus = rng.choice((5, 7))
    residue = rng.randrange(modulus)
    big6000 = _interval(bk, 6000)
    cls = np.arange(-6000, 6001, dtype=np.int64)
    cls = cls[cls % modulus == residue]
    radius = 12 if modulus == 5 else 10  # inner size a multiple of the modulus
    out.append(Instance(f"fourier-increment.residue-mod{modulus}.M6000",
                        {"M": 6000, "seed": seed, "data": digest(cls)},
                        increment_call(cls, set(cls.tolist()), big6000, radius, False)))

    small = _interval(bk, 300)
    small_subset = bk.random_set(601, 0.4, sd) - 301
    set_path = _write_set(os.path.join(files, "u2set.txt"), small_subset)
    spec_paths = [_write_spec(os.path.join(files, f"u2spec{i}.json"), sp)
                  for i, sp in enumerate((small.spec, small.spec.dilate(Fraction(1, 50)),
                                          small.spec.dilate(Fraction(1, 100))))]

    def check_u2_cli(code: int, report) -> tuple[str, bool, dict]:
        require(abs(report["fourth_direct"] - report["fourth_correlation"]) <= U2_TOL,
                "CLI U2 routes disagree")
        return "agree", True, {}

    argv = ["u2", "compute", "--set", set_path]
    for path in spec_paths:
        argv += ["--spec", path]
    out.append(_cli_instance(bk, "cli.u2-compute.M300",
                             {"M": 300, "seed": sd, "data": digest(small_subset)}, argv,
                             check_u2_cli))
    return out


# ---------------------------------------------------------------------------
# search: extent search, counts, sumfree subsets, embeddings
# ---------------------------------------------------------------------------

SEARCH_BEHREND_LADDER = (10**4, 3 * 10**4, 10**5)
SEARCH_RANDOM = ((10**4, 3), (10**4, 4), (10**5, 3), (10**5, 5))
EMBED_INTERVALS = (30, 60, 100)
COUNT_INTERVAL = (200, 3)


def _gap(a: int, b: int) -> np.ndarray:
    """The proper two-dimensional progression ``x + 5 a y``, ``x < a``, ``y < b``."""
    return np.asarray(sorted({x + 5 * a * y for x in range(a) for y in range(b)}), dtype=np.int64)


def build_search(bk, seed: int, files: str) -> list[Instance]:
    rng = random.Random(f"search:{seed}")
    out: list[Instance] = []

    for N in SEARCH_BEHREND_LADDER:
        beh = bk.behrend_set(N)

        def none_call(beh=beh) -> Outcome:
            res = bk.find_configuration(beh, 2)
            require(res.status == "none", f"Behrend set gave {res.status}")
            require(bk.count_three_aps_fft(beh) == 0, "Behrend set has a 3-term progression")
            return Outcome("none", True, {"work": res.work}, res.as_dict())

        out.append(Instance(f"extent.behrend.N{N}.s2", {"N": N, "s": 2, "data": digest(beh)},
                            none_call))

    for N, s in SEARCH_RANDOM:
        sd = rng.randrange(2**31)
        subset = bk.random_set(N, 0.3, sd)
        members = set(subset.tolist())

        def hit_call(subset=subset, members=members, s=s) -> Outcome:
            res = bk.find_configuration(subset, s)
            require(res.status in ("found", "none"), f"extent search {res.status}")
            if res.status == "found":
                check_configuration(members, res.config.a, res.config.ns, s)
            return Outcome(res.status, True, {"work": res.work}, res.as_dict())

        out.append(Instance(f"extent.random.N{N}.s{s}",
                            {"N": N, "s": s, "seed": sd, "data": digest(subset)}, hit_call))

    def count_call(subset, s, literal):
        def call() -> Outcome:
            count = bk.count_configurations(subset, s)
            if literal:
                want = count_configurations_literal(subset.tolist(), s)
                require(count == want, f"count {count} differs from the literal loop {want}")
            if s == 2:
                require(count == bk.count_three_aps_fft(subset), "count differs from 3-AP count")
            return Outcome("counted", True, {"count": count}, {"count": count, "s": s})
        return call

    for N, s, literal in ((300, 2, True), (300, 3, True), (4000, 2, False)):
        sd = rng.randrange(2**31)
        subset = bk.random_set(N, 0.3, sd)
        out.append(Instance(f"count.random.N{N}.s{s}",
                            {"N": N, "s": s, "seed": sd, "data": digest(subset)},
                            count_call(subset, s, literal)))
    beh = bk.behrend_set(3000)
    out.append(Instance("count.behrend.N3000.s2", {"N": 3000, "s": 2, "data": digest(beh)},
                        count_call(beh, 2, False)))
    gap = _gap(12, 8)
    out.append(Instance("count.gap.12x8.s2", {"N": int(gap.size), "s": 2, "data": digest(gap)},
                        count_call(gap, 2, False)))
    n, s = COUNT_INTERVAL

    def interval_count_call(n=n, s=s) -> Outcome:
        # every same-parity s-subset of [1, n] is a configuration
        count = bk.count_configurations(np.arange(1, n + 1, dtype=np.int64), s)
        require(count == 2 * math.comb(n // 2, s), f"interval count {count} is not 2 C(n/2, s)")
        return Outcome("counted", True, {"count": count}, {"count": count, "s": s})

    out.append(Instance(f"count.interval.N{n}.s{s}", {"N": n, "s": s}, interval_count_call))

    sumfree_inputs = [(np.arange(1, 61, dtype=np.int64), 16, "interval.N60")]
    sd = rng.randrange(2**31)
    sumfree_inputs.append((bk.random_set(1000, 0.3, sd), 8, "random.N1000"))
    for ambient, h, tag in sumfree_inputs:

        def sumfree_call(ambient=ambient, h=h) -> Outcome:
            got = bk.find_sumfree_subset(ambient, h)
            require(got is not None, "no sumfree subset where one exists")
            check_sumfree(got.tolist(), ambient.tolist(), h)
            return Outcome("found", True, {"size": int(got.size)}, {"subset": got})

        out.append(Instance(f"sumfree.{tag}.h{h}", {"N": int(ambient.size), "data": digest(ambient)},
                            sumfree_call))

    def embed_call(domain, k):
        def call() -> Outcome:
            res = bk.ruzsa_embed(domain, k, seed=0)
            if res.status == "ok":
                m = res.map
                check_freiman_map(m.domain.tolist(), m.images.tolist(), m.modulus, domain.size)
            else:
                require(res.status == "failed" and res.map is None, f"embed status {res.status}")
            return Outcome(res.status, res.status == "ok", {"attempts": res.attempts},
                           res.as_dict())
        return call

    for n in EMBED_INTERVALS:
        interval = np.arange(1, n + 1, dtype=np.int64)
        out.append(Instance(f"embed.interval.N{n}", {"N": n, "data": digest(interval)},
                            embed_call(interval, Fraction(2 * n - 1, n))))
    for a, b in ((16, 4), (12, 8)):  # the failed path: no verified map for these GAPs
        gap = _gap(a, b)
        k = Fraction(int(np.unique(gap[:, None] - gap[None, :]).size), int(gap.size))
        out.append(Instance(f"embed.gap.{a}x{b}", {"N": int(gap.size), "data": digest(gap)},
                            embed_call(gap, k)))

    def via_call(domain, s):
        members = set(domain.tolist())

        def call() -> Outcome:
            res = bk.find_configuration_via_embedding(domain, s, seed=0)
            require(res.status in ("found", "none"), f"embedding search {res.status}")
            if res.status == "found":
                check_configuration(members, res.config.a, res.config.ns, s)
            elif s == 2:
                require(bk.count_three_aps_fft(domain) == 0, "none on a set with a 3-AP")
            return Outcome(res.status, True, {"route": res.route}, res.as_dict())
        return call

    for n in (30, 60):
        interval = np.arange(1, n + 1, dtype=np.int64)
        out.append(Instance(f"via-embedding.interval.N{n}.s3", {"N": n, "s": 3,
                                                               "data": digest(interval)},
                            via_call(interval, 3)))
    beh = bk.behrend_set(2000)
    out.append(Instance("via-embedding.behrend.N2000.s2", {"N": 2000, "s": 2, "data": digest(beh)},
                        via_call(beh, 2)))

    sd = rng.randrange(2**31)
    dich_sets = [bk.behrend_set(1000), bk.random_set(400, 0.3, sd)]
    dich_paths = [_write_set(os.path.join(files, f"dichotomy{i}.txt"), x)
                  for i, x in enumerate(dich_sets)]

    def check_dichotomy(code: int, report) -> tuple[str, bool, dict]:
        kinds = [row["outcome"]["kind"] for row in report]
        require(all(k in ("small-bohr", "local-increment", "large-u2", "no-case") for k in kinds),
                f"dichotomy kinds {kinds}")
        for row in report:
            if row["outcome"]["kind"] == "small-bohr":
                small = row["outcome"]["data"]["small"]
                require(Fraction(small["size"]) <= Fraction(*small["threshold"]),
                        "small-bohr size above its threshold")
        decided = all(k != "no-case" for k in kinds)
        return ",".join(kinds), decided, {"rows": len(report)}

    argv = ["patterns", "dichotomy"]
    for path in dich_paths:
        argv += ["--set", path]
    out.append(_cli_instance(bk, "cli.patterns-dichotomy",
                             {"seed": sd, "data": digest(*dich_sets)}, argv, check_dichotomy))

    beh = bk.behrend_set(3 * 10**4)
    beh_path = _write_set(os.path.join(files, "behrend30000.txt"), beh)

    def check_find(code: int, report) -> tuple[str, bool, dict]:
        require(report["case"] == "none" and code == 1, "Behrend set gave a configuration")
        return "none", True, {"work": report["work"]}

    out.append(_cli_instance(bk, "cli.patterns-find.behrend.N30000",
                             {"N": 3 * 10**4, "s": 2, "data": digest(beh)},
                             ["patterns", "find", "--set", beh_path, "--s", "2"], check_find))
    sd = rng.randrange(2**31)
    cnt = bk.random_set(300, 0.3, sd)
    cnt_path = _write_set(os.path.join(files, "count300.txt"), cnt)

    def check_count(code: int, report) -> tuple[str, bool, dict]:
        want = count_configurations_literal(cnt.tolist(), 3)
        require(report["count"] == want, "CLI count differs from the literal loop")
        return "counted", True, {"count": want}

    out.append(_cli_instance(bk, "cli.patterns-count.N300.s3",
                             {"N": 300, "s": 3, "seed": sd, "data": digest(cnt)},
                             ["patterns", "count", "--set", cnt_path, "--s", "3"], check_count))
    interval = np.arange(1, 61, dtype=np.int64)
    iv_path = _write_set(os.path.join(files, "interval60.txt"), interval)

    def check_embed(code: int, report) -> tuple[str, bool, dict]:
        if report["status"] == "ok":
            pairs = report["map"]["pairs"]
            check_freiman_map([p[0] for p in pairs], [p[1] for p in pairs],
                              report["map"]["modulus"], interval.size)
        return report["status"], report["status"] == "ok", {"attempts": report["attempts"]}

    out.append(_cli_instance(bk, "cli.sumfree-embed.interval.N60",
                             {"N": 60, "data": digest(interval)},
                             ["sumfree", "embed", "--set", iv_path, "--seed", "0"], check_embed))
    return out


BUILDERS = {
    "engine": build_engine,
    "widths": build_widths,
    "uniformity": build_uniformity,
    "search": build_search,
}
