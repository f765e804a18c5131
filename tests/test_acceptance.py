"""Acceptance battery: thirteen timed end-to-end checks over the toolkit.

Each criterion is one test with its own wall-clock budget. A test prints a
single ``[criterion NN] PASS`` line when every assertion and the time limit
hold; any failure fails that criterion's test. Oracles are naive
re-implementations written here, independent of the library code under
check.
"""

from __future__ import annotations

import cmath
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from bohrkit.bohr import (
    BohrSet,
    BohrSpec,
    enumerate_bohr,
    find_regular_alpha,
    regularity_certificate,
)
from bohrkit.functions import BoundedFunction
from bohrkit.gowers import check_inverse_theorem, u2_fourth_correlation, u2_fourth_direct, u2_report
from bohrkit.increment import ConstantTable, recheck_run, run
from bohrkit.patterns import (
    FunctionFamily,
    behrend_set,
    check_counting_bound,
    check_von_neumann,
    count_patterns_exact,
    count_three_aps_direct,
    count_three_aps_fft,
    dichotomy,
    find_configuration,
    increment_factor,
    random_set,
    smallness_bound,
    u2_threshold,
    verify_configuration,
)
from bohrkit.sumfree import (
    FreimanMap,
    check_freiman_isomorphic,
    find_configuration_via_embedding,
    find_sumfree_subset,
    is_sumfree_with_respect_to,
    ruzsa_embed,
)

# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _stamp(n: int, t0: float, limit: float, detail: str) -> None:
    elapsed = time.monotonic() - t0
    line = f"[criterion {n:02d}] PASS {detail} ({elapsed:.2f}s, limit {limit:.0f}s)"
    assert elapsed < limit, f"[criterion {n:02d}] FAIL over time budget: {elapsed:.2f}s"
    print(line)


def _random_spec(rng: random.Random, d_max: int, m_max: int) -> BohrSpec:
    d = rng.randint(1, d_max)
    theta = tuple(
        Fraction(rng.randint(1, q), q)
        for q in (rng.randint(2, 40) for _ in range(d))
    )
    eps = Fraction(rng.randint(1, 50), 100)
    return BohrSpec(theta, eps, Fraction(rng.randint(1, m_max)))


def _random_function(rng: random.Random, lo: int, hi: int, r_lo: float = 0.0) -> BoundedFunction:
    support = np.arange(lo, hi + 1)
    values = np.array(
        [
            rng.uniform(r_lo, 1) * cmath.exp(2j * cmath.pi * rng.uniform(0, 1))
            for _ in support
        ],
        dtype=np.complex128,
    )
    return BoundedFunction(support, values)


def _regular_base(rng: random.Random) -> BohrSet | None:
    spec = _random_spec(rng, 2, 200)
    if spec.M < 20:
        spec = BohrSpec(spec.theta, spec.eps, spec.M + 30)
    if regularity_certificate(spec).verdict:
        return BohrSet.from_spec(spec)
    search = find_regular_alpha(spec)
    if not search.found:
        return None
    return BohrSet.from_spec(spec.dilate(search.c))


# ---------------------------------------------------------------------------
# criterion 1: frozen small examples, exact arithmetic
# ---------------------------------------------------------------------------


def test_criterion_01_frozen_bohr_examples():
    t0 = time.monotonic()
    a = enumerate_bohr(BohrSpec((Fraction(1),), Fraction(1, 2), Fraction(100)))
    assert np.array_equal(a, np.arange(-100, 101))
    b = enumerate_bohr(BohrSpec((Fraction(1, 2),), Fraction(499, 1000), Fraction(50)))
    assert np.array_equal(b, np.arange(-50, 51, 2))
    assert b.size == 51
    cert = regularity_certificate(BohrSpec((Fraction(1, 2),), Fraction(1, 4), Fraction(1000)))
    assert cert.verdict is True
    c = enumerate_bohr(BohrSpec((Fraction(1, 3),), Fraction(1, 5), Fraction(1)))
    assert c.tolist() == [0]
    _stamp(1, t0, 1.0, "frozen enumeration and regularity examples exact")


# ---------------------------------------------------------------------------
# criterion 2: pigeonhole size bound, exact rationals
# ---------------------------------------------------------------------------


def test_criterion_02_size_lower_bound():
    t0 = time.monotonic()
    rng = random.Random(201)
    for _ in range(200):
        spec = _random_spec(rng, 3, 500)
        size = enumerate_bohr(spec).size
        assert Fraction(size) >= spec.eps**spec.dim * spec.M, spec
    _stamp(2, t0, 30.0, "size >= eps^d * M on 200 random descriptions")


# ---------------------------------------------------------------------------
# criterion 3: regularity certificates and the width search
# ---------------------------------------------------------------------------


def test_criterion_03_regularity_certification():
    t0 = time.monotonic()
    pathological = BohrSpec((Fraction(1, 2),), Fraction(499, 1000), Fraction(50))
    cert = regularity_certificate(pathological)
    assert cert.verdict is False
    assert cert.witness_c == Fraction(1, 499)
    assert cert.witness_side == "upper"

    rng = random.Random(301)
    successes = 0
    draws = 0
    while successes < 50 and draws < 120:
        draws += 1
        spec = _random_spec(rng, 2, 100)
        search = find_regular_alpha(spec)
        if not search.found:
            continue
        recert = regularity_certificate(spec.dilate(search.c))
        assert recert.verdict is True, (spec, search.c)
        successes += 1
    assert successes == 50
    _stamp(3, t0, 60.0, f"50 width searches recertified in {draws} draws")


# ---------------------------------------------------------------------------
# criterion 4: the two norm routes agree; characters have norm one
# ---------------------------------------------------------------------------


def test_criterion_04_norm_routes_agree():
    t0 = time.monotonic()
    rng = random.Random(401)
    checked = 0
    while checked < 100:
        spec = _random_spec(rng, 2, 40)
        base = enumerate_bohr(spec)
        if not (0 < base.size <= 60):
            continue
        k1, k2 = rng.randint(1, 3), rng.randint(1, 3)
        n1 = np.arange(-k1, k1 + 1)
        n2 = np.arange(-k2, k2 + 1)
        f = _random_function(rng, int(base.min()) - 6, int(base.max()) + 6)
        fd = u2_fourth_direct(f, base, n1, n2)
        fc = u2_fourth_correlation(f, base, n1, n2)
        assert abs(fd - fc) <= 1e-9 * max(fd, fc, 1e-12), (fd, fc)
        checked += 1
    for _ in range(20):
        q = rng.randint(2, 50)
        freq = Fraction(rng.randint(1, q - 1), q)
        base = np.arange(-25, 26)
        f = BoundedFunction.character(freq, -31, 31)
        norm = u2_fourth_correlation(f, base, np.arange(-2, 3), np.arange(-2, 3)) ** 0.25
        assert abs(norm - 1.0) <= 1e-9, (freq, norm)
    _stamp(4, t0, 60.0, "100 route agreements and 20 unit character norms")


# ---------------------------------------------------------------------------
# criterion 5: the averaged count never beats any pairwise norm
# ---------------------------------------------------------------------------


def test_criterion_05_count_bounded_by_norms():
    t0 = time.monotonic()
    rng = random.Random(501)
    for trial in range(200):
        s = 2 if trial % 2 == 0 else 3
        b = rng.randint(6, 20 if s == 2 else 12)
        base = np.arange(-b, b + 1)
        inners = [
            np.arange(-k, k + 1)
            for k in (rng.randint(1, 3) for _ in range(s))
        ]
        span = 2 * b
        f = _random_function(rng, -span, span)
        overrides = {}
        if rng.random() < 0.5:
            i = rng.randint(1, s)
            j = rng.randint(i, s)
            overrides[(i, j)] = _random_function(rng, -span, span)
        family = FunctionFamily(s, {**FunctionFamily.uniform(f, s).table, **overrides})
        rep = check_von_neumann(family, base, inners)
        assert rep.holds is True
        for norm in rep.norms.values():
            assert abs(rep.t_value) <= norm + 1e-9, (trial, rep.t_value, norm)
    _stamp(5, t0, 120.0, "zero violations over 200 random families, s in {2, 3}")


# ---------------------------------------------------------------------------
# criterion 6: a large norm always certifies large Fourier energy
# ---------------------------------------------------------------------------


def test_criterion_06_inverse_check_passes():
    t0 = time.monotonic()
    rng = random.Random(601)
    passed = 0
    while passed < 97:
        base = _regular_base(rng)
        if base is None:
            continue
        inner1 = BohrSet.from_spec(base.spec.dilate(Fraction(1, 10**7)))
        inner2 = BohrSet.from_spec(inner1.spec.dilate(Fraction(1, 10**4)))
        assert inner1.size == 1 and inner2.size == 1
        lo, hi = int(base.elements.min()), int(base.elements.max())
        f = _random_function(rng, lo, hi, r_lo=0.5)
        rep = u2_report(f, base, inner1, inner2)
        eta = min(Fraction(rep.norm), Fraction(1))
        assert eta >= Fraction(1, 2)
        chk = check_inverse_theorem(f, base, inner1, inner2, eta, grid=16)
        assert chk.status == "pass", (base.spec, chk.reasons, chk.status)
        assert chk.inverse_avg + chk.slack >= float(chk.threshold)
        passed += 1
    for freq in (Fraction(3, 7), Fraction(2, 11), Fraction(5, 13)):
        big = BohrSet.from_spec(BohrSpec((Fraction(1),), Fraction(1, 2), Fraction(30000)))
        inner1 = BohrSet.from_spec(big.spec.dilate(Fraction(1, 6000)))
        inner2 = BohrSet.from_spec(inner1.spec.dilate(Fraction(1, 1000)))
        assert inner1.size == 11
        f = BoundedFunction.character(freq, -30010, 30010)
        rep = u2_report(f, big, inner1, inner2)
        eta = min(Fraction(rep.norm), Fraction(1))
        chk = check_inverse_theorem(f, big, inner1, inner2, eta, grid=64)
        assert chk.status == "pass", (freq, chk.reasons, chk.status)
        passed += 1
    assert passed == 100
    _stamp(6, t0, 120.0, "100 hypothesis-satisfying instances, zero failures")


# ---------------------------------------------------------------------------
# criterion 7: counting identities against literal loops
# ---------------------------------------------------------------------------


def test_criterion_07_counting_identities():
    t0 = time.monotonic()
    rng = random.Random(701)
    for _ in range(50):
        b = rng.randint(4, 10)
        base = np.arange(-b, b + 1)
        k1, k2 = rng.randint(1, 3), rng.randint(1, 3)
        n1 = np.arange(-k1, k1 + 1)
        n2 = np.arange(-k2, k2 + 1)
        subset = np.unique(
            np.array(rng.sample(range(-3 * b, 3 * b + 1), rng.randint(3, 4 * b)))
        )
        members = set(subset.tolist())
        oracle = 0
        for a in base:
            for x in n1:
                for y in n2:
                    if (
                        a + 2 * x in members
                        and a + x + y in members
                        and a + 2 * y in members
                    ):
                        oracle += 1
        count, t = count_patterns_exact(subset, base, [n1, n2])
        assert count == oracle
        assert t == Fraction(oracle, base.size * n1.size * n2.size)

    instances = [
        np.arange(1, 5001),
        np.arange(1, 5001, 2),
        random_set(5000, 0.3, 1),
        random_set(5000, 0.05, 2),
        random_set(5000, 0.5, 3),
        behrend_set(5000),
    ]
    for arr in instances:
        assert count_three_aps_fft(arr) == count_three_aps_direct(arr)
    assert count_three_aps_direct(np.array([1, 2, 3, 4, 5])) == 4
    _stamp(7, t0, 60.0, "50 loop identities; progression counters agree to N=5000")


# ---------------------------------------------------------------------------
# criterion 8: the progression-free generator is certified free
# ---------------------------------------------------------------------------


def test_criterion_08_behrend_certified_free():
    t0 = time.monotonic()
    arr = behrend_set(10**4)
    members = set(arr.tolist())
    vals = arr.tolist()
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            x, z = vals[i], vals[j]
            if (x + z) % 2 == 0:
                assert (x + z) // 2 not in members or (x + z) // 2 in (x, z), (x, z)
    res = find_configuration(arr, 2)
    assert res.status == "none"
    _stamp(8, t0, 120.0, f"size-{arr.size} generator output certified progression-free")


# ---------------------------------------------------------------------------
# criterion 9: the dichotomy always lands in a case and rechecks
# ---------------------------------------------------------------------------


def test_criterion_09_dichotomy_cases_and_counting_bound():
    t0 = time.monotonic()
    window = np.arange(-3, 4)
    for n in range(100, 1051, 50):
        subset = behrend_set(n)
        base = BohrSet.from_spec(BohrSpec((Fraction(1),), Fraction(1, 2), Fraction(n)))
        delta = Fraction(int(subset.size), base.size)
        c1 = delta**2 / 12800
        inner1 = BohrSet.from_spec(base.spec.dilate(c1))
        inner2 = BohrSet.from_spec(inner1.spec.dilate(Fraction(1, 2)))
        out = dichotomy(subset, base, [inner1, inner2], enforce=True)
        assert out.kind in ("small-bohr", "local-increment", "large-u2")
        assert out.unmet == ()
        if out.kind == "small-bohr":
            small = out.as_dict()["data"]["small"]
            assert small["size"] == out.inner_sizes[-1]
            assert Fraction(*small["threshold"]) == Fraction(128) / out.delta**3
            assert Fraction(small["size"]) <= Fraction(*small["threshold"])
        bound = check_counting_bound(subset, base, [window, window])
        assert bound.freeness.status == "none"
        assert bound.holds is True
        assert bound.t_value <= bound.bound + Fraction(1, 10**9)
        assert bound.count == bound.t_value * (base.size * window.size**2)
    _stamp(9, t0, 300.0, "20 precondition-satisfying inputs, no violations")


# ---------------------------------------------------------------------------
# criterion 10: the constant table against an independent evaluation
# ---------------------------------------------------------------------------


def test_criterion_10_constant_table():
    t0 = time.monotonic()
    table = ConstantTable.for_mode("faithful")
    rng = random.Random(1001)
    for _ in range(20):
        s = rng.randint(2, 4)
        d = rng.randint(1, 5)
        delta = Fraction(rng.randint(1, 99), 100)
        b = s * (s + 1) // 2
        assert table.x1(s, d, delta) == Fraction(1, 2**85) / s**24 / d * delta ** (6 * s * (s + 1))
        assert table.x_rest(s, d, delta) == Fraction(1, 2**20) / s**4 / d * delta ** (s * (s + 1))
        assert table.eta(s, delta) == Fraction(1, 2**23) / s**8 * delta ** (2 * s * (s + 1))
        assert table.c_prime(s, d, delta) == Fraction(1, 2**37) / s**8 / d * delta ** (2 * s * (s + 1))
        assert smallness_bound(s, delta) == 32 * s * s * delta ** (-b)
        assert u2_threshold(s, delta) == delta**b / (32 * s * s)
        assert increment_factor(s) == 1 + Fraction(1, 8 * s * s)
        assert table.k_max(s, delta) == Fraction(2**55) * s**16 * delta ** (-4 * s * (s + 1))
        assert table.d_max(s, delta) == Fraction(2**29) * s**8 * delta ** (-2 * s * (s + 1))
    assert table.x1(2, 1, Fraction(1, 2)) == Fraction(1, 2**145)
    _stamp(10, t0, 1.0, "20 random evaluations plus the spot value match")


# ---------------------------------------------------------------------------
# criterion 11: engine terminations with recheckable certificates
# ---------------------------------------------------------------------------


def test_criterion_11_engine_runs():
    t0 = time.monotonic()
    dense = random_set(2000, 0.3, 7)
    found = run(dense, 2000, 2, mode="practical")
    assert found.status == "found" and found.exit_code == 0
    assert verify_configuration(dense, found.config, 2)
    assert recheck_run(dense, 2000, found) == []

    sparse = behrend_set(10**4)
    structured = run(sparse, 10**4, 2, mode="practical")
    assert structured.status != "found"
    assert structured.exit_code == 1
    assert recheck_run(sparse, 10**4, structured) == []

    evens = np.arange(-1000, 1001, 2)
    faithful = run(evens, 1000, 2, mode="faithful")
    assert faithful.status == "exhausted"
    assert len(faithful.steps) == 1
    step = faithful.steps[0]
    assert step.case == "small-bohr"
    small = step.payload["dichotomy"]["data"]["small"]
    assert small["size"] == 1
    assert Fraction(*small["threshold"]) == Fraction(128) / step.delta**3
    assert Fraction(small["size"]) <= Fraction(*small["threshold"])
    assert recheck_run(evens, 1000, faithful) == []
    _stamp(11, t0, 600.0, "dense found, structured exhausted, faithful exhausted at step 1")


# ---------------------------------------------------------------------------
# criterion 12: embeddings verified by exhaustive quadruples
# ---------------------------------------------------------------------------


def test_criterion_12_embedding_pipeline():
    t0 = time.monotonic()
    arr = np.arange(1, 21)
    res = ruzsa_embed(arr, Fraction(39, 20))
    assert res.status == "ok"
    dom = res.map.domain.tolist()
    img = {int(a): int(v) for a, v in zip(res.map.domain, res.map.images)}
    p = res.map.modulus
    for a1 in dom:
        for a2 in dom:
            for a3 in dom:
                for a4 in dom:
                    same = a1 + a2 == a3 + a4
                    mapped = (img[a1] + img[a2]) % p == (img[a3] + img[a4]) % p
                    assert same == mapped, (a1, a2, a3, a4)

    bad = FreimanMap(np.array([0, 1, 2]), 3, np.array([0, 1, 2]))
    assert check_freiman_isomorphic(bad) is False

    rng = random.Random(1201)
    for _ in range(15):
        pool = sorted(rng.sample(range(1, 60), rng.randint(5, 16)))
        h = rng.randint(1, 3)
        got = find_sumfree_subset(pool, h)
        if got is not None:
            assert is_sumfree_with_respect_to(got, pool)

    search = find_configuration_via_embedding(np.arange(1, 51), 2)
    assert search.status == "found"
    members = set(range(1, 51))
    assert all(v in members for v in search.config.elements())
    assert verify_configuration(np.arange(1, 51), search.config, 2)
    _stamp(12, t0, 120.0, "embedding, rejection, and the configuration search all verified")


# ---------------------------------------------------------------------------
# criterion 13: byte-identical reports across thread counts
# ---------------------------------------------------------------------------


def _battery(tmp_path, threads: str) -> bytes:
    env = dict(os.environ)
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        env[var] = threads
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"theta": [[1, 2]], "eps": [1, 4], "M": [60, 1]}))
    zs = tmp_path / "z.txt"
    zs.write_text("".join(f"{v}\n" for v in range(1, 31)))
    rs = tmp_path / "r.txt"
    rs.write_text("".join(f"{int(v)}\n" for v in random_set(400, 0.4, 2)))
    battery = [
        ["bohr", "enum", "--spec", str(spec)],
        ["bohr", "regular", "--spec", str(spec)],
        ["u2", "compute", "--set", str(zs), "--spec", str(spec)],
        ["patterns", "find", "--set", str(zs), "--s", "2"],
        ["patterns", "count", "--set", str(zs), "--s", "2"],
        ["patterns", "dichotomy", "--set", str(zs)],
        ["gen", "random", "300", "3/10", "--seed", "5", "--format", "json"],
        ["increment", "run", "--set", str(rs)],
        ["sumfree", "embed", "--set", str(zs), "--seed", "0"],
        ["sumfree", "find-config", "--set", str(zs), "--s", "2", "--seed", "0"],
    ]
    chunks = []
    for argv in battery:
        proc = subprocess.run(
            [sys.executable, "-m", "bohrkit.cli", *argv],
            capture_output=True,
            env=env,
            timeout=300,
        )
        chunks.append(b"$ " + " ".join(argv).encode() + b"\n" + proc.stdout)
    return b"".join(chunks)


def test_criterion_13_thread_count_determinism(tmp_path):
    t0 = time.monotonic()
    single = _battery(tmp_path, "1")
    multi = _battery(tmp_path, "4")
    assert single == multi
    assert len(single) > 1000  # the battery actually produced reports
    _stamp(13, t0, 300.0, "command battery byte-identical at 1 and 4 threads")
