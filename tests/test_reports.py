"""Canonical report serialization: normalization, JSON, JSONL traces, CSV.

Determinism of the emitted bytes is the contract under test: the same
report object must always serialize to the identical string. Every report
text is also pinned to ``oracle_json``: the normalization without its fast
paths, then the standard library's indented encoder.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bohrkit.bohr import (
    BohrSet,
    BohrSpec,
    DilationSearch,
    RegularityCertificate,
    enumerate_bohr,
    find_regular_alpha,
    regularity_certificate,
)
from bohrkit.cli import main, read_spec_file
from bohrkit.gowers import InverseCheck, U2Report
from bohrkit.increment import ChainLink, IncrementOutcome, RunResult, StepRecord, run
from bohrkit.patterns import (
    Configuration,
    CountingBoundReport,
    DichotomyOutcome,
    FinderResult,
    behrend_set,
)
from bohrkit.sumfree import EmbeddingSearch, EmbedResult, FreimanMap
from bohrkit.reports import (
    canonical_json,
    canonical_json_line,
    csv_rows,
    emit_report,
    normalize,
    parse_report,
    write_trace,
)

# ---------------------------------------------------------------------------
# the oracle: normalization without its fast paths, then the standard
# library's indented encoder
# ---------------------------------------------------------------------------


def normalize_oracle(obj: Any) -> Any:
    """:func:`normalize` as one recursive call per value, no fast path."""
    if isinstance(obj, Fraction):
        return [obj.numerator, obj.denominator]
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (int, str)) or obj is None:
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, complex):
        return {"im": float(f"{obj.imag:.12g}"), "re": float(f"{obj.real:.12g}")}
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, np.complexfloating):
        return normalize_oracle(complex(obj))
    if isinstance(obj, np.ndarray):
        return [normalize_oracle(x) for x in obj.tolist()]
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        return {str(k): normalize_oracle(v) for k, v in items}
    if isinstance(obj, (list, tuple, set, frozenset)):
        seq = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [normalize_oracle(x) for x in seq]
    if hasattr(obj, "as_dict"):
        return normalize_oracle(obj.as_dict())
    raise TypeError(f"cannot normalize {type(obj).__name__} for a report")


def oracle_json(obj: Any) -> str:
    return json.dumps(normalize_oracle(obj), sort_keys=True, indent=2) + "\n"


@dataclass(frozen=True)
class Record:
    """A report object that renders itself through ``as_dict``."""

    body: Any

    def as_dict(self) -> dict:
        return {"body": self.body, "kind": "record"}


_TRICKY = '"\\/\b\f\n\r\t\x00\x1f\x7f\u2028é€\U0001F600'
_floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.just(-0.0))
_ints = st.integers(-(10**30), 10**30)
_shapes = hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4)
_arrays = st.one_of(
    [
        hnp.arrays(dtype, _shapes, elements=elements)
        for dtype, elements in [
            (np.int64, None),
            (np.uint8, None),
            (np.bool_, None),
            (np.float64, st.floats(allow_nan=True, allow_infinity=True)),
        ]
    ]
)
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    _ints,
    _floats,
    st.text(alphabet=st.one_of(st.sampled_from(_TRICKY), st.characters()), max_size=8),
    st.fractions(),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    st.builds(np.int64, st.integers(-(2**63), 2**63 - 1)),
    st.builds(np.uint8, st.integers(0, 255)),
    st.builds(np.bool_, st.booleans()),
    st.builds(np.float64, _floats),
    st.builds(np.complex128, st.complex_numbers(allow_nan=True)),
    _arrays,
    st.sets(_ints, max_size=4),
    st.frozensets(_ints, max_size=4),
    st.lists(_ints, max_size=6),  # plain-int lists take the join path
    st.lists(st.one_of(_ints, st.booleans()), max_size=6).map(tuple),
)
reports = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.one_of(_ints, st.text(max_size=4)), children, max_size=5),
        st.builds(Record, children),
    ),
    max_leaves=25,
)

# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_normalize_rationals_and_bools():
    assert normalize(Fraction(6, 4)) == [3, 2]
    assert normalize(True) is True  # bool survives, never becomes 1
    assert normalize(7) == 7


def test_normalize_floats_to_twelve_digits():
    assert normalize(1 / 3) == 0.333333333333
    assert normalize(0.1 + 0.2) == 0.3
    assert normalize(1e-300) == 1e-300


def test_normalize_complex_and_numpy():
    assert normalize(1 + 2j) == {"im": 2.0, "re": 1.0}
    assert normalize(np.int64(5)) == 5
    assert normalize(np.bool_(True)) is True
    assert normalize(np.float64(0.5)) == 0.5
    assert normalize(np.array([1, 2])) == [1, 2]


def test_normalize_containers_sorted():
    got = normalize({"b": 1, "a": {2, 1}})
    assert list(got.keys()) == ["a", "b"]
    assert got["a"] == [1, 2]


def test_normalize_fast_paths():
    assert normalize(np.array([1 / 3, 2.0])) == [0.333333333333, 2.0]  # rounded
    assert normalize(np.array([True, False])) == [True, False]
    assert normalize(np.array(5)) == 5 and normalize(np.array(1 / 3)) == 0.333333333333
    got = normalize(np.array([[1, 2], [3, 4]], dtype=np.uint8))
    assert got == [[1, 2], [3, 4]] and type(got[0][0]) is int
    ints = [3, 1, 2]
    assert normalize(ints) == ints and normalize(ints) is not ints  # a copy
    assert normalize((1, True, 2)) == [1, True, 2]
    assert normalize([1, np.int64(2)]) == [1, 2]


def test_normalize_rejects_unknown():
    with pytest.raises(TypeError):
        normalize(object())


# ---------------------------------------------------------------------------
# JSON emission
# ---------------------------------------------------------------------------


def test_canonical_json_deterministic():
    obj = {"z": Fraction(1, 3), "a": [1.0 / 7, {"k": np.int32(2)}]}
    first = canonical_json(obj)
    second = canonical_json(obj)
    assert first == second
    assert first.endswith("\n")
    assert parse_report(first) == parse_report(second)


def test_canonical_json_round_trip_stable():
    obj = {"x": [0.1, Fraction(2, 5)], "flag": False}
    text = canonical_json(obj)
    again = canonical_json(parse_report(text))
    assert text == again


@settings(max_examples=400, deadline=None)
@given(obj=reports)
@example(obj=[])
@example(obj={})
@example(obj={"a": [], "b": {}, "c": [[]]})
@example(obj=[1, True, False, 2])
@example(obj=np.array([1 / 3, float("nan"), -0.0]))
@example(obj=["\"q\"", "\\", "\n\x01", "é€\U0001F600"])
# all-int lists, written with one format: the int64 ends, past them, one
# element, and nested in lists and dicts
@example(obj=[2**63 - 1, -(2**63 - 1), -(2**63), 0])
@example(obj=np.array([2**63 - 1, -(2**63)], dtype=np.int64))
@example(obj=[3**90, -(2**64), 7])
@example(obj=[[-(2**63)], [0], [5, -5]])
@example(obj={"a": [1], "b": [[2**63], [1, [2, 3]]], "c": [-1]})
def test_canonical_json_matches_oracle(obj):
    assert canonical_json(obj) == oracle_json(obj)
    assert canonical_json(obj) == json.dumps(normalize(obj), sort_keys=True, indent=2) + "\n"
    assert canonical_json_line(obj) == (
        json.dumps(normalize_oracle(obj), sort_keys=True, separators=(",", ":")) + "\n"
    )


def test_canonical_json_matches_oracle_on_library_outputs():
    spec = BohrSpec((Fraction(1, 2), Fraction(3, 7)), Fraction(499, 1000), Fraction(50))
    subset = behrend_set(3000)
    outputs = [
        run(subset, 3000, 2, mode="practical"),
        regularity_certificate(spec),
        find_regular_alpha(spec),
    ]
    for out in outputs:
        assert canonical_json(out) == oracle_json(out)


def test_cli_bohr_enum_report_matches_oracle(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"theta": [[2, 5]], "eps": [1, 3], "M": [5 * 10**4, 1]}))
    assert main(["bohr", "enum", "--spec", str(path)]) == 0
    spec = read_spec_file(str(path))
    elements = enumerate_bohr(spec)
    assert elements.size > 5 * 10**4
    report = {"spec": spec.as_dict(), "size": int(elements.size),
              "elements": [int(x) for x in elements]}
    assert capsys.readouterr().out == oracle_json(report)


def test_cli_gen_reports_match_oracle(capsys):
    elements = behrend_set(2000)
    assert main(["gen", "behrend", "2000", "--format", "json"]) == 0
    report = {"size": int(elements.size), "elements": [int(x) for x in elements]}
    assert capsys.readouterr().out == oracle_json(report)
    assert main(["gen", "behrend", "2000"]) == 0
    lines = ["# 3-progression-free subset of [1, 2000]"] + [str(int(x)) for x in elements]
    assert capsys.readouterr().out == "\n".join(lines) + "\n"


def test_json_line_is_single_line():
    line = canonical_json_line({"a": 1, "b": [1, 2]})
    assert line.endswith("\n")
    assert "\n" not in line.rstrip("\n")
    assert parse_report(line) == {"a": 1, "b": [1, 2]}


# ---------------------------------------------------------------------------
# CSV flattening
# ---------------------------------------------------------------------------


def test_csv_rows_flatten():
    rows = [
        {"name": "x", "val": Fraction(1, 2), "sub": {"a": 1}},
        {"name": "y", "val": Fraction(3, 4)},
    ]
    text = csv_rows(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "name,sub.a,val"
    assert lines[1] == "x,1,1/2"
    assert lines[2] == "y,,3/4"  # missing key stays empty


def test_csv_rows_nested_lists():
    text = csv_rows([{"xs": [1, 2, 3]}])
    assert text.strip().split("\n")[1] == "1;2;3"


# ---------------------------------------------------------------------------
# file outputs
# ---------------------------------------------------------------------------


def test_emit_report_to_file(tmp_path):
    path = tmp_path / "r.json"
    text = emit_report({"a": Fraction(1, 2)}, path=str(path))
    assert path.read_text() == text
    assert parse_report(text) == {"a": [1, 2]}


def test_write_trace_jsonl(tmp_path):
    path = tmp_path / "t.jsonl"
    write_trace([{"step": 0}, {"step": 1, "v": Fraction(1, 3)}], str(path))
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 2
    assert parse_report(lines[1]) == {"step": 1, "v": [1, 3]}


# ---------------------------------------------------------------------------
# result report forms: each class's as_dict pinned to literal values, on
# both branches of every optional field (the key sets and the list, not
# tuple, containers matter to readers of the Python values, not only the
# normalized bytes)
# ---------------------------------------------------------------------------

F = Fraction
SPEC = BohrSpec((F(1, 3), F(2, 7)), F(1, 5), F(20))
CERT = RegularityCertificate(SPEC, F(1, 40), True, 9, 4, F(1, 80), 7, 11)
CONFIG = Configuration(3, (0, 2))
FOUND = FinderResult("found", CONFIG, 12, 100, "restricted")
NONE = FinderResult("none", None, 40, 100, "extent")
EMBED = EmbedResult("ok", FreimanMap(np.array([1, 2, 5]), 11, np.array([3, 6, 4]), 3),
                    F(5, 2), 5, 3, 3, 2, 4, 7)
DICH = DichotomyOutcome("small-bohr", 2, F(1, 4), ("c1",), NONE, (3, 1))
LINK = ChainLink(1, F(1, 4), F(1, 2), 3, 2)
LINK2 = ChainLink(2, F(1, 8), F(1, 4), 1, 1)
WINDOW = BohrSpec((F(1),), F(1, 2), F(9))
STEP = StepRecord(0, F(1, 4), WINDOW, 2, -1, (LINK, LINK2), dichotomy=DICH)
CONFIG_STEP = StepRecord(0, F(1, 4), WINDOW, 2, -1, (LINK, LINK2), finder=FOUND)

SPEC_D = {"theta": [[1, 3], [2, 7]], "eps": [1, 5], "M": [20, 1], "dim": 2,
          "degenerate": False}
CERT_D = {"spec": SPEC_D, "window": [1, 40], "verdict": True, "base_size": 9,
          "num_checked": 4, "max_negative_gap": [1, 80], "size_at_minus_window": 7,
          "size_at_plus_window": 11}
CONFIG_D = {"a": 3, "ns": [0, 2], "elements": [3, 5, 7]}
FOUND_D = {"status": "found", "work": 12, "budget": 100, "mode": "restricted",
           "config": CONFIG_D}
NONE_D = {"status": "none", "work": 40, "budget": 100, "mode": "extent"}
DICH_D = {"kind": "small-bohr", "s": 2, "delta": [1, 4], "unmet": ["c1"],
          "data": {"freeness": NONE_D, "inner_sizes": [3, 1],
                   "small": {"size": 1, "threshold": [8192, 1]}}}
LINK_D = {"index": 1, "c": [1, 4], "target": [1, 2], "size": 3, "tried": 2}
LINK2_D = {"index": 2, "c": [1, 8], "target": [1, 4], "size": 1, "tried": 1}
WINDOW_D = {"theta": [[1, 1]], "eps": [1, 2], "M": [9, 1], "dim": 1, "degenerate": True}
STEP_D = {"step": 0, "case": "small-bohr", "d": 1, "delta": [1, 4], "eps": [1, 2],
          "M": [9, 1], "spec": WINDOW_D, "mult": 2, "offset": -1,
          "certificate": {"chain": [LINK_D, LINK2_D], "dichotomy": DICH_D}}
CONFIG_ORIGINAL_D = {"a": 5, "ns": [0, 4], "elements": [5, 9, 13]}
CONFIG_STEP_D = {**STEP_D, "case": "config",
                 "certificate": {"chain": [LINK_D, LINK2_D], "config": CONFIG_D,
                                 "finder": FOUND_D, "config_original": CONFIG_ORIGINAL_D}}
EMBED_D = {"status": "ok", "map": {"modulus": 11, "multiplier": 3,
                                   "pairs": [[1, 3], [2, 6], [5, 4]]},
           "k_declared": [5, 2], "diff_size": 5, "domain_size": 3, "kept_size": 3,
           "attempts": 2, "c_embed": 4, "seed": 7, "reason": ""}

REPORT_FORMS = [
    (SPEC, SPEC_D),
    (BohrSpec((F(1),), F(1, 2), F(3, 2)),
     {"theta": [[1, 1]], "eps": [1, 2], "M": [3, 2], "dim": 1, "degenerate": True}),
    (CERT, CERT_D),
    (RegularityCertificate(SPEC, F(1, 40), False, 9, 4, F(1, 80), 7, 11, F(-1, 40), 5,
                           "minus"),
     {**CERT_D, "verdict": False, "witness_c": [-1, 40], "witness_size": 5,
      "witness_side": "minus"}),
    (DilationSearch(True, F(1, 2), CERT, (F(1), F(1, 2))),
     {"found": True, "tried": [[1, 1], [1, 2]], "reason": "", "c": [1, 2],
      "certificate": CERT_D}),
    (DilationSearch(False, None, None, (F(1),), "window exhausted"),
     {"found": False, "tried": [[1, 1]], "reason": "window exhausted"}),
    (U2Report(0.25, 0.2500000001, 0.7071, 1e-10),
     {"fourth_direct": 0.25, "fourth_correlation": 0.2500000001, "norm": 0.7071,
      "agreement": 1e-10, "tolerance": 1e-09}),
    (InverseCheck("pass", (), F(1, 2), F(1, 4), F(1, 8), 0.75, 0.3, 0.3, 0.5, F(1, 64),
                  0.01, 0.02, 64),
     {"status": "pass", "reasons": [], "eta": [1, 2], "c1": [1, 4], "c2": [1, 8],
      "norm": 0.75, "fourth_direct": 0.3, "fourth_correlation": 0.3, "inverse_avg": 0.5,
      "threshold": [1, 64], "certified_error": 0.01, "slack": 0.02, "grid": 64,
      "tolerance": 1e-09}),
    (InverseCheck("hypothesis-not-met", ("c1 too large",), F(1, 2), None, None, 0.75, 0.3,
                  0.3, None, F(1, 64), None, None, 64),
     {"status": "hypothesis-not-met", "reasons": ["c1 too large"], "eta": [1, 2],
      "c1": None, "c2": None, "norm": 0.75, "fourth_direct": 0.3,
      "fourth_correlation": 0.3, "inverse_avg": None, "threshold": [1, 64],
      "certified_error": None, "slack": None, "grid": 64, "tolerance": 1e-09}),
    (IncrementOutcome("no-witness", (), F(1, 3), 512),
     {"status": "no-witness", "unmet": [], "delta_before": [1, 3], "grid_used": 512,
      "a_star": None, "translate": None, "y": None, "new_spec": None,
      "delta_after": None, "scan_value": None, "inverse_avg": None,
      "guaranteed_bound": None, "bound_asserted": False}),
    (IncrementOutcome("refined", ("eps",), F(1, 3), 1024, 4, -2, F(3, 17),
                      BohrSet(SPEC), F(2, 3), 0.4, 0.2, 0.1, True),
     {"status": "refined", "unmet": ["eps"], "delta_before": [1, 3], "grid_used": 1024,
      "a_star": 4, "translate": -2, "y": [3, 17], "new_spec": SPEC_D,
      "delta_after": [2, 3], "scan_value": 0.4, "inverse_avg": 0.2,
      "guaranteed_bound": 0.1, "bound_asserted": True}),
    (FOUND, FOUND_D),
    (NONE, NONE_D),
    (CountingBoundReport(NONE, 6, F(6, 250), F(4, 5), True),
     {"freeness": NONE_D, "count": 6, "t_value": [3, 125], "bound": [4, 5],
      "holds": True}),
    (CountingBoundReport(FOUND, None, None, F(4, 5), None),
     {"freeness": FOUND_D, "count": None, "t_value": None, "bound": [4, 5],
      "holds": None}),
    (DICH, DICH_D),
    (LINK, LINK_D),
    (CONFIG_STEP, CONFIG_STEP_D),
    (RunResult("configuration found", (CONFIG_STEP,), {"d": 1, "set_size": 4}),
     {"status": "found", "exit_code": 0, "reason": "configuration found",
      "config": CONFIG_ORIGINAL_D, "steps": [CONFIG_STEP_D], "final": {"d": 1, "set_size": 4}}),
    (RunResult("step cap 0 reached", (), {}),
     {"status": "limit", "exit_code": 3, "reason": "step cap 0 reached", "config": None,
      "steps": [], "final": {}}),
    (EMBED, EMBED_D),
    (EmbedResult("failed", None, F(5, 2), 5, 3, 3, 9, 4, 7, "no prime"),
     {**EMBED_D, "status": "failed", "map": None, "attempts": 9, "reason": "no prime"}),
    (EmbeddingSearch("found", CONFIG, "direct", EMBED,
                     FinderResult("found", CONFIG, 12, 100, "extent")),
     {"status": "found", "config": CONFIG_D, "route": "direct", "embed": EMBED_D,
      "finder": {**FOUND_D, "mode": "extent"}}),
    (EmbeddingSearch("none", None, "direct",
                     EmbedResult("failed", None, F(5, 2), 5, 3, 0, 9, 4, 7, "no prime"), NONE),
     {"status": "none", "config": None, "route": "direct",
      "embed": {**EMBED_D, "status": "failed", "map": None, "kept_size": 0, "attempts": 9,
                "reason": "no prime"},
      "finder": NONE_D}),
]


@pytest.mark.parametrize(
    "result, expected", REPORT_FORMS, ids=[type(r).__name__ for r, _ in REPORT_FORMS]
)
def test_result_report_forms_are_pinned(result, expected):
    assert result.as_dict() == expected


# the dichotomy's other branches: each threshold derives from (s, delta), and
# the scanned pairs from s and the number of norms
BRANCH_FORMS = [
    (DichotomyOutcome("local-increment", 2, F(1, 4), (), NONE, (3, 3),
                      inner_index=2, a=-6, new_density=F(2, 3)),
     {**DICH_D, "kind": "local-increment", "unmet": [],
      "data": {"freeness": NONE_D, "inner_sizes": [3, 3],
               "increment": {"inner_index": 2, "a": -6, "new_density": [2, 3],
                             "required": [33, 128]}}}),
    (DichotomyOutcome("large-u2", 3, F(1, 4), (), NONE, (9, 5, 3), norms=(0.01, 0.5)),
     {**DICH_D, "kind": "large-u2", "s": 3, "unmet": [],
      "data": {"freeness": NONE_D, "inner_sizes": [9, 5, 3],
               "large_u2": {"pair": [1, 3], "norm": 0.5, "threshold": [1, 1179648],
                            "norms_scanned": {"1,2": 0.01, "1,3": 0.5}}}}),
    (DichotomyOutcome("violation", 2, F(1, 4), (), NONE, (3, 3), norms=(0.01,)),
     {**DICH_D, "kind": "violation", "unmet": [],
      "data": {"freeness": NONE_D, "inner_sizes": [3, 3], "norms_scanned": {"1,2": 0.01},
               "u2_threshold": [1, 8192]}}),
]


@pytest.mark.parametrize(
    "outcome, expected", BRANCH_FORMS, ids=[o.kind for o, _ in BRANCH_FORMS]
)
def test_dichotomy_branch_report_forms_are_pinned(outcome, expected):
    assert outcome.as_dict() == expected
