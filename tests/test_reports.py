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
    BohrSpec,
    enumerate_bohr,
    find_regular_alpha,
    regularity_certificate,
)
from bohrkit.cli import main, read_spec_file
from bohrkit.increment import run
from bohrkit.patterns import behrend_set
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
