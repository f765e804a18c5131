"""Deterministic report emission: canonical JSON, CSV summaries, JSONL traces.

Every machine-readable artifact goes through one normalization pass so that
identical computations yield byte-identical files regardless of thread
count, dict construction order, or numpy scalar types:

- dict keys are emitted in sorted order,
- exact rationals appear as two-element integer arrays ``[num, den]``,
- floats are rounded to 12 significant digits (reports that compare floats
  also carry the tolerance used for the comparison),
- numpy scalars and arrays are converted to plain Python values,
- no timestamps, hostnames, or other environment data are ever included.

A result object enters as its ``as_dict``. Most results take that from one
field rule, :class:`bohrkit.exact.Wired`: each dataclass field through
:func:`bohrkit.exact.wire`, so rationals are already ``[num, den]`` pairs
and tuples lists before the walk starts.

Emitting a report is one :func:`normalize` walk and one indented writer.
The writer takes only the normalized types and gives exactly the text of
``json.dumps(value, sort_keys=True, indent=2)``, which the tests keep as
its oracle; the standard library would run that call through its
pure-Python encoder. Round-tripping a report through :func:`parse_report`
and re-emitting it reproduces the same bytes.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Any, Iterable, Optional

import numpy as np

# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def normalize(obj: Any) -> Any:
    """Convert to plain JSON types with deterministic float formatting."""
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
        return normalize(complex(obj))
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "biu":  # tolist() already gives plain bools and ints
            return obj.tolist()
        return normalize(obj.tolist())  # nested lists, or a scalar when 0-d
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        return {str(k): normalize(v) for k, v in items}
    if isinstance(obj, (list, tuple, set, frozenset)):
        seq = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        if operator.countOf(map(type, seq), int) == len(seq):  # not bool, not an int subclass
            return list(seq)
        return [normalize(x) for x in seq]
    if hasattr(obj, "as_dict"):
        return normalize(obj.as_dict())
    raise TypeError(f"cannot normalize {type(obj).__name__} for a report")


def _float_text(x: float) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    if x != x:
        return "NaN"
    return "Infinity" if x > 0 else "-Infinity"


def _write(v: Any, out: list[str], pad: str) -> None:
    """Append ``v``, a normalized value, as indented JSON; ``pad`` is the
    indent of the line it starts on. Dict keys are written in the order
    :func:`normalize` left them, which is sorted."""
    if isinstance(v, str):
        out.append(_encode_str(v))
    elif v is None:
        out.append("null")
    elif v is True:
        out.append("true")
    elif v is False:
        out.append("false")
    elif isinstance(v, int):
        out.append(int.__repr__(v))
    elif isinstance(v, float):
        out.append(_float_text(v))
    elif isinstance(v, list):
        if not v:
            out.append("[]")
            return
        inner = pad + "  "
        sep = ",\n" + inner
        if operator.countOf(map(type, v), int) == len(v):
            # one format for the whole list: no list of per-item strings
            text = (("%d" + sep) * len(v))[: -len(sep)] % tuple(v)
            out.append("[\n" + inner + text + "\n" + pad + "]")
            return
        out.append("[\n" + inner)
        for i, x in enumerate(v):
            if i:
                out.append(sep)
            _write(x, out, inner)
        out.append("\n" + pad + "]")
    elif isinstance(v, dict):
        if not v:
            out.append("{}")
            return
        inner = pad + "  "
        out.append("{\n" + inner)
        for i, k in enumerate(v):
            if i:
                out.append(",\n" + inner)
            out.append(_encode_str(k) + ": ")
            _write(v[k], out, inner)
        out.append("\n" + pad + "}")
    else:
        raise TypeError(f"cannot write {type(v).__name__} as report JSON")


def canonical_json(obj: Any) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    out: list[str] = []
    _write(normalize(obj), out, "")
    out.append("\n")
    return "".join(out)


def canonical_json_line(obj: Any) -> str:
    """One-line canonical JSON (for traces): sorted keys, compact separators."""
    return json.dumps(normalize(obj), sort_keys=True, separators=(",", ":")) + "\n"


def parse_report(text: str) -> Any:
    """Inverse of :func:`canonical_json` up to normalization."""
    return json.loads(text)


# ---------------------------------------------------------------------------
# CSV summaries
# ---------------------------------------------------------------------------


def _flatten(prefix: str, obj: Any, out: dict) -> None:
    if isinstance(obj, dict):
        for k in sorted(obj):
            _flatten(f"{prefix}.{k}" if prefix else str(k), obj[k], out)
    elif (
        isinstance(obj, list)
        and len(obj) == 2
        and all(isinstance(x, int) and not isinstance(x, bool) for x in obj)
    ):
        out[prefix] = f"{obj[0]}/{obj[1]}"
    elif isinstance(obj, list):
        cells = []
        for x in obj:
            if isinstance(x, (dict, list)):
                cells.append(json.dumps(x, sort_keys=True, separators=(",", ":")))
            else:
                cells.append(str(x))
        out[prefix] = ";".join(cells)
    else:
        out[prefix] = obj


def csv_rows(rows: Iterable[Any]) -> str:
    """Flatten normalized dicts into a CSV table with a sorted union header.

    Two-element integer lists render as ``num/den``; other lists are joined
    with semicolons. Missing keys become empty cells.
    """
    flat: list[dict] = []
    for row in rows:
        cells: dict = {}
        _flatten("", normalize(row), cells)
        flat.append(cells)
    header = sorted({k for row in flat for k in row})
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=header, lineterminator="\n")
    writer.writeheader()
    for row in flat:
        writer.writerow({k: row.get(k, "") for k in header})
    return buf.getvalue()


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def emit_report(obj: Any, *, path: Optional[str] = None, fmt: str = "json") -> str:
    """Render ``obj`` (dict or list of dicts) and optionally write it."""
    if fmt == "json":
        text = canonical_json(obj)
    elif fmt == "csv":
        rows = obj if isinstance(obj, list) else [obj]
        text = csv_rows(rows)
    else:
        raise ValueError(f"unknown report format: {fmt!r}")
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def write_trace(records: Iterable[Any], path: str) -> None:
    """Write a JSONL trace: one canonical record per line, in order."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(canonical_json_line(rec))
