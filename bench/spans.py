"""Span recording for the traced benchmark run, from outside the library.

In a traced battery the public bohrkit functions named in :data:`TARGETS` are
replaced, in every module namespace that binds them, by wrappers that record
one span per call: name, start, end, parent span, work units and outcome.
Nothing in ``src/`` changes; :func:`patched` restores every binding on exit.

A wrapper called inside a span of its own name records nothing, so a function
that reaches itself through another bound name (``emit_report`` calling
``canonical_json``) is counted once.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0
    work: dict = field(default_factory=dict)
    outcome: str = ""

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "work": self.work,
            "outcome": self.outcome,
        }


class Recorder:
    """Spans of one process, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @property
    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self.current
        sp = Span(len(self.spans) + 1, parent.id if parent else None, name,
                  time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        except BaseException as exc:
            sp.outcome = type(exc).__name__
            raise
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def write_jsonl(self, path: str) -> None:
        import json

        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp.as_dict(), sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# what gets wrapped, and the work units each span records
# ---------------------------------------------------------------------------


def _size(x) -> int:
    elements = getattr(x, "elements", x)
    return int(np.asarray(elements).size)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _u2_ops(power1: int, power2: int):
    def work(args, kwargs, out):
        a = _size(_arg(args, kwargs, 1, "base"))
        l1 = _size(_arg(args, kwargs, 2, "inner1"))
        l2 = _size(_arg(args, kwargs, 3, "inner2"))
        return {"ops": a * l1**power1 * l2**power2}

    return work


def _scan_ops(args, kwargs, out):
    a = _size(_arg(args, kwargs, 1, "base"))
    n = _size(_arg(args, kwargs, 2, "inner"))
    return {"ops": a * n * int(_arg(args, kwargs, 3, "grid"))}


def _tuples(args, kwargs, out):
    total = _size(_arg(args, kwargs, 1, "base"))
    for inner in _arg(args, kwargs, 2, "inners"):
        total *= _size(inner)
    return {"tuples": total}


def _status(out) -> str:
    for attr in ("status", "verdict", "found", "kind"):
        if hasattr(out, attr):
            return str(getattr(out, attr))
    return "ok"


# (module, attribute, span name, work units from (args, kwargs, result))
TARGETS: list[tuple[str, str, str, Optional[Callable]]] = [
    ("bohrkit.bohr", "enumerate_bohr", "bohr.enumerate",
     lambda a, k, out: {"elements": int(out.size)}),
    ("bohrkit.bohr", "regularity_certificate", "bohr.certificate",
     lambda a, k, out: {"points": out.num_checked}),
    ("bohrkit.bohr", "find_regular_dilation", "bohr.find_dilation",
     lambda a, k, out: {"tried": len(out.tried), "found": int(out.found)}),
    ("bohrkit.functions", "BoundedFunction.gather", "functions.gather",
     lambda a, k, out: {"points": int(out.size)}),
    ("bohrkit.gowers", "u2_fourth_direct", "gowers.u2_direct", _u2_ops(2, 2)),
    ("bohrkit.gowers", "u2_fourth_correlation", "gowers.u2_correlation", _u2_ops(2, 1)),
    ("bohrkit.gowers", "local_fourier_scan", "gowers.fourier_scan", _scan_ops),
    ("bohrkit.gowers", "check_inverse_theorem", "gowers.inverse_check", None),
    ("bohrkit.patterns", "find_configuration_restricted", "patterns.find_restricted",
     lambda a, k, out: {"work": out.work, "inconclusive": int(out.status == "inconclusive")}),
    ("bohrkit.patterns", "find_configuration", "patterns.find_extent",
     lambda a, k, out: {"work": out.work}),
    ("bohrkit.patterns", "count_configurations", "patterns.count_configurations", None),
    ("bohrkit.patterns", "dichotomy", "patterns.dichotomy", None),
    ("bohrkit.patterns", "count_T_s", "patterns.count_T_s", _tuples),
    ("bohrkit.increment", "run", "increment.run",
     lambda a, k, out: {"steps": len(out.steps)}),
    ("bohrkit.increment", "recheck_run", "increment.recheck",
     lambda a, k, out: {"problems": len(out)}),
    ("bohrkit.increment", "fourier_increment", "increment.fourier_increment",
     lambda a, k, out: {"grid_used": out.grid_used}),
    ("bohrkit.sumfree", "ruzsa_embed", "sumfree.embed",
     lambda a, k, out: {"attempts": out.attempts, "ok": int(out.status == "ok")}),
    ("bohrkit.sumfree", "check_freiman_isomorphic", "sumfree.freiman_check",
     lambda a, k, out: {"quadruples": int(a[0].domain.size) ** 4}),
    ("bohrkit.sumfree", "find_sumfree_subset", "sumfree.find_sumfree", None),
    ("bohrkit.sumfree", "find_configuration_via_embedding", "sumfree.via_embedding", None),
    ("bohrkit.reports", "emit_report", "reports.emit",
     lambda a, k, out: {"bytes": len(out)}),
    ("bohrkit.reports", "canonical_json", "reports.emit",
     lambda a, k, out: {"bytes": len(out)}),
    ("bohrkit.reports", "write_trace", "reports.emit",
     lambda a, k, out: {"bytes": os.path.getsize(_arg(a, k, 1, "path"))}),
    ("bohrkit.cli", "main", "cli.main", None),
]


def _wrap(rec: Recorder, name: str, fn: Callable, work: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        cur = rec.current
        if cur is not None and cur.name == name:
            return fn(*args, **kwargs)
        with rec.span(name) as sp:
            out = fn(*args, **kwargs)
            sp.outcome = _status(out)
            if work is not None:
                sp.work = work(args, kwargs, out)
            return out

    return wrapper


@contextlib.contextmanager
def patched(rec: Recorder):
    """Route every binding of the :data:`TARGETS` through span wrappers."""
    undo: list[tuple[object, str, object]] = []
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "bohrkit" or n.startswith("bohrkit."))]
    try:
        for modname, attr, name, work in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                undo.append((cls, meth, original))
                setattr(cls, meth, _wrap(rec, name, original, work))
                continue
            original = getattr(owner, attr)
            wrapper = _wrap(rec, name, original, work)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
        yield rec
    finally:
        for obj, key, original in reversed(undo):
            setattr(obj, key, original)


# ---------------------------------------------------------------------------
# per-layer figures from a list of spans
# ---------------------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that its direct children cover."""
    out = {sp.id: sp.end - sp.start for sp in spans}
    for sp in spans:
        if sp.parent is not None and sp.parent in out:
            out[sp.parent] -= sp.end - sp.start
    return out


def covered(spans: list[Span], match: Callable[[str], bool],
            within: Optional[str] = None) -> float:
    """Wall time inside spans whose name matches, nested matches counted once.

    With ``within``, only matching spans that run inside a span of that name
    count.
    """
    by_id = {sp.id: sp for sp in spans}
    total = 0.0
    for sp in spans:
        if not match(sp.name):
            continue
        ancestors = []
        parent = by_id.get(sp.parent)
        while parent is not None:
            ancestors.append(parent.name)
            parent = by_id.get(parent.parent)
        if any(match(name) for name in ancestors):
            continue
        if within is None or within in ancestors:
            total += sp.end - sp.start
    return total
