"""Import hygiene of the library sources, checked with the standard ``ast``.

Every module under ``src/bohrkit`` except the package ``__init__`` must
import no underscore name from another bohrkit module (a private helper that
two modules need belongs under a public name) and must use every name its
top-level imports bind. Every module, the package ``__init__`` included,
must leave ``np.isin`` and ``np.intersect1d`` alone: each membership question
on a sorted array goes through ``bohr.sorted_lookup``. No module scatters
element by element through a ufunc's ``at`` (``np.bitwise_or.at`` and the
like): a kernel builds its array in one vectorized pass. No module tests
order by subtraction, comparing an ``np.diff(...)`` call: a difference of
int64 values wraps at the ends, so sortedness compares neighbours
(``x[1:] > x[:-1]``). Every ``as_strided`` call passes
``writeable=False``: the U2 routes read their pair tables through sheared
views in which one entry stands for many, so a write through such a view
would change what other base points read. No module calls
``json.dumps`` with an ``indent``: indented report text has one writer,
``reports.canonical_json``. Only ``exact.wire`` calls ``rational_pair``:
a result's report form goes through ``wire``, and the engine keeps its
evidence as values until then. Only ``bohr.charge`` raises
``BudgetExceeded``: every budget is charged and refused by one rule. Every
library function
the bench harness traces (``bench/spans.py``, ``TARGETS``) must still exist
under the name the harness patches, so a rename cannot silently drop a span.
Every public function and public method of a public class in ``src/bohrkit``
needs a caller outside ``tests/`` (another library module, its own module
outside its own body, or the bench harness), unless ``TEST_ONLY_ALLOWED``
names it with a reason. The settable values of the public API are counted and
pinned, so a new knob has to move the pin in its own diff. Every mutant in
``tests/mutants.py`` must still find its ``old`` text exactly once, and the
tests it names must exist.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import bohrkit

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bohrkit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
BENCH = sorted((ROOT / "bench").glob("*.py"))
_SET_OPS = ("isin", "intersect1d")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _is_bohrkit(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "bohrkit"


def private_imports(tree: ast.Module) -> list[str]:
    """Underscore names imported from bohrkit modules, anywhere in the file."""
    return [
        f"line {node.lineno}: {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and _is_bohrkit(node)
        for alias in node.names
        if alias.name.startswith("_")
    ]


def _used_names(tree: ast.Module) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # quoted annotations such as "BoundedFunction"
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return used


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by top-level imports that nothing in the module reads."""
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = _used_names(tree)
    unused = sorted((line, name) for name, line in bound.items() if name not in used)
    return [f"line {line}: {name}" for line, name in unused]


def set_op_calls(tree: ast.Module) -> list[str]:
    """References to ``np.isin`` or ``np.intersect1d``, by any module alias."""
    return [
        f"line {node.lineno}: {node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in _SET_OPS
    ]


def ufunc_at_calls(tree: ast.Module) -> list[str]:
    """References to ``<module>.<ufunc>.at``, such as ``np.add.at``."""
    return [
        f"line {node.lineno}: {node.value.attr}.at"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "at"
        and isinstance(node.value, ast.Attribute)
        and isinstance(node.value.value, ast.Name)
        and isinstance(getattr(np, node.value.attr, None), np.ufunc)
    ]


def _call_name(node: ast.Call) -> str | None:
    return getattr(node.func, "attr", None) or getattr(node.func, "id", None)


def diff_comparisons(tree: ast.Module) -> list[str]:
    """Comparisons with a ``diff`` call (``np.diff`` by any alias) as an
    operand, in line order."""
    lines = sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(
            isinstance(operand, ast.Call) and _call_name(operand) == "diff"
            for operand in (node.left, *node.comparators)
        )
    )
    return [f"line {line}: diff" for line in lines]


def writable_strided_views(tree: ast.Module) -> list[str]:
    """Calls of ``as_strided`` (by any alias) that do not pass
    ``writeable=False``, in line order."""
    lines = sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and _call_name(node) == "as_strided"
        and not any(
            kw.arg == "writeable"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is False
            for kw in node.keywords
        )
    )
    return [f"line {line}: as_strided" for line in lines]


def indented_dumps(tree: ast.Module) -> list[str]:
    """Calls of ``dumps`` (``json.dumps`` by any alias) given an ``indent``."""
    return [
        f"line {node.lineno}: dumps"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and _call_name(node) == "dumps"
        and any(kw.arg == "indent" for kw in node.keywords)
    ]


def pair_calls(tree: ast.Module) -> list[str]:
    """Calls of ``rational_pair`` (by any module alias), in line order."""
    lines = sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _call_name(node) == "rational_pair"
    )
    return [f"line {line}: rational_pair" for line in lines]


def budget_raises(tree: ast.Module) -> list[str]:
    """Raises of ``BudgetExceeded`` (by any module alias), each named by the
    dotted path of the functions and classes around it, in line order."""
    found: list[tuple[int, str]] = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if (getattr(exc, "attr", None) or getattr(exc, "id", None)) == "BudgetExceeded":
                    found.append((child.lineno, scope or "<module>"))
            visit(child, scope)

    visit(tree, "")
    return [f"line {line}: {scope}" for line, scope in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_cross_module_imports(path):
    assert private_imports(_tree(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(_tree(path)) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_numpy_set_membership(path):
    assert set_op_calls(_tree(path)) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_ufunc_scatter(path):
    assert ufunc_at_calls(_tree(path)) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_order_test_by_subtraction(path):
    assert diff_comparisons(_tree(path)) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_strided_views_are_read_only(path):
    assert writable_strided_views(_tree(path)) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_one_indented_json_writer(path):
    assert indented_dumps(_tree(path)) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_report_forms_go_through_wire(path):
    assert pair_calls(_tree(path)) == [] or path.name == "exact.py"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_one_budget_rule(path):
    scopes = [line.partition(": ")[2] for line in budget_raises(_tree(path))]
    assert scopes == (["charge"] if path.name == "bohr.py" else [])


def package_exports(tree: ast.Module) -> dict[str, str]:
    """Each name the package ``__init__`` imports, mapped to its module."""
    return {
        alias.asname or alias.name: node.module
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
    }


def public_definitions(module: str, tree: ast.Module) -> dict[str, ast.FunctionDef]:
    """Public top-level functions (``module.f``) and public methods of public
    top-level classes (``module.C.m``), keyed by qualified name."""
    defs: dict[str, ast.FunctionDef] = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            defs[f"{module}.{node.name}"] = node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    defs[f"{module}.{node.name}.{item.name}"] = item
    return defs


def references(
    tree: ast.Module, exports: dict[str, str], own: str = "", skip: ast.AST | None = None
) -> set[str]:
    """What ``tree`` refers to outside ``skip``: ``module.f`` for a bohrkit
    function reached through an import, a module alias, a package attribute or,
    in module ``own``, its bare name; ``.attr`` for every attribute name."""
    names = {
        node.name: f"{own}.{node.name}"
        for node in tree.body
        if own and isinstance(node, ast.FunctionDef)
    }
    modules: dict[str, str] = {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and _is_bohrkit(node)):
            continue
        # the module read from: "gowers" for ``.gowers`` or ``bohrkit.gowers``,
        # "" for the package
        source = (node.module or "") if node.level else node.module.partition(".")[2]
        for alias in node.names:
            local = alias.asname or alias.name
            if source:
                names[local] = f"{source}.{alias.name}"
            elif alias.name in exports:
                names[local] = f"{exports[alias.name]}.{alias.name}"
            else:
                modules[local] = alias.name
    refs: set[str] = set()
    stack: list[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        stack.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Name) and node.id in names:
            refs.add(names[node.id])
        elif isinstance(node, ast.Attribute):
            refs.add("." + node.attr)
            base = getattr(node.value, "id", None)
            if base in modules:
                refs.add(f"{modules[base]}.{node.attr}")
            elif node.attr in exports:
                refs.add(f"{exports[node.attr]}.{node.attr}")
    return refs


def uncalled_public_names(
    modules: dict[str, ast.Module], others: list[ast.Module], exports: dict[str, str]
) -> list[str]:
    """Public definitions of ``modules`` that no other module, no tree of
    ``others`` and no code of their own module outside their own body refers to."""
    outside = {name: references(tree, exports) for name, tree in modules.items()}
    shared = set().union(*(references(tree, exports) for tree in others))
    uncalled = []
    for module, tree in modules.items():
        seen = shared.union(*(refs for name, refs in outside.items() if name != module))
        for name, node in public_definitions(module, tree).items():
            key = name if name.count(".") == 1 else "." + node.name
            if key not in seen and key not in references(tree, exports, module, node):
                uncalled.append(name)
    return sorted(uncalled)


# Public names that only tests call, kept on purpose.
TEST_ONLY_ALLOWED = {
    "patterns.check_counting_bound": "the paper's counting lemma, a documented entry point",
    "patterns.count_three_aps_direct": "the independent oracle for the FFT three-AP count",
    "exact.torus_distance": "the literal Bohr-membership oracle of the tests",
}


def test_no_test_only_public_names():
    exports = package_exports(_tree(SRC / "__init__.py"))
    modules = {path.stem: _tree(path) for path in MODULES}
    uncalled = uncalled_public_names(modules, [_tree(path) for path in BENCH], exports)
    unexpected = [name for name in uncalled if name not in TEST_ONLY_ALLOWED]
    stale = sorted(set(TEST_ONLY_ALLOWED) - set(uncalled))
    assert (unexpected, stale) == ([], [])


def traced_targets(tree: ast.Module) -> list[tuple[str, str]]:
    """The ``(module, attribute)`` pairs that open each entry of ``TARGETS``."""
    (value,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", "") == "TARGETS"
    ]
    return [(entry.elts[0].value, entry.elts[1].value) for entry in value.elts]


def test_traced_targets_resolve():
    targets = traced_targets(_tree(ROOT / "bench" / "spans.py"))
    assert len(targets) > 20
    missing = []
    for modname, attr in targets:
        obj = importlib.import_module(modname)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{modname}.{attr}")
    assert missing == []


def _defaulted(fn) -> int:
    params = inspect.signature(fn).parameters.values()
    return sum(p.default is not inspect.Parameter.empty for p in params)


def settable_values() -> dict[str, int]:
    """Defaulted parameters of every function in ``bohrkit.__all__`` and of
    every classmethod, staticmethod and public method of its classes, plus
    the ``EngineLimits`` fields; only the nonzero counts are listed."""
    counts: dict[str, int] = {}
    for name in bohrkit.__all__:
        obj = getattr(bohrkit, name)
        if not inspect.isclass(obj):
            if callable(obj):
                counts[name] = _defaulted(obj)
            continue
        for attr, raw in vars(obj).items():
            if isinstance(raw, (classmethod, staticmethod)):
                counts[f"{name}.{attr}"] = _defaulted(raw.__func__)
            elif inspect.isfunction(raw) and not attr.startswith("_"):
                counts[f"{name}.{attr}"] = _defaulted(raw)
    limits = dataclasses.fields(bohrkit.EngineLimits)
    counts["EngineLimits fields"] = sum(f.default is not dataclasses.MISSING for f in limits)
    return {k: v for k, v in counts.items() if v}


def test_settable_values():
    counts = settable_values()
    assert counts["EngineLimits fields"] == 3
    assert sum(counts.values()) == 39, counts


def test_checks_catch_what_they_look_for():
    tree = ast.parse(
        "import os\n"
        "from typing import Optional, Sequence\n"
        "from .gowers import _elements\n"
        "from bohrkit.bohr import _count_leq as count\n"
        "x: 'Optional[int]' = None\n"
        "y = np.isin(a, b)\n"
        "z = numpy.intersect1d(a, b)\n"
        "t = json.dumps(v, sort_keys=True, indent=2)\n"
        "u = dumps(v, indent=None)\n"
        "w = json.dumps(v, separators=(',', ':'))\n"
        "class R:\n"
        "    def as_dict(self):\n"
        "        return {'x': rational_pair(self.x), 'y': exact.rational_pair(self.y)}\n"
        "v = rational_pair(q)\n"
        "def record(q):\n"
        "    return {'q': rational_pair(q)}\n"
        "np.bitwise_or.at(buf, i, v)\n"
        "numpy.add.at(buf, i, 1)\n"
        "df.at[0, 'x'] = arr.at\n"
        "bad = np.any(np.diff(support) <= 0)\n"
        "gap = np.diff(neg).max() if x[1:] > x[:-1] else 0\n"
        "odd = 1 < diff(y) == 2\n"
        "s = as_strided(x, shape=(2,), strides=(8,))\n"
        "r = np.lib.stride_tricks.as_strided(x, (2,), (8,), writeable=True)\n"
        "k = as_strided(x, (2,), (8,), writeable=False)\n"
        "def charge(spent, budget):\n"
        "    if spent > budget:\n"
        "        raise BudgetExceeded('x', 'units', spent, budget)\n"
        "class Kernel:\n"
        "    def _charge(self):\n"
        "        raise bohr.BudgetExceeded('x', 'words', 1, 0)\n"
        "if over:\n"
        "    raise BudgetExceeded\n"
        "raise ValueError('BudgetExceeded')\n"
    )
    assert private_imports(tree) == ["line 3: _elements", "line 4: _count_leq"]
    assert unused_imports(tree) == [
        "line 1: os",
        "line 2: Sequence",
        "line 3: _elements",
        "line 4: count",
    ]
    assert set_op_calls(tree) == ["line 6: isin", "line 7: intersect1d"]
    assert ufunc_at_calls(tree) == ["line 17: bitwise_or.at", "line 18: add.at"]
    assert diff_comparisons(tree) == ["line 20: diff", "line 22: diff"]
    assert writable_strided_views(tree) == ["line 23: as_strided", "line 24: as_strided"]
    assert indented_dumps(tree) == ["line 8: dumps", "line 9: dumps"]
    assert budget_raises(tree) == [
        "line 28: charge",
        "line 31: Kernel._charge",
        "line 33: <module>",
    ]
    assert pair_calls(tree) == [
        "line 13: rational_pair",
        "line 13: rational_pair",
        "line 14: rational_pair",
        "line 16: rational_pair",
    ]
    # only_tested is imported by a test alone, which the detector never reads
    lib = ast.parse(
        "def only_tested():\n"
        "    return only_tested()\n"
        "def shared():\n"
        "    pass\n"
        "def helper():\n"
        "    pass\n"
        "def torus_distance(x):\n"
        "    pass\n"
        "def exported():\n"
        "    pass\n"
        "class Table:\n"
        "    def lonely(self):\n"
        "        return self.lonely()\n"
        "    def read(self):\n"
        "        pass\n"
        "x = helper()\n"
    )
    other = ast.parse("from .lib import shared\nshared()\n")
    bench = ast.parse(
        "from oracles import torus_distance\ntorus_distance(0)\nbk.exported()\nt.read()\n"
    )
    assert uncalled_public_names({"lib": lib, "other": other}, [bench], {"exported": "lib"}) == [
        "lib.Table.lonely",
        "lib.only_tested",
        "lib.torus_distance",
    ]


def test_mutant_anchors_occur_once():
    """Every mutant's ``old`` text occurs once in its file, and each test it
    names exists."""
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tests" / "mutants.py")
    catalogue = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(catalogue)
    faults = []
    for mutant in catalogue.MUTANTS:
        if (SRC / mutant["file"]).read_text().count(mutant["old"]) != 1 or (
            mutant["old"] == mutant["new"]
        ):
            faults.append(f"{mutant['file']}: {mutant['old']!r}")
        for node in mutant["kills"]:
            path, _, name = node.partition("::")
            tree = _tree(ROOT / path)
            defined = {f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)}
            if name.partition("[")[0] not in defined:
                faults.append(f"{mutant['file']}: no test {node}")
    assert catalogue.MUTANTS and faults == []
