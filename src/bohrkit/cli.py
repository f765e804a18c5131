"""Command-line surface: file ingestion, subcommand dispatch, report emission.

Layout: six verb groups, each with flat subcommands::

    bohr      enum | regular | find-alpha
    u2        compute | inverse-check
    patterns  find | count | dichotomy
    gen       behrend | random
    increment run
    sumfree   check | embed | find-config

Exit codes: 0 success or witness found; 1 valid run with a negative answer
(not regular, no configuration, engine exhausted); 2 usage or input error;
3 budget or retry limit reached; 4 I/O failure while writing output. An
engine ``exhausted`` certifies freeness on the restricted domain only, an
empty claim when some ``|N_i| < s - i + 1`` leaves no distinct offset tuple.

Inputs are plain files: integer sets are one integer per line (``#``
comments and blank lines ignored, duplicates rejected), Bohr set
descriptions and constant overrides are JSON. All reports go through the
canonical emitter, so identical inputs and seeds produce byte-identical
output regardless of thread count.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .bohr import (
    COUNT_BUDGET,
    ENUM_LIMIT,
    INT64_MAX,
    INT64_MIN,
    BohrSet,
    BohrSpec,
    BudgetExceeded,
    enumerate_bohr,
    exact_density,
    find_regular_alpha,
    regularity_certificate,
    spec_from_dict,
)
from .exact import as_rational, wire
from .functions import BoundedFunction
from .gowers import FOURIER_GRID, check_inverse_theorem, u2_fourth_correlation, u2_report
from .increment import ConstantTable, EngineLimits, plan_inner_dilations, run
from .patterns import (
    WORD_BUDGET,
    PreconditionError,
    behrend_set,
    count_configurations,
    dichotomy,
    find_configuration,
    random_set,
)
from .reports import emit_report, write_trace
from .sumfree import (
    EMBED_RETRIES,
    difference_size,
    find_configuration_via_embedding,
    is_sumfree_with_respect_to,
    ruzsa_embed,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_IO = 4

# a search's status -> exit code, for ``patterns find`` and ``sumfree find-config``
_SEARCH_EXIT = {"found": EXIT_OK, "none": EXIT_NEGATIVE, "inconclusive": EXIT_BUDGET}


class CLIError(Exception):
    """Input or usage problem; carries the exit code."""

    def __init__(self, message: str, code: int = EXIT_USAGE) -> None:
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# file ingestion and emission
# ---------------------------------------------------------------------------


def read_set_file(path: str) -> np.ndarray:
    """One integer per line; ``#`` comments and blanks ignored; no duplicates."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise CLIError(f"cannot read set file {path}: {exc}") from exc
    seen: dict[int, int] = {}
    out: list[int] = []
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            value = int(text)
        except ValueError as exc:
            raise CLIError(f"{path}:{lineno}: not an integer: {text!r}") from exc
        if not INT64_MIN <= value <= INT64_MAX:
            raise CLIError(f"{path}:{lineno}: {value} does not fit a signed 64-bit integer")
        if value in seen:
            raise CLIError(
                f"{path}:{lineno}: duplicate value {value} (first at line {seen[value]})"
            )
        seen[value] = lineno
        out.append(value)
    return np.asarray(sorted(out), dtype=np.int64)


def _read_json(path: str, kind: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CLIError(f"cannot read {kind} file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CLIError(f"{path}: invalid JSON: {exc}") from exc


def read_spec_file(path: str) -> BohrSpec:
    """JSON Bohr description: ``{"theta": [...], "eps": ..., "M": ...}``."""
    payload = _read_json(path, "spec")
    try:
        return spec_from_dict(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise CLIError(f"{path}: invalid Bohr description: {exc}") from exc


def read_constants_file(path: Optional[str]) -> Optional[dict]:
    if path is None:
        return None
    payload = _read_json(path, "constants")
    if not isinstance(payload, dict):
        raise CLIError(f"{path}: constants file must hold a JSON object")
    try:
        return {str(k): as_rational(v) for k, v in payload.items()}
    except (TypeError, ValueError) as exc:
        raise CLIError(f"{path}: constants must be exact rationals: {exc}") from exc


@contextmanager
def _writing(path: Optional[str]):
    """Map a failed write of ``path`` to the I/O exit code."""
    try:
        yield
    except OSError as exc:
        raise CLIError(f"cannot write {path}: {exc}", EXIT_IO) from exc


def _emit(report, args) -> None:
    with _writing(args.out):
        text = emit_report(report, path=args.out, fmt=args.format or "json")
    sys.stdout.write(text)


def _emit_set(elements: np.ndarray, args, header: str) -> None:
    if args.format is not None:
        _emit({"size": int(elements.size), "elements": elements.tolist()}, args)
        return
    text = "\n".join([f"# {header}", *map(str, elements.tolist())]) + "\n"
    if args.out:
        with _writing(args.out), open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _flag(name: str, **options) -> argparse.ArgumentParser:
    """A parser holding the one flag ``name``, for subcommands to take as a parent."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument(name, **options)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The whole parser tree, built on the first call and then reused."""
    fmt = _flag("--format", choices=("json", "csv"), default=None,
                help="report format (default json)")
    report = [_flag("--out", metavar="FILE", help="write the report here as well"), fmt]
    spec = _flag("--spec", metavar="FILE", required=True)
    specs = _flag("--spec", metavar="FILE", action="append", required=True,
                  help="base Bohr description; repeat for inner sets")
    one_set = _flag("--set", metavar="FILE", required=True)
    s_needed = _flag("--s", type=int, required=True)
    s_two = _flag("--s", type=int, default=2)
    seed = _flag("--seed", type=int, default=0)
    mode = [_flag("--mode", choices=("faithful", "practical"), default="practical"),
            _flag("--constants", metavar="FILE")]
    grid = _flag("--grid", type=int, default=FOURIER_GRID,
                 help="Fourier grid size (default %(default)s)")
    enum_budget = _flag("--budget", type=int, default=ENUM_LIMIT,
                        help="enumeration candidates (default %(default)s)")
    count_budget = _flag("--budget", type=int, default=COUNT_BUDGET,
                         help="operations (default %(default)s)")
    word_budget = _flag("--budget", type=int, default=WORD_BUDGET,
                        help="64-bit words read (default %(default)s)")

    top = argparse.ArgumentParser(
        prog="bohrkit",
        description="Exact Bohr sets, local uniformity norms, configuration "
        "search, density increments, and sumfree embeddings.",
    )
    groups = top.add_subparsers(dest="group", required=True, metavar="GROUP")

    def group(name: str, text: str):
        return groups.add_parser(name, help=text).add_subparsers(
            dest="action", required=True, metavar="ACTION")

    bohr = group("bohr", "enumerate and certify Bohr sets")
    for action, text in (("enum", "list the elements"),
                         ("regular", "regularity certificate"),
                         ("find-alpha", "regular width multiplier in [1/2, 1]")):
        bohr.add_parser(action, parents=[*report, spec, enum_budget], help=text)

    u2 = group("u2", "local uniformity norms")
    u2.add_parser("compute", parents=[*report, one_set, specs, count_budget],
                  help="both norm routes for a set indicator")
    u2.add_parser("inverse-check", parents=[*report, one_set, specs, grid, count_budget],
                  help="large norm forces large Fourier energy")

    patterns = group("patterns", "configuration search and counting")
    for action, text in (("find", "first configuration in a set"),
                         ("count", "exhaustive configuration count in a set")):
        patterns.add_parser(action, parents=[*report, one_set, s_needed, word_budget], help=text)
    sweep = _flag("--set", metavar="FILE", action="append", required=True,
                  help="input set; repeat for a sweep")
    patterns.add_parser("dichotomy", parents=[*report, sweep, s_two, *mode, count_budget],
                        help="case classification for each input set")

    gen = group("gen", "deterministic test set generators")
    p = gen.add_parser("behrend", parents=report, help="3-progression-free subset of [1, N]")
    p.add_argument("n", type=int, metavar="N")
    p = gen.add_parser("random", parents=[*report, seed],
                       help="each of 1..N kept with probability DENSITY")
    p.add_argument("n", type=int, metavar="N")
    p.add_argument("density", metavar="DENSITY", help="rational in (0, 1], for example 3/10")

    trace = _flag("--out", metavar="FILE", help="write the JSONL step trace here")
    group("increment", "density increment engine").add_parser(
        "run", parents=[trace, fmt, one_set, s_two, *mode, count_budget, grid],
        help="iterate until a terminal state")

    sumfree = group("sumfree", "sumfree subsets and embeddings")
    pair = _flag("--set", metavar="FILE", action="append", required=True,
                 help="Z, then optionally W (default W = Z)")
    sumfree.add_parser("check", parents=[*report, pair],
                       help="pair sums of the first set avoid the second")
    retries = _flag("--budget", type=int, default=EMBED_RETRIES,
                    help="attempt budget (default %(default)s)")
    sumfree.add_parser("embed", parents=[*report, one_set, seed, retries],
                       help="verified compression into a prime cyclic group")
    sumfree.add_parser("find-config", parents=[*report, one_set, s_needed, word_budget, seed],
                       help="configuration search on the input, its embedding reported")
    return top


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------


def _extent(arr: np.ndarray) -> int:
    """``max(|x|, 1)`` over a sorted set, from its ends in Python ints
    (``np.abs`` wraps at -2^63); 1 for the empty set."""
    return max(-int(arr[0]), int(arr[-1]), 1) if arr.size else 1


def _standard_base(arr: np.ndarray) -> BohrSet:
    spec = BohrSpec((Fraction(1),), Fraction(1, 2), Fraction(_extent(arr)))
    return BohrSet.from_spec(spec)


def _cmd_bohr(args) -> int:
    spec = read_spec_file(args.spec)
    if args.action == "enum":
        elements = enumerate_bohr(spec, enum_limit=args.budget)
        _emit({"spec": spec.as_dict(), "size": int(elements.size),
               "elements": elements.tolist()}, args)
        return EXIT_OK
    if args.action == "regular":
        cert = regularity_certificate(spec, enum_limit=args.budget)
        _emit(cert.as_dict(), args)
        return EXIT_OK if cert.verdict else EXIT_NEGATIVE
    search = find_regular_alpha(spec, enum_limit=args.budget)
    _emit(search.as_dict(), args)
    return EXIT_OK if search.found else EXIT_NEGATIVE


def _cmd_u2(args) -> int:
    if len(args.spec) > 3:
        raise CLIError("at most three --spec files: base, inner, inner")
    arr = read_set_file(args.set)
    sets = [BohrSet.from_spec(read_spec_file(path)) for path in args.spec]
    base = sets[0]
    inner1 = sets[1] if len(sets) > 1 else base
    inner2 = sets[2] if len(sets) > 2 else inner1
    if args.action == "compute":
        f = BoundedFunction.indicator(arr)
        rep = u2_report(f, base, inner1, inner2, budget=args.budget)
        _emit(rep.as_dict(), args)
        return EXIT_OK
    f, _delta = BoundedFunction.balanced_indicator(arr, base.elements)
    norm = u2_fourth_correlation(f, base, inner1, inner2, budget=args.budget) ** 0.25
    eta = Fraction(norm) if norm > 0 else Fraction(1, 10**6)
    check = check_inverse_theorem(
        f, base, inner1, inner2, eta, grid=args.grid, budget=args.budget
    )
    _emit(check.as_dict(), args)
    return EXIT_OK if check.status == "pass" else EXIT_NEGATIVE


def _cmd_patterns(args) -> int:
    if args.action == "find":
        arr = read_set_file(args.set)
        res = find_configuration(arr, args.s, budget=args.budget)
        report = {"case": res.status, "work": res.work}
        if res.config is not None:
            report["a"] = res.config.a
            report["ns"] = list(res.config.ns)
        _emit(report, args)
        return _SEARCH_EXIT[res.status]
    if args.action == "count":
        arr = read_set_file(args.set)
        count = count_configurations(arr, args.s, budget=args.budget)
        _emit({"count": count, "s": args.s, "size": int(arr.size)}, args)
        return EXIT_OK if count > 0 else EXIT_NEGATIVE
    # dichotomy sweep: one classification per input set
    table = ConstantTable.for_mode(args.mode, read_constants_file(args.constants))
    rows = []
    stopped = False
    for path in args.set:
        arr = read_set_file(path)
        base = _standard_base(arr)  # holds every element of arr
        delta = exact_density(arr, base.elements)
        if delta == 0:
            raise CLIError(f"{path}: set is empty inside the standard base")
        plan = plan_inner_dilations(base.spec, args.s, table, delta)
        if plan is None:
            raise CLIError(f"{path}: no regular inner dilations found", EXIT_BUDGET)
        inner_sets, searches = plan
        try:
            outcome = dichotomy(
                arr, base, inner_sets,
                enforce=(args.mode == "faithful"),
                budget=args.budget,
            ).as_dict()
        except BudgetExceeded as exc:  # this set's row says so; the sweep goes on
            outcome = {"kind": "budget", "reason": str(exc)}
            stopped = True
        rows.append({
            "set": path,
            "base_size": base.size,
            "delta": wire(delta),
            "inner_cs": [wire(link.c) for link in searches],
            "inner_searches": wire(searches),
            "outcome": outcome,
        })
    _emit(rows if len(rows) > 1 else rows[0], args)
    return EXIT_BUDGET if stopped else EXIT_OK


def _cmd_gen(args) -> int:
    if args.n < 1:
        raise CLIError("N must be positive")
    if args.action == "behrend":
        elements = behrend_set(args.n)
        _emit_set(elements, args, f"3-progression-free subset of [1, {args.n}]")
        return EXIT_OK
    density = as_rational(args.density)
    if not (0 < density <= 1):
        raise CLIError("DENSITY must be a rational in (0, 1]")
    elements = random_set(args.n, float(density), args.seed)
    _emit_set(elements, args,
              f"random subset of [1, {args.n}], density {density}, seed {args.seed}")
    return EXIT_OK


def _cmd_increment(args) -> int:
    arr = read_set_file(args.set)
    if arr.size == 0:
        raise CLIError(f"{args.set}: empty set")
    overrides = read_constants_file(args.constants)
    limits = EngineLimits(count_budget=args.budget, grid=args.grid)
    result = run(arr, _extent(arr), args.s, mode=args.mode, overrides=overrides, limits=limits)
    if args.out:
        with _writing(args.out):
            write_trace([r.as_dict() for r in result.steps], args.out)
    summary = result.as_dict()
    if args.format == "csv":
        summary = {k: v for k, v in summary.items() if k != "steps"}
        summary["num_steps"] = len(result.steps)
    sys.stdout.write(emit_report(summary, fmt=args.format or "json"))
    return result.exit_code


def _cmd_sumfree(args) -> int:
    if args.action == "check":
        if len(args.set) > 2:
            raise CLIError("sumfree check takes one or two --set files")
        z = read_set_file(args.set[0])
        w = read_set_file(args.set[1]) if len(args.set) > 1 else z
        ok = is_sumfree_with_respect_to(z, w)
        _emit({"sumfree": ok, "z_size": int(z.size), "w_size": int(w.size)}, args)
        return EXIT_OK if ok else EXIT_NEGATIVE
    if args.action == "embed":
        arr = read_set_file(args.set)
        if arr.size == 0:
            raise CLIError(f"{args.set}: empty set")
        k = Fraction(difference_size(arr), int(arr.size))
        res = ruzsa_embed(arr, k, retries=args.budget, seed=args.seed)
        _emit(res.as_dict(), args)
        return EXIT_OK if res.status == "ok" else EXIT_BUDGET
    arr = read_set_file(args.set)
    res = find_configuration_via_embedding(
        arr, args.s, budget=args.budget, seed=args.seed
    )
    _emit(res.as_dict(), args)
    return _SEARCH_EXIT[res.status]


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


_DISPATCH = {
    "bohr": _cmd_bohr,
    "u2": _cmd_u2,
    "patterns": _cmd_patterns,
    "gen": _cmd_gen,
    "increment": _cmd_increment,
    "sumfree": _cmd_sumfree,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _DISPATCH[args.group](args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except PreconditionError as exc:
        print(f"error: precondition not met: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
