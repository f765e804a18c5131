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
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .bohr import (
    BohrSet,
    BohrSpec,
    BudgetExceeded,
    enumerate_bohr,
    exact_density,
    find_regular_alpha,
    regularity_certificate,
    sorted_distinct,
    spec_from_dict,
)
from .exact import as_rational, rational_pair
from .functions import BoundedFunction
from .gowers import check_inverse_theorem, u2_report
from .increment import ConstantTable, EngineLimits, plan_inner_dilations, run
from .patterns import (
    PreconditionError,
    behrend_set,
    count_configurations,
    dichotomy,
    find_configuration,
    random_set,
)
from .reports import canonical_json, emit_report, write_trace
from .sumfree import find_configuration_via_embedding, is_sumfree_with_respect_to, ruzsa_embed

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_IO = 4


class CLIError(Exception):
    """Input or usage problem; carries the exit code."""

    def __init__(self, message: str, code: int = EXIT_USAGE) -> None:
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# file ingestion
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
        if value in seen:
            raise CLIError(
                f"{path}:{lineno}: duplicate value {value} (first at line {seen[value]})"
            )
        seen[value] = lineno
        out.append(value)
    return np.asarray(sorted(out), dtype=np.int64)


def read_spec_file(path: str) -> BohrSpec:
    """JSON Bohr description: ``{"theta": [...], "eps": ..., "M": ...}``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise CLIError(f"cannot read spec file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CLIError(f"{path}: invalid JSON: {exc}") from exc
    try:
        return spec_from_dict(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise CLIError(f"{path}: invalid Bohr description: {exc}") from exc


def read_constants_file(path: Optional[str]) -> Optional[dict]:
    if path is None:
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise CLIError(f"cannot read constants file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CLIError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise CLIError(f"{path}: constants file must hold a JSON object")
    try:
        return {str(k): as_rational(v) for k, v in payload.items()}
    except (TypeError, ValueError) as exc:
        raise CLIError(f"{path}: constants must be exact rationals: {exc}") from exc


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="FILE", help="write the report here as well")
    common.add_argument("--format", choices=("json", "csv"), default=None,
                        help="report format (default json)")

    top = argparse.ArgumentParser(
        prog="bohrkit",
        description="Exact Bohr sets, local uniformity norms, configuration "
        "search, density increments, and sumfree embeddings.",
    )
    groups = top.add_subparsers(dest="group", required=True, metavar="GROUP")

    bohr = groups.add_parser("bohr", help="enumerate and certify Bohr sets")
    bohr_sub = bohr.add_subparsers(dest="action", required=True, metavar="ACTION")
    p = bohr_sub.add_parser("enum", parents=[common], help="list the elements")
    p.add_argument("--spec", metavar="FILE", required=True)
    p.add_argument("--budget", type=int, default=10**7)
    p = bohr_sub.add_parser("regular", parents=[common], help="regularity certificate")
    p.add_argument("--spec", metavar="FILE", required=True)
    p.add_argument("--budget", type=int, default=10**7)
    p = bohr_sub.add_parser("find-alpha", parents=[common],
                            help="regular width multiplier in [1/2, 1]")
    p.add_argument("--spec", metavar="FILE", required=True)
    p.add_argument("--budget", type=int, default=10**7)

    u2 = groups.add_parser("u2", help="local uniformity norms")
    u2_sub = u2.add_subparsers(dest="action", required=True, metavar="ACTION")
    p = u2_sub.add_parser("compute", parents=[common],
                          help="both norm routes for a set indicator")
    p.add_argument("--set", metavar="FILE", required=True)
    p.add_argument("--spec", metavar="FILE", action="append", required=True,
                   help="base Bohr description; repeat for inner sets")
    p.add_argument("--budget", type=int, default=5 * 10**8)
    p = u2_sub.add_parser("inverse-check", parents=[common],
                          help="large norm forces large Fourier energy")
    p.add_argument("--set", metavar="FILE", required=True)
    p.add_argument("--spec", metavar="FILE", action="append", required=True,
                   help="base Bohr description; repeat for inner sets")
    p.add_argument("--grid", type=int, default=512)
    p.add_argument("--budget", type=int, default=5 * 10**8)

    patterns = groups.add_parser("patterns", help="configuration search and counting")
    pat_sub = patterns.add_subparsers(dest="action", required=True, metavar="ACTION")
    p = pat_sub.add_parser("find", parents=[common], help="first configuration in a set")
    p.add_argument("--set", metavar="FILE", required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--budget", type=int, default=10**8)
    p = pat_sub.add_parser("count", parents=[common],
                           help="exhaustive configuration count in a set")
    p.add_argument("--set", metavar="FILE", required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--budget", type=int, default=10**8)
    p = pat_sub.add_parser("dichotomy", parents=[common],
                           help="case classification for each input set")
    p.add_argument("--set", metavar="FILE", action="append", required=True,
                   help="input set; repeat for a sweep")
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--mode", choices=("faithful", "practical"), default="practical")
    p.add_argument("--constants", metavar="FILE")
    p.add_argument("--budget", type=int, default=5 * 10**8)

    gen = groups.add_parser("gen", help="deterministic test set generators")
    gen_sub = gen.add_subparsers(dest="action", required=True, metavar="ACTION")
    p = gen_sub.add_parser("behrend", parents=[common],
                           help="3-progression-free subset of [1, N]")
    p.add_argument("n", type=int, metavar="N")
    p = gen_sub.add_parser("random", parents=[common],
                           help="each of 1..N kept with probability DENSITY")
    p.add_argument("n", type=int, metavar="N")
    p.add_argument("density", metavar="DENSITY",
                   help="rational in (0, 1], for example 3/10")
    p.add_argument("--seed", type=int, default=0)

    inc = groups.add_parser("increment", help="density increment engine")
    inc_sub = inc.add_subparsers(dest="action", required=True, metavar="ACTION")
    p = inc_sub.add_parser("run", parents=[common], help="iterate until a terminal state")
    p.add_argument("--set", metavar="FILE", required=True)
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--mode", choices=("faithful", "practical"), default="practical")
    p.add_argument("--constants", metavar="FILE")
    p.add_argument("--budget", type=int, default=5 * 10**8)
    p.add_argument("--grid", type=int, default=512)

    sumfree = groups.add_parser("sumfree", help="sumfree subsets and embeddings")
    sf_sub = sumfree.add_subparsers(dest="action", required=True, metavar="ACTION")
    p = sf_sub.add_parser("check", parents=[common],
                          help="pair sums of the first set avoid the second")
    p.add_argument("--set", metavar="FILE", action="append", required=True,
                   help="Z, then optionally W (default W = Z)")
    p = sf_sub.add_parser("embed", parents=[common],
                          help="verified compression into a prime cyclic group")
    p.add_argument("--set", metavar="FILE", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=64, help="attempt budget")
    p = sf_sub.add_parser("find-config", parents=[common],
                          help="configuration search through the embedding")
    p.add_argument("--set", metavar="FILE", required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--budget", type=int, default=10**8)
    p.add_argument("--seed", type=int, default=0)

    return top


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    return _build_parser().parse_args(list(argv))


# ---------------------------------------------------------------------------
# emission helpers
# ---------------------------------------------------------------------------


def _emit(report, args, *, default_format: str = "json") -> None:
    fmt = args.format or default_format
    try:
        text = emit_report(report, path=args.out, fmt=fmt)
    except OSError as exc:
        raise CLIError(f"cannot write {args.out}: {exc}", EXIT_IO) from exc
    sys.stdout.write(text)


def _emit_set(elements: np.ndarray, args, header: str) -> None:
    if args.format is not None:
        _emit({"size": int(elements.size), "elements": elements.tolist()}, args)
        return
    lines = [f"# {header}", *map(str, elements.tolist())]
    text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CLIError(f"cannot write {args.out}: {exc}", EXIT_IO) from exc
    sys.stdout.write(text)


def _extent(arr: np.ndarray) -> int:
    """``max(|x|, 1)`` over a sorted set, from its ends in Python ints
    (``np.abs`` wraps at -2^63); 1 for the empty set."""
    return max(-int(arr[0]), int(arr[-1]), 1) if arr.size else 1


def _standard_base(arr: np.ndarray) -> BohrSet:
    spec = BohrSpec((Fraction(1),), Fraction(1, 2), Fraction(_extent(arr)))
    return BohrSet.from_spec(spec)


def _specs_to_sets(paths: list[str], budget: int) -> list[BohrSet]:
    out = []
    for path in paths:
        spec = read_spec_file(path)
        out.append(BohrSet(spec, enumerate_bohr(spec, enum_limit=budget)))
    return out


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------


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
    sets = _specs_to_sets(args.spec, args.budget)
    base = sets[0]
    inner1 = sets[1] if len(sets) > 1 else base
    inner2 = sets[2] if len(sets) > 2 else inner1
    if args.action == "compute":
        f = BoundedFunction.indicator(arr)
        rep = u2_report(f, base, inner1, inner2, budget=args.budget)
        _emit(rep.as_dict(), args)
        return EXIT_OK
    f, _delta = BoundedFunction.balanced_indicator(arr, base.elements)
    rep = u2_report(f, base, inner1, inner2, budget=args.budget)
    eta = Fraction(rep.norm) if rep.norm > 0 else Fraction(1, 10**6)
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
        if res.status == "found":
            return EXIT_OK
        return EXIT_NEGATIVE if res.status == "none" else EXIT_BUDGET
    if args.action == "count":
        arr = read_set_file(args.set)
        try:
            count = count_configurations(arr, args.s, budget=args.budget)
        except BudgetExceeded as exc:
            raise CLIError(str(exc), EXIT_BUDGET) from exc
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
            "delta": rational_pair(delta),
            "inner_cs": [note["c"] for note in searches],
            "inner_searches": searches,
            "outcome": outcome,
        })
    _emit(rows if len(rows) > 1 else rows[0], args)
    return EXIT_BUDGET if stopped else EXIT_OK


def _cmd_gen(args) -> int:
    if args.action == "behrend":
        if args.n < 1:
            raise CLIError("N must be positive")
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
    try:
        result = run(arr, _extent(arr), args.s, mode=args.mode,
                     overrides=overrides, limits=limits)
    except ValueError as exc:
        raise CLIError(str(exc)) from exc
    if args.out:
        try:
            write_trace([r.as_dict() for r in result.steps], args.out)
        except OSError as exc:
            raise CLIError(f"cannot write {args.out}: {exc}", EXIT_IO) from exc
    summary = result.as_dict()
    fmt = args.format or "json"
    if fmt == "csv":
        flat = {k: v for k, v in summary.items() if k != "steps"}
        flat["num_steps"] = len(result.steps)
        sys.stdout.write(emit_report(flat, fmt="csv"))
    else:
        sys.stdout.write(canonical_json(summary))
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
        diffs = sorted_distinct(arr[:, None] - arr[None, :])
        k = Fraction(int(diffs.size), int(arr.size))
        res = ruzsa_embed(arr, k, retries=args.budget, seed=args.seed)
        _emit(res.as_dict(), args)
        return EXIT_OK if res.status == "ok" else EXIT_BUDGET
    arr = read_set_file(args.set)
    res = find_configuration_via_embedding(
        arr, args.s, budget=args.budget, seed=args.seed
    )
    _emit(res.as_dict(), args)
    if res.status == "found":
        return EXIT_OK
    return EXIT_NEGATIVE if res.status == "none" else EXIT_BUDGET


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
    args = parse_args(sys.argv[1:] if argv is None else argv)
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
