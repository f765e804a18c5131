"""Benchmark for bohrkit: time to a checked verdict on four seeded workloads.

Usage, from the root of the repository::

    python3 bench/run.py --workload engine --seed 1 --seconds 25 --trace 0

Workloads are defined in ``bench/workloads.py`` (``engine``, ``widths``,
``uniformity``, ``search``). One run, in one process and one thread:

1. Set-up: import ``bohrkit`` (and ``bohrkit.cli``) afresh from ``src/``,
   generate the inputs from the seed and write the CLI input files. ``numpy``
   is imported once before, untimed.
2. The battery, every instance of the workload in order, each time after a
   fresh set-up, repeated until ``--seconds`` have passed (at least twice).
   Set-up and battery samples thus both spread over the whole run, so a slow
   spell of the host weighs on both alike. An instance is timed from the
   call to its checked verdict: the call, its independent check, and the
   emission of its report, which is emitted, parsed and emitted again and
   must come out byte-identical.
3. Self-checks: the work units of every battery must repeat exactly, and the
   inputs generated from ``seed + 1`` must differ from those of ``seed``.

With ``--trace 0`` the last line of standard output is the JSON result with
the end-to-end metrics:

* ``setup_s``: median set-up time;
* ``wall_s``: median battery time;
* ``verdict_p50_s``: median instance time over all batteries;

  all three adjusted for the host's speed at the time (see
  ``PROBE_NOMINAL_S``);
* ``decided_frac``: instances with a decisive, checked verdict / attempted
  (budget stops such as ``limit``, ``inconclusive`` or ``BudgetExceeded`` are
  undecided);
* ``ok_frac``: instances that raised nothing undocumented and passed their
  check / attempted, that is ``1 - failed_frac`` (a metric that reads 0 on a
  healthy run cannot carry a relative bound);
* ``peak_rss_mb``: peak resident memory of the process.

With ``--trace 1`` untraced and traced batteries alternate. The traced ones
record spans around the library's public functions (``bench/spans.py``) and
give the per-layer metrics, as totals per battery: ``<span>.s`` is inclusive
time except for ``patterns.dichotomy``, ``increment.run`` and ``cli.main``,
which report self time; ``layer.<module>.self_s`` sums self time by module,
``layer.bench.self_s`` is the benchmark's own checking; ``share.*`` are the
fractions of traced battery time behind the layer predictions;
``trace.overhead_s`` is traced minus untraced ``wall_s``. The run ends with
the reach probe: ``increment.reach_N`` is the largest engine ladder rung whose
runs each finish, checked, inside ``REACH_BUDGET_S`` of host-adjusted time. It
moves a whole rung at a time and is not gated.

Details (host record, one row per instance with its inputs, verdict, time and
work units, and in traced runs the spans as JSONL) are written to
``bench/out/``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import importlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import spans
import workloads
from oracles import CheckFailed

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"
MIN_BATTERIES = 2

# Host-speed probe. On shared virtual machines the CPU speed drifts by up to a
# quarter over spells of seconds to minutes (a fixed pure-Python loop on a
# 2-vCPU Xeon VM took 0.20 s in some spells and 0.34 s in others), which no run
# length averages out. A fixed probe of interpreter and numpy work therefore
# runs around every set-up and between instances, and each timing is divided by
# the slowdown the probes around it show: its time over PROBE_NOMINAL_S. The
# timing metrics thus read in seconds at the host speed where the probe takes
# PROBE_NOMINAL_S. Raw wall-clock times are kept in the details.
PROBE_NOMINAL_S = 0.0015
_PROBE_SET = frozenset(range(0, 30000, 3))
_PROBE_MATRIX = np.random.default_rng(0).random((64, 64))

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "verdict_p50_s": "s",
    "decided_frac": "ratio",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

# (span name, work unit fields) reported per traced battery
SPAN_METRICS = {
    "bohr.enumerate": ("elements",),
    "bohr.certificate": ("points",),
    "bohr.find_dilation": ("tried",),
    "patterns.find_restricted": ("work", "inconclusive"),
    "patterns.find_extent": ("work",),
    "patterns.count_configurations": (),
    "patterns.dichotomy": (),
    "patterns.count_T_s": ("tuples",),
    "gowers.u2_direct": ("ops",),
    "gowers.u2_correlation": ("ops",),
    "gowers.fourier_scan": ("ops",),
    "gowers.inverse_check": (),
    "functions.gather": ("points",),
    "increment.run": ("steps",),
    "increment.recheck": (),
    "increment.fourier_increment": ("grid_used",),
    "sumfree.embed": ("attempts",),
    "sumfree.freiman_check": ("quadruples",),
    "sumfree.find_sumfree": (),
    "sumfree.via_embedding": (),
    "reports.emit": ("bytes",),
    "cli.main": (),
}
SELF_TIME_SPANS = ("patterns.dichotomy", "increment.run", "cli.main")
LAYERS = ("bohr", "functions", "gowers", "patterns", "increment", "sumfree", "reports",
          "cli", "bench")


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run prints, in order."""
    names = []
    for span, fields in SPAN_METRICS.items():
        names += [f"{span}.s", f"{span}.calls"] + [f"{span}.{f}" for f in fields]
    names += ["bohr.find_dilation.hit_ratio", "sumfree.embed.ok_ratio"]
    names += [f"layer.{layer}.self_s" for layer in LAYERS]
    names += ["share.find_restricted_of_wall", "share.find_restricted_of_run",
              "share.bohr_of_wall", "share.gowers_count_of_wall",
              "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
              "host.slowdown", "increment.reach_N"]
    return names


def per_layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio") or name.startswith("share.") or name == "host.slowdown":
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# set-up and batteries
# ---------------------------------------------------------------------------


def fresh_import():
    for name in [n for n in sys.modules if n == "bohrkit" or n.startswith("bohrkit.")]:
        del sys.modules[name]
    bk = importlib.import_module("bohrkit")
    importlib.import_module("bohrkit.cli")
    return bk


def run_instance(bk, inst, rec) -> dict:
    row = {"name": inst.name, "inputs": inst.inputs, "status": "ok", "error": ""}
    t0 = time.perf_counter()
    try:
        with rec.span("bench.instance") if rec is not None else contextlib.nullcontext():
            out = inst.call()
            text = bk.emit_report(out.report)
            if bk.emit_report(bk.parse_report(text)) != text:
                raise CheckFailed("report is not byte-identical when emitted twice")
        row.update(verdict=out.verdict, decided=out.decided, work=out.work)
    except bk.BudgetExceeded as exc:
        row.update(verdict="budget", decided=False, work={}, error=str(exc))
    except CheckFailed as exc:
        row.update(verdict="check-failed", decided=False, work={}, status="failed",
                   error=str(exc))
    except Exception as exc:  # an undocumented exception fails the instance
        row.update(verdict="error", decided=False, work={}, status="failed",
                   error=f"{type(exc).__name__}: {exc}")
    row["time_s"] = time.perf_counter() - t0
    return row


def probe() -> float:
    t0 = time.perf_counter()
    hits = 0
    for a in range(12000):
        if (a * 7) % 30000 in _PROBE_SET:
            hits += 1
    np.einsum("ij,jk->ik", _PROBE_MATRIX, _PROBE_MATRIX, optimize=False)
    return time.perf_counter() - t0


def timed(fn) -> tuple[object, float, float]:
    """``fn()``, its wall time, and its time adjusted for the host's speed."""
    before = probe()
    t0 = time.perf_counter()
    out = fn()
    raw = time.perf_counter() - t0
    return out, raw, raw / ((before + probe()) / 2 / PROBE_NOMINAL_S)


def run_battery(bk, instances, rec=None) -> tuple[float, float, list[dict]]:
    """Every instance once: raw and host-adjusted battery time, and the rows."""
    rows = []
    before = probe()
    for inst in instances:
        row = run_instance(bk, inst, rec)
        after = probe()
        row["slowdown"] = (before + after) / 2 / PROBE_NOMINAL_S
        row["adj_s"] = row["time_s"] / row["slowdown"]
        rows.append(row)
        before = after
    return sum(r["time_s"] for r in rows), sum(r["adj_s"] for r in rows), rows


def work_digest(rows: list[dict]) -> str:
    key = [(r["name"], r["verdict"], sorted(r["work"].items())) for r in rows]
    return hashlib.sha256(json.dumps(key, default=str).encode()).hexdigest()[:16]


def host_record() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(setups, walls, rows) -> dict:
    attempted = len(rows)
    failed = sum(r["status"] == "failed" for r in rows)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "verdict_p50_s": statistics.median(r["adj_s"] for r in rows),
        "decided_frac": sum(bool(r["decided"]) for r in rows) / attempted,
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(recorded, traced_walls, untraced_walls, rows, reach_n) -> dict:
    n = len(traced_walls)
    selfs = spans.self_times(recorded)
    out: dict = {}
    for name, fields in SPAN_METRICS.items():
        mine = [sp for sp in recorded if sp.name == name]
        if name in SELF_TIME_SPANS:
            secs = sum(selfs[sp.id] for sp in mine)
        else:
            secs = sum(sp.end - sp.start for sp in mine)
        out[f"{name}.s"] = secs / n
        out[f"{name}.calls"] = len(mine) / n
        for f in fields:
            out[f"{name}.{f}"] = sum(sp.work.get(f, 0) for sp in mine) / n
    dil = [sp for sp in recorded if sp.name == "bohr.find_dilation"]
    out["bohr.find_dilation.hit_ratio"] = (
        sum(sp.work.get("found", 0) for sp in dil) / len(dil) if dil else 0.0)
    emb = [sp for sp in recorded if sp.name == "sumfree.embed"]
    out["sumfree.embed.ok_ratio"] = (
        sum(sp.work.get("ok", 0) for sp in emb) / len(emb) if emb else 0.0)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for sp in recorded:
        layer_self[sp.name.split(".", 1)[0]] += selfs[sp.id]
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = layer_self[layer] / n
    traced = sum(traced_walls)
    finder = spans.covered(recorded, lambda s: s == "patterns.find_restricted")
    runs = spans.covered(recorded, lambda s: s == "increment.run")
    out["share.find_restricted_of_wall"] = finder / traced
    out["share.find_restricted_of_run"] = (
        spans.covered(recorded, lambda s: s == "patterns.find_restricted", within="increment.run")
        / runs if runs else 0.0)
    out["share.bohr_of_wall"] = spans.covered(recorded, lambda s: s.startswith("bohr.")) / traced
    out["share.gowers_count_of_wall"] = spans.covered(
        recorded, lambda s: s.startswith("gowers.") or s == "patterns.count_T_s") / traced
    out["trace.wall_s"] = statistics.median(traced_walls)
    out["trace.untraced_wall_s"] = statistics.median(untraced_walls)
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    out["host.slowdown"] = statistics.median(r["slowdown"] for r in rows)
    out["increment.reach_N"] = reach_n
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src" / "bohrkit"
    if not (src / "__init__.py").is_file():
        print(f"error: no bohrkit sources under {src.parent}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src.parent))
    build = workloads.BUILDERS[args.workload]

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    files = OUT_DIR / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    files.mkdir()

    def set_up():
        bk = fresh_import()
        return bk, build(bk, args.seed, str(files))

    try:
        (bk, instances), raw, adj = timed(set_up)
        if Path(bk.__file__).resolve().parent != src.resolve():
            print(f"error: bohrkit was imported from {bk.__file__}", file=sys.stderr)
            return 2

        # untraced batteries only, or untraced and traced ones alternating; a
        # fresh set-up before each battery spreads the set-up samples over the run
        rec = spans.Recorder() if args.trace else None
        deadline = time.perf_counter() + args.seconds
        setups_raw, setups = [raw], [adj]
        walls_raw, walls, traced_walls, all_rows, digests = [], [], [], [], set()
        while True:
            started = time.perf_counter()
            if args.trace and len(walls) > len(traced_walls):
                with spans.patched(rec):
                    wall, _, rows = run_battery(bk, instances, rec)
                traced_walls.append(wall)
            else:
                wall, adj, rows = run_battery(bk, instances)
                walls_raw.append(wall)
                walls.append(adj)
            all_rows += rows
            digests.add(work_digest(rows))
            done = len(walls) + len(traced_walls)
            now = time.perf_counter()
            if done >= MIN_BATTERIES and now + (now - started) > deadline:
                break
            (bk, instances), raw, adj = timed(set_up)
            setups_raw.append(raw)
            setups.append(adj)

        other = files / "other-seed"
        other.mkdir()
        other_inputs = [i.inputs.get("data") for i in build(bk, args.seed + 1, str(other))]
        seed_changes_inputs = other_inputs != [i.inputs.get("data") for i in instances]

        failed = sum(r["status"] == "failed" for r in all_rows)
        correct = failed == 0 and len(digests) == 1 and seed_changes_inputs
        rungs = []
        if args.trace:
            reach_n, rungs = workloads.reach_probe(bk, args.seed, timed)
            metrics = per_layer(rec.spans, traced_walls, walls_raw, all_rows, reach_n)
            units = {name: per_layer_unit(name) for name in per_layer_names()}
            rec.write_jsonl(str(OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl"))
        else:
            metrics = end_to_end(setups, walls, all_rows)
            units = END_TO_END_UNITS
        detail = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "host": host_record(),
            "setups_s": setups,
            "setups_raw_s": setups_raw,
            "battery_walls_s": walls,
            "battery_walls_raw_s": walls_raw,
            "traced_walls_s": traced_walls,
            "work_digests": sorted(digests),
            "seed_changes_inputs": seed_changes_inputs,
            "reach_rungs": rungs,
            "metrics": metrics,
            "rows": all_rows[: len(instances)],
            "failures": [r for r in all_rows if r["status"] == "failed"],
        }
        detail_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        detail_path.write_text(json.dumps(detail, indent=1, default=str) + "\n")
    finally:
        shutil.rmtree(files, ignore_errors=True)

    host = detail["host"]
    print(f"# host: python {host['python']}, numpy {host['numpy']}, nproc {host['nproc']}, "
          f"cpu {host['cpu']}")
    print(f"# batteries: {len(walls)} untraced, {len(traced_walls)} traced; work digest "
          f"{' '.join(sorted(digests))}; details in {detail_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(all_rows),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
