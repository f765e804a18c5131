"""End-to-end command-line battery run through subprocesses.

Exercises exit codes, input diagnostics with line numbers, report formats,
the byte-determinism of emitted JSON, and the defaults and help the parser
gives each flag.
"""

from __future__ import annotations

import inspect
import json
import subprocess
import sys

import numpy as np
import pytest

from bohrkit import cli
from bohrkit.bohr import (
    COUNT_BUDGET,
    ENUM_LIMIT,
    enumerate_bohr,
    find_regular_alpha,
    regularity_certificate,
)
from bohrkit.cli import read_set_file
from bohrkit.gowers import FOURIER_GRID, check_inverse_theorem, u2_report
from bohrkit.increment import EngineLimits, fourier_increment
from bohrkit.patterns import (
    WORD_BUDGET,
    behrend_set,
    count_configurations,
    dichotomy,
    find_configuration,
    random_set,
)
from bohrkit.reports import canonical_json
from bohrkit.sumfree import EMBED_RETRIES, find_configuration_via_embedding, ruzsa_embed

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def run_cli(*argv: str, env: dict | None = None):
    return subprocess.run(
        [sys.executable, "-m", "bohrkit.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def write_set(path, values) -> str:
    path.write_text("".join(f"{int(v)}\n" for v in values))
    return str(path)


def write_spec(path, theta, eps, m) -> str:
    payload = {"theta": [[t[0], t[1]] for t in theta], "eps": list(eps), "M": list(m)}
    path.write_text(json.dumps(payload))
    return str(path)


# ---------------------------------------------------------------------------
# usage and input errors
# ---------------------------------------------------------------------------


def test_help_exits_zero():
    assert run_cli("--help").returncode == 0
    assert run_cli("bohr", "--help").returncode == 0
    assert run_cli("patterns", "find", "--help").returncode == 0


def test_bogus_subcommand_exits_two():
    assert run_cli("bogus").returncode == 2
    assert run_cli("bohr", "bogus").returncode == 2


def test_unknown_flag_exits_two(tmp_path):
    spec = write_spec(tmp_path / "s.json", [(1, 1)], (1, 2), (10, 1))
    proc = run_cli("bohr", "enum", "--spec", spec, "--frobnicate")
    assert proc.returncode == 2


def test_missing_file_exits_two():
    proc = run_cli("patterns", "find", "--set", "/nonexistent.txt", "--s", "2")
    assert proc.returncode == 2
    assert "cannot read" in proc.stderr


def test_duplicate_set_value_reports_line(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("1\n2\n1\n")
    proc = run_cli("patterns", "find", "--set", str(path), "--s", "2")
    assert proc.returncode == 2
    assert ":3:" in proc.stderr and "duplicate value 1" in proc.stderr
    assert "line 1" in proc.stderr


def test_non_integer_set_value_reports_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1\ntwo\n")
    proc = run_cli("patterns", "find", "--set", str(path), "--s", "2")
    assert proc.returncode == 2
    assert ":2:" in proc.stderr


@pytest.mark.parametrize("value", [2**63, -(2**63) - 1])
def test_set_value_outside_int64_reports_line(tmp_path, value):
    path = tmp_path / "big.txt"
    path.write_text(f"1\n{value}\n")
    proc = run_cli("patterns", "find", "--set", str(path), "--s", "2")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        f"error: {path}:2: {value} does not fit a signed 64-bit integer\n"
    )


def test_u2_spec_count_checked_before_any_file_is_read(tmp_path):
    path = write_set(tmp_path / "z.txt", range(1, 21))
    spec = write_spec(tmp_path / "s.json", [(1, 1)], (1, 2), (10, 1))
    missing = str(tmp_path / "missing.json")
    proc = run_cli("u2", "compute", "--set", path,
                   "--spec", spec, "--spec", spec, "--spec", spec, "--spec", missing)
    assert proc.returncode == 2
    assert "at most three --spec files" in proc.stderr


# ---------------------------------------------------------------------------
# bohr group
# ---------------------------------------------------------------------------


def test_bohr_enum_frozen_example(tmp_path):
    spec = write_spec(tmp_path / "s.json", [(1, 1)], (1, 2), (100, 1))
    proc = run_cli("bohr", "enum", "--spec", spec)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["size"] == 201
    assert report["elements"][0] == -100 and report["elements"][-1] == 100


def test_bohr_regular_verdicts(tmp_path):
    good = write_spec(tmp_path / "good.json", [(1, 1)], (1, 2), (100, 1))
    assert run_cli("bohr", "regular", "--spec", good).returncode == 0
    bad = write_spec(tmp_path / "bad.json", [(1, 2)], (499, 1000), (50, 1))
    proc = run_cli("bohr", "regular", "--spec", bad)
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["witness_c"] == [1, 499]


def test_bohr_find_alpha(tmp_path):
    spec = write_spec(tmp_path / "s.json", [(1, 2)], (499, 1000), (50, 1))
    proc = run_cli("bohr", "find-alpha", "--spec", spec)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["found"] is True
    num, den = report["c"]
    assert den <= 2 * num <= 2 * den  # multiplier in [1/2, 1]


# ---------------------------------------------------------------------------
# patterns group
# ---------------------------------------------------------------------------


def test_patterns_find_found(tmp_path):
    path = write_set(tmp_path / "z.txt", range(1, 21))
    proc = run_cli("patterns", "find", "--set", path, "--s", "2")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["case"] == "found"
    members = set(range(1, 21))
    a, ns = report["a"], report["ns"]
    assert all(n1 + n2 + a in members for n1 in ns for n2 in ns)


def test_patterns_find_none(tmp_path):
    path = write_set(tmp_path / "b.txt", behrend_set(500))
    proc = run_cli("patterns", "find", "--set", path, "--s", "2")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["case"] == "none"


def test_patterns_find_budget(tmp_path):
    path = write_set(tmp_path / "b.txt", behrend_set(500))
    proc = run_cli("patterns", "find", "--set", path, "--s", "2", "--budget", "3")
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["case"] == "inconclusive"


def test_patterns_count_matches_library(tmp_path):
    values = sorted({1, 2, 3, 5, 8, 13})
    path = write_set(tmp_path / "z.txt", values)
    proc = run_cli("patterns", "count", "--set", path, "--s", "2")
    expected = count_configurations(np.array(values), 2)
    assert proc.returncode == (0 if expected > 0 else 1)
    assert json.loads(proc.stdout)["count"] == expected


def test_patterns_dichotomy_csv_header(tmp_path):
    path = write_set(tmp_path / "z.txt", range(1, 41))
    proc = run_cli("patterns", "dichotomy", "--set", path, "--format", "csv")
    assert proc.returncode == 0
    header = proc.stdout.split("\n", 1)[0]
    assert "outcome.kind" in header and "set" in header and "delta" in header


def test_patterns_dichotomy_ignores_set_order(tmp_path):
    # the file is read as a set: an unsorted copy gives byte-identical reports
    values = [int(v) for v in random_set(120, 0.4, seed=5)]
    path = tmp_path / "a.txt"
    reports = []
    for order in (values, values[::2] + values[1::2][::-1]):
        write_set(path, order)
        proc = run_cli("patterns", "dichotomy", "--set", str(path))
        assert proc.returncode == 0, proc.stderr
        reports.append(proc.stdout)
    assert reports[0] == reports[1]


def test_patterns_dichotomy_sweep_keeps_rows_past_a_budget_stop(tmp_path):
    # m15 = [-79, 79] minus the multiples of 15: its U2 contraction passes the
    # default budget, and the sets around it must still get their rows
    paths = [
        write_set(tmp_path / "behrend1000", behrend_set(1000)),
        write_set(tmp_path / "m15", [v for v in range(-79, 80) if v % 15]),
        write_set(tmp_path / "evens", range(2, 201, 2)),
    ]
    constants = tmp_path / "c.json"
    constants.write_text('{"x1": "2", "x_rest": "2"}')
    sweep = ["patterns", "dichotomy", "--constants", str(constants)]
    proc = run_cli(*sweep, *(a for p in paths for a in ("--set", p)))
    assert proc.returncode == 3, proc.stderr
    rows = json.loads(proc.stdout)
    assert [row["set"] for row in rows] == paths
    assert rows[1]["outcome"] == {
        "kind": "budget",
        "reason": "correlation route needs 639128961 operations, budget 500000000",
    }
    assert [rows[0]["outcome"]["kind"], rows[2]["outcome"]["kind"]] == ["small-bohr"] * 2
    # without the stopped set: exit 0 and the same bytes for the other rows
    clean = run_cli(*sweep, "--set", paths[0], "--set", paths[2])
    assert clean.returncode == 0, clean.stderr
    assert clean.stdout == canonical_json([rows[0], rows[2]])


@pytest.mark.parametrize("command", [("patterns", "dichotomy"), ("increment", "run")])
def test_faithful_mode_rejects_constant_overrides(tmp_path, command):
    path = write_set(tmp_path / "z.txt", range(1, 41))
    constants = tmp_path / "c.json"
    constants.write_text('{"x1": "2"}')
    proc = run_cli(*command, "--set", path, "--mode", "faithful", "--constants", str(constants))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: faithful mode takes no overrides\n"


# ---------------------------------------------------------------------------
# gen group
# ---------------------------------------------------------------------------


def test_gen_behrend_round_trip(tmp_path):
    out = tmp_path / "b.txt"
    proc = run_cli("gen", "behrend", "200", "--out", str(out))
    assert proc.returncode == 0
    assert np.array_equal(read_set_file(str(out)), behrend_set(200))


def test_gen_random_deterministic(tmp_path):
    first = run_cli("gen", "random", "300", "3/10", "--seed", "5")
    second = run_cli("gen", "random", "300", "3/10", "--seed", "5")
    other = run_cli("gen", "random", "300", "3/10", "--seed", "6")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout != other.stdout


def test_gen_random_round_trip(tmp_path):
    out = tmp_path / "r.txt"
    proc = run_cli("gen", "random", "300", "3/10", "--seed", "5", "--out", str(out))
    assert proc.returncode == 0
    assert np.array_equal(read_set_file(str(out)), random_set(300, 0.3, 5))


def test_gen_rejects_bad_density():
    assert run_cli("gen", "random", "100", "7/5").returncode == 2  # above 1
    assert run_cli("gen", "random", "100", "abc").returncode == 2


@pytest.mark.parametrize("n", ["0", "-5"])
def test_gen_rejects_n_below_one(n, capsys):
    assert cli.main(["gen", "behrend", n]) == 2
    assert cli.main(["gen", "random", n, "1/2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("N must be positive") == 2


# ---------------------------------------------------------------------------
# u2 and sumfree groups
# ---------------------------------------------------------------------------


def test_u2_compute_routes_agree(tmp_path):
    path = write_set(tmp_path / "e.txt", range(-20, 21, 2))
    spec = write_spec(tmp_path / "s.json", [(1, 1)], (1, 2), (20, 1))
    proc = run_cli("u2", "compute", "--set", path, "--spec", spec)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["agreement"] <= report["tolerance"]
    assert abs(report["fourth_direct"] - report["norm"] ** 4) < 1e-9


def test_u2_budget_counts_operations_only(tmp_path):
    # the spec files are enumerated under the default enumeration limit, so
    # --budget stops the first U2 route, not the width-20 candidate window
    path = write_set(tmp_path / "e.txt", range(-20, 21, 2))
    spec = write_spec(tmp_path / "s.json", [(1, 1)], (1, 2), (20, 1))
    proc = run_cli("u2", "compute", "--set", path, "--spec", spec, "--budget", "10")
    assert (proc.returncode, proc.stdout) == (3, "")
    assert "direct route needs" in proc.stderr and "candidate window" not in proc.stderr


def test_sumfree_check_exit_codes(tmp_path):
    z = write_set(tmp_path / "z.txt", [1, 2])
    w3 = write_set(tmp_path / "w3.txt", [3])
    w4 = write_set(tmp_path / "w4.txt", [4])
    assert run_cli("sumfree", "check", "--set", z, "--set", w4).returncode == 0
    assert run_cli("sumfree", "check", "--set", z, "--set", w3).returncode == 1


def test_sumfree_embed(tmp_path):
    path = write_set(tmp_path / "a.txt", range(1, 21))
    proc = run_cli("sumfree", "embed", "--set", path)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["status"] == "ok"
    assert report["kept_size"] * 2 >= 20


@pytest.mark.parametrize("values", [[-(2**62), 2**62], [-(2**62), 0, 2**62]],
                         ids=["two-points", "three-points"])
def test_sumfree_embed_refuses_wrapped_differences(tmp_path, values):
    # 2^62 - (-2^62) wraps in int64: the two points once read as unsorted,
    # and the three were embedded with |A - A| = 4 where it is 5
    proc = run_cli("sumfree", "embed", "--set", write_set(tmp_path / "a.txt", values))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "difference sums reach" in proc.stderr and "outside int64" in proc.stderr


def test_sumfree_find_config(tmp_path):
    path = write_set(tmp_path / "a.txt", range(1, 51))
    proc = run_cli("sumfree", "find-config", "--set", path, "--s", "2")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "found"


# ---------------------------------------------------------------------------
# increment group and emission contracts
# ---------------------------------------------------------------------------


def test_increment_run_trace_matches_steps(tmp_path):
    path = write_set(tmp_path / "r.txt", random_set(400, 0.4, 2))
    trace = tmp_path / "trace.jsonl"
    proc = run_cli("increment", "run", "--set", path, "--out", str(trace))
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["status"] == "found"
    lines = trace.read_text().strip().split("\n")
    assert len(lines) == len(report["steps"])
    for line in lines:
        json.loads(line)  # each line is standalone JSON


def test_extent_of_a_set_holding_int64_min(tmp_path):
    # |-2^63| does not fit int64, so the extent is read in Python ints: the
    # window M = 2^63 holds all four points and stops at the enumeration
    # budget, where a wrapped extent shrank it to M = 3 and dropped a point
    path = write_set(tmp_path / "z.txt", [-(2**63), 1, 2, 3])
    proc = run_cli("increment", "run", "--set", path, "--s", "2")
    assert proc.returncode == 3, proc.stderr
    report = json.loads(proc.stdout)
    assert report["status"] == "limit" and report["steps"] == []
    assert report["final"]["set_size"] == 4
    assert "enumeration budget" in report["reason"]
    proc = run_cli("patterns", "dichotomy", "--set", path)
    assert proc.returncode == 3 and "budget" in proc.stderr


def test_out_file_matches_stdout(tmp_path):
    spec = write_spec(tmp_path / "s.json", [(1, 1)], (1, 2), (30, 1))
    out = tmp_path / "report.json"
    proc = run_cli("bohr", "enum", "--spec", spec, "--out", str(out))
    assert proc.returncode == 0
    assert out.read_text() == proc.stdout


def test_json_reports_byte_deterministic(tmp_path):
    path = write_set(tmp_path / "z.txt", range(1, 31))
    first = run_cli("patterns", "find", "--set", path, "--s", "2")
    second = run_cli("patterns", "find", "--set", path, "--s", "2")
    assert first.stdout == second.stdout


# ---------------------------------------------------------------------------
# the parser: defaults, help, and one build per process
# ---------------------------------------------------------------------------


def _default(fn, name: str):
    return inspect.signature(fn).parameters[name].default


# (command, flag, the named constant, the default of the parameter it feeds)
FLAG_DEFAULTS = [
    ("bohr enum --spec f", "budget", ENUM_LIMIT, _default(enumerate_bohr, "enum_limit")),
    ("bohr regular --spec f", "budget", ENUM_LIMIT,
     _default(regularity_certificate, "enum_limit")),
    ("bohr find-alpha --spec f", "budget", ENUM_LIMIT, _default(find_regular_alpha, "enum_limit")),
    ("u2 compute --set f --spec f", "budget", COUNT_BUDGET, _default(u2_report, "budget")),
    ("u2 inverse-check --set f --spec f", "budget", COUNT_BUDGET,
     _default(check_inverse_theorem, "budget")),
    ("u2 inverse-check --set f --spec f", "grid", FOURIER_GRID,
     _default(check_inverse_theorem, "grid")),
    ("patterns find --set f --s 2", "budget", WORD_BUDGET, _default(find_configuration, "budget")),
    ("patterns count --set f --s 2", "budget", WORD_BUDGET,
     _default(count_configurations, "budget")),
    ("patterns dichotomy --set f", "budget", COUNT_BUDGET, _default(dichotomy, "budget")),
    ("increment run --set f", "budget", COUNT_BUDGET, EngineLimits().count_budget),
    ("increment run --set f", "grid", FOURIER_GRID, EngineLimits().grid),
    ("sumfree embed --set f", "budget", EMBED_RETRIES, _default(ruzsa_embed, "retries")),
    ("sumfree find-config --set f --s 2", "budget", WORD_BUDGET,
     _default(find_configuration_via_embedding, "budget")),
]


@pytest.mark.parametrize("command, flag, constant, fed", FLAG_DEFAULTS)
def test_flag_default_is_the_library_constant(command, flag, constant, fed):
    args = cli._parser().parse_args(command.split())
    assert getattr(args, flag) == constant == fed


def test_engine_defaults_are_the_library_constants():
    assert EngineLimits() == EngineLimits(COUNT_BUDGET, WORD_BUDGET, FOURIER_GRID)
    assert _default(fourier_increment, "grid") == FOURIER_GRID
    assert _default(fourier_increment, "budget") == COUNT_BUDGET


def test_increment_run_help_names_the_trace():
    # its --out is the JSONL step trace, not a copy of the report
    proc = run_cli("increment", "run", "--help")
    assert proc.returncode == 0
    assert "write the JSONL step trace here" in proc.stdout
    assert "write the report here as well" not in proc.stdout
    assert "write the report here as well" in run_cli("bohr", "enum", "--help").stdout


def test_parser_built_once_per_process():
    script = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *a, **k):\n"
        "    built.append(self)\n"
        "    init(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "from bohrkit import cli\n"
        "assert built == [], 'import built a parser'\n"
        "assert cli.main(['gen', 'behrend', '10']) == 0\n"
        "first = len(built)\n"
        "assert cli.main(['gen', 'random', '10', '1/2']) == 0\n"
        "assert first > 0 and len(built) == first, (first, len(built))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
