"""The command line's bytes, pinned.

Every subcommand runs in-process through ``bohrkit.cli.main`` on small fixed
inputs, in json and csv where both apply, together with usage, missing-file,
write-failure and budget-stop paths. Each case pins its exit code and a
SHA-256 digest of its stdout and of the file its ``--out`` names. A change to how
the CLI parses, reads, writes or picks exit codes that moves any of these
bytes fails here.

Input files are written to a fresh working directory and named by relative
paths, so reports that echo a path (the dichotomy rows) hold the same bytes
wherever the test runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

import pytest

from bohrkit import cli
from bohrkit.patterns import behrend_set, random_set


def _lines(values) -> str:
    return "".join(f"{int(v)}\n" for v in values)


def _spec(theta, eps, m) -> str:
    return json.dumps({"theta": [list(t) for t in theta], "eps": list(eps), "M": list(m)})


INPUTS = {
    "z.txt": _lines(range(1, 21)),
    "z40.txt": _lines(range(1, 41)),
    "a50.txt": _lines(range(1, 51)),
    "small.txt": _lines([1, 2, 3, 5, 8, 13]),
    "even.txt": _lines(range(-20, 21, 2)),
    "pair.txt": _lines([1, 2]),
    "w3.txt": _lines([3]),
    "w4.txt": _lines([4]),
    "behrend.txt": _lines(behrend_set(500)),
    "random.txt": _lines(random_set(400, 0.4, 2)),
    "int64-min.txt": _lines([-(2**63), 1, 2, 3]),
    "bad-value.txt": "1\ntwo\n",
    "spec30.json": _spec([(1, 1)], (1, 2), (30, 1)),
    "spec20.json": _spec([(1, 1)], (1, 2), (20, 1)),
    "irregular.json": _spec([(1, 2)], (499, 1000), (50, 1)),
    "constants.json": '{"x1": [1, 320], "eta": "1/8"}',
}

# (case, argv); a case whose argv holds "--out" also pins that file's bytes
CASES = [
    ("bohr-enum", ["bohr", "enum", "--spec", "spec30.json"]),
    ("bohr-enum-csv", ["bohr", "enum", "--spec", "spec30.json", "--format", "csv"]),
    ("bohr-enum-out", ["bohr", "enum", "--spec", "spec30.json", "--out", "o.json"]),
    ("bohr-enum-budget", ["bohr", "enum", "--spec", "spec30.json", "--budget", "3"]),
    ("bohr-regular", ["bohr", "regular", "--spec", "spec30.json"]),
    ("bohr-regular-no", ["bohr", "regular", "--spec", "irregular.json"]),
    ("bohr-regular-csv", ["bohr", "regular", "--spec", "irregular.json", "--format", "csv"]),
    ("bohr-find-alpha", ["bohr", "find-alpha", "--spec", "irregular.json"]),
    ("bohr-find-alpha-csv", ["bohr", "find-alpha", "--spec", "irregular.json",
                             "--format", "csv"]),
    ("u2-compute", ["u2", "compute", "--set", "even.txt", "--spec", "spec20.json"]),
    ("u2-compute-csv", ["u2", "compute", "--set", "even.txt", "--spec", "spec20.json",
                        "--spec", "spec20.json", "--format", "csv"]),
    ("u2-compute-budget", ["u2", "compute", "--set", "even.txt", "--spec", "spec20.json",
                           "--budget", "10"]),
    ("u2-inverse-check", ["u2", "inverse-check", "--set", "even.txt", "--spec", "spec20.json",
                          "--grid", "64"]),
    ("u2-inverse-check-csv", ["u2", "inverse-check", "--set", "even.txt",
                              "--spec", "spec20.json", "--format", "csv"]),
    ("patterns-find", ["patterns", "find", "--set", "z.txt", "--s", "2"]),
    ("patterns-find-csv", ["patterns", "find", "--set", "z.txt", "--s", "3", "--format", "csv"]),
    ("patterns-find-none", ["patterns", "find", "--set", "behrend.txt", "--s", "2"]),
    ("patterns-find-budget", ["patterns", "find", "--set", "behrend.txt", "--s", "2",
                              "--budget", "3"]),
    ("patterns-count", ["patterns", "count", "--set", "small.txt", "--s", "2"]),
    ("patterns-count-csv", ["patterns", "count", "--set", "z.txt", "--s", "3",
                            "--format", "csv"]),
    ("patterns-count-budget", ["patterns", "count", "--set", "z.txt", "--s", "3",
                               "--budget", "2"]),
    ("patterns-dichotomy", ["patterns", "dichotomy", "--set", "z40.txt"]),
    ("patterns-dichotomy-csv", ["patterns", "dichotomy", "--set", "z40.txt",
                                "--set", "random.txt", "--format", "csv"]),
    ("patterns-dichotomy-faithful", ["patterns", "dichotomy", "--set", "z40.txt",
                                     "--mode", "faithful"]),
    ("patterns-dichotomy-constants", ["patterns", "dichotomy", "--set", "random.txt",
                                      "--constants", "constants.json", "--s", "3"]),
    ("patterns-dichotomy-out", ["patterns", "dichotomy", "--set", "behrend.txt",
                                "--set", "z40.txt", "--out", "rows.json"]),
    ("gen-behrend", ["gen", "behrend", "200"]),
    ("gen-behrend-json", ["gen", "behrend", "200", "--format", "json"]),
    ("gen-behrend-csv", ["gen", "behrend", "200", "--format", "csv"]),
    ("gen-behrend-out", ["gen", "behrend", "200", "--out", "b.txt"]),
    ("gen-random", ["gen", "random", "300", "3/10", "--seed", "5"]),
    ("gen-random-out-json", ["gen", "random", "300", "3/10", "--format", "json",
                             "--out", "r.json"]),
    ("increment-run", ["increment", "run", "--set", "random.txt"]),
    ("increment-run-csv", ["increment", "run", "--set", "random.txt", "--format", "csv"]),
    ("increment-run-trace", ["increment", "run", "--set", "random.txt", "--out", "t.jsonl"]),
    ("increment-run-faithful", ["increment", "run", "--set", "z40.txt", "--mode", "faithful"]),
    ("increment-run-constants", ["increment", "run", "--set", "behrend.txt", "--s", "2",
                                 "--constants", "constants.json", "--out", "tb.jsonl"]),
    ("increment-run-budget", ["increment", "run", "--set", "int64-min.txt", "--budget", "5",
                              "--grid", "64"]),
    ("sumfree-check", ["sumfree", "check", "--set", "pair.txt", "--set", "w4.txt"]),
    ("sumfree-check-no", ["sumfree", "check", "--set", "pair.txt", "--set", "w3.txt"]),
    ("sumfree-check-csv", ["sumfree", "check", "--set", "z.txt", "--format", "csv"]),
    ("sumfree-embed", ["sumfree", "embed", "--set", "z.txt"]),
    ("sumfree-embed-csv", ["sumfree", "embed", "--set", "z.txt", "--seed", "3",
                           "--format", "csv"]),
    ("sumfree-embed-budget", ["sumfree", "embed", "--set", "z.txt", "--budget", "0"]),
    ("sumfree-find-config", ["sumfree", "find-config", "--set", "a50.txt", "--s", "2"]),
    ("sumfree-find-config-csv", ["sumfree", "find-config", "--set", "behrend.txt", "--s", "2",
                                 "--format", "csv"]),
    ("sumfree-find-config-budget", ["sumfree", "find-config", "--set", "behrend.txt",
                                    "--s", "2", "--budget", "3"]),
    ("usage-no-group", []),
    ("usage-missing-flag", ["patterns", "find", "--set", "z.txt"]),
    ("usage-bad-choice", ["bohr", "enum", "--spec", "spec30.json", "--format", "xml"]),
    ("missing-set-file", ["patterns", "find", "--set", "absent.txt", "--s", "2"]),
    ("missing-spec-file", ["bohr", "regular", "--spec", "absent.json"]),
    ("missing-constants-file", ["increment", "run", "--set", "z.txt",
                                "--constants", "absent.json"]),
    ("bad-set-value", ["sumfree", "embed", "--set", "bad-value.txt"]),
    ("unwritable-report", ["bohr", "enum", "--spec", "spec30.json",
                           "--out", "no-such-dir/o.json"]),
    ("unwritable-set", ["gen", "behrend", "50", "--out", "no-such-dir/b.txt"]),
    ("unwritable-trace", ["increment", "run", "--set", "z.txt",
                          "--out", "no-such-dir/t.jsonl"]),
]

# case -> (exit code, digest of stdout, digest of the --out file or None), each
# digest the first 16 hex digits of a SHA-256
EXPECTED = {
    "bohr-enum": (0, "4e9095d22cc9d699", None),
    "bohr-enum-csv": (0, "d9c1cdce6d151106", None),
    "bohr-enum-out": (0, "4e9095d22cc9d699", "4e9095d22cc9d699"),
    "bohr-enum-budget": (3, "e3b0c44298fc1c14", None),
    "bohr-regular": (0, "0fc43416016ca42e", None),
    "bohr-regular-no": (1, "ea86ca7161f5b1f6", None),
    "bohr-regular-csv": (1, "f151f6bac29c81d2", None),
    "bohr-find-alpha": (0, "b4ee6844bd034066", None),
    "bohr-find-alpha-csv": (0, "941e1feb7c006018", None),
    "u2-compute": (0, "3a8c9ef1638d34d5", None),
    "u2-compute-csv": (0, "3b2cfe8a029d3631", None),
    "u2-compute-budget": (3, "e3b0c44298fc1c14", None),
    "u2-inverse-check": (1, "be97d12fed50d6dd", None),
    "u2-inverse-check-csv": (1, "9c6b0c45490af215", None),
    "patterns-find": (0, "208105e43d809c97", None),
    "patterns-find-csv": (0, "1c476c1efcae8572", None),
    "patterns-find-none": (1, "e49dbe58952e4124", None),
    "patterns-find-budget": (3, "a9154e22e49a8f74", None),
    "patterns-count": (0, "e5bcbc67aeb6ca23", None),
    "patterns-count-csv": (0, "8a380c1221f4e42c", None),
    "patterns-count-budget": (3, "e3b0c44298fc1c14", None),
    "patterns-dichotomy": (0, "cd262248a3868dbb", None),
    "patterns-dichotomy-csv": (0, "cb8c41637094cb39", None),
    "patterns-dichotomy-faithful": (0, "332d8b84b6d54118", None),
    "patterns-dichotomy-constants": (0, "61b76caa866b41da", None),
    "patterns-dichotomy-out": (0, "70274c8f21840cb2", "70274c8f21840cb2"),
    "gen-behrend": (0, "61a9c154f97266e0", None),
    "gen-behrend-json": (0, "4bb123bc0178abb4", None),
    "gen-behrend-csv": (0, "f4ae6de3bcaa0845", None),
    "gen-behrend-out": (0, "61a9c154f97266e0", "61a9c154f97266e0"),
    "gen-random": (0, "ac63fc0ef40aadd4", None),
    "gen-random-out-json": (0, "7f8f8e947194be93", "7f8f8e947194be93"),
    "increment-run": (0, "ff5a033d72be9e3d", None),
    "increment-run-csv": (0, "32a042f07282ec6c", None),
    "increment-run-trace": (0, "ff5a033d72be9e3d", "069864f0c921102f"),
    "increment-run-faithful": (1, "ce39e90743f0b664", None),
    "increment-run-constants": (1, "4e8c6c6a7bc8f111", "f8dd85f5db53dcd5"),
    "increment-run-budget": (3, "f0494e61a833ee05", None),
    "sumfree-check": (0, "f3e0a96018bdde43", None),
    "sumfree-check-no": (1, "b427cfe2b0281ff2", None),
    "sumfree-check-csv": (1, "da97d5a32cfb36f9", None),
    "sumfree-embed": (0, "3cd32cbf50c2a31f", None),
    "sumfree-embed-csv": (0, "e491fda86fa2813e", None),
    "sumfree-embed-budget": (3, "7e5e3f683cc258d1", None),
    "sumfree-find-config": (0, "5f35eace944086ff", None),
    "sumfree-find-config-csv": (1, "1630872978d41303", None),
    "sumfree-find-config-budget": (3, "d88ed91d4693121e", None),
    "usage-no-group": (2, "e3b0c44298fc1c14", None),
    "usage-missing-flag": (2, "e3b0c44298fc1c14", None),
    "usage-bad-choice": (2, "e3b0c44298fc1c14", None),
    "missing-set-file": (2, "e3b0c44298fc1c14", None),
    "missing-spec-file": (2, "e3b0c44298fc1c14", None),
    "missing-constants-file": (2, "e3b0c44298fc1c14", None),
    "bad-set-value": (2, "e3b0c44298fc1c14", None),
    "unwritable-report": (4, "e3b0c44298fc1c14", None),
    "unwritable-set": (4, "e3b0c44298fc1c14", None),
    "unwritable-trace": (4, "e3b0c44298fc1c14", None),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def run_case(argv: list[str]) -> tuple[int, str, str | None]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    written = None
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        try:
            with open(path, "rb") as fh:
                written = _sha(fh.read())
        except FileNotFoundError:
            pass
    return code, _sha(out.getvalue().encode()), written


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)


def test_every_case_is_pinned():
    assert [case for case, _ in CASES] == list(EXPECTED)


@pytest.mark.parametrize("case, argv", CASES, ids=[case for case, _ in CASES])
def test_cli_bytes_pinned(inputs, case, argv):
    assert run_case(argv) == EXPECTED[case]
