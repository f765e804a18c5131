"""A catalogue of source mutants and the tests expected to kill them.

Each entry patches one file under ``src/bohrkit``: its exact ``old`` text,
which must occur there exactly once, becomes ``new``. ``kills`` lists the
pytest node ids that fail once the patch is applied, and ``drops`` says what
the mutant takes away. pytest does not collect this module (its name does
not start with ``test_``); ``tests/test_hygiene.py`` checks every anchor, so
a refactor that moves the patched code must move its mutant too. A runner
that applies each patch to a copy of ``src`` and runs the named tests is
not written yet.
"""

from __future__ import annotations

MUTANTS = [
    {
        "file": "increment.py",
        "drops": "the equality of a no-case record with its dichotomy rerun",
        "old": "    if differ:\n",
        "new": '    if differ and dich.kind != "no-case":\n',
        "kills": [
            "tests/test_increment.py::test_forgery_census",
            "tests/test_increment.py::test_recheck_rederives_relabelled_small_bohr[no-case-limit-3]",
        ],
    },
    {
        "file": "increment.py",
        "drops": "the recount of a config record's chain",
        "old": "        if sizes != [link.size for link in rec.chain]:\n",
        "new": "        if dich is not None and sizes != [link.size for link in rec.chain]:\n",
        "kills": [
            "tests/test_increment.py::test_forgery_census",
            "tests/test_increment.py::test_recheck_recounts_a_config_records_chain",
        ],
    },
    {
        "file": "increment.py",
        "drops": "the arity of a config record's configuration against its chain",
        "old": "        if finder and finder.config.s != len(chain):\n",
        "new": "        if finder and False:\n",
        "kills": ["tests/test_increment.py::test_config_record_arity_is_the_chain_length"],
    },
    {
        "file": "increment.py",
        "drops": "the comparison of a result's final state with the replay",
        "old": "    if not problems and result.final != final:\n",
        "new": "    if False:\n",
        "kills": [
            "tests/test_increment.py::test_forgery_census",
            "tests/test_increment.py::test_recheck_compares_the_final_state[mult]",
            "tests/test_increment.py::test_recheck_compares_the_final_state[offset]",
            "tests/test_increment.py::test_recheck_compares_the_final_state[d]",
            "tests/test_increment.py::test_recheck_compares_the_final_state[set_size]",
        ],
    },
    {
        "file": "patterns.py",
        "drops": "the closed vocabulary of a finder result's status",
        "old": "        known = self.status in _FINDER_STATUSES and self.mode in _FINDER_MODES\n",
        "new": "        known = self.mode in _FINDER_MODES\n",
        "kills": ["tests/test_patterns.py::test_finder_and_dichotomy_vocabularies_are_closed"],
    },
]
