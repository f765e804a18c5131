"""A catalogue of source mutants and the tests expected to kill them.

Each entry patches one file under ``src/bohrkit``: its exact ``old`` text,
which must occur there exactly once, becomes ``new``. ``kills`` lists the
pytest node ids that fail once the patch is applied, and ``drops`` says what
the mutant takes away. pytest does not collect this module (its name does
not start with ``test_``); ``tests/test_hygiene.py`` checks every anchor, so
a refactor that moves the patched code must move its mutant too.

Run as a script, ``python tests/mutants.py [FILTER]``, it applies each entry
(or each whose ``drops`` contains ``FILTER``) to a fresh copy of ``src``,
``tests`` and ``bench`` in a temporary directory, runs the entry's ``kills``
there with pytest, and prints a JSON summary: the killed and surviving
mutants, and for each killed one the named tests that still passed. It exits
nonzero when a mutant survives.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

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
    {
        "file": "functions.py",
        "drops": "the exact offset of a run support's padded array",
        "old": "int(support[0]) - left if run else 0)",
        "new": "int(support[0]) - left + 1 if run else 0)",
        "kills": [
            "tests/test_functions.py::test_gather_matches_dict_lookup",
            "tests/test_gowers.py::test_direct_route_bits_are_pinned",
        ],
    },
    {
        "file": "functions.py",
        "drops": "the zero pad right of a run support",
        "old": "right = int(run and support[-1] < INT64_MAX)",
        "new": "right = 0",
        "kills": ["tests/test_functions.py::test_gather_matches_dict_lookup"],
    },
    {
        "file": "functions.py",
        "drops": "a function's own copy of its support",
        "old": "support = np.array(self.support, dtype=np.int64)",
        "new": "support = np.asarray(self.support, dtype=np.int64)",
        "kills": ["tests/test_functions.py::test_function_owns_its_arrays"],
    },
    {
        "file": "functions.py",
        "drops": "the order test of a support by comparison, not subtraction",
        "old": "np.any(support[1:] <= support[:-1])",
        "new": "np.any(np.diff(support) <= 0)",
        "kills": [
            "tests/test_functions.py::test_support_order_at_the_int64_ends",
            "tests/test_hygiene.py::test_no_order_test_by_subtraction[functions.py]",
        ],
    },
    {
        "file": "functions.py",
        "drops": "the refusal of NaN values",
        "old": "if not np.all(np.abs(values) <= 1 + _BOUND_TOL):",
        "new": "if np.any(np.abs(values) > 1 + _BOUND_TOL):",
        "kills": ["tests/test_functions.py::test_bound_enforced"],
    },
    {
        "file": "increment.py",
        "drops": "the recheck's hand-over of the set a move was checked on",
        "old": "        ambient = target\n",
        "new": "",
        "kills": [
            "tests/test_increment.py::test_run_takes_both_transitions[local-increment]",
            "tests/test_increment.py::test_run_takes_both_transitions[fourier]",
            "tests/test_increment.py::test_recheck_certifies_and_enumerates_each_spec_once[fourier]",
        ],
    },
    {
        "file": "increment.py",
        "drops": "the recheck's pick of a rebuilt inner set as a fourier target",
        "old": "target = built.get(new) or BohrSet.from_spec(new)",
        "new": "target = BohrSet.from_spec(new)",
        "kills": [
            "tests/test_increment.py::test_recheck_certifies_and_enumerates_each_spec_once[fourier]",
        ],
    },
    {
        "file": "increment.py",
        "drops": "the exhausted status of a run whose last record is small-bohr",
        "old": '    "small-bohr": "exhausted",\n',
        "new": '    "small-bohr": "limit",\n',
        "kills": [
            "tests/test_increment.py::test_status_is_read_off_the_last_record[small-bohr]",
            "tests/test_increment.py::test_run_practical_behrend_exhausts",
        ],
    },
    {
        "file": "increment.py",
        "drops": "the exhausted status of a run whose final set is empty",
        "old": '        return "exhausted" if self.final.get("set_size") == 0 else "limit"\n',
        "new": '        return "limit"\n',
        "kills": [
            "tests/test_increment.py::test_recheck_derives_exhaustion_of_an_empty_trace",
            "tests/test_increment.py::test_an_empty_set_ends_exhausted_at_every_N",
            "tests/test_increment.py::test_status_is_read_off_the_last_record[None]",
        ],
    },
    {
        "file": "increment.py",
        "drops": "the refusal of a record that follows a terminal one",
        "old": "        for rec in self.steps[:-1]:\n",
        "new": "        for rec in self.steps[:-2]:\n",
        "kills": [
            "tests/test_increment.py::test_no_record_follows_a_terminal_one[config]",
            "tests/test_increment.py::test_no_record_follows_a_terminal_one[small-bohr]",
            "tests/test_increment.py::test_recheck_derives_status_of_found_run[trailing-record]",
        ],
    },
    {
        "file": "increment.py",
        "drops": "the emptiness test of the input before the window is enumerated",
        "old": "    if state.work.size == 0:",
        "new": "    if False:",
        "kills": ["tests/test_increment.py::test_an_empty_set_ends_exhausted_at_every_N"],
    },
    {
        "file": "bohr.py",
        "drops": "the base size check of a Bohr set's certificate",
        "old": "cert.spec != self.spec or cert.base_size != self.size",
        "new": "cert.spec != self.spec",
        "kills": ["tests/test_bohr.py::test_bohr_set_rejects_a_foreign_certificate"],
    },
    {
        "file": "gowers.py",
        "drops": "the conjugate in the direct route's pair table",
        "old": "                g = f.gather(ps[:, None] + q[None, :]).conj()\n",
        "new": "                g = f.gather(ps[:, None] + q[None, :])\n",
        "kills": ["tests/test_gowers.py::test_direct_route_equals_cube_bit_for_bit"],
    },
    {
        "file": "gowers.py",
        "drops": "the direct route's choice of the smaller of table and cube",
        "old": "        if p.size * d.size < chunk.size * n2.size**2:\n",
        "new": "        if p.size * d.size >= chunk.size * n2.size**2:\n",
        "kills": ["tests/test_gowers.py::test_direct_route_picks_the_smaller_side"],
    },
    {
        "file": "gowers.py",
        "drops": "the int64 check of the direct table's sums a + n2 + d2 + n1",
        "old": "    require_int64(\"direct route\", _extent(a), (lo2, hi2), d_ext, _extent(n1))\n",
        "new": "",
        "kills": ["tests/test_gowers.py::test_direct_table_sums_past_int64_are_refused"],
    },
    {
        "file": "gowers.py",
        "drops": "the shear of the correlation route's table read",
        "old": "strides=(d.size * item, (d.size - 1) * item, item),",
        "new": "strides=(d.size * item, d.size * item, item),",
        "kills": [
            "tests/test_gowers.py::test_correlation_route_bits_are_pinned",
            "tests/test_gowers.py::test_correlation_route_equals_cube_bit_for_bit",
        ],
    },
    {
        "file": "gowers.py",
        "drops": "the shear of the direct route's table read",
        "old": "strides=(d.size * w, (d.size - 1) * w, w),",
        "new": "strides=(d.size * w, d.size * w, w),",
        "kills": [
            "tests/test_gowers.py::test_direct_route_bits_are_pinned",
            "tests/test_gowers.py::test_direct_route_equals_cube_bit_for_bit",
        ],
    },
    {
        "file": "gowers.py",
        "drops": "the run test behind the sliding view of the correlation table",
        "old": "sliding = np.array_equal(qidx, np.arange(d.size)[:, None] + np.arange(n2.size))",
        "new": "sliding = True",
        "kills": ["tests/test_gowers.py::test_correlation_route_equals_cube_bit_for_bit"],
    },
    {
        "file": "gowers.py",
        "drops": "the first point of the correlation route's run P",
        "old": "p = int(chunk[0]) + int(n1[0]) + np.arange(",
        "new": "p = int(chunk[0]) + int(n1[0]) + 1 + np.arange(",
        "kills": [
            "tests/test_gowers.py::test_correlation_route_bits_are_pinned",
            "tests/test_gowers.py::test_correlation_route_equals_cube_bit_for_bit",
        ],
    },
    {
        "file": "gowers.py",
        "drops": "the count of table rows the correlation route carries to the next chunk",
        "old": "carried = table[table.shape[0] - n1.size + 1 :]",
        "new": "carried = table[table.shape[0] - n1.size :]",
        "kills": [
            "tests/test_gowers.py::test_window_tables_fill_each_row_once",
            "tests/test_gowers.py::test_dichotomy_norm_bits_are_pinned",
        ],
    },
    {
        "file": "gowers.py",
        "drops": "the count of table rows the direct route carries to the next chunk",
        "old": "carry = table[p.size - (n2.size - 1) :]",
        "new": "carry = table[p.size - n2.size :]",
        "kills": [
            "tests/test_gowers.py::test_window_tables_fill_each_row_once",
            "tests/test_gowers.py::test_direct_route_equals_cube_bit_for_bit",
        ],
    },
    {
        "file": "gowers.py",
        "drops": "the residue of a negative offset's slot in the scan's flat write",
        "old": "np.arange(buf.shape[0])[:, None] * grid + offsets % grid",
        "new": "np.arange(buf.shape[0])[:, None] * grid + offsets",
        "kills": ["tests/test_gowers.py::test_fft_scan_matches_dense_oracle"],
    },
    {
        "file": "bohr.py",
        "drops": "the bounds of a spec that mixes frequency 1 with another",
        "old": "        if b < q // 2:\n",
        "new": "        if b < q // 2 and 1 not in spec.theta:\n",
        "kills": ["tests/test_bohr.py::test_enumeration_matches_oracle_random"],
    },
    {
        "file": "bohr.py",
        "drops": "the carry of a doubled residue that reaches q exactly",
        "old": "np.subtract(x, q * (x >= q), out=x)",
        "new": "np.subtract(x, q * (x > q), out=x)",
        "kills": ["tests/test_bohr.py::test_residues_match_python_ints"],
    },
    {
        "file": "bohr.py",
        "drops": "the tie of a frequency's bound floor(eps q)",
        "old": "        b = en * q // ed\n",
        "new": "        b = en * q // ed - 1\n",
        "kills": [
            "tests/test_bohr.py::test_enumeration_matches_oracle_random",
            "tests/test_bohr.py::test_membership_matches_oracle_at_edge_denominators",
        ],
    },
    {
        "file": "bohr.py",
        "drops": "the first residue of a run at its first candidate",
        "old": "r[0] = int(ns[0]) * p % q",
        "new": "r[0] = (int(ns[0]) + 1) * p % q",
        "kills": [
            "tests/test_bohr.py::test_residues_match_python_ints",
            "tests/test_bohr.py::test_membership_matches_oracle_at_edge_denominators",
        ],
    },
    {
        "file": "bohr.py",
        "drops": "the radius test of a candidate at the int64 minimum",
        "old": "keep = (ns >= max(-m, INT64_MIN)) & (ns <= min(m, INT64_MAX))",
        "new": "keep = np.abs(ns) <= min(m, INT64_MAX)",
        "kills": [
            "tests/test_bohr.py::test_membership_mask_at_the_int64_ends[one-integral]",
            "tests/test_bohr.py::test_membership_mask_at_the_int64_ends[big-half]",
        ],
    },
    {
        "file": "bohr.py",
        "drops": "the budget rule's allowance of a total exactly at the budget",
        "old": "    if spent > budget:\n        raise BudgetExceeded(",
        "new": "    if spent >= budget:\n        raise BudgetExceeded(",
        "kills": [
            "tests/test_bohr.py::test_enumeration_budget",
            "tests/test_bohr.py::test_translate_counts_budget_boundary",
            "tests/test_gowers.py::test_u2_budget_edge[direct]",
            "tests/test_gowers.py::test_u2_budget_edge[correlation]",
            "tests/test_gowers.py::test_scan_budget_edge[64]",
            "tests/test_gowers.py::test_grid_maxima_meter_each_chunk",
            "tests/test_patterns.py::test_extent_search_budget_edges",
            "tests/test_patterns.py::test_counts_charge_the_tuple_space",
        ],
    },
    {
        "file": "patterns.py",
        "drops": "the charge of a count's whole tuple space before it runs",
        "old": '    charge("counting", "operations", cost, budget)\n',
        "new": "",
        "kills": ["tests/test_patterns.py::test_counts_charge_the_tuple_space"],
    },
    {
        "file": "patterns.py",
        "drops": "the one unit of an exact count: words read, its tuple space not charged",
        "old": "    a, ns, cost = _tuple_space(base, inners)\n    bs = sorted_distinct(a)\n",
        "new": (
            "    a, ns, cost = _tuple_space(base, inners)\n"
            '    charge("counting", "operations", cost, budget)\n'
            "    bs = sorted_distinct(a)\n"
        ),
        "kills": ["tests/test_patterns.py::test_counts_charge_the_tuple_space"],
    },
    {
        "file": "patterns.py",
        "drops": "the bit order of a packed bitset",
        "old": 'np.packbits(bits, bitorder="little")',
        "new": 'np.packbits(bits, bitorder="big")',
        "kills": [
            "tests/test_patterns.py::test_pack_matches_literal_shifts",
            "tests/test_increment.py::test_run_practical_finds_configuration",
        ],
    },
    {
        "file": "bohr.py",
        "drops": "the ambient set as the denominator of a density",
        "old": "    return Fraction(int(np.count_nonzero(hit)), int(ambient.size))\n",
        "new": "    return Fraction(int(np.count_nonzero(hit)), int(large.size))\n",
        "kills": [
            "tests/test_bohr.py::test_exact_density_matches_set_oracle",
            "tests/test_bohr.py::test_exact_density_looks_the_smaller_side_up",
        ],
    },
    {
        "file": "cli.py",
        "drops": "the negative exit code of a search that finds nothing",
        "old": '"none": EXIT_NEGATIVE',
        "new": '"none": EXIT_OK',
        "kills": ["tests/test_cli.py::test_patterns_find_none"],
    },
    {
        "file": "exact.py",
        "drops": "the refusal of a bool as a rational",
        "old": '    if isinstance(x, bool):\n        raise TypeError("bool is not a rational")\n',
        "new": "",
        "kills": ["tests/test_exact.py::test_as_rational_rejects_floats_and_bools"],
    },
    {
        "file": "patterns.py",
        "drops": "the offset of a random set's chunk: draw i of a chunk at lo decides lo + i + 1",
        "old": "        kept.append(np.flatnonzero(draws < cut) + (lo + 1))\n",
        "new": "        kept.append(np.flatnonzero(draws < cut) + lo)\n",
        "kills": [
            "tests/test_patterns.py::test_random_set_is_the_literal_stream",
            "tests/test_patterns.py::test_random_set_is_the_literal_stream_across_chunks[262145]",
        ],
    },
    {
        "file": "patterns.py",
        "drops": "the stream position handed from random.Random to numpy's MT19937",
        "old": '"pos": state[-1]}',
        "new": '"pos": 0}',
        "kills": [
            "tests/test_patterns.py::test_random_set_is_the_literal_stream",
            "tests/test_cli_pinned.py::test_cli_bytes_pinned[gen-random]",
        ],
    },
    {
        "file": "patterns.py",
        "drops": "the value N itself in a Behrend digit block pruned past N",
        "old": "            fits = vals <= N\n",
        "new": "            fits = vals < N\n",
        "kills": ["tests/test_patterns.py::test_behrend_matches_literal_sweep[below-400]"],
    },
    {
        "file": "patterns.py",
        "drops": "the run test before a counting factor is spread by a sliding view",
        "old": "run = np.array_equal(qidx, np.arange(sizes[i])[:, None] + np.arange(sizes[k]))",
        "new": "run = q.size == sizes[i] + sizes[k] - 1",
        "kills": ["tests/test_patterns.py::test_count_T_s_matches_dense_oracle"],
    },
    {
        "file": "patterns.py",
        "drops": "the diagonal factor f_kk of each counting step",
        "old": (
            "            ops.append(family.get(k + 1, k + 1)"
            ".gather(chunk[:, None] + 2 * ns[k][None, :]))\n"
            '            subs.append("a" + _AXES[k + 1])\n'
        ),
        "new": "",
        "kills": ["tests/test_patterns.py::test_count_T_s_matches_dense_oracle"],
    },
    {
        "file": "patterns.py",
        "drops": "the end of a counting chunk, one base point too far",
        "old": "        chunk = a[lo : lo + step]\n",
        "new": "        chunk = a[lo : lo + step + 1]\n",
        "kills": [
            "tests/test_patterns.py::test_count_T_s_matches_dense_oracle",
            "tests/test_patterns.py::test_count_T_s_memory_stays_chunked",
        ],
    },
    {
        "file": "patterns.py",
        "drops": "the running sum's width in the counting chunk rule",
        "old": "max(math.prod(sizes[:-1]), *(sizes[i] * sizes[k] for i, k in spread))",
        "new": "max(sizes[i] * sizes[k] for i, k in spread)",
        "kills": ["tests/test_patterns.py::test_count_T_s_memory_stays_chunked"],
    },
    {
        "file": "increment.py",
        "drops": "the complaint, not an error, of a recheck whose start window passes the budget",
        "old": "    except BudgetExceeded as exc:\n        return [f\"start window",
        "new": "    except ZeroDivisionError as exc:\n        return [f\"start window",
        "kills": [
            "tests/test_increment.py::test_recheck_of_a_window_past_the_budget_is_a_complaint"
        ],
    },
    {
        "file": "patterns.py",
        "drops": "the dichotomy's containment of a doubled translate as a full count",
        "old": "(held == offsets.size) & (counts >= need)",
        "new": "(held >= offsets.size - 1) & (counts >= need)",
        "kills": [
            "tests/test_patterns.py::test_dichotomy_local_increment_branch",
            "tests/test_increment.py::test_recheck_accepts_hand_built_local_increment_record",
            "tests/test_increment.py::test_step_record_report_forms_are_pinned[local-increment]",
        ],
    },
    {
        "file": "increment.py",
        "drops": "the refined pass's containment of a translate as a full count",
        "old": "np.where(held == full, c, -1)",
        "new": "np.where(held > 0, c, -1)",
        "kills": [
            "tests/test_increment.py::test_fourier_increment_refined_translate_stays_in_the_base",
        ],
    },
    {
        "file": "increment.py",
        "drops": "the plain scan's count of the subset, not the base",
        "old": "translate_counts((subset_sorted,), shrunk.elements, n1, budget=budget)",
        "new": "translate_counts((base.elements,), shrunk.elements, n1, budget=budget)",
        "kills": [
            "tests/test_increment.py::test_fourier_increment_translate_pick_is_the_literal_rule",
            "tests/test_increment.py::test_fourier_increment_refined_parity_example",
            "tests/test_increment.py::test_run_takes_both_transitions[fourier]",
        ],
    },
    {
        "file": "increment.py",
        "drops": "the check of a refined increment against its guaranteed bound",
        "old": "            if guar > 0:\n",
        "new": "            if False:\n",
        "kills": ["tests/test_increment.py::test_fourier_increment_asserts_its_guaranteed_bound"],
    },
    {
        "file": "reports.py",
        "drops": "the 12-digit rounding of a float in a report",
        "old": '        return float(f"{obj:.12g}")\n',
        "new": "        return obj\n",
        "kills": ["tests/test_reports.py::test_normalize_floats_to_twelve_digits"],
    },
    {
        "file": "sumfree.py",
        "drops": "the second count of the Freiman check: distinct image sums across runs",
        "old": "    return sorted_distinct(run_imgs).size == run_imgs.size\n",
        "new": "    return True\n",
        "kills": [
            "tests/test_sumfree.py::test_freiman_frozen_examples",
            "tests/test_sumfree.py::test_freiman_matches_quadruple_oracle",
        ],
    },
    {
        "file": "sumfree.py",
        "drops": "the configuration search on the input rather than on its embedded image",
        "old": "    direct = find_configuration(arr, h, budget=budget)\n",
        "new": (
            '    image = np.sort(emb.map.images) if emb.status == "ok" else arr\n'
            "    direct = find_configuration(image, h, budget=budget)\n"
        ),
        "kills": [
            "tests/test_sumfree.py::test_embedding_search_answers_as_the_direct_search[interval.N30]",
            "tests/test_sumfree.py::test_embedding_search_answers_as_the_direct_search[interval.N60]",
        ],
    },
    {
        "file": "patterns.py",
        "drops": "the element walk's cut off by one: a choice needs need - 1 partners, not need",
        "old": "            if size >= need - 1:\n",
        "new": "            if size >= need:\n",
        "kills": [
            "tests/test_sumfree.py::test_find_sumfree_cuts_by_cardinality",
            "tests/test_patterns.py::test_element_walk_matches_replay",
        ],
    },
    {
        "file": "patterns.py",
        "drops": "the element walk's last choice with exactly as many candidates left as needed",
        "old": "        while left >= need:\n",
        "new": "        while left > need:\n",
        "kills": [
            "tests/test_sumfree.py::test_find_sumfree_cuts_by_cardinality",
            "tests/test_patterns.py::test_extent_search_matches_combinations_oracle",
        ],
    },
    {
        "file": "patterns.py",
        "drops": "the ranks strictly above each row of a block of rank rows",
        "old": "        upper = np.arange(i + 1, xs.size) > np.arange(i, stop)[:, None]",
        "new": "        upper = np.arange(i + 1, xs.size) >= np.arange(i, stop)[:, None]",
        "kills": [
            "tests/test_patterns.py::test_block_rows_match_rows_built_alone",
            "tests/test_patterns.py::test_extent_search_none_on_behrend_million",
        ],
    },
    {
        "file": "patterns.py",
        "drops": "the budget's cap on the lookups of a block of rank rows",
        "old": "min(chunk_rows(width), width, 1 + run, 1 + (self.budget - self.work) // width)",
        "new": "min(chunk_rows(width), width, 1 + run)",
        "kills": ["tests/test_patterns.py::test_rank_row_blocks_are_bounded"],
    },
    {
        "file": "patterns.py",
        "drops": "the cap of a block of rank rows at the run of rows read right below it",
        "old": "min(chunk_rows(width), width, 1 + run, 1 + (self.budget - self.work) // width)",
        "new": "min(chunk_rows(width), width, 1 + (self.budget - self.work) // width)",
        "kills": ["tests/test_patterns.py::test_rank_row_blocks_are_bounded"],
    },
    {
        "file": "sumfree.py",
        "drops": "the sumset, not the difference set, of a sparse domain in the sumset criterion",
        "old": "    sums = sorted_distinct(dom[iu] + dom[ju])\n",
        "new": "    sums = sorted_distinct(dom[iu] - dom[ju])\n",
        "kills": [
            "tests/test_sumfree.py::test_sumset_criterion_matches_partition_check",
            "tests/test_sumfree.py::test_sumset_criterion_draws_both_verdicts_on_both_spans",
        ],
    },
    {
        "file": "sumfree.py",
        "drops": "the sumset of a dense domain as copies shifted up, in the sumset criterion",
        "old": "            sums |= row << d\n",
        "new": "            sums |= row >> d\n",
        "kills": [
            "tests/test_sumfree.py::test_sumset_criterion_matches_partition_check",
            "tests/test_sumfree.py::test_sumset_criterion_draws_both_verdicts_on_both_spans",
        ],
    },
    {
        "file": "sumfree.py",
        "drops": "the reduction mod p of the sums before their residues are counted",
        "old": "        return int(np.bincount((offsets + 2 * lo) % p).max()) > 1\n",
        "new": "        return int(np.bincount(offsets + 2 * lo).max()) > 1\n",
        "kills": [
            "tests/test_sumfree.py::test_sumset_criterion_matches_partition_check",
            "tests/test_sumfree.py::test_sumset_criterion_draws_both_verdicts_on_both_spans",
        ],
    },
    {
        "file": "sumfree.py",
        "drops": "the sign test that makes a pair sum past int64 miss in the sumfree predicate",
        "old": "        looked &= ((above ^ sums) & (ys ^ sums)) >= 0\n",
        "new": "",
        "kills": ["tests/test_sumfree.py::test_sumfree_matches_literal_loop_near_int64_ends"],
    },
]


def _failed(report: Path) -> tuple[int, set[str]]:
    """The number of test cases in a pytest junit report, and the node ids
    of those that failed or raised."""
    cases = list(ET.parse(report).iter("testcase"))
    failed = {
        case.get("classname", "").replace(".", "/") + ".py::" + case.get("name", "")
        for case in cases
        if case.find("failure") is not None or case.find("error") is not None
    }
    return len(cases), failed


def run_mutant(root: Path, mutant: dict) -> dict:
    """Apply ``mutant`` to a fresh copy of the sources and run its ``kills``."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", "out")
        for part in ("src", "tests", "bench"):
            shutil.copytree(root / part, work / part, ignore=skip)
        shutil.copy(root / "pyproject.toml", work / "pyproject.toml")
        target = work / "src" / "bohrkit" / mutant["file"]
        text = target.read_text()
        if text.count(mutant["old"]) != 1:
            return {"status": "stale", "why": "anchor does not occur exactly once"}
        target.write_text(text.replace(mutant["old"], mutant["new"]))
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        report = work / "report.xml"
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             f"--junitxml={report}", *mutant["kills"]],
            cwd=work, env=env, capture_output=True, text=True,
        )
        ran, failed = _failed(report) if report.exists() else (0, set())
    if proc.returncode not in (0, 1) or ran != len(mutant["kills"]):
        why = f"pytest exit {proc.returncode}, {ran} of {len(mutant['kills'])} tests ran"
        return {"status": "error", "why": why}
    passed = [node for node in mutant["kills"] if node not in failed]
    return {"status": "survived" if len(passed) == ran else "killed", "passed": passed}


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parent.parent
    chosen = [m for m in MUTANTS if not argv or argv[0] in m["drops"]]
    summary: dict = {"killed": [], "survived": [], "error": [], "stale": []}
    for mutant in chosen:
        result = run_mutant(root, mutant)
        status = result.pop("status")
        if not result.get("passed"):
            result.pop("passed", None)
        summary[status].append({"file": mutant["file"], "drops": mutant["drops"], **result})
    summary["counts"] = {k: len(v) for k, v in summary.items()}
    print(json.dumps(summary, indent=2))
    return 0 if len(summary["killed"]) == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
