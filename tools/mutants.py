"""Run recorded mutants of the library against the tests that should catch them.

A mutant replaces one exact anchor text in one file under src/ by a
replacement, and names the test node ids that must fail while it is in
place. A full run copies src/ and tests/ to a temporary directory, runs
every listed test once on the unmutated copy (each must pass there), then
applies one mutant at a time, runs only that mutant's tests, and reports it:

    caught    every listed test fails
    survived  some listed test passes: a test is missing, so add one;
              never drop the mutant
    stale     the anchor no longer occurs exactly once in its file, or a
              listed test is no longer defined: update the entry

A pytest run that ends in a usage or collection error (a listed node id
that pytest cannot find, say) stops the whole run with pytest's output, so
it never counts as a passing or failing test.

Usage, from anywhere:

    python tools/mutants.py             # full run, one pytest process per mutant
    python tools/mutants.py --check     # anchors and test names only, no pytest

--check looks for each listed test's classes and function in its file but
not for a parametrize id such as ``[64]``; the full run's unmutated pass
finds a gone id.

The exit status is 0 when no mutant is stale and, on a full run, every one
is caught; 1 otherwise. Uses the standard library and pytest only.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600.0  # per pytest process; a mutant whose tests hang is caught


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the checkout root
    anchor: str  # occurs exactly once in the file
    replacement: str
    tests: tuple[str, ...]  # node ids, each of which must fail


CORE, HEBBIAN, GENERATOR = "src/assocmem/core.py", "src/assocmem/hebbian.py", "src/assocmem/generator.py"
ANALYSIS, FORMATS, QUANTUM = "src/assocmem/analysis.py", "src/assocmem/formats.py", "src/assocmem/quantum.py"
PACKAGE, CLI = "src/assocmem/__init__.py", "src/assocmem/cli.py"

# the spread's seed write and its block loop, which the seeds must precede
_SEED_WRITE = "    x[list(seed)] = list(seed.values())\n"
_SPREAD_BLOCKS = (
    "    rest = order.permutation[len(seed):]\n"
    "    blocks = [rest[k:k + _ROW_BLOCK] for k in range(0, rest.size, _ROW_BLOCK)]\n"
    "    steps: list[SpreadStep] = []\n"
    "    for block, (f0, couplings) in zip(blocks, _block_fields(w, x, blocks)):\n"
    "        c = couplings * _STRICTLY_LOWER[:block.size, :block.size]\n"
    "        h = f0\n"
    "        # round r leaves at least the first r values right: b rounds settle b values\n"
    "        for _ in range(block.size):\n"
    "            v = np.where(h >= 0, 1, -1)\n"
    "            h = f0 + c @ v\n"
    "            if not _unstable(h, v).any():\n"
    "                break\n"
    "        x[block] = v\n"
    "        steps += map(SpreadStep._make, zip(block.tolist(), h.tolist(), v.tolist()))\n"
)

MUTANTS = (
    # fields through the kept memories
    Mutant(
        "factor-fields-without-the-diagonal-term", CORE,
        "        fields -= len(x) * s\n", "",
        (
            "tests/test_fields.py::TestFieldOracle::test_stack_of_states_gives_each_row_its_fields",
        ),
    ),
    Mutant(
        "factor-kept-for-m-above-n", CORE,
        "if m < n and m * n <= FLOAT_EXACT_LIMIT else None", "if m > n and m * n <= FLOAT_EXACT_LIMIT else None",
        (
            "tests/test_fields.py::TestFactorRegistry::test_no_factor_when_m_is_not_below_n",
            "tests/test_fields.py::TestFactorRegistry::test_trained_weights_take_the_factor",
        ),
    ),
    Mutant(
        "factor-kept-beyond-the-exact-limit", CORE,
        "if m < n and m * n <= FLOAT_EXACT_LIMIT else None", "if m < n else None",
        (
            "tests/test_fields.py::TestFactorRegistry::test_no_factor_beyond_the_exact_limit",
        ),
    ),
    Mutant(
        "factor-outlives-its-weights", CORE,
        "    weakref.finalize(arr, _TRUSTED.pop, id(arr), None)\n",
        "    if _TRUSTED[id(arr)] is None:\n        weakref.finalize(arr, _TRUSTED.pop, id(arr), None)\n",
        (
            "tests/test_fields.py::TestFactorRegistry::test_entry_dies_with_its_weights",
        ),
    ),
    Mutant(
        "factor-kept-writeable", CORE,
        "_TRUSTED[id(arr)] = _frozen(memories) if", "_TRUSTED[id(arr)] = memories if",
        (
            "tests/test_fields.py::TestFactorRegistry::test_entry_dies_with_its_weights",
            "tests/test_hebbian.py::TestTrain::test_matches_the_int64_product",
        ),
    ),
    # one trust table: an entry dies with its array and answers only for its dtype
    Mutant(
        "trust-outlives-its-array", CORE,
        "    weakref.finalize(arr, _TRUSTED.pop, id(arr), None)\n", "",
        (
            "tests/test_core.py::TestTrust::test_a_dead_arrays_id_grants_no_trust",
            "tests/test_fields.py::TestFactorRegistry::test_entry_dies_with_its_weights",
        ),
    ),
    Mutant(
        "trust-ignores-the-dtype", CORE,
        "id(value) in _TRUSTED and value.dtype == dtype and", "id(value) in _TRUSTED and",
        (
            "tests/test_core.py::TestTrust::test_trust_is_kept_apart_per_kind",
        ),
    ),
    # a start set is checked once, by order_from_proximity or normalize_start, and a seed
    # meets an order only in spread_full
    Mutant(
        "order-start-set-unchecked", GENERATOR,
        "_order(p.shape[0], _start_neurons(start_set, p.shape[0]), p)", "_order(p.shape[0], list(start_set), p)",
        (
            "tests/test_generator.py::TestSpreadOrder::test_empty_start",
            "tests/test_generator.py::TestSpreadOrder::test_out_of_range",
            "tests/test_generator.py::TestSpreadOrder::test_out_of_range_start_names_the_neuron_1_based",
        ),
    ),
    Mutant(
        "explicit-order-not-compared-with-the-seed", GENERATOR,
        "    elif order.start_count != len(seed) or set(order.permutation[:len(seed)].tolist()) != seed.keys():\n"
        '        raise ParameterError("explicit order was built for a different start set")\n',
        "",
        (
            "tests/test_generator.py::TestSpreadFull::test_explicit_order_must_match_start",
            "tests/test_generator.py::TestSpreadFull::test_an_order_built_for_two_seeds_needs_both",
        ),
    ),
    Mutant(
        "seed-check-compares-only-the-count", GENERATOR,
        " or set(order.permutation[:len(seed)].tolist()) != seed.keys():", ":",
        (
            "tests/test_generator.py::TestSpreadFull::test_explicit_order_must_match_start",
        ),
    ),
    Mutant(
        "seed-check-reads-one-position-too-few", GENERATOR,
        "set(order.permutation[:len(seed)].tolist())", "set(order.permutation[:len(seed) - 1].tolist())",
        (
            "tests/test_generator.py::TestSpreadFull::test_an_order_built_for_two_seeds_needs_both",
        ),
    ),
    Mutant(
        "start-count-unbounded-above", GENERATOR,
        "        if count > perm.size:\n", "        if False:\n",
        (
            "tests/test_generator.py::TestSpreadOrder::test_explicit_order_is_validated",
        ),
    ),
    Mutant(
        "start-count-truncated", GENERATOR,
        'count = _whole(self.start_count, "start_count", 1,', 'count = _whole(int(self.start_count), "start_count", 1,',
        (
            "tests/test_integers.py::test_non_integers_are_refused[SpreadOrder start_count=1.5]",
            "tests/test_integers.py::test_non_integers_are_refused[SpreadOrder start_count=True]",
        ),
    ),
    # memories of any collection, an iterator included, are validated before anything asks their size
    Mutant(
        "memories-measured-before-validation", GENERATOR,
        "    mset = None if memories is None else _memory_set(memories)\n",
        "    mset = None if memories is None or not len(memories) else _memory_set(memories)\n",
        (
            "tests/test_generator.py::TestRetrieveReport::test_memories_of_any_collection",
        ),
    ),
    Mutant(
        "census-memories-measured-before-validation", ANALYSIS,
        "    mset = _memory_set(memories)\n", "    mset = _memory_set(memories) if len(memories) else None\n",
        (
            "tests/test_analysis.py::TestClassify::test_memories_of_any_collection",
        ),
    ),
    # capacity trials: memories from the generator's raw words, float32 up to 2**24,
    # and m I folded into the diagonal of the smaller Gram matrix
    Mutant(
        "capacity-draw-low-bit", ANALYSIS,
        "].reshape(m, n) >> 7)", "].reshape(m, n) & 1)",
        (
            "tests/test_analysis.py::TestCapacity::test_trial_matches_int64_oracle",
            "tests/test_golden.py::test_report_bytes[capacity_small.json]",
        ),
    ),
    Mutant(
        "capacity-draw-big-endian-words", ANALYSIS,
        '.astype("<u8", copy=False)', '.astype(">u8", copy=False)',
        (
            "tests/test_analysis.py::TestCapacity::test_draw_is_bit_7_of_the_generator_bytes[3-5-0]",
            "tests/test_analysis.py::TestCapacity::test_trial_matches_int64_oracle",
        ),
    ),
    Mutant(
        "capacity-fold-of-m-minus-1", ANALYSIS,
        "gram.flat[::len(gram) + 1] -= m\n", "gram.flat[::len(gram) + 1] -= m - 1\n",
        (
            "tests/test_analysis.py::TestCapacity::test_trial_matches_int64_oracle",
            "tests/test_golden.py::test_report_bytes[capacity_small.json]",
        ),
    ),
    Mutant(
        "capacity-fold-misses-the-diagonal", ANALYSIS,
        "gram.flat[::len(gram) + 1] -= m\n", "gram.flat[::len(gram)] -= m\n",
        (
            "tests/test_analysis.py::TestCapacity::test_trial_matches_int64_oracle",
            "tests/test_golden.py::test_report_bytes[capacity_m_over_n.json]",
        ),
    ),
    Mutant(
        "float32-limit-raised", CORE,
        "np.float32 if bound <= FLOAT32_EXACT_LIMIT", "np.float32 if bound <= 2 * FLOAT32_EXACT_LIMIT",
        (
            "tests/test_fields.py::TestExactFloat::test_float64_past_it",
        ),
    ),
    # training through float64 BLAS, one row block at a time
    Mutant(
        "train-block-narrower-than-its-stride", HEBBIAN,
        "        weights[i:i + _ROW_BLOCK] = x[:, i:i + _ROW_BLOCK].T @ x\n",
        "        weights[i:i + _ROW_BLOCK - 1] = x[:, i:i + _ROW_BLOCK - 1].T @ x\n",
        (
            "tests/test_hebbian.py::TestTrain::test_matches_the_int64_product",
        ),
    ),
    Mutant(
        "train-diagonal-left-unzeroed", HEBBIAN,
        "    np.fill_diagonal(weights, 0)\n", "",
        (
            "tests/test_hebbian.py::TestTrain::test_worked_example",
            "tests/test_hebbian.py::TestTrain::test_symmetric_zero_diagonal_bounded",
            "tests/test_hebbian.py::TestTrain::test_matches_the_int64_product",
        ),
    ),
    Mutant(
        "train-unblocked-plain-cast", HEBBIAN,
        "    weights = np.empty((n, n), dtype=np.int64)\n    for i in range(0, n, _ROW_BLOCK):\n"
        "        weights[i:i + _ROW_BLOCK] = x[:, i:i + _ROW_BLOCK].T @ x\n",
        "    weights = (x.T @ x).astype(np.int64)\n",
        (
            "tests/test_hebbian.py::TestTrain::test_peak_memory_is_the_matrix_and_one_row_block",
        ),
    ),
    # one field rule for every synchronous pass, and the trust check on the factor
    Mutant(
        "sync-field-of-the-old-state", HEBBIAN,
        "        h = _fields(w, nxt)\n", "        h = _fields(w, cur)\n",
        (
            "tests/test_fields.py::TestFactorRegistry::test_writeable_again_takes_the_int64_path",
            "tests/test_hebbian.py::TestRecallOracleCases::test_star_at_the_weight_limit",
            "tests/test_hebbian.py::TestRecallOracleCases::test_kept_memories_two_cycle",
        ),
    ),
    Mutant(
        "factor-without-trust-check", CORE,
        "return _TRUSTED[id(w)] if _trusted(w, np.int64) else None", "return _TRUSTED.get(id(w))",
        (
            "tests/test_fields.py::TestFactorRegistry::test_writeable_again_takes_the_int64_path",
        ),
    ),
    # asynchronous recall reads the half fields as they change
    Mutant(
        "async-reads-a-pass-snapshot", HEBBIAN,
        "        for i in next(orders).tolist():\n            gi = gv[i]\n",
        "        snapshot = g.tolist()\n        for i in next(orders).tolist():\n            gi = snapshot[i]\n",
        (
            "tests/test_hebbian.py::TestRecallOracleCases::test_kept_memories_flip_turns_a_later_field_over",
            "tests/test_hebbian.py::TestRecallAsync::test_worked_example_cyclic",
        ),
    ),
    # the spread's block sign solve
    Mutant(
        "block-mask-keeps-the-diagonal", GENERATOR,
        "np.tri(_ROW_BLOCK, k=-1, dtype=np.int64)", "np.tri(_ROW_BLOCK, k=0, dtype=np.int64)",
        (
            "tests/test_generator.py::TestSpreadOracle::test_blocks_match_reference[64]",
            "tests/test_generator.py::TestSpreadFull::test_worked_example_fields",
        ),
    ),
    Mutant(
        "block-stops-after-one-round", GENERATOR,
        "        for _ in range(block.size):\n", "        for _ in range(1):\n",
        (
            "tests/test_generator.py::TestSpreadOracle::test_antiferromagnetic_chain_settles_one_neuron_per_round",
        ),
    ),
    Mutant(
        "block-threshold-strict", GENERATOR,
        "            v = np.where(h >= 0, 1, -1)\n", "            v = np.where(h > 0, 1, -1)\n",
        (
            "tests/test_generator.py::TestSpreadFull::test_worked_example_fields",
            "tests/test_acceptance.py::test_criterion_1_worked_network",
        ),
    ),
    Mutant(
        "block-skips-the-q-update", CORE,
        "        q += xb @ s[block]\n", "",
        (
            "tests/test_generator.py::TestSpreadOracle::test_blocks_match_reference[130]",
            "tests/test_generator.py::TestSpreadOracle::test_blocks_match_reference[200]",
        ),
    ),
    Mutant(
        "block-full-size-mask", GENERATOR,
        "couplings * _STRICTLY_LOWER[:block.size, :block.size]", "couplings * _STRICTLY_LOWER",
        (
            "tests/test_generator.py::TestSpreadFull::test_fields_depend_only_on_already_assigned",
            "tests/test_generator.py::TestRetrieveReport::test_clean_retrieval",
        ),
    ),
    # documents through json's C encoder
    Mutant(
        "render-indent-one-space", FORMATS,
        '    inner = newline + "  "\n', '    inner = newline + " "\n',
        (
            "tests/test_formats.py::TestRenderDocument::test_golden_documents_re_render_to_their_bytes[line_weights.json]",
            "tests/test_formats.py::TestRenderDocument::test_subclasses_render_as_their_base_types",
        ),
    ),
    Mutant(
        "render-keeps-the-closing-bracket", FORMATS,
        ".encode(obj)[1:-1]", ".encode(obj)[1:]",
        (
            "tests/test_cli.py::TestRecall::test_synchronous_fixed_point",
            "tests/test_formats.py::TestRenderDocument::test_golden_documents_re_render_to_their_bytes[line_weights.json]",
        ),
    ),
    Mutant(
        "render-key-slice-off-by-one", FORMATS,
        "_ENCODE({key: 0})[1:-4]", "_ENCODE({key: 0})[1:-3]",
        (
            "tests/test_cli.py::TestFixedPoints::test_census",
        ),
    ),
    Mutant(
        "render-keys-through-str", FORMATS,
        "_ENCODE({key: 0})[1:-4]", "_ENCODE(str(key))",
        (
            "tests/test_formats.py::TestRenderDocument::test_matches_indented_dumps",
        ),
    ),
    Mutant(
        "render-every-container-as-scalars", FORMATS,
        "    if not any(issubclass(kind, _CONTAINERS) for kind in set(map(type, items))):\n",
        "    if True:\n",
        (
            "tests/test_formats.py::TestRenderDocument::test_golden_documents_re_render_to_their_bytes[recall_worked_sync.json]",
        ),
    ),
    Mutant(
        "render-exact-types-only", FORMATS,
        "issubclass(kind, _CONTAINERS)", "kind in _CONTAINERS",
        (
            "tests/test_formats.py::TestRenderDocument::test_subclasses_render_as_their_base_types",
        ),
    ),
    # one split per file line
    Mutant(
        "distance-line-without-the-finiteness-sum", FORMATS,
        "return row if min(row) >= 0 and sum(row) < math.inf else None",
        "return row if min(row) >= 0 else None",
        (
            "tests/test_formats.py::TestParseProximity::test_non_finite_token[inf]",
            "tests/test_formats.py::TestParseProximity::test_non_finite_token[nan]",
        ),
    ),
    Mutant(
        "distance-line-takes-negatives", FORMATS,
        "return row if min(row) >= 0 and sum(row) < math.inf else None",
        "return row if sum(row) < math.inf else None",
        (
            "tests/test_formats.py::TestParseProximity::test_negative_distance",
        ),
    ),
    Mutant(
        "distance-line-without-the-ascii-guard", FORMATS,
        '    if "_" in body or not body.isascii():\n', '    if "_" in body:\n',
        (
            "tests/test_formats.py::TestParseProximity::test_only_decimal_reals[\\u0661]",
        ),
    ),
    Mutant(
        "distance-line-without-the-underscore-guard", FORMATS,
        '    if "_" in body or not body.isascii():\n', "    if not body.isascii():\n",
        (
            "tests/test_formats.py::TestParseProximity::test_only_decimal_reals[1_0]",
        ),
    ),
    Mutant(
        "token-columns-0-based", FORMATS,
        'f"{path}:{lineno}:{m.start() + 1}"', 'f"{path}:{lineno}:{m.start()}"',
        (
            "tests/test_formats.py::TestParseMemories::test_bad_token_reports_line_and_column",
        ),
    ),
    Mutant(
        "unknown-memory-token-read-as-plus-one", FORMATS,
        "[_MEMORY_TOKENS[token] for token in body.split()]", "[_MEMORY_TOKENS.get(token, 1) for token in body.split()]",
        (
            "tests/test_cli.py::TestErrorChannels::test_parse_error",
            "tests/test_formats.py::TestParseMemories::test_bad_token_reports_line_and_column",
        ),
    ),
    Mutant(
        "bad-token-outranks-a-later-bad-byte", FORMATS,
        "raise _not_utf8(path) or exc from None", "raise exc from None",
        (
            "tests/test_formats.py::test_a_late_non_utf8_byte_outranks_an_early_bad_token[memories]",
            "tests/test_formats.py::test_a_late_non_utf8_byte_outranks_an_early_bad_token[proximity]",
            "tests/test_formats.py::TestParsersMatchTokenLoop::test_raw_bytes",
        ),
    ),
    # the one table reader's widths and fault order
    Mutant(
        "misfit-outranks-a-later-bad-token", FORMATS,
        "            misfit = lineno, len(row)\n",
        '            raise ParseError(f"{path}:{lineno}: row has {len(row)} entries, expected {width}")\n',
        (
            "tests/test_formats.py::TestParsersMatchTokenLoop::test_memories",
            "tests/test_formats.py::TestParsersMatchTokenLoop::test_proximity",
        ),
    ),
    Mutant(
        "misfit-keeps-the-last-row", FORMATS,
        "elif len(row) != width and misfit is None:", "elif len(row) != width:",
        (
            "tests/test_formats.py::TestParsersMatchTokenLoop::test_memories",
            "tests/test_formats.py::TestParsersMatchTokenLoop::test_proximity",
        ),
    ),
    Mutant(
        "width-from-every-row", FORMATS,
        "        if not lines:\n"
        "            width = len(row)\n"
        "        elif len(row) != width and misfit is None:\n"
        "            misfit = lineno, len(row)\n",
        "        if lines and len(row) != width and misfit is None:\n"
        "            misfit = lineno, len(row)\n"
        "        width = len(row)\n",
        (
            "tests/test_formats.py::TestParsersMatchTokenLoop::test_memories",
            "tests/test_formats.py::TestParsersMatchTokenLoop::test_proximity",
        ),
    ),
    # an empty file has no misfit row, so no test could tell the empty check moved after
    # the misfit's; this mutant drops it, leaving an empty file to the checks that follow
    Mutant(
        "empty-file-left-to-later-checks", FORMATS,
        '    if not lines:\n        raise ParseError(f"{path}:1: no {what} found")\n', "",
        (
            "tests/test_formats.py::TestParsersMatchTokenLoop::test_memories",
            "tests/test_formats.py::TestParsersMatchTokenLoop::test_proximity",
        ),
    ),
    Mutant(
        "proximity-rows-held-as-python-floats", FORMATS,
        'matrix = np.frombuffer(values, dtype=np.float64).reshape(width, width)',
        'matrix = np.array([values[i:i + width].tolist() for i in range(0, len(values), width)])',
        (
            "tests/test_formats.py::TestParseProximity::test_peak_memory_is_near_the_matrix",
        ),
    ),
    Mutant(
        "line-value-error-not-caught", FORMATS,
        "        except (KeyError, ValueError):\n", "        except KeyError:\n",
        (
            "tests/test_formats.py::TestParseProximity::test_bad_token",
        ),
    ),
    Mutant(
        "blank-test-by-ascii-whitespace", FORMATS,
        "        if body and not body.isspace():\n", '        if body.strip(" \\t\\n\\r\\x0b\\x0c"):\n',
        (
            "tests/test_formats.py::TestParseMemories::test_whitespace_and_comment_lines_are_skipped",
        ),
    ),
    # the walker and the census of packed images
    Mutant(
        "walk-first-high-fields-for-all", ANALYSIS,
        "f_low + high", "f_low + f_high[0]",
        (
            "tests/test_analysis.py::TestEnumerate::test_matches_chunked_product[16]",
            "tests/test_analysis.py::TestWalk::test_blocks_cover_every_index_once_with_its_fields[16]",
        ),
    ),
    Mutant(
        "walk-block-first-unshifted", ANALYSIS,
        "yield h << _LOW_BITS,", "yield h,",
        (
            "tests/test_analysis.py::TestEnumerate::test_matches_chunked_product[15]",
            "tests/test_analysis.py::TestWalk::test_blocks_cover_every_index_once_with_its_fields[16]",
        ),
    ),
    Mutant(
        "half-table-signs-swapped", ANALYSIS,
        "np.stack([table - row, table + row], axis=1)", "np.stack([table + row, table - row], axis=1)",
        (
            "tests/test_analysis.py::TestEnumerate::test_worked_example_exact",
            "tests/test_analysis.py::TestEnumerate::test_matches_chunked_product[10]",
        ),
    ),
    Mutant(
        "half-table-new-neuron-as-msb", ANALYSIS,
        "np.stack([table - row, table + row], axis=1)", "np.stack([table - row, table + row], axis=0)",
        (
            "tests/test_analysis.py::TestEnumerate::test_worked_example_exact",
            "tests/test_analysis.py::TestEnumerate::test_matches_chunked_product[10]",
        ),
    ),
    Mutant(
        "half-table-int32", ANALYSIS,
        "    return table\n", "    return table.astype(np.int32)\n",
        (
            "tests/test_analysis.py::TestEnumerate::test_fields_at_the_weight_limit",
        ),
    ),
    Mutant(
        "census-image-tie-strict", ANALYSIS,
        "np.greater_equal(fields, 0, out=fields)", "np.greater(fields, 0, out=fields)",
        (
            "tests/test_analysis.py::TestEnumerate::test_zero_weights",
            "tests/test_analysis.py::TestEnumerate::test_matches_chunked_product[10]",
        ),
    ),
    Mutant(
        "census-own-index-off-by-one", ANALYSIS,
        "own = first + np.arange(len(fields))", "own = first + 1 + np.arange(len(fields))",
        (
            "tests/test_analysis.py::TestEnumerate::test_worked_example_exact",
            "tests/test_analysis.py::TestEnumerate::test_matches_chunked_product[10]",
        ),
    ),
    Mutant(
        "census-bit-order-reversed", ANALYSIS,
        "bits = 1 << np.arange(n - 1, -1, -1)", "bits = 1 << np.arange(n)",
        (
            "tests/test_analysis.py::TestEnumerate::test_worked_example_exact",
            "tests/test_analysis.py::TestEnumerate::test_matches_chunked_product[10]",
        ),
    ),
    Mutant(
        "census-index-bound-raised", ANALYSIS,
        "    if n > 63:\n", "    if n > 64:\n",
        (
            "tests/test_analysis.py::TestEnumerate::test_index_bound_refused_before_any_table[64]",
        ),
    ),
    Mutant(
        "stability-test-strict", CORE,
        "return (fields >= 0) != (states > 0)", "return (fields > 0) != (states > 0)",
        (
            "tests/test_analysis.py::TestComplementAsymmetry::test_zero_field_breaks_complements",
            "tests/test_hebbian.py::TestRecallAsync::test_zero_field_tie_keeps_energy_flat",
        ),
    ),
    Mutant(
        "amplitudes-overflow-warns", QUANTUM,
        '    with np.errstate(over="ignore"):', "    if True:",
        (
            "tests/test_quantum.py::TestAmplitudes::test_squares_beyond_float_range_are_refused_without_a_warning[amps0]",
            "tests/test_cli.py::TestCollapse::test_overflowing_amps_leave_only_the_refusal_on_stderr",
        ),
    ),
    # the one walk that decides and locates a proximity fault
    Mutant(
        "proximity-count-term-dropped", CORE,
        "    if np.count_nonzero(arr <= 0) != np.count_nonzero(diag <= 0):\n", "    if False:\n",
        (
            "tests/test_core.py::TestProximityValidation::test_zero_off_diagonal_rejected",
        ),
    ),
    Mutant(
        "proximity-mirror-gap-strict", CORE,
        "gap.max() <= PROXIMITY_TOL", "gap.max() < PROXIMITY_TOL",
        (
            "tests/test_core.py::TestProximityValidation::test_faults_at_the_tolerance_are_accepted",
        ),
    ),
    Mutant(
        "proximity-diagonal-strict", CORE,
        "np.abs(diag) > PROXIMITY_TOL", "np.abs(diag) >= PROXIMITY_TOL",
        (
            "tests/test_core.py::TestProximityValidation::test_faults_at_the_tolerance_are_accepted",
            "tests/test_generator.py::TestOrderOracle::test_builders_match_reference",
        ),
    ),
    Mutant(
        "proximity-last-row-block-skipped", CORE,
        "for i in range(0, arr.shape[0], _ROW_BLOCK):", "for i in range(0, arr.shape[0] - _ROW_BLOCK, _ROW_BLOCK):",
        (
            "tests/test_core.py::TestProximityValidation::test_asymmetry_in_the_last_row_block[2]",
            "tests/test_core.py::TestProximityValidation::test_asymmetry_in_the_last_row_block[130]",
            "tests/test_core.py::TestProximityValidation::test_asymmetry_in_the_last_row_block[200]",
        ),
    ),
    Mutant(
        "proximity-without-errstate", CORE,
        '    with np.errstate(invalid="ignore", over="ignore"):', "    if True:",
        (
            "tests/test_core.py::TestProximityValidation::test_non_finite_entries_refused_without_a_warning[inf]",
            "tests/test_core.py::TestProximityValidation::test_overflowing_mirror_gap_refused_without_a_warning",
        ),
    ),
    Mutant(
        "proximity-overflow-warns", CORE,
        'np.errstate(invalid="ignore", over="ignore")', 'np.errstate(invalid="ignore")',
        (
            "tests/test_core.py::TestProximityValidation::test_overflowing_mirror_gap_refused_without_a_warning",
        ),
    ),
    Mutant(
        "proximity-fault-row-outside-its-block", CORE,
        "r, c = (i + int(k) for k in np.argwhere(", "r, c = (int(k) for k in np.argwhere(",
        (
            "tests/test_core.py::TestProximityValidation::test_first_fault_matches_full_matrix_reference",
            "tests/test_core.py::TestProximityValidation::test_asymmetry_in_the_last_row_block[130]",
        ),
    ),
    Mutant(
        "proximity-finite-check-skipped-on-a-failing-block", CORE,
        "                if not np.all(np.isfinite(arr)):\n"
        '                    return int(np.argwhere(~np.isfinite(arr))[0][0]), "proximity entries must be finite"\n',
        "",
        (
            "tests/test_core.py::TestProximityValidation::test_non_finite_entry_outranks_an_asymmetry_in_an_earlier_row_block",
            "tests/test_core.py::TestProximityValidation::test_non_finite_entries_refused_without_a_warning[nan]",
        ),
    ),
    Mutant(
        "empty-proximity-trusted", CORE,
        '    if arr.shape[0] < 1:\n        raise ValidationError("proximity matrix needs at least one neuron")\n', "",
        (
            "tests/test_core.py::TestProximityValidation::test_empty_matrix_refused[validate_proximity]",
            "tests/test_core.py::TestProximityValidation::test_empty_matrix_refused[order_from_proximity]",
            "tests/test_core.py::TestProximityValidation::test_empty_matrix_refused[spread_full]",
        ),
    ),
    Mutant(
        "validate-proximity-without-its-copy", CORE,
        "_trust(arr.copy())", "_trust(arr)",
        (
            "tests/test_generator.py::TestSpreadFull::test_raw_proximity_is_checked_once_and_neither_copied_nor_trusted",
        ),
    ),
    Mutant(
        "checked-proximity-copies-and-trusts", CORE,
        "    return arr\n\n\ndef validate_proximity", "    return _trust(arr.copy())\n\n\ndef validate_proximity",
        (
            "tests/test_generator.py::TestSpreadFull::test_raw_proximity_is_not_copied",
        ),
    ),
    Mutant(
        "spread-checks-a-copy-again", GENERATOR,
        "        proximity = _checked_proximity(proximity)\n",
        "        proximity = _checked_proximity(_checked_proximity(proximity).copy())\n",
        (
            "tests/test_core.py::TestTrust::test_spread_validates_a_parsed_proximity_once",
        ),
    ),
    Mutant(
        "spread-steps-as-plain-tuples", GENERATOR,
        "steps += map(SpreadStep._make, zip(block.tolist(), h.tolist(), v.tolist()))",
        "steps += zip(block.tolist(), h.tolist(), v.tolist())",
        (
            "tests/test_generator.py::TestSpreadFull::test_steps_are_immutable_records",
        ),
    ),
    # memory sets checked row by row; no float boundary casts a non-real array
    Mutant(
        "memory-rows-stacked-unchecked", CORE,
        "np.stack([as_bipolar(r) for r in rows])", "np.stack(rows)",
        (
            "tests/test_core.py::TestMemoryValidation::test_first_bad_entry_in_a_later_memory",
            "tests/test_core.py::TestMemoryValidation::test_odd_input[float rows]",
            "tests/test_core.py::TestMemoryValidation::test_odd_input[bool row]",
        ),
    ),
    Mutant(
        "proximity-cast-without-the-numeric-check", CORE,
        '    _numeric(arr, "proximity entries")\n', "",
        (
            "tests/test_core.py::TestProximityValidation::test_non_real_entries_refused[complex-validate_proximity]",
            "tests/test_core.py::TestProximityValidation::test_non_real_entries_refused[bool-spread_full]",
            "tests/test_core.py::TestProximityValidation::test_non_real_entries_refused[string-order_from_proximity]",
        ),
    ),
    # the spread over silent neurons
    Mutant(
        "spread-silent-neurons-at-plus-one", GENERATOR,
        "    x = np.zeros(n, dtype=np.int64)\n", "    x = np.ones(n, dtype=np.int64)\n",
        (
            "tests/test_generator.py::TestSpreadFull::test_worked_example_fields",
            "tests/test_generator.py::TestSpreadOracle::test_blocks_match_reference[64]",
            "tests/test_golden.py::test_report_bytes[spread_line_index.json]",
        ),
    ),
    Mutant(
        "spread-seeds-written-after-the-blocks", GENERATOR,
        _SEED_WRITE + _SPREAD_BLOCKS, _SPREAD_BLOCKS + _SEED_WRITE,
        (
            "tests/test_generator.py::TestSpreadFull::test_worked_example_fields",
            "tests/test_generator.py::TestSpreadOracle::test_blocks_match_reference[64]",
            "tests/test_golden.py::test_report_bytes[spread_line_index.json]",
        ),
    ),
    # one integer rule: int() truncates a float and parses a string, and must not come back
    Mutant(
        "capacity-m-through-int", ANALYSIS,
        '_whole(m, "m", 1,', '_whole(int(m), "m", 1,',
        (
            "tests/test_integers.py::test_non_integers_are_refused[capacity_experiment m=1.5]",
            "tests/test_integers.py::test_non_integers_are_refused[capacity_experiment m='3']",
        ),
    ),
    Mutant(
        "capacity-seed-through-int", ANALYSIS,
        "    seed = _seed(seed)\n", "    seed = _seed(int(seed))\n",
        (
            "tests/test_integers.py::test_non_integers_are_refused[capacity_experiment seed=1.5]",
            "tests/test_integers.py::test_non_integers_are_refused[capacity_experiment seed='3']",
        ),
    ),
    Mutant(
        "sample-count-through-int", QUANTUM,
        '_whole(count, "count", 1,', '_whole(int(count), "count", 1,',
        (
            "tests/test_integers.py::test_non_integers_are_refused[collapse_sample count=1.5]",
        ),
    ),
    Mutant(
        "n-levels-through-int", QUANTUM,
        '_whole(n_levels, "n_levels", 1,', '_whole(int(n_levels), "n_levels", 1,',
        (
            "tests/test_integers.py::test_non_integers_are_refused[reorg_count=1.5]",
            "tests/test_integers.py::test_non_integers_are_refused[enumerate_reorganizations=1.5]",
        ),
    ),
    Mutant(
        "sample-seed-through-int", QUANTUM,
        "    seed = _seed(seed)\n", "    seed = _seed(int(seed))\n",
        (
            "tests/test_integers.py::test_non_integers_are_refused[collapse_sample seed=1.5]",
            "tests/test_integers.py::test_non_integers_are_refused[collapse_as_selection seed=1.5]",
        ),
    ),
    Mutant(
        "schedule-seed-through-int", HEBBIAN,
        "np.random.default_rng(_seed(seed))", "np.random.default_rng(_seed(int(seed)))",
        (
            "tests/test_integers.py::test_non_integers_are_refused[recall_async seed=1.5]",
        ),
    ),
    Mutant(
        "max-passes-through-int", HEBBIAN,
        '_whole(max_passes, "max_passes", 1,', '_whole(int(max_passes), "max_passes", 1,',
        (
            "tests/test_integers.py::test_non_integers_are_refused[recall_async max_passes=1.5]",
            "tests/test_integers.py::test_non_integers_are_refused[recall_sync_iterated max_passes=1.5]",
        ),
    ),
    Mutant(
        "start-neuron-through-int", CORE,
        "        i = _integer(index)\n", "        i = int(index)\n",
        (
            "tests/test_integers.py::test_non_integers_are_refused[normalize_start index=1.5]",
            "tests/test_integers.py::test_non_integers_are_refused[spread_full start=1.5]",
        ),
    ),
    # a bool is no integer, though numpy and operator.index take True as 1
    Mutant(
        "bool-taken-as-an-integer", CORE,
        '    if isinstance(value, bool):\n        raise TypeError("a bool is not an integer")\n', "",
        (
            "tests/test_integers.py::test_non_integers_are_refused[recall_async max_passes=True]",
            "tests/test_integers.py::test_non_integers_are_refused[spread_full start=True]",
            "tests/test_integers.py::test_non_integers_are_refused[capacity_experiment m=True]",
        ),
    ),
    Mutant(
        "bool-in-an-index-list-taken", CORE,
        "    arr = _array(values)\n    if arr.size", "    arr = np.asarray(values)\n    if arr.size",
        (
            "tests/test_integers.py::test_a_bool_that_completes_a_permutation_is_refused[schedule]",
            "tests/test_integers.py::test_a_bool_that_completes_a_permutation_is_refused[numpy bool in a schedule tuple]",
            "tests/test_integers.py::test_a_bool_that_completes_a_permutation_is_refused[spread order]",
        ),
    ),
    Mutant(
        "bool-refusal-skipped-for-nested-lists", CORE,
        "np.asarray(values, dtype=object).ravel()", "np.asarray(values, dtype=object)",
        (
            "tests/test_core.py::test_a_bool_inside_a_list_is_refused[validate_weights]",
            "tests/test_core.py::test_a_bool_inside_a_list_is_refused[validate_proximity]",
            "tests/test_core.py::test_a_bool_inside_a_list_is_refused[a bool array in a list of weights]",
            "tests/test_cli.py::TestErrorChannels::test_a_bool_among_the_weights_is_a_parse_error[true]",
        ),
    ),
    Mutant(
        "weights-document-never-searched-for-a-bool", FORMATS,
        'doc["weights"] if "true" in text or "false" in text else', 'doc["weights"] if False else',
        (
            "tests/test_cli.py::TestErrorChannels::test_a_bool_among_the_weights_is_a_parse_error[true]",
            "tests/test_cli.py::TestErrorChannels::test_a_bool_among_the_weights_is_a_parse_error[false]",
        ),
    ),
    Mutant(
        "bool-start-value-taken", CORE,
        "spin = _integer(val)", "spin = operator.index(val)",
        (
            "tests/test_core.py::TestNormalizeStart::test_bool_value_is_refused[True]",
        ),
    ),
    Mutant(
        "whole-float-start-value-taken", CORE,
        "spin = _integer(val)", "spin = val if isinstance(val, float) else _integer(val)",
        (
            "tests/test_core.py::TestNormalizeStart::test_bool_value_is_refused[1.0]",
            "tests/test_core.py::TestNormalizeStart::test_bool_value_is_refused[-1.0]",
        ),
    ),
    Mutant(
        "index-array-cast-to-int64", CORE,
        "    arr = _array(values)\n    if arr.size", "    arr = np.asarray(values, dtype=np.int64)\n    if arr.size",
        (
            "tests/test_integers.py::test_float_schedule_is_refused_even_when_whole[schedule1]",
            "tests/test_integers.py::test_float_spread_order_is_refused_even_when_whole",
        ),
    ),
    Mutant(
        "thread-pool-imported-at-start-up", ANALYSIS,
        "import math\nimport os\n", "import math\nimport os\nfrom concurrent.futures import ThreadPoolExecutor\n",
        (
            "tests/test_cli.py::TestStartup::test_import_leaves_the_thread_pool_out",
        ),
    ),
    # one table of public names, each module loaded on first use
    Mutant(
        "cli-imports-every-module-at-start-up", CLI,
        "from . import formats\n", "from . import analysis, formats, generator, hebbian, quantum\n",
        (
            "tests/test_package.py::test_command_loads_only_its_module[train]",
            "tests/test_package.py::test_command_loads_only_its_module[collapse]",
            "tests/test_package.py::test_command_loads_only_its_module[--version]",
        ),
    ),
    Mutant(
        "public-name-under-the-wrong-module", PACKAGE,
        # hebbian imports validate_weights too, so the name still resolves to the same object
        '        "validate_weights",\n    ),\n    "hebbian": (\n', '    ),\n    "hebbian": (\n        "validate_weights",\n',
        (
            "tests/test_package.py::test_each_name_loads_only_its_module_and_is_its_object",
        ),
    ),
    # one statement of each rule: the runner each subparser names, and the refusals
    # of the weights document and the start pairs
    Mutant(
        "cli-command-wired-to-another-runner", CLI,
        "    collapse.set_defaults(run=_run_collapse)\n", "    collapse.set_defaults(run=_run_capacity)\n",
        (
            "tests/test_cli.py::TestCollapse::test_sampling_report",
            "tests/test_golden.py::test_report_bytes[collapse_count_levels.json]",
        ),
    ),
    Mutant(
        "weights-decode-error-escapes", FORMATS,
        "    except UnicodeDecodeError:\n        raise _not_utf8(p) from None\n", "",
        (
            "tests/test_cli.py::TestErrorChannels::test_unreadable_weights_are_a_parse_error[not-utf8]",
        ),
    ),
    Mutant(
        "weights-deep-nesting-escapes", FORMATS,
        "    except RecursionError:\n", "    except ArithmeticError:\n",
        (
            "tests/test_cli.py::TestErrorChannels::test_unreadable_weights_are_a_parse_error[nesting]",
        ),
    ),
    Mutant(
        "weights-long-number-escapes", FORMATS,
        "    except ValueError:  # an integer beyond", "    except ArithmeticError:  # an integer beyond",
        (
            "tests/test_cli.py::TestErrorChannels::test_unreadable_weights_are_a_parse_error[number]",
        ),
    ),
    Mutant(
        "weights-declared-n-compared-by-value", FORMATS,
        "(type(declared) is not int or declared != weights.shape[0])", "declared != weights.shape[0]",
        (
            "tests/test_formats.py::TestWeightsDocuments::test_declared_n_is_not_cast[2.0]",
            "tests/test_formats.py::TestWeightsDocuments::test_declared_n_is_not_cast[True]",
        ),
    ),
    Mutant(
        "start-value-not-stripped", CLI,
        "(side.strip() for side in piece.split(\":\", 1))", "piece.split(\":\", 1)",
        (
            "tests/test_cli.py::TestSpread::test_spaces_around_either_side_of_a_start_pair[1: +1]",
            "tests/test_cli.py::TestSpread::test_spaces_around_either_side_of_a_start_pair[ 1 : +1 ]",
        ),
    ),
    # recorded with the changes that made them: the order builder and the asynchronous
    # recall's converged pass
    Mutant(
        "order-without-the-start-key", GENERATOR,
        "    key[start] = -np.inf\n", "",
        (
            "tests/test_generator.py::TestOrderOracle::test_builders_match_reference",
            "tests/test_generator.py::TestSpreadOrder::test_index_order",
            "tests/test_golden.py::test_report_bytes[spread_line_index.json]",
        ),
    ),
    Mutant(
        "order-sort-not-stable", GENERATOR,
        'np.argsort(key, kind="stable")', "np.argsort(key)",
        (
            "tests/test_generator.py::TestOrderOracle::test_builders_match_reference",
            "tests/test_golden.py::test_report_bytes[spread_line_proximity.json]",
        ),
    ),
    Mutant(
        "async-without-the-pre-pass-check", HEBBIAN,
        "        if not _unstable(g, x).any():\n"
        "            # no visit can flip a neuron: the pass only repeats the energy n times\n"
        "            trace.extend([ef] * n)\n            converged = True\n            break\n",
        "",
        (
            "tests/test_hebbian.py::TestRecallAsync::test_stored_memory_converges_immediately",
            "tests/test_hebbian.py::TestRecallOracleCases::test_explicit_schedule_confirms_after_flipping_passes",
            "tests/test_golden.py::test_report_bytes[recall_worked_async.json]",
        ),
    ),
    Mutant(
        "async-seed-with-any-schedule", HEBBIAN,
        '    if seed is not None and not (isinstance(schedule, str) and schedule == "random"):\n',
        "    if False:\n",
        (
            "tests/test_hebbian.py::TestRecallAsync::test_seed_that_determines_nothing_is_refused[cyclic]",
            "tests/test_hebbian.py::TestRecallAsync::test_seed_that_determines_nothing_is_refused[explicit]",
        ),
    ),
    Mutant(
        "async-schedule-compared-elementwise", HEBBIAN,
        '    if seed is not None and not (isinstance(schedule, str) and schedule == "random"):\n',
        '    if seed is not None and schedule != "random":\n',
        (
            "tests/test_hebbian.py::TestRecallAsync::test_seed_that_determines_nothing_is_refused[explicit-array]",
        ),
    ),
    Mutant(
        "async-converged-pass-trace-short", HEBBIAN,
        "trace.extend([ef] * n)", "trace.extend([ef] * (n - 1))",
        (
            "tests/test_hebbian.py::TestRecallOracleCases::test_trained_network_with_noisy_probes",
            "tests/test_golden.py::test_report_bytes[recall_zero_field_async_cyclic.json]",
        ),
    ),
    # the one loop over seeded trials: its spawn key, its dealing and the rows read from it
    Mutant(
        "sweep-spawn-key-reversed", ANALYSIS,
        "    entropy += [word for k in key for word in _words32(k)]\n"
        "    entropy.append(np.arange(trials, dtype=np.uint32))\n",
        "    entropy.append(np.arange(trials, dtype=np.uint32))\n"
        "    entropy += [word for k in key for word in _words32(k)]\n",
        (
            "tests/test_analysis.py::TestCapacity::test_trial_matches_int64_oracle",
            "tests/test_golden.py::test_report_bytes[capacity_small.json]",
        ),
    ),
    Mutant(
        "sweep-load-dropped-from-the-key", ANALYSIS,
        "_stream_words(seed, (load,), trials)", "_stream_words(seed, (), trials)",
        (
            "tests/test_analysis.py::TestCapacity::test_trial_matches_int64_oracle",
            "tests/test_golden.py::test_report_bytes[capacity_workers.json]",
        ),
    ),
    # the streams seeded in bulk: SeedSequence's pool, its output hash, and the one
    # request the seed wrapper answers
    Mutant(
        "stream-t-mixed-before-the-load", ANALYSIS,
        "    for word in entropy[4:]:\n", "    for word in entropy[:3:-1]:\n",
        (
            "tests/test_analysis.py::TestStreamWords::test_words_are_the_seed_sequence_state",
        ),
    ),
    Mutant(
        "stream-seed-words-not-padded", ANALYSIS,
        "    entropy += [0] * (4 - len(entropy))\n", "",
        (
            "tests/test_analysis.py::TestStreamWords::test_words_are_the_seed_sequence_state",
            "tests/test_analysis.py::TestStreamWords::test_first_draws_are_the_seed_sequence_stream[0-1-0]",
        ),
    ),
    Mutant(
        "stream-generate-state-constant-changed", ANALYSIS,
        "_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED", "_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DEF",
        (
            "tests/test_analysis.py::TestStreamWords::test_words_are_the_seed_sequence_state",
            "tests/test_golden.py::test_report_bytes[capacity_m_over_n.json]",
        ),
    ),
    Mutant(
        "stream-wrapper-answers-any-request", ANALYSIS,
        "        if n_words != 4 or np.dtype(dtype) != np.uint64:\n", "        if False:\n",
        (
            "tests/test_analysis.py::TestStreamWords::test_wrapper_answers_only_the_pcg64_request",
        ),
    ),
    Mutant(
        "capacity-trials-beyond-one-entropy-word", ANALYSIS,
        "    if trials > _TRIAL_LIMIT:\n", "    if trials > 2 * _TRIAL_LIMIT:\n",
        (
            "tests/test_analysis.py::TestStreamWords::test_trials_beyond_one_entropy_word_refused_before_the_sweep",
        ),
    ),
    Mutant(
        "capacity-trial-limit-refused-at-its-bound", ANALYSIS,
        "    if trials > _TRIAL_LIMIT:\n", "    if trials >= _TRIAL_LIMIT:\n",
        (
            "tests/test_analysis.py::TestStreamWords::test_trials_beyond_one_entropy_word_refused_before_the_sweep",
        ),
    ),
    Mutant(
        "sweep-share-skips-the-last-task", ANALYSIS,
        "range(first, tasks, threads)", "range(first, tasks - 1, threads)",
        (
            "tests/test_analysis.py::TestCapacity::test_trial_matches_int64_oracle",
            "tests/test_golden.py::test_report_bytes[capacity_m_over_n.json]",
        ),
    ),
    Mutant(
        "capacity-rows-paired-with-the-wrong-load", ANALYSIS,
        "zip(ms, counts)", "zip(ms, counts[::-1])",
        (
            "tests/test_analysis.py::TestCapacity::test_threshold_ratio",
            "tests/test_golden.py::test_report_bytes[capacity_small.json]",
        ),
    ),
    # an outcome of amplitude 0 gets no bin, and a census point is read as a state
    Mutant(
        "collapse-bins-every-outcome", QUANTUM,
        "    support = np.flatnonzero(amps)\n", "    support = np.arange(amps.size)\n",
        (
            "tests/test_quantum.py::TestCollapseSample::test_zero_amplitude_is_never_drawn",
        ),
    ),
    # a listed reorganization table is bounded, its count is not
    Mutant(
        "reorganization-listing-refused-at-its-bound", QUANTUM,
        "    if n > _LIST_LIMIT:\n", "    if n >= _LIST_LIMIT:\n",
        (
            "tests/test_quantum.py::TestEnumerateReorganizations::test_listing_is_bounded_at_512_levels",
        ),
    ),
    Mutant(
        "reorganization-listing-unbounded", QUANTUM,
        "    if n > _LIST_LIMIT:\n", "    if False:\n",
        (
            "tests/test_cli.py::TestCollapse::test_listed_levels_are_bounded",
        ),
    ),
    Mutant(
        "census-points-not-read-as-states", ANALYSIS,
        "points = [as_bipolar(p) for p in fixed_points]", "points = [np.asarray(p) for p in fixed_points]",
        (
            "tests/test_analysis.py::TestClassify::test_points_are_read_as_states[2x2]",
            "tests/test_analysis.py::TestClassify::test_points_are_read_as_states[not-bipolar]",
            "tests/test_analysis.py::TestClassify::test_points_are_read_as_states[bool]",
        ),
    ),
    # the census labels a point by one table lookup, negations entered before memories
    Mutant(
        "census-stored-entered-before-complements", ANALYSIS,
        '        table = dict.fromkeys(map(bytes, -mem), "complement")\n'
        '        table.update(dict.fromkeys(map(bytes, mem), "stored"))\n',
        '        table = dict.fromkeys(map(bytes, mem), "stored")\n'
        '        table.update(dict.fromkeys(map(bytes, -mem), "complement"))\n',
        (
            "tests/test_analysis.py::TestClassify::test_stored_takes_precedence_over_complement",
        ),
    ),
    Mutant(
        "census-complements-keyed-by-the-memory", ANALYSIS,
        "dict.fromkeys(map(bytes, -mem),", "dict.fromkeys(map(bytes, mem),",
        (
            "tests/test_analysis.py::TestClassify::test_worked_census",
            "tests/test_analysis.py::TestClassify::test_table_matches_the_scan",
        ),
    ),
    Mutant(
        "census-size-check-dropped", ANALYSIS,
        "        if mset is not None and p.size != mset.n:\n", "        if False:\n",
        (
            "tests/test_analysis.py::TestClassify::test_point_of_another_width",
            "tests/test_analysis.py::TestClassify::test_table_matches_the_scan",
        ),
    ),
    Mutant(
        "census-keyed-in-the-memories-own-dtype", ANALYSIS,
        "mset.vectors.astype(np.int8, copy=False)", "mset.vectors",
        (
            "tests/test_analysis.py::TestClassify::test_table_matches_the_scan",
        ),
    ),
    # a ragged list is an object array, and a start set is flat and range-checked as given
    Mutant(
        "ragged-list-leaks-numpy-error", CORE,
        "    except ValueError:\n        return np.fromiter(values, dtype=object)\n",
        "    except TypeError:\n        return np.fromiter(values, dtype=object)\n",
        (
            "tests/test_core.py::test_a_ragged_list_is_refused[validate_weights]",
            "tests/test_core.py::test_a_ragged_list_is_refused[start set]",
            "tests/test_core.py::test_a_ragged_list_is_refused[validate_memory_set]",
        ),
    ),
    Mutant(
        "start-set-flattened", CORE,
        "    if start.ndim != 1:\n", "    if False:\n",
        (
            "tests/test_generator.py::TestSpreadOrder::test_nested_start_set_is_refused",
        ),
    ),
    Mutant(
        "start-set-wrapped-to-int64-before-its-range-check", CORE,
        "    start = np.unique(start)\n", "    start = np.unique(start.astype(np.int64))\n",
        (
            "tests/test_generator.py::TestSpreadOrder::test_start_beyond_int64_names_the_neuron_given",
        ),
    ),
    Mutant(
        "explicit-order-kept-at-its-own-width", GENERATOR,
        "_frozen(perm.astype(np.int64))", "_frozen(perm.copy())",
        (
            "tests/test_generator.py::TestSpreadOrder::test_explicit_order_of_any_integer_width_is_held_as_int64",
        ),
    ),
    # a size numpy cannot allocate exits 5 with one line, not a traceback
    Mutant(
        "memory-error-escapes-the-cli", CLI,
        "    except (ParameterError, ValidationError, MemoryError) as exc:",
        "    except (ParameterError, ValidationError) as exc:",
        (
            "tests/test_cli.py::TestCollapse::test_a_size_too_large_to_allocate_is_an_invalid_parameter",
        ),
    ),
)


def _defines(source: str, node_id: str) -> bool:
    """True when the test file text defines every class and function a node id names."""
    *scopes, func = node_id.split("::")[1:]
    names = [("class", scope) for scope in scopes] + [("def", func.split("[", 1)[0])]
    return all(re.search(rf"^\s*{kw} {re.escape(name)}\b", source, re.MULTILINE) for kw, name in names)


def stale_reasons(mutant: Mutant) -> list[str]:
    """Why ``mutant`` cannot be run as written against the checkout; empty when it can."""
    reasons = []
    target = ROOT / mutant.path
    count = target.read_text(encoding="utf-8").count(mutant.anchor) if target.is_file() else 0
    if count != 1:
        reasons.append(f"anchor occurs {count} times in {mutant.path}")
    if not mutant.tests:
        reasons.append("lists no test")
    for node_id in mutant.tests:
        test_file = ROOT / node_id.split("::", 1)[0]
        if not test_file.is_file() or not _defines(test_file.read_text(encoding="utf-8"), node_id):
            reasons.append(f"no test {node_id}")
    return reasons


def _passing(proc: subprocess.CompletedProcess, tests) -> list[str]:
    """The listed tests that pytest's short summary (-rfE) reports neither failed nor in
    error, by node id or, for a test module that could not be collected, by its file.
    Any exit status but 0 (all passed) or 1 (some failed) stops the run."""
    if proc.returncode not in (0, 1):
        raise SystemExit(f"pytest exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    # a parametrize id may hold spaces; the summary ends the node id at " - " or the line's end
    failed = {m.group(2) for m in re.finditer(r"^(FAILED|ERROR) (.+?)(?: - |$)", proc.stdout, re.MULTILINE)}
    return [t for t in tests if t not in failed and t.split("::", 1)[0] not in failed]


def _pytest(work: Path, tests) -> list[str]:
    """The listed tests that pass in ``work``."""
    # a mutant and the original can have one size and one mtime second, so a cached
    # .pyc of either could stand in for the other
    env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    # a fixed Hypothesis seed and no example database carried from one mutant to the next
    # a test module that a mutant cannot import reports ERROR and the others still run
    argv = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", "--hypothesis-seed=0",
            "--continue-on-collection-errors", f"--rootdir={work}", *tests]
    try:
        proc = subprocess.run(argv, cwd=work, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    finally:
        shutil.rmtree(work / ".hypothesis", ignore_errors=True)
    return _passing(proc, tests)


def run(mutants) -> dict[str, str]:
    """Each mutant's outcome (caught, survived or stale), from a copy of src/ and tests/."""
    outcomes: dict[str, str] = {}
    runnable = []
    for mutant in mutants:
        reasons = stale_reasons(mutant)
        if reasons:
            outcomes[mutant.name] = "stale"
            print(f"stale     {mutant.name}: {'; '.join(reasons)}", flush=True)
        else:
            runnable.append(mutant)
    if not runnable:
        return outcomes
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=ignore)
        baseline = sorted({t for m in runnable for t in m.tests})
        failing = sorted(set(baseline) - set(_pytest(work, baseline)))
        if failing:
            raise SystemExit(f"listed tests fail without any mutant: {failing}")
        for mutant in runnable:
            target = work / mutant.path
            original = target.read_text(encoding="utf-8")
            target.write_text(original.replace(mutant.anchor, mutant.replacement), encoding="utf-8")
            start = time.perf_counter()
            try:
                passing = _pytest(work, mutant.tests)
            except subprocess.TimeoutExpired:
                passing = []  # a hung test does not pass
            finally:
                target.write_text(original, encoding="utf-8")
            outcome = "survived" if passing else "caught"
            outcomes[mutant.name] = outcome
            detail = f"passes {', '.join(passing)}" if passing else f"{len(mutant.tests)} listed tests fail"
            print(f"{outcome:9} {mutant.name}: {detail} ({time.perf_counter() - start:.1f} s)", flush=True)
    return outcomes


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--check", action="store_true", help="check anchors and test names only, run no test")
    args = parser.parse_args(argv)
    if args.check:
        stale = {m.name: stale_reasons(m) for m in MUTANTS}
        for name, reasons in stale.items():
            if reasons:
                print(f"stale     {name}: {'; '.join(reasons)}")
        print(f"{len(MUTANTS)} mutants, {sum(map(bool, stale.values()))} stale")
        return int(any(stale.values()))
    start = time.perf_counter()
    outcomes = run(MUTANTS)
    counts = {k: list(outcomes.values()).count(k) for k in ("caught", "survived", "stale")}
    print(", ".join(f"{v} {k}" for k, v in counts.items()) + f" of {len(MUTANTS)}, in {time.perf_counter() - start:.0f} s")
    return int(counts["caught"] != len(MUTANTS))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
