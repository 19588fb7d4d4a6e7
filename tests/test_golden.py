"""Byte-identity of CLI reports against the checked-in golden corpus.

Each case runs from inside tests/golden with relative paths, because a
report embeds its configuration, input paths included. The expected bytes
come from an earlier release; only a deliberate, documented format change
may regenerate them.

Every report is exact integer or float64 work with an order fixed by the
library, so none can depend on how many threads BLAS splits a product
over; test_reports_do_not_depend_on_blas_threads pins that.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from assocmem.cli import main

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"

CASES = {
    "spread_worked_index.json": [
        "spread", "--weights", "worked_weights.json", "--start", "1:+1",
        "--memories", "worked_memories.txt",
    ],
    # a noisy seed with a distance tie; the report carries consistency flags
    "spread_line_proximity.json": [
        "spread", "--weights", "line_weights.json", "--proximity", "line_proximity.txt",
        "--start", "3:+1,4:+1,5:+1", "--memories", "line_memories.txt",
    ],
    # index order, with the start neurons given out of index order
    "spread_line_index.json": [
        "spread", "--weights", "line_weights.json", "--start", "7:-1,2:+1", "--memories", "line_memories.txt",
    ],
    "worked_weights.json": ["train", "--memories", "worked_memories.txt"],
    "zero_field_weights.json": ["train", "--memories", "zero_field_memories.txt"],
    # a state on a two-cycle of the synchronous dynamics
    "recall_worked_sync.json": ["recall", "--weights", "worked_weights.json", "--state=-1,1,-1,-1"],
    "recall_worked_async.json": [
        "recall", "--weights", "worked_weights.json", "--state=-1,1,-1,-1",
        "--async", "--schedule", "random", "--seed", "7",
    ],
    # neuron 1 always sees a zero field, so sgn(0) = +1 decides it
    "recall_zero_field_sync.json": ["recall", "--weights", "zero_field_weights.json", "--state=-1,1,1"],
    "recall_zero_field_async_cyclic.json": [
        "recall", "--weights", "zero_field_weights.json", "--state=-1,1,1",
        "--async", "--schedule", "cyclic",
    ],
    # a one-pass budget that runs out before either mode settles
    "recall_line_sync_budget.json": [
        "recall", "--weights", "line_weights.json", "--state=-1,-1,-1,-1,-1,-1,-1,-1", "--passes", "1",
    ],
    "recall_line_async_budget.json": [
        "recall", "--weights", "line_weights.json", "--state=-1,-1,-1,-1,-1,-1,-1,-1", "--passes", "1",
        "--async", "--seed", "7",
    ],
    "fixed_points_worked.json": [
        "fixed-points", "--weights", "worked_weights.json", "--memories", "worked_memories.txt",
    ],
    # both memories have a zero field at neuron 1, so neither complement is fixed
    "fixed_points_zero_field.json": [
        "fixed-points", "--weights", "zero_field_weights.json", "--memories", "zero_field_memories.txt",
    ],
    "capacity_small.json": [
        "capacity", "--n", "12", "--m-list", "1,2,3", "--trials", "50", "--seed", "7",
    ],
    # more memories than neurons
    "capacity_m_over_n.json": [
        "capacity", "--n", "10", "--m-list", "12,20", "--trials", "50", "--seed", "7",
    ],
    # thread-pool trials; the report does not record the worker count
    "capacity_workers.json": [
        "capacity", "--n", "40", "--m-list", "1,4,8", "--trials", "60", "--seed", "3",
        "--workers", "2",
    ],
    "collapse_sample.json": ["collapse", "--amps=-0.6,0.8", "--samples", "20", "--seed", "3"],
    "collapse_count_levels.json": ["collapse", "--count-levels", "3", "--list-cases"],
}


@pytest.mark.parametrize("expected", sorted(CASES))
def test_report_bytes(expected, tmp_path, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    out = tmp_path / "report.json"
    assert main(CASES[expected] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / expected).read_bytes()


# runs (directory, argv) pairs, each from its directory, in a fresh interpreter
_RUN_CASES = """
import json, os, sys
from assocmem.cli import main
for cwd, argv in json.loads(sys.argv[1]):
    os.chdir(cwd)
    if main(argv) != 0:
        sys.exit(f"{argv} failed")
"""

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _run_cases(cases, one_thread):
    """Run CLI cases in one subprocess, under one BLAS thread or under BLAS's own default."""
    env = {key: value for key, value in os.environ.items() if key not in _THREAD_VARS}
    env["PYTHONPATH"] = str(SRC)
    if one_thread:
        # set before numpy loads, which is the only time OpenBLAS reads them
        env.update(dict.fromkeys(_THREAD_VARS, "1"))
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_CASES, json.dumps(cases)], capture_output=True, text=True, env=env, timeout=300
    )
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr


def test_reports_do_not_depend_on_blas_threads(tmp_path):
    # train and capacity products large enough for OpenBLAS to split them over threads
    rng = np.random.default_rng(400)
    memories = np.where(rng.integers(0, 2, size=(40, 400)) == 1, "1", "-1")
    (tmp_path / "memories.txt").write_text("".join(" ".join(row) + "\n" for row in memories))
    large = {
        "train_400.json": ["train", "--memories", "memories.txt"],
        "capacity_300.json": ["capacity", "--n", "300", "--m-list", "45", "--trials", "50", "--seed", "1"],
    }
    outputs = {}
    for one_thread in (True, False):
        out = tmp_path / ("one" if one_thread else "default")
        out.mkdir()
        cases = [(str(tmp_path), argv + ["--out", str(out / name)]) for name, argv in large.items()]
        if one_thread:
            cases += [(str(GOLDEN), argv + ["--out", str(out / name)]) for name, argv in CASES.items()]
        _run_cases(cases, one_thread)
        outputs[one_thread] = out
    for name in CASES:
        assert (outputs[True] / name).read_bytes() == (GOLDEN / name).read_bytes(), name
    for name in large:
        assert (outputs[True] / name).read_bytes() == (outputs[False] / name).read_bytes(), name
