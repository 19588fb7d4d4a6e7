"""Byte-identity of CLI reports against the checked-in golden corpus.

Each case runs from inside tests/golden with relative paths, because a
report embeds its configuration, input paths included. The expected bytes
come from an earlier release; only a deliberate, documented format change
may regenerate them.
"""

from pathlib import Path

import pytest

from assocmem.cli import main

GOLDEN = Path(__file__).parent / "golden"

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
