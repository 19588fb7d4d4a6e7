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
}


@pytest.mark.parametrize("expected", sorted(CASES))
def test_report_bytes(expected, tmp_path, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    out = tmp_path / "report.json"
    assert main(CASES[expected] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / expected).read_bytes()
