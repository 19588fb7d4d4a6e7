"""Tests of the benchmark itself, at sizes small enough to run in seconds.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402
from spans import NULL, Tracer  # noqa: E402

TINY = {
    "recall": dict(n=60, m=3),
    "spread": dict(n=40, m=2, cue=5),
    "capacity": dict(n=30, loads=(2, 4, 6), trials=50),
    "cli": dict(n=30, m=3, cue=5, fp_n=8, fp_m=2, samples=1000),
}
OPS = {"recall": 6, "spread": 6, "capacity": 3, "cli": 1}


def tiny(name: str, seed: int, work: Path):
    work.mkdir(parents=True, exist_ok=True)
    return run.make(name, seed, work, **TINY[name])


def run_tiny(name: str, seed: int, work: Path, tr=NULL) -> run.Tally:
    tally = run.Tally()
    w = tiny(name, seed, work)
    tally.record("set-up", w.setup())
    run.loop(w, tr, tally, ops=OPS[name])
    return tally


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_workload_passes_every_check(name, tmp_path):
    tally = run_tiny(name, 7, tmp_path)
    assert tally.problems == []
    assert (tally.attempted, tally.failed) == (1 + OPS[name], 0)


def _flip_state(state):
    out = np.array(state)
    out[0] = -out[0]
    out.setflags(write=False)
    return out


def _corrupt_cli(w, out):
    path = w.work / "recall_async.json"
    doc = json.loads(path.read_text())
    doc["result"]["final"][0] *= -1
    path.write_text(json.dumps(doc))
    return out


CORRUPT = {
    "recall": lambda w, out: (dataclasses.replace(out[0], state=_flip_state(out[0].state)), out[1]),
    "spread": lambda w, out: dataclasses.replace(
        out, trace=dataclasses.replace(out.trace, final=_flip_state(out.trace.final))),
    "capacity": lambda w, out: dataclasses.replace(out, rows=(dataclasses.replace(
        out.rows[0], all_stable_fraction=out.rows[0].all_stable_fraction + 1 / out.rows[0].trials),)),
    "cli": _corrupt_cli,
}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_a_corrupted_result_fails_the_op(name, tmp_path):
    w = tiny(name, 7, tmp_path)
    w.setup()
    honest = w.run
    w.run = lambda inp, tr: CORRUPT[name](w, honest(inp, tr))
    tally = run.Tally()
    latencies, _, _ = run.loop(w, NULL, tally, ops=2)
    assert (tally.attempted, tally.failed, latencies) == (2, 2, [])


def test_an_async_state_that_breaks_an_invariant_fails_the_op(tmp_path):
    w = tiny("recall", 7, tmp_path)
    w.setup()
    honest = w.run

    def corrupt(inp, tr):
        sync, asyn = honest(inp, tr)
        return sync, dataclasses.replace(asyn, state=_flip_state(asyn.state))

    w.run = corrupt
    tally = run.Tally()
    run.loop(w, NULL, tally, ops=2)
    assert tally.failed == 2


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_same_digests_and_counts(name, tmp_path):
    first = run_tiny(name, 11, tmp_path / "a")
    again = run_tiny(name, 11, tmp_path / "b", tr=Tracer())
    other = run_tiny(name, 12, tmp_path / "c")
    assert first.digests[name].hexdigest() == again.digests[name].hexdigest()
    assert first.facts == again.facts
    assert other.failed == 0
    assert other.digests[name].hexdigest() != first.digests[name].hexdigest()


def test_self_time_subtracts_child_spans():
    tr = Tracer()
    tr.op = "w:0"
    with tr.span("bench.op"):
        with tr.span("hebbian.recall_async"):
            pass
    tr.spans[0][1:3] = [0.0, 3.0]
    tr.spans[1][1:3] = [1.0, 2.5]
    assert tr.self_times() == [1.5, 1.5]
    assert tr.layer_self_seconds("w:") == {"bench": 1.5, "hebbian": 1.5}
    assert [r["parent"] for r in tr.records()] == [None, 0]


def test_result_line_of_a_short_run(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "capacity", "--seed", "3", "--seconds", "0.5"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.metric_units("end_to_end"))
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert not (tmp_path / ".bench_work").exists() or not any((tmp_path / ".bench_work").iterdir())


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "recall", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
