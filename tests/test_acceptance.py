"""Acceptance suite: one test per headline criterion, each printing a
pass line with the measured numbers.

Run with output visible:

    pytest tests/test_acceptance.py -v -s
"""

import json
import math
import time

import numpy as np

from assocmem import (
    capacity_experiment,
    classify,
    collapse_sample,
    decompose,
    energy,
    enumerate_fixed_points,
    is_stored,
    recall_async,
    reorg_count,
    spread_full,
    train,
)
from assocmem.cli import main as cli_main
from conftest import WORKED_WEIGHTS, random_memories, random_symmetric_weights


def report(k, message):
    print(f"\n[acceptance {k}] PASS: {message}")


def test_criterion_1_worked_network():
    start = time.perf_counter()
    memories = [(1, 1, 1, 1), (1, -1, 1, -1)]
    weights = train(memories)
    assert np.array_equal(weights, WORKED_WEIGHTS)

    points = enumerate_fixed_points(weights)
    census = classify(points, memories)
    assert len(points) == 4
    assert (census.stored_count, census.complement_count, census.spurious_count) == (2, 2, 0)

    trace1 = spread_full(weights, {0: 1})
    assert list(trace1.final) == [1, 1, 1, 1]
    trace2 = spread_full(weights, {0: 1, 1: -1})
    assert list(trace2.final) == [1, -1, 1, -1]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"worked n=4 network exact (weights, census 2/2/0, both spreads) in {elapsed:.3f}s")


def test_criterion_2_capacity_claim():
    start = time.perf_counter()
    sweep = [5, 10, 15, 20, 25, 30, 35, 40]
    result = capacity_experiment(100, sweep, trials=200, seed=42)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0

    at_15 = next(row for row in result.rows if row.m == 15)
    assert 0.001 <= at_15.per_bit_instability <= 0.02
    assert 0.08 <= result.threshold_capacity_ratio <= 0.25
    for a, b in zip(result.rows, result.rows[1:]):
        slack = 2 * math.sqrt(a.stderr**2 + b.stderr**2)
        assert b.per_bit_instability >= a.per_bit_instability - slack

    # both capacity readings are present and visibly diverge: at the
    # per-bit threshold load the all-exact rate has already collapsed
    threshold_m = round(result.threshold_capacity_ratio * 100)
    threshold_row = next(row for row in result.rows if row.m == threshold_m)
    assert 1 - threshold_row.per_bit_instability >= 0.99
    assert threshold_row.all_stable_fraction < 0.5
    report(
        2,
        f"per-bit instability(m=15)={at_15.per_bit_instability:.4f} in [0.001,0.02], "
        f"threshold ratio={result.threshold_capacity_ratio:.2f} in [0.08,0.25], "
        f"monotone within 2 SE, all-exact rate at threshold={threshold_row.all_stable_fraction:.3f}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_3_enumeration_matches_recall_rule():
    start = time.perf_counter()
    rng = np.random.default_rng(300)
    networks = 0
    states_checked = 0
    for i in range(100):
        n = 2 + i % 11  # cycles 2..12
        if i % 2 == 0:
            weights = train(random_memories(rng, int(rng.integers(1, n + 1)), n))
        else:
            weights = random_symmetric_weights(rng, n)
        enumerated = {tuple(p) for p in enumerate_fixed_points(weights)}
        for g in range(1 << n):
            state = np.array([1 if (g >> (n - 1 - b)) & 1 else -1 for b in range(n)], dtype=np.int8)
            assert is_stored(weights, state) == (tuple(state) in enumerated)
            states_checked += 1
        networks += 1
    elapsed = time.perf_counter() - start
    assert networks == 100
    assert elapsed < 30.0
    report(3, f"enumeration == per-state recall on {states_checked} states across 100 networks in {elapsed:.1f}s")


def test_criterion_4_energy_descent():
    rng = np.random.default_rng(400)
    for trial in range(1000):
        n = int(rng.integers(2, 65))
        weights = train(random_memories(rng, int(rng.integers(1, max(2, n // 2) + 1)), n))
        state = random_memories(rng, 1, n)[0]
        schedule, seed = ("cyclic", None) if trial % 2 == 0 else ("random", trial)
        result = recall_async(weights, state, schedule=schedule, seed=seed)
        assert np.all(np.diff(result.energy_trace) <= 0)
        assert result.converged
        assert result.iterations <= 10 * n
        assert is_stored(weights, result.state)
        assert result.energy_trace[-1] == energy(weights, result.state)
    report(4, "1000 asynchronous recalls: non-increasing energy, fixed points within 10n passes")


def test_criterion_5_decomposition_and_prefix_stability():
    rng = np.random.default_rng(500)
    spreads = 0
    for _ in range(1000):
        n = int(rng.integers(2, 25))
        weights = random_symmetric_weights(rng, n)
        gen = decompose(weights)
        assert np.array_equal(gen + gen.T, weights)
        assert not np.any(np.triu(gen))

        k = int(rng.integers(1, n + 1))
        picks = rng.choice(n, size=k, replace=False)
        seed_vals = {int(i): int(v) for i, v in zip(picks, random_memories(rng, 1, k)[0])}
        # step-by-step prefix stability: TestSpreadOracle in test_generator.py
        trace = spread_full(weights, seed_vals)
        assert len(trace.steps) == n - k
        for idx, val in seed_vals.items():
            assert int(trace.final[idx]) == val
        step_neurons = [s.neuron for s in trace.steps]
        assert len(set(step_neurons)) == len(step_neurons)
        assert set(step_neurons) | set(seed_vals) == set(range(n))
        for s in trace.steps:
            assert int(trace.final[s.neuron]) == s.value
        spreads += 1
    report(5, f"1000 exact reconstructions G+G^T=W; {spreads} spreads with stable prefixes")


def test_criterion_6_conditional_complement():
    rng = np.random.default_rng(600)
    eligible = 0
    for _ in range(500):
        n = int(rng.integers(2, 16))
        memories = random_memories(rng, int(rng.integers(1, 6)), n)
        weights = train(memories)
        for x in memories:
            if not is_stored(weights, x):
                continue
            if np.any(weights @ x.astype(np.int64) == 0):
                continue
            assert is_stored(weights, -x)
            eligible += 1
    assert eligible > 200
    report(6, f"complements of {eligible} zero-field-free stored memories are all fixed points")


def test_criterion_7_reorganization_counts_and_born_sampling():
    for n in range(1, 101):
        assert reorg_count(n) == n * n

    rng = np.random.default_rng(700)
    draws = 100_000
    vectors = 0
    for trial in range(20):
        k = int(rng.integers(2, 9))
        v = rng.normal(size=k)
        amps = v / math.sqrt(float(v @ v))
        samples = collapse_sample(amps, seed=7000 + trial, count=draws)
        counts = np.bincount(samples, minlength=k)
        for idx in range(k):
            p = float(amps[idx] ** 2)
            se = math.sqrt(p * (1 - p) / draws)
            assert abs(counts[idx] / draws - p) <= 3 * se + 1e-12
        again = collapse_sample(amps, seed=7000 + trial, count=draws)
        assert np.array_equal(samples, again)
        vectors += 1
    report(7, f"reorg_count(n)=n^2 for n in 1..100; Born sampling within 3 SE on {vectors} vectors, bit-identical reruns")


def test_criterion_8_cli_reproducibility(tmp_path):
    mem = tmp_path / "mem.txt"
    mem.write_text("1 1 1 1\n1 -1 1 -1\n")

    def run(argv):
        assert cli_main(argv) == 0

    pairs = []
    w1, w2 = tmp_path / "w1.json", tmp_path / "w2.json"
    run(["train", "--memories", str(mem), "--out", str(w1)])
    run(["train", "--memories", str(mem), "--out", str(w2)])
    pairs.append(("train", w1, w2))

    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    recall_args = ["recall", "--weights", str(w1), "--state", "1,1,-1,1", "--async", "--seed", "5"]
    run(recall_args + ["--out", str(r1)])
    run(recall_args + ["--out", str(r2)])
    pairs.append(("recall", r1, r2))

    sp1, sp2 = tmp_path / "sp1.json", tmp_path / "sp2.json"
    spread_args = ["spread", "--weights", str(w1), "--start", "1:+1,2:-1", "--memories", str(mem)]
    run(spread_args + ["--out", str(sp1)])
    run(spread_args + ["--out", str(sp2)])
    pairs.append(("spread", sp1, sp2))

    f1, f2 = tmp_path / "f1.json", tmp_path / "f2.json"
    fp_args = ["fixed-points", "--weights", str(w1), "--memories", str(mem)]
    run(fp_args + ["--out", str(f1)])
    run(fp_args + ["--out", str(f2)])
    pairs.append(("fixed-points", f1, f2))

    c1, c2, c3 = tmp_path / "c1.json", tmp_path / "c2.json", tmp_path / "c3.json"
    cap_args = ["capacity", "--n", "30", "--m-list", "2,4,6", "--trials", "60", "--seed", "42"]
    run(cap_args + ["--workers", "2", "--out", str(c1)])
    run(cap_args + ["--workers", "2", "--out", str(c2)])
    run(cap_args + ["--workers", "1", "--out", str(c3)])
    pairs.append(("capacity(workers=2)", c1, c2))
    pairs.append(("capacity(workers=2 vs 1)", c1, c3))

    s1, s2 = tmp_path / "s1.json", tmp_path / "s2.json"
    col_args = ["collapse", "--amps", "0.6,0.8", "--samples", "5000", "--seed", "11"]
    run(col_args + ["--out", str(s1)])
    run(col_args + ["--out", str(s2)])
    pairs.append(("collapse", s1, s2))

    for label, a, b in pairs:
        assert a.read_bytes() == b.read_bytes(), label
    seed_doc = json.loads(c1.read_text())
    assert seed_doc["config"]["seed"] == 42
    report(8, "all six commands emit byte-identical reports on rerun, parallel capacity included")
