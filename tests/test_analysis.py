import concurrent.futures
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from assocmem import (
    ParameterError,
    capacity_experiment,
    classify,
    complement_asymmetry_probe,
    enumerate_fixed_points,
    is_stored,
    train,
)
from assocmem import analysis
from assocmem.analysis import _capacity_trial
from assocmem.core import WEIGHT_TOTAL_LIMIT, _unstable
from conftest import random_memories, random_symmetric_weights


def brute_force_fixed_points(weights):
    """Oracle kept independent of the vectorized path: per-state recall."""
    n = weights.shape[0]
    out = []
    for g in range(1 << n):
        state = np.array([1 if (g >> (n - 1 - b)) & 1 else -1 for b in range(n)], dtype=np.int8)
        if is_stored(weights, state):
            out.append(state)
    return out


def chunked_fixed_points(weights):
    """The enumerator before split-half tables: the int64 product states @ W for
    each chunk of 2^16 states, O(2^n n^2)."""
    w = np.asarray(weights, dtype=np.int64)
    n = w.shape[0]
    total = 1 << n
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint64)
    found = []
    for lo in range(0, total, 1 << 16):
        ints = np.arange(lo, min(lo + (1 << 16), total), dtype=np.uint64)[:, None]
        states = np.where((ints >> shifts) & np.uint64(1) == 1, 1, -1).astype(np.int8)
        found.extend(states[~_unstable(states @ w, states).any(axis=1)])
    return found


def _near_limit(rng, n):
    """A random symmetric matrix scaled until its total absolute weight nearly reaches 2**62."""
    w = random_symmetric_weights(rng, n, lo=-50, hi=51)
    return w * (WEIGHT_TOTAL_LIMIT // max(1, int(np.abs(w).sum())))


class TestEnumerate:
    def test_worked_example_exact(self, worked_weights):
        points = enumerate_fixed_points(worked_weights)
        assert [list(p) for p in points] == [
            [-1, -1, -1, -1],
            [-1, 1, -1, 1],
            [1, -1, 1, -1],
            [1, 1, 1, 1],
        ]
        assert not any(p.flags.writeable for p in points)

    def test_zero_weights(self):
        points = enumerate_fixed_points(np.zeros((3, 3), dtype=int))
        assert [list(p) for p in points] == [[1, 1, 1]]

    def test_single_memory_contains_pair(self):
        x = np.array([1, -1, -1, 1])
        points = {tuple(p) for p in enumerate_fixed_points(train([x]))}
        assert tuple(x) in points
        assert tuple(-x) in points

    def test_limit_enforced(self):
        w = np.zeros((6, 6), dtype=int)
        with pytest.raises(ParameterError):
            enumerate_fixed_points(w, limit_n=5)
        assert enumerate_fixed_points(w, limit_n=6)

    def test_agrees_with_per_state_recall(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            w = random_symmetric_weights(rng, n)
            fast = [tuple(p) for p in enumerate_fixed_points(w)]
            slow = [tuple(p) for p in brute_force_fixed_points(w)]
            assert fast == slow

    @pytest.mark.parametrize("n", [*range(1, 13), 15, 16, 18])
    def test_matches_chunked_product(self, n):
        # trained nets with even m give zero fields, so the sgn(0) = +1 tie decides;
        # at n above 14 the state splits into a high and a low table
        rng = np.random.default_rng(1000 + n)
        nets = [
            train(random_memories(rng, 2, n)),
            train(random_memories(rng, 4, n)),
            random_symmetric_weights(rng, n),
            _near_limit(rng, n),
        ]
        for w in nets if n <= 12 else nets[1:]:
            assert int(np.abs(w).sum()) <= WEIGHT_TOTAL_LIMIT
            got = enumerate_fixed_points(w)
            want = chunked_fixed_points(w)
            assert [p.tolist() for p in got] == [p.tolist() for p in want]

    def test_fields_at_the_weight_limit(self):
        # |field| = 2**61 on every state, and the tables' sums stay exact
        w = np.array([[0, 2**61], [2**61, 0]])
        assert [p.tolist() for p in enumerate_fixed_points(w)] == [[-1, -1], [1, 1]]
        assert [p.tolist() for p in enumerate_fixed_points(-w)] == [[-1, 1], [1, -1]]

    def test_limit_refused_before_any_table(self, monkeypatch):
        def no_tables(rows):
            raise AssertionError("a table was built for a refused enumeration")

        monkeypatch.setattr(analysis, "_half_fields", no_tables)
        with pytest.raises(ParameterError):
            enumerate_fixed_points(np.zeros((21, 21), dtype=int))

    def test_lexicographic_order(self):
        rng = np.random.default_rng(23)
        w = train(random_memories(rng, 2, 6))
        points = [tuple(int(v) for v in p) for p in enumerate_fixed_points(w)]
        assert points == sorted(points)


class TestClassify:
    def test_worked_census(self, worked_weights, two_memories):
        census = classify(enumerate_fixed_points(worked_weights), two_memories)
        assert (census.stored_count, census.complement_count, census.spurious_count) == (2, 2, 0)

    def test_stored_takes_precedence_over_complement(self):
        x = np.array([1, 1, -1, 1])
        w = train([x, -x])
        census = classify(enumerate_fixed_points(w), [x, -x])
        assert census.complement_count == 0
        assert census.stored_count == 2

    def test_no_memories_all_spurious(self):
        points = enumerate_fixed_points(np.zeros((3, 3), dtype=int))
        census = classify(points, [])
        assert census.spurious_count == 1
        assert census.stored_count == census.complement_count == 0

    def test_partition(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            memories = random_memories(rng, int(rng.integers(1, 4)), n)
            w = train(memories)
            points = enumerate_fixed_points(w)
            census = classify(points, memories)
            assert census.stored_count + census.complement_count + census.spurious_count == len(points)
            assert len(census.labels) == len(points)


class TestCapacity:
    def test_single_memory_is_always_stable(self):
        report = capacity_experiment(100, [1], trials=50, seed=7)
        row = report.rows[0]
        assert row.per_bit_instability == 0.0
        assert row.all_stable_fraction == 1.0

    def test_report_holds_python_numbers(self):
        # numpy scalars would change the repr of a report, though not its JSON
        report = capacity_experiment(20, [2, 9], trials=50, seed=3)
        assert type(report.n) is int and type(report.seed) is int
        for row in report.rows:
            assert (type(row.m), type(row.trials)) == (int, int)
            assert {type(row.per_bit_instability), type(row.all_stable_fraction), type(row.stderr)} == {float}

    def test_reproducible(self):
        a = capacity_experiment(40, [4, 8], trials=60, seed=11)
        b = capacity_experiment(40, [4, 8], trials=60, seed=11)
        assert a == b

    def test_parallel_matches_serial(self):
        serial = capacity_experiment(40, [4, 8], trials=60, seed=3, workers=1)
        threaded = capacity_experiment(40, [4, 8], trials=60, seed=3, workers=4)
        assert serial == threaded

    def test_workers_are_bounded(self, monkeypatch):
        # a recording stand-in for the pool runs the blocks serially: no thread starts
        sizes = []

        class SerialPool:
            def __init__(self, max_workers=None):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        # capacity_experiment imports the pool class where it starts one
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
        serial = capacity_experiment(20, [2, 3], trials=50, seed=1)
        assert sizes == []  # one worker runs inline
        assert capacity_experiment(20, [2, 3], trials=50, seed=1, workers=10**6) == serial
        assert all(k <= (os.cpu_count() or 1) for k in sizes)
        monkeypatch.setattr(os, "cpu_count", lambda: 10**6)
        assert capacity_experiment(20, [2, 3], trials=50, seed=1, workers=10**6) == serial
        assert sizes[-1] == 2 * 50  # at most one block per (m, trial) task

    def test_instability_grows_with_load(self):
        report = capacity_experiment(60, [3, 9, 15, 21], trials=80, seed=5)
        rows = report.rows
        for a, b in zip(rows, rows[1:]):
            slack = 2 * math.sqrt(a.stderr**2 + b.stderr**2)
            assert b.per_bit_instability >= a.per_bit_instability - slack

    def test_threshold_ratio(self):
        report = capacity_experiment(60, [3, 30], trials=60, seed=13)
        # 3 memories in 60 neurons are comfortably stable, 30 are not
        assert report.rows[0].per_bit_instability <= 0.01 < report.rows[1].per_bit_instability
        assert report.threshold_capacity_ratio == 3 / 60

    def test_weak_size_dependence_at_fixed_load(self):
        # at load m/n = 0.15 the instability depends on n only through the
        # (n-1)/(m-1) correction; doubling n moves it by far less than 3x
        small = capacity_experiment(60, [9], trials=100, seed=21).rows[0]
        large = capacity_experiment(120, [18], trials=100, seed=21).rows[0]
        assert small.per_bit_instability > 0
        ratio = large.per_bit_instability / small.per_bit_instability
        assert 1 / 3 < ratio < 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=9, m_values=[2], trials=50, seed=1),
            dict(n=20, m_values=[2], trials=49, seed=1),
            dict(n=20, m_values=[], trials=50, seed=1),
            dict(n=20, m_values=[0], trials=50, seed=1),
            dict(n=20, m_values=[2], trials=50, seed=-1),
            dict(n=20, m_values=[2], trials=50, seed=1, workers=0),
            # m * n just above 2**53: refused before a single memory is drawn
            dict(n=2**27, m_values=[2**26 + 1], trials=50, seed=1),
        ],
    )
    def test_parameter_validation(self, kwargs):
        with pytest.raises(ParameterError):
            capacity_experiment(**kwargs)

    @given(
        n=st.integers(10, 60),
        m=st.integers(1, 80),
        seed=st.integers(0, 2**32),
        trial=st.integers(0, 199),
    )
    @example(n=10, m=1, seed=0, trial=0)
    @example(n=37, m=37, seed=5, trial=3)
    @example(n=10, m=80, seed=7, trial=49)
    def test_trial_matches_int64_oracle(self, n, m, seed, trial):
        # independent count on the same stream: form W in int64, zero its
        # diagonal, and take the fields of every memory directly
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(m, trial)))
        x = (rng.integers(0, 2, size=(m, n), dtype=np.int8) * 2 - 1).astype(np.int64)
        w = x.T @ x
        np.fill_diagonal(w, 0)
        unstable = int(np.count_nonzero((x @ w >= 0) != (x > 0)))
        assert _capacity_trial(n, m, seed, trial) == unstable


class TestComplementAsymmetry:
    def test_worked_example_has_no_failures(self, worked_weights, two_memories):
        report = complement_asymmetry_probe(worked_weights, two_memories)
        assert report.fixed_memory_indices == (0, 1)
        assert report.failures == ()

    def test_zero_field_breaks_complements(self):
        # trained fields at neuron 1 cancel exactly; sgn(0)=+1 stores the
        # memories but dooms both complements at that component
        memories = [(1, 1, -1), (1, -1, 1)]
        w = train(memories)
        assert (w @ np.array(memories[0]))[0] == 0
        report = complement_asymmetry_probe(w, memories)
        assert report.fixed_memory_indices == (0, 1)
        assert [f.memory_index for f in report.failures] == [0, 1]
        assert all(f.zero_field_components == (0,) for f in report.failures)
        points = {tuple(p) for p in enumerate_fixed_points(w)}
        assert (-1, -1, 1) not in points
        assert (-1, 1, -1) not in points

    def test_matches_enumeration(self):
        memories = [(1, 1, 1, 1), (1, -1, -1, 1)]
        w = train(memories)
        report = complement_asymmetry_probe(w, memories)
        assert report.failures == ()
        points = {tuple(p) for p in enumerate_fixed_points(w)}
        for x in memories:
            assert tuple(-v for v in x) in points

    def test_probe_agrees_with_brute_force_on_random_networks(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            memories = random_memories(rng, int(rng.integers(1, 4)), n)
            w = train(memories)
            report = complement_asymmetry_probe(w, memories)
            points = {tuple(p) for p in enumerate_fixed_points(w)}
            failed = {f.memory_index for f in report.failures}
            for k in report.fixed_memory_indices:
                complement_fixed = tuple(-v for v in memories[k]) in points
                assert complement_fixed == (k not in failed)
            for f in report.failures:
                assert len(f.zero_field_components) > 0
