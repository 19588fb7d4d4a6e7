import concurrent.futures
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st

from assocmem import (
    DimensionMismatch,
    MemorySet,
    ParameterError,
    ValidationError,
    as_bipolar,
    capacity_experiment,
    classify,
    complement_asymmetry_probe,
    enumerate_fixed_points,
    is_stored,
    train,
    validate_memory_set,
    validate_weights,
)
from assocmem import analysis
from assocmem.analysis import AttractorCensus, _capacity_trial, _sweep
from assocmem.core import WEIGHT_TOTAL_LIMIT, _memory_set, _unstable
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

    @pytest.mark.parametrize("n", [63, 64])
    def test_index_bound_refused_before_any_table(self, n, monkeypatch):
        # a state index is an int64 while n <= 63; such a census never finishes, so
        # reaching the tables is the sign that n = 63 was accepted
        class TablesReached(Exception):
            pass

        def no_tables(rows):
            raise TablesReached

        monkeypatch.setattr(analysis, "_half_fields", no_tables)
        if n == 63:
            with pytest.raises(TablesReached):
                enumerate_fixed_points(np.zeros((n, n), dtype=int), limit_n=n)
        else:
            with pytest.raises(ParameterError, match=r"needs n <= 63, got 64$"):
                enumerate_fixed_points(np.zeros((n, n), dtype=int), limit_n=n)


class TestWalk:
    @pytest.mark.parametrize("n", [10, 16])
    def test_blocks_cover_every_index_once_with_its_fields(self, n):
        # n=10 is one block of 2^10 states, n=16 four blocks of 2^14
        w = validate_weights(random_symmetric_weights(np.random.default_rng(60 + n), n))
        size = 1 << min(n, 14)
        shifts = np.arange(n - 1, -1, -1)
        firsts = []
        for first, fields in analysis._walk(w):
            firsts.append(first)
            index = first + np.arange(size)
            # neuron 0 is the top bit of the index, and a 1 bit is +1
            states = np.where((index[:, None] >> shifts) & 1, 1, -1)
            assert fields.dtype == np.int64
            np.testing.assert_array_equal(fields, states @ w)
        assert firsts == list(range(0, 1 << n, size))


def scan_census(fixed_points, memories):
    """The census by two scans of the memories per point, stored before complement."""
    points = [as_bipolar(p) for p in fixed_points]
    mset = _memory_set(memories)
    mem = None if mset is None else mset.vectors
    labels = []
    for p in points:
        if mem is not None and p.size != mem.shape[1]:
            raise DimensionMismatch(f"fixed point has {p.size} neurons, memories have {mem.shape[1]}")
        if mem is not None and bool(np.any(np.all(mem == p, axis=1))):
            labels.append("stored")
        elif mem is not None and bool(np.any(np.all(mem == -p, axis=1))):
            labels.append("complement")
        else:
            labels.append("spurious")
    return AttractorCensus(
        fixed_points=tuple(points),
        labels=tuple(labels),
        stored_count=labels.count("stored"),
        complement_count=labels.count("complement"),
        spurious_count=labels.count("spurious"),
    )


def census_outcome(census, points, memories):
    """A census's labels and counts, or the type and text of what it raised."""
    try:
        result = census(points, memories)
    except ValueError as exc:
        return type(exc), str(exc)
    return result.labels, result.stored_count, result.complement_count, result.spurious_count


@st.composite
def census_cases(draw):
    """Points and memories of n <= 12 neurons, with duplicate memories, a memory equal to
    another's negation, points drawn from both, and now and then a point of another size
    after the rest."""
    n = draw(st.integers(1, 12))
    vector = st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n)
    memories = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(("new", "duplicate", "negation"))) if memories else "new"
        base = draw(st.sampled_from(memories)) if memories else None
        memories.append(draw(vector) if kind == "new" else base if kind == "duplicate" else [-v for v in base])
    known = memories + [[-v for v in m] for m in memories]
    points = draw(st.lists(st.one_of(vector, st.sampled_from(known)) if known else vector, max_size=6))
    if draw(st.booleans()):
        width = draw(st.sampled_from([k for k in (n - 1, n + 1) if k >= 1]))
        points.append(draw(st.lists(st.sampled_from((-1, 1)), min_size=width, max_size=width)))
    return points, memories


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

    def test_memories_of_any_collection(self, worked_weights, two_memories):
        # a generator has no length to ask before it is read; an empty one means
        # no memories, as [] does, and a MemorySet is taken as it is
        points = enumerate_fixed_points(worked_weights)

        def labels(memories):
            census = classify(points, memories)
            return census.labels, census.stored_count, census.complement_count, census.spurious_count

        want = labels(two_memories)
        assert labels(m for m in two_memories) == labels(np.array(two_memories)) == want
        assert labels(validate_memory_set(two_memories)) == want
        assert labels(m for m in ()) == labels(np.empty((0, 4))) == labels([]) == (("spurious",) * 4, 0, 0, 4)

    @pytest.mark.parametrize(
        "point",
        [[[1, -1], [1, -1]], [2, 0, 2, 0], [True, False, True, False]],
        ids=["2x2", "not-bipolar", "bool"],
    )
    def test_points_are_read_as_states(self, two_memories, point):
        with pytest.raises(ValidationError):
            classify([point], two_memories)

    def test_point_of_another_width(self, two_memories):
        with pytest.raises(DimensionMismatch):
            classify([[1, -1, 1]], two_memories)

    def test_a_hand_built_memory_set_is_checked(self):
        # 1.5 is no spin value: the set is refused, not cast to int8 and read as 1
        with pytest.raises(ValidationError, match=r"^state entries must be \+1 or -1, neuron 1 has np.float64\(1.5\)$"):
            classify([[1, -1, 1]], MemorySet(vectors=np.array([[1.5, -1, 1]])))

    @seed(3131)
    @settings(max_examples=300, deadline=None)
    @given(census_cases())
    @example(([[1, -1], [1, -1, 1]], []))  # no memories: every point spurious, of any size
    @example(([[1, -1], [-1, 1], [1, 1]], [[1, -1], [-1, 1], [1, -1]]))  # a negation pair and a duplicate
    @example(([[1, -1], [1, 1, 1]], [[-1, 1]]))  # a point of another size after a valid one
    @example(([[1, -1, 1], [-1, 1, -1]], MemorySet(vectors=np.array([[1, -1, 1]]))))  # int64, built by hand
    def test_table_matches_the_scan(self, case):
        points, memories = case
        assert census_outcome(classify, points, memories) == census_outcome(scan_census, points, memories)

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
            # a second m = 4 row would come from the very same (m, trial) streams
            dict(n=20, m_values=[4, 2, 4], trials=50, seed=1),
        ],
    )
    def test_parameter_validation(self, kwargs):
        with pytest.raises(ParameterError):
            capacity_experiment(**kwargs)

    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**40])
    # m n mod 8 takes every value from 0 to 7: the trial reads a part of its last word
    @pytest.mark.parametrize(
        "m, n", [(1, 1), (1, 7), (2, 3), (3, 5), (5, 13), (7, 3), (45, 10), (400, 63), (3, 9), (4, 5)]
    )
    def test_draw_is_bit_7_of_the_generator_bytes(self, monkeypatch, seed, m, n):
        # integers(0, 2, int8) keeps bit 7 of each byte of Generator.bytes
        stream = np.random.SeedSequence(entropy=seed, spawn_key=(m, 0))
        bits = np.frombuffer(np.random.default_rng(stream).bytes(m * n), np.uint8).reshape(m, n) >> 7
        want = np.random.default_rng(stream).integers(0, 2, size=(m, n), dtype=np.int8)
        np.testing.assert_array_equal(bits, want)
        # and the trial's memories, drawn from the raw words, are those bits
        drawn = []

        def spy(fields, states):
            drawn.append(np.array(states))
            return np.zeros(states.shape, bool)  # so that no trial, n = 1 included, fails

        monkeypatch.setattr(analysis, "_unstable", spy)
        assert _capacity_trial(n, m, np.random.default_rng(stream)) == 0
        np.testing.assert_array_equal(drawn[0], np.where(bits, 1, -1))
        np.testing.assert_array_equal(drawn[0], np.where(want, 1, -1))

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
        # independent count on the (m, trial) stream: form W in int64, zero its
        # diagonal, and take the fields of every memory directly; the task read
        # is the last of the sweep's
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(m, trial)))
        x = (rng.integers(0, 2, size=(m, n), dtype=np.int8) * 2 - 1).astype(np.int64)
        w = x.T @ x
        np.fill_diagonal(w, 0)
        unstable = int(np.count_nonzero((x @ w >= 0) != (x > 0)))
        counts = _sweep(lambda load, g: _capacity_trial(n, load, g), [m], trial + 1, seed, 1)
        assert counts[0, trial] == unstable


class TestSweep:
    @settings(max_examples=25, deadline=None)
    @given(
        loads=st.lists(st.integers(1, 2**40), min_size=1, max_size=4, unique=True),
        trials=st.integers(1, 9),
        seed=st.integers(0, 2**64),
    )
    def test_counters_do_not_depend_on_workers(self, loads, trials, seed):
        # a kernel that draws from its stream: the array may depend on the task only
        def draw(load, rng):
            return int(rng.integers(0, 2**62)) ^ load

        serial = _sweep(draw, loads, trials, seed, 1)
        assert serial.shape == (len(loads), trials) and serial.dtype == np.int64
        for workers in (2, 3):
            np.testing.assert_array_equal(_sweep(draw, loads, trials, seed, workers), serial)


class TestStreamWords:
    """The seeds _sweep gives PCG64 are those SeedSequence(entropy=seed, spawn_key=(load, t)) gives."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**200),
        key=st.lists(st.integers(0, 2**70), min_size=1, max_size=2).map(tuple),
        trials=st.integers(1, 6),
    )
    @example(seed=0, key=(1,), trials=3)
    @example(seed=2**32 - 1, key=(15,), trials=3)
    @example(seed=2**32, key=(30,), trials=3)
    @example(seed=2**128 - 1, key=(45,), trials=3)
    @example(seed=2**128 + 1, key=(45,), trials=3)  # five entropy words: none is padding
    @example(seed=7, key=(2**32,), trials=3)  # two words of load
    @example(seed=7, key=(0, 45), trials=3)  # a (tag, load) key
    def test_words_are_the_seed_sequence_state(self, seed, key, trials):
        words = analysis._stream_words(seed, key, trials)
        assert words.shape == (trials, 4) and words.dtype == np.uint64
        for t in range(trials):
            want = np.random.SeedSequence(entropy=seed, spawn_key=(*key, t)).generate_state(4, np.uint64)
            np.testing.assert_array_equal(words[t], want)

    # seeds of one to seven entropy words, padded to four and not; keys of a load m, of a
    # two-word load and of a (tag, load) pair
    @pytest.mark.parametrize("trials", [1, 50, 4097])
    @pytest.mark.parametrize("key", [(15,), (2**33,), (3, 45)], ids=["m", "2**33", "tag-load"])
    @pytest.mark.parametrize(
        "seed", [0, 1, 2**32 - 1, 2**32, 2**128, 2**200 + 3], ids=["0", "1", "2**32-1", "2**32", "2**128", "2**200+3"]
    )
    def test_rows_on_a_grid_are_the_seed_sequence_state(self, seed, key, trials):
        words = analysis._stream_words(seed, key, trials)
        assert words.shape == (trials, 4) and words.dtype == np.uint64
        for t, row in enumerate(words):
            want = np.random.SeedSequence(entropy=seed, spawn_key=(*key, t)).generate_state(4, np.uint64)
            np.testing.assert_array_equal(row, want)

    def test_indices_past_16_bits(self):
        # the xorshift folds the high half of each word into the low half
        words = analysis._stream_words(3, (9,), 70_000)
        for t in (65_535, 65_536, 69_999):
            want = np.random.SeedSequence(entropy=3, spawn_key=(9, t)).generate_state(4, np.uint64)
            np.testing.assert_array_equal(words[t], want)

    @pytest.mark.parametrize("seed, load, t", [(0, 1, 0), (2**128 + 1, 45, 3), (12345, 2**32, 7)])
    def test_first_draws_are_the_seed_sequence_stream(self, seed, load, t):
        def draws(rng):
            return rng.bit_generator.random_raw(3).tolist(), rng.bytes(11), rng.integers(0, 2**40, 5).tolist()

        seen = []

        def trial(_, rng):
            seen.append(draws(rng))
            return 0

        _sweep(trial, [load], t + 1, seed, 1)
        want = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(load, t)))
        assert seen[t] == draws(want)

    def test_wrapper_answers_only_the_pcg64_request(self):
        words = analysis._StreamWords(analysis._stream_words(1, (2,), 1)[0])
        for n_words, dtype in [(8, np.uint32), (4, np.uint32), (8, np.uint64)]:
            with pytest.raises(ValueError):
                words.generate_state(n_words, dtype)

    def test_a_trial_cannot_spawn(self):
        with pytest.raises(TypeError):
            _sweep(lambda _, rng: rng.spawn(1), [1], 1, 0, 1)

    def test_trials_beyond_one_entropy_word_refused_before_the_sweep(self, monkeypatch):
        # the sweep allocates 40 bytes a trial, its counter and its seed words, before any draw
        def sweep(*args):
            raise AssertionError("swept")

        monkeypatch.setattr(analysis, "_sweep", sweep)
        with pytest.raises(ParameterError, match=r"^capacity experiment runs at most 2\*\*32 trials per load"):
            capacity_experiment(20, [2], trials=2**32 + 1, seed=1)
        with pytest.raises(AssertionError, match="swept"):
            capacity_experiment(20, [2], trials=2**32, seed=1)


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

    @pytest.mark.parametrize("bad", [0, 3])
    def test_a_hand_built_memory_set_is_checked(self, worked_weights, bad):
        vectors = np.array([[1, -1, 1, -1], [-1, 1, bad, 1]])
        with pytest.raises(ValidationError, match=rf"^state entries must be \+1 or -1, neuron 3 has np.int64\({bad}\)$"):
            complement_asymmetry_probe(worked_weights, MemorySet(vectors=vectors))

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
