import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from assocmem import (
    DimensionMismatch,
    MemorySet,
    ParameterError,
    SpreadOrder,
    SpreadStep,
    ValidationError,
    decompose,
    is_stored,
    order_from_proximity,
    retrieve_report,
    sgn,
    spread_full,
    train,
    validate_memory_set,
    validate_proximity,
)
from assocmem import core, generator
from conftest import random_memories, random_symmetric_weights

PROX = np.array(
    [
        [0, 4, 1, 5],
        [4, 0, 2, 6],
        [1, 2, 0, 3],
        [5, 6, 3, 0],
    ],
    dtype=float,
)


class TestDecompose:
    def test_worked_example(self, worked_weights):
        gen = decompose(worked_weights)
        expected = np.zeros((4, 4), dtype=int)
        expected[2, 0] = 2
        expected[3, 1] = 2
        assert np.array_equal(gen, expected)

    def test_zero_weights(self):
        assert not np.any(decompose(np.zeros((5, 5), dtype=int)))

    def test_reconstruction_on_random_weights(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 20))
            w = random_symmetric_weights(rng, n)
            gen = decompose(w)
            assert np.array_equal(gen + gen.T, w)
            assert not np.any(np.triu(gen))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            decompose(np.array([[0, 1], [2, 0]]))


class TestSpreadOrder:
    def test_order_from_proximity_worked(self):
        # distances from neuron 2: d(2,0)=1, d(2,1)=2, d(2,3)=3
        order = order_from_proximity(PROX, {2})
        assert list(order.permutation) == [2, 0, 1, 3]

    def test_all_neurons_start(self):
        order = order_from_proximity(PROX, {0, 1, 2, 3})
        assert list(order.permutation) == [0, 1, 2, 3]

    def test_tie_breaks_to_lower_index(self):
        p = np.array([[0, 2, 2], [2, 0, 1], [2, 1, 0]], dtype=float)
        order = order_from_proximity(p, {0})
        assert list(order.permutation) == [0, 1, 2]

    def test_multi_start_uses_minimum_distance(self):
        # neuron 3 is far from 0 but near 2, so it spreads first
        p = np.array(
            [
                [0, 9, 9, 9],
                [9, 0, 9, 2],
                [9, 9, 0, 9],
                [9, 2, 9, 0],
            ],
            dtype=float,
        )
        order = order_from_proximity(p, {0, 1})
        assert list(order.permutation) == [0, 1, 3, 2]

    def test_empty_start(self):
        with pytest.raises(ParameterError):
            order_from_proximity(PROX, set())

    def test_out_of_range(self):
        with pytest.raises(ParameterError):
            order_from_proximity(PROX, {7})

    def test_tie_breaks_to_lower_index_out_of_index_order(self):
        # from start {3}: neuron 1 is nearest, then 0, 2 and 4 tie at 2.0
        p = np.full((5, 5), 2.0)
        np.fill_diagonal(p, 0)
        p[1, 3] = p[3, 1] = 1.0
        p[0, 4] = p[4, 0] = 0.5
        order = order_from_proximity(p, {3})
        assert list(order.permutation) == [3, 1, 0, 2, 4]

    def test_index_order(self):
        # without a proximity matrix the spread runs in index order, start neurons first
        order = spread_full(np.zeros((5, 5), dtype=int), {3: 1, 1: -1}).order
        assert list(order.permutation) == [1, 3, 0, 2, 4]

    def test_index_order_validates_start(self):
        with pytest.raises(ParameterError):
            spread_full(np.zeros((5, 5), dtype=int), {})
        with pytest.raises(ParameterError):
            spread_full(np.zeros((5, 5), dtype=int), {5: 1})

    def test_out_of_range_start_names_the_neuron_1_based(self):
        message = r"^start neuron 6 out of range for 5 neurons$"
        with pytest.raises(ParameterError, match=message):
            spread_full(np.zeros((5, 5), dtype=int), {0: 1, 5: 1})
        with pytest.raises(ParameterError, match=message):
            order_from_proximity(np.ones((5, 5)) - np.eye(5), {5})
        # with an explicit order the seed is checked by the spread, before it meets the order
        with pytest.raises(ParameterError, match=message):
            spread_full(np.zeros((5, 5), dtype=int), {0: 1, 5: 1}, order=SpreadOrder(np.arange(5), 2))
        with pytest.raises(ParameterError, match=r"^start neuron 0 out of range for 5 neurons$"):
            spread_full(np.zeros((5, 5), dtype=int), {-1: 1}, order=SpreadOrder(np.arange(5), 1))

    def test_explicit_order_is_validated(self):
        order = SpreadOrder([2, 0, 1], np.int64(1))
        assert order.start_count == 1 and type(order.start_count) is int
        assert list(order.permutation) == [2, 0, 1]
        assert not order.permutation.flags.writeable
        assert SpreadOrder(np.arange(3), 3).start_count == 3
        with pytest.raises(ValidationError, match="must be a permutation"):
            SpreadOrder(np.array([0, 0, 1]), 1)
        with pytest.raises(ParameterError, match="^start_count must be at least 1$"):
            SpreadOrder(np.arange(3), 0)
        with pytest.raises(ParameterError, match="^start_count 4 exceeds the 3 neurons of the order$"):
            SpreadOrder(np.arange(3), 4)

    def test_nested_start_set_is_refused(self):
        # as a nested SpreadOrder or recall schedule is: it is not flattened into two seeds
        for start in ([[1, 2]], np.array([[1], [2]]), [[]]):
            with pytest.raises(ParameterError, match="^start set must be a flat collection of neuron indices$"):
                order_from_proximity(PROX, start)

    def test_start_beyond_int64_names_the_neuron_given(self):
        # a uint64 start neuron is range-checked as given, never wrapped to a negative int64
        with pytest.raises(ParameterError, match="^start neuron 9223372036854775809 out of range for 4 neurons$"):
            order_from_proximity(PROX, np.array([2**63], dtype=np.uint64))
        with pytest.raises(ParameterError, match="^start neuron 18446744073709551616 out of range for 4 neurons$"):
            order_from_proximity(PROX, np.array([1, 2**64 - 1], dtype=np.uint64))

    @pytest.mark.parametrize(
        "start, named",
        [([5, 2**63], 6), ([2**63, 5], 6), ([-1, 2**63], 0), ([2**64], 2**64 + 1)],
        ids=["beyond int64", "beyond int64 first", "negative beside beyond int64", "beyond uint64"],
    )
    def test_start_beyond_any_one_integer_dtype_names_the_least_neuron(self, start, named):
        # numpy reads these as float64 or object; as Python ints they are integers, and
        # the least offender is named, as for any other start set; a float still is not
        with pytest.raises(ParameterError, match=rf"^start neuron {named} out of range for 4 neurons$"):
            order_from_proximity(PROX, start)
        for refused in ([1.0, *start], [True, *start], ["1", *start]):
            with pytest.raises(ParameterError, match="^start neuron indices must be integers$"):
                order_from_proximity(PROX, refused)

    @pytest.mark.parametrize(
        "start",
        [
            lambda: {2, 1},
            lambda: {1: 0, 2: 0}.keys(),
            lambda: range(1, 3),
            lambda: (i for i in (2, 1, 2)),
            lambda: np.array([2, 1], dtype=np.int8),
            lambda: np.array([1, 2], dtype=np.uint16),
            lambda: np.array([2, 1], dtype=np.int32),
            lambda: np.array([1, 2], dtype=np.uint64),
            lambda: [np.uint64(2), np.int64(1)],  # numpy reads the two together as float64
        ],
        ids=["set", "dict keys", "range", "generator", "int8", "uint16", "int32", "uint64", "uint64 beside int64"],
    )
    def test_flat_start_sets_of_any_kind(self, start):
        order = order_from_proximity(PROX, start())
        assert order.permutation.dtype == np.int64
        assert order.permutation.tolist() == [1, 2, 0, 3] and order.start_count == 2

    def test_explicit_order_of_any_integer_width_is_held_as_int64(self):
        order = SpreadOrder(np.array([2, 0, 1], dtype=np.uint8), 1)
        assert order.permutation.dtype == np.int64 and list(order.permutation) == [2, 0, 1]

    def test_fields_are_the_permutation_and_the_start_count(self):
        assert [f.name for f in dataclasses.fields(SpreadOrder)] == ["permutation", "start_count"]
        assert order_from_proximity(PROX, {2, 3}).start_count == 2


class TestSpreadFull:
    def test_recovers_first_memory(self, worked_weights):
        trace = spread_full(worked_weights, {0: 1})
        assert list(trace.final) == [1, 1, 1, 1]
        assert len(trace.steps) == 3
        assert not trace.final.flags.writeable
        assert trace.consistency_flags == frozenset()

    def test_recovers_second_memory_from_two_neurons(self, worked_weights):
        trace = spread_full(worked_weights, {0: 1, 1: -1})
        assert list(trace.final) == [1, -1, 1, -1]
        assert len(trace.steps) == 2
        assert trace.consistency_flags == frozenset()

    def test_worked_example_fields(self, worked_weights):
        trace = spread_full(worked_weights, {0: 1})
        assert trace.steps == (SpreadStep(1, 0, 1), SpreadStep(2, 2, 1), SpreadStep(3, 2, 1))
        trace = spread_full(worked_weights, {0: 1, 1: -1, 2: 1})
        assert trace.steps == (SpreadStep(3, -2, -1),)

    def test_steps_are_immutable_records(self, worked_weights):
        step = spread_full(worked_weights, {0: 1, 1: -1, 2: 1}).steps[0]
        assert (step.neuron, step.field, step.value) == (3, -2, -1)
        assert all(type(v) is int for v in step)
        assert step == SpreadStep(neuron=3, field=-2, value=-1) != SpreadStep(3, -2, 1)
        assert repr(step) == "SpreadStep(neuron=3, field=-2, value=-1)"
        for name in ("neuron", "field", "value"):
            with pytest.raises(AttributeError):
                setattr(step, name, 0)
        assert step.field == -2

    def test_seeds_stay_clamped(self, worked_weights):
        # coupled neurons 1 and 3 are seeded with opposite signs: both keep their seed
        trace = spread_full(worked_weights, {3: -1, 1: 1})
        assert trace.start == ((1, 1), (3, -1))
        assert [s.neuron for s in trace.steps] == [0, 2]
        assert (trace.final[1], trace.final[3]) == (1, -1)
        assert trace.consistency_flags == frozenset({1, 3})

    def test_full_start_is_a_no_op(self, worked_weights):
        values = {0: 1, 1: -1, 2: 1, 3: -1}
        trace = spread_full(worked_weights, values)
        assert trace.steps == ()
        assert list(trace.final) == [1, -1, 1, -1]

    def test_step_count(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            n = int(rng.integers(2, 16))
            w = random_symmetric_weights(rng, n)
            k = int(rng.integers(1, n + 1))
            picks = rng.choice(n, size=k, replace=False)
            start = {int(i): int(v) for i, v in zip(picks, random_memories(rng, 1, k)[0])}
            trace = spread_full(w, start)
            assert len(trace.steps) == n - len(start)
            for idx, val in start.items():
                assert trace.final[idx] == val

    def test_fields_depend_only_on_already_assigned(self, worked_weights):
        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(2, 12))
            w = random_symmetric_weights(rng, n)
            start = {int(rng.integers(0, n)): 1}
            trace = spread_full(w, start)
            assigned = set(start)
            for step in trace.steps:
                expected = sum(int(w[step.neuron, j]) * int(trace.final[j]) for j in assigned)
                assert step.field == expected
                assert step.value == (1 if expected >= 0 else -1)
                assigned.add(step.neuron)

    def test_proximity_order_used(self, worked_weights):
        trace = spread_full(worked_weights, {2: 1}, proximity=PROX)
        assert list(trace.order.permutation) == [2, 0, 1, 3]
        # spreading from neuron 2 alone recovers the first memory
        assert list(trace.final) == [1, 1, 1, 1]

    def test_noisy_start_raises_flags(self, worked_weights):
        trace = spread_full(worked_weights, {0: 1, 2: -1})
        assert list(trace.final) == [1, 1, -1, 1]
        assert trace.consistency_flags == frozenset({0, 2})

    def test_flag_free_iff_fixed_point(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            w = random_symmetric_weights(rng, n)
            start = {int(rng.integers(0, n)): int(rng.choice((-1, 1)))}
            trace = spread_full(w, start)
            assert (len(trace.consistency_flags) == 0) == is_stored(w, trace.final)

    def test_relabeling_equivariance(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            n = int(rng.integers(2, 10))
            w = random_symmetric_weights(rng, n)
            p = rng.random((n, n)) + 0.1
            p = (p + p.T) / 2
            np.fill_diagonal(p, 0)
            start_idx = int(rng.integers(0, n))
            start_val = int(rng.choice((-1, 1)))
            trace = spread_full(w, {start_idx: start_val}, proximity=p)

            perm = rng.permutation(n)
            inv = np.argsort(perm)
            w2 = w[np.ix_(perm, perm)]
            p2 = p[np.ix_(perm, perm)]
            start2 = {int(inv[start_idx]): start_val}
            trace2 = spread_full(w2, start2, proximity=p2)
            assert np.array_equal(trace2.final, trace.final[perm])

    def test_both_proximity_and_order_rejected(self, worked_weights):
        order = SpreadOrder(np.arange(4), 1)
        with pytest.raises(ParameterError):
            spread_full(worked_weights, {0: 1}, proximity=PROX, order=order)

    def test_explicit_order_must_match_start(self, worked_weights):
        # the same count of seeds, but not the same neurons
        message = "^explicit order was built for a different start set$"
        order = SpreadOrder(np.array([1, 0, 2, 3]), 1)
        with pytest.raises(ParameterError, match=message):
            spread_full(worked_weights, {0: 1}, order=order)
        with pytest.raises(ParameterError, match=message):
            spread_full(worked_weights, {0: 1, 2: 1}, order=SpreadOrder(np.array([0, 1, 2, 3]), 2))

    def test_an_order_built_for_two_seeds_needs_both(self, worked_weights):
        order = order_from_proximity(PROX, {0, 1})
        for seed in ({0: 1}, {1: -1}):
            with pytest.raises(ParameterError, match="^explicit order was built for a different start set$"):
                spread_full(worked_weights, seed, order=order)
            with pytest.raises(ParameterError, match="^explicit order was built for a different start set$"):
                retrieve_report(worked_weights, seed, order=order)
        trace = spread_full(worked_weights, {1: -1, 0: 1}, order=order)
        assert trace.order is order
        built = spread_full(worked_weights, {0: 1, 1: -1}, proximity=PROX)
        assert trace.steps == built.steps and np.array_equal(trace.final, built.final)
        assert retrieve_report(worked_weights, {0: 1, 1: -1}, order=order).trace.steps == trace.steps

    def test_raw_proximity_is_checked_once_and_neither_copied_nor_trusted(self, worked_weights, monkeypatch):
        raw = PROX.copy()
        checks = []
        fault = core._proximity_fault

        def spy(arr):
            checks.append(arr is raw)
            return fault(arr)

        monkeypatch.setattr(core, "_proximity_fault", spy)
        order = order_from_proximity(raw, {2})
        trace = spread_full(worked_weights, {2: 1}, proximity=raw)
        # one full check of the caller's own array per call, the spread's included
        assert checks == [True, True]
        assert np.array_equal(trace.order.permutation, order.permutation)
        assert raw.flags.writeable and np.array_equal(raw, PROX)
        assert not core._trusted(raw, np.float64)
        raw[0, 1] = 7.0
        with pytest.raises(ValidationError, match=r"^proximity matrix is asymmetric at \(1, 2\)$"):
            order_from_proximity(raw, {2})
        with pytest.raises(ValidationError, match=r"^proximity matrix is asymmetric at \(1, 2\)$"):
            spread_full(worked_weights, {2: 1}, proximity=raw)
        raw[0, 1] = PROX[0, 1]
        checked = validate_proximity(raw)
        assert checked is not raw and not checked.flags.writeable and np.array_equal(checked, raw)
        checks.clear()
        assert validate_proximity(checked) is checked
        order_from_proximity(checked, {2})
        spread_full(worked_weights, {2: 1}, proximity=checked)
        assert checks == []

    def test_raw_proximity_is_not_copied(self):
        # the check's temporaries are a few row blocks; a copy would be the whole matrix
        points = np.random.default_rng(5).random((600, 2))
        raw = np.sqrt(((points[:, None] - points[None]) ** 2).sum(axis=-1))
        tracemalloc.start()
        try:
            order_from_proximity(raw, {0, 1})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < raw.nbytes / 2

    @pytest.mark.parametrize("k", [3, 5])
    def test_proximity_of_the_wrong_size_rejected(self, worked_weights, k):
        # a proximity matrix is sized against the weights before its order is built,
        # so a start neuron beyond a small matrix is reported as the same mismatch
        p = np.ones((k, k)) - np.eye(k)
        for start in ({0: 1}, {3: 1}):
            with pytest.raises(DimensionMismatch, match=f"^order covers {k} neurons, weights have 4$"):
                spread_full(worked_weights, start, proximity=p)
        with pytest.raises(DimensionMismatch, match=f"^order covers {k} neurons, weights have 4$"):
            spread_full(worked_weights, {0: 1}, order=SpreadOrder(np.arange(k), 1))


@st.composite
def spread_cases(draw):
    """Random symmetric weights, a nonempty seed, and an optional proximity
    matrix whose small integer distances make ties common. The weights are
    scaled by an integer, up to a total absolute weight just below 2**62, so
    the fields reach the bound where an int64 dot could first wrap."""
    n = draw(st.integers(1, 10))
    cells = st.lists(st.integers(-4, 4), min_size=n * n, max_size=n * n)
    upper = np.triu(np.array(draw(cells), dtype=np.int64).reshape(n, n), 1)
    scale = draw(st.sampled_from((1, 2**40, "limit")))
    upper *= 2**62 // max(1, 2 * int(np.abs(upper).sum())) if scale == "limit" else scale
    k = draw(st.integers(1, n))
    picks = draw(st.permutations(range(n)))[:k]
    values = draw(st.lists(st.sampled_from((-1, 1)), min_size=k, max_size=k))
    proximity = None
    if draw(st.booleans()):
        dists = st.lists(st.integers(1, 3), min_size=n * n, max_size=n * n)
        d = np.triu(np.array(draw(dists), dtype=float).reshape(n, n), 1)
        proximity = d + d.T
    return upper + upper.T, dict(zip(picks, values)), proximity


def reference_order(n, start, proximity=None):
    """Start neurons by index, then the rest sorted by (minimum distance over
    the start rows, index); by index alone without a proximity matrix."""
    head = sorted(start)
    rest = [j for j in range(n) if j not in start]
    if proximity is not None:
        rest.sort(key=lambda j: (min(proximity[s, j] for s in head), j))
    return head + rest


def reference_spread(w, start, proximity):
    """Spread recomputed from the definitions: order by (nearest start
    distance, index), every field from the generator row over the prefix
    assigned so far, flags from one synchronous pass over the final state."""
    n = w.shape[0]
    head = sorted(start)
    perm = reference_order(n, start, proximity)
    gen = decompose(w[np.ix_(perm, perm)])
    x = [start[i] for i in head]
    steps = []
    for k in range(len(head), n):
        field = int(gen[k, :k] @ np.array(x, dtype=np.int64))
        x.append(sgn(field))
        steps.append(SpreadStep(perm[k], field, x[-1]))
    final = np.empty(n, dtype=np.int64)
    final[perm] = x
    flags = frozenset(np.flatnonzero(sgn(w @ final) != final).tolist())
    return perm, tuple(steps), final, flags


class TestSpreadOracle:
    @given(spread_cases())
    def test_matches_reference(self, case):
        w, start, proximity = case
        trace = spread_full(w, start, proximity=proximity)
        perm, steps, final, flags = reference_spread(w, start, proximity)
        assert trace.order.permutation.tolist() == perm
        assert trace.steps == steps
        assert np.array_equal(trace.final, final)
        assert trace.consistency_flags == flags
        assert trace.start == tuple(sorted(start.items()))

    @pytest.mark.parametrize("n", [63, 64, 65, 130, 200])
    def test_blocks_match_reference(self, n):
        # trained weights take the factor path, an untrusted copy the rows path; random
        # starts scatter the seeds over the blocks, and even m gives zero-field ties
        rng = np.random.default_rng(n)
        for m in (n // 20 + 1, 2 * (n // 12) + 2):
            w = train(random_memories(rng, m, n))
            assert core._factor(w) is not None and core._factor(np.array(w)) is None
            k = int(rng.integers(1, n // 3))
            picks = rng.choice(n, size=k, replace=False)
            start = dict(zip(picks.tolist(), rng.choice((-1, 1), size=k).tolist()))
            d = np.triu(rng.integers(1, 4, size=(n, n)).astype(float), 1)
            for proximity in (None, d + d.T):
                perm, steps, final, flags = reference_spread(w, start, proximity)
                for weights in (w, np.array(w)):
                    trace = spread_full(weights, start, proximity=proximity)
                    assert trace.order.permutation.tolist() == perm
                    assert trace.steps == steps
                    assert np.array_equal(trace.final, final)
                    assert trace.consistency_flags == flags

    def test_antiferromagnetic_chain_settles_one_neuron_per_round(self, monkeypatch):
        # W[i, i+1] = -1 in index order: each block's first guess sgn(f0) is +1 past its
        # first neuron, and every round overturns one more value; the worst case
        n = 2 * core._ROW_BLOCK + 5
        w = np.zeros((n, n), dtype=np.int64)
        i = np.arange(n - 1)
        w[i, i + 1] = w[i + 1, i] = -1
        calls = []

        def spy(fields, states):
            unstable = core._unstable(fields, states)
            calls.append((fields.size, bool(unstable.any())))
            return unstable

        monkeypatch.setattr(generator, "_unstable", spy)
        trace = spread_full(w, {0: 1})
        alternating = tuple(SpreadStep(j, (-1) ** j, (-1) ** j) for j in range(1, n))
        assert trace.steps == alternating == reference_spread(w, {0: 1}, None)[1]
        assert trace.consistency_flags == frozenset()
        *solve, final_flags = calls
        assert final_flags == (n, False)
        rounds, count = [], 0  # (block size, rounds until its values are stable)
        for size, unstable in solve:
            count += 1
            if not unstable:
                rounds.append((size, count))
                count = 0
        assert count == 0
        assert rounds == [(64, 63), (64, 63), (4, 3)]
        assert all(count <= size + 1 for size, count in rounds)


@st.composite
def order_cases(draw):
    """A symmetric proximity matrix whose small integer distances make ties
    common, with diagonal entries anywhere validate_proximity tolerates, in
    [-1e-9, 1e-9], some off-diagonal distances below 1e-9, and a nonempty
    start set. Sizes above 16 reach numpy's unstable default sort."""
    n = draw(st.integers(1, 20))
    dist = st.sampled_from((1.0, 2.0, 3.0, 1e-12, 5e-10))
    d = np.zeros((n, n))
    d[np.triu_indices(n, 1)] = draw(st.lists(dist, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    diag = draw(st.lists(st.floats(-1e-9, 1e-9), min_size=n, max_size=n))
    start = draw(st.sets(st.integers(0, n - 1), min_size=1))
    return d + d.T + np.diag(diag), start


class TestOrderOracle:
    @given(order_cases())
    def test_builders_match_reference(self, case):
        p, start = case
        n = p.shape[0]
        for order, want in (
            (order_from_proximity(p, start), reference_order(n, start, p)),
            (spread_full(np.zeros((n, n), dtype=int), dict.fromkeys(start, 1)).order, reference_order(n, start)),
        ):
            assert order.permutation.tolist() == want
            assert order.start_count == len(start)


class TestRetrieveReport:
    def test_clean_retrieval(self, worked_weights, two_memories):
        report = retrieve_report(worked_weights, {0: 1}, two_memories)
        assert report.matched_index == 0
        assert report.nearest_distance == 0
        assert report.is_fixed_point

    def test_flipped_seed_lands_on_complement_attractor(self, worked_weights, two_memories):
        report = retrieve_report(worked_weights, {0: -1}, two_memories)
        assert list(report.trace.final) == [-1, 1, -1, 1]
        assert report.matched_index is None
        assert report.nearest_index == 0
        assert report.nearest_distance == 2
        assert report.is_fixed_point

    def test_untrained_network(self, two_memories):
        w = np.zeros((4, 4), dtype=int)
        report = retrieve_report(w, {0: 1}, two_memories)
        assert list(report.trace.final) == [1, 1, 1, 1]
        assert report.matched_index == 0  # all-ones happens to be stored here

        report2 = retrieve_report(w, {0: 1}, [(1, -1, 1, -1)])
        assert report2.matched_index is None
        assert report2.nearest_distance == 2

    @pytest.mark.parametrize("bad", [0, 3])
    def test_a_hand_built_memory_set_is_checked(self, worked_weights, bad):
        vectors = np.array([[1, -1, 1, -1], [-1, 1, bad, 1]])
        with pytest.raises(ValidationError, match=rf"^state entries must be \+1 or -1, neuron 3 has np.int64\({bad}\)$"):
            retrieve_report(worked_weights, {0: 1}, MemorySet(vectors=vectors))

    def test_no_memories(self, worked_weights):
        report = retrieve_report(worked_weights, {0: 1}, [])
        assert report.matched_index is None
        assert report.nearest_index is None

    def test_dimension_mismatch(self, worked_weights):
        with pytest.raises(DimensionMismatch):
            retrieve_report(worked_weights, {0: 1}, [(1, -1)])

    def test_memories_of_any_collection(self, worked_weights, two_memories):
        # a generator has no length to ask before it is read; an empty one means
        # no memories, as [] does, and a MemorySet is taken as it is
        def outcome(memories):
            report = retrieve_report(worked_weights, {0: -1}, memories)
            return report.matched_index, report.nearest_index, report.nearest_distance, report.is_fixed_point

        want = outcome(two_memories)
        assert want == (None, 0, 2, True)
        assert outcome(m for m in two_memories) == outcome(np.array(two_memories)) == want
        assert outcome(validate_memory_set(two_memories)) == want
        assert outcome(m for m in ()) == outcome(np.empty((0, 4))) == outcome([]) == outcome(None)
        assert outcome(None) == (None, None, None, True)
