"""The field of a state, core._fields: a trained matrix carries its memories
and gives its fields through them in float64, any other matrix through the
int64 product, and the two paths agree exactly in every consumer."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from assocmem import (
    complement_asymmetry_probe,
    energy,
    enumerate_fixed_points,
    is_stored,
    recall_async,
    recall_sync,
    recall_sync_iterated,
    spread_full,
    train,
)
from assocmem import core
from conftest import random_memories, reference_sync

# n above this is left out of the 2^n fixed-point census
CENSUS_N = 10


@st.composite
def memory_cases(draw):
    """Memories with n in [2, 40] and m in [1, 2n], both sides of m < n, and a seed for the probes."""
    n = draw(st.integers(2, 40))
    m = draw(st.integers(1, 2 * n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_memories(rng, m, n), draw(st.integers(0, 2**16))


def _trace(result):
    cycle = None if result.cycle is None else [c.tolist() for c in result.cycle]
    return (
        result.state.tolist(),
        result.iterations,
        result.converged,
        [e.hex() for e in result.energy_trace],
        cycle,
    )


def _reference(w, s):
    """_trace of the conftest oracle reference_sync, under its default budget."""
    state, passes, converged, trace, cycle = reference_sync(w, s, None)
    cycle = None if cycle is None else [c.tolist() for c in cycle]
    return state.tolist(), passes, converged, [e.hex() for e in trace], cycle


def _spread(trace):
    steps = [(s.neuron, s.field, s.value) for s in trace.steps]
    return trace.final.tolist(), steps, sorted(trace.consistency_flags)


def _probe(report):
    failures = [(f.memory_index, f.zero_field_components) for f in report.failures]
    return report.fixed_memory_indices, failures


def _outcomes(w, memories, seed):
    """Everything each field consumer reports on weights w, in comparable form."""
    rng = np.random.default_rng(seed)
    m, n = memories.shape
    noisy = memories[0] * np.where(rng.random(n) < 0.3, -1, 1)
    states = [memories[0], -memories[-1], noisy, random_memories(rng, 1, n)[0]]
    explicit = rng.permutation(n).tolist()
    out = []
    for s in states:
        out += [
            recall_sync(w, s).tolist(),
            is_stored(w, s),
            energy(w, s).hex(),
            _trace(recall_sync_iterated(w, s)),
            _trace(recall_sync_iterated(w, s, max_passes=1)),
        ]
        out += [_trace(recall_async(w, s, schedule=k, seed=seed if k == "random" else None))
                for k in ("cyclic", "random", explicit)]
    start = {int(i): int(memories[0][i]) for i in rng.choice(n, max(1, n // 4), replace=False)}
    out.append(_spread(spread_full(w, start)))
    out.append(_probe(complement_asymmetry_probe(w, memories)))
    if n <= CENSUS_N:
        out.append([p.tolist() for p in enumerate_fixed_points(w)])
    return out


# m = 1; m = n - 1; m = n, which keeps the int64 path
ONE_MEMORY = (np.array([[1, -1, -1, 1, 1]]), 0)
ONE_SHORT = (np.array([[1, 1, -1, 1], [-1, 1, 1, 1], [1, -1, 1, -1]]), 1)
SQUARE = (np.array([[1, 1, -1], [-1, 1, 1], [1, 1, 1]]), 2)
# even m: the memories agree at neuron 0 and disagree everywhere else, so row 0
# of the weights is zero and neuron 0 sees a zero field in every state
ZERO_FIELD_TIES = (np.array([[1, 1, -1, 1, -1, 1], [1, -1, 1, -1, 1, -1]]), 3)


class TestFieldOracle:
    @settings(deadline=None)
    @given(memory_cases())
    @example(ONE_MEMORY)
    @example(ONE_SHORT)
    @example(SQUARE)
    @example(ZERO_FIELD_TIES)
    def test_trained_matches_untrusted_copy(self, case):
        memories, seed = case
        m, n = memories.shape
        w = train(memories)
        assert (core._TRUSTED[id(w)] is not None) == (m < n)
        assert _outcomes(w, memories, seed) == _outcomes(np.array(w), memories, seed)

    def test_zero_field_example_has_ties(self):
        w = train(ZERO_FIELD_TIES[0])
        assert core._TRUSTED[id(w)] is not None
        assert core._fields(w, np.ones(6, dtype=np.int8))[0] == 0

    def test_stack_of_states_gives_each_row_its_fields(self):
        rng = np.random.default_rng(5)
        memories = random_memories(rng, 4, 9)
        w = train(memories)
        states = random_memories(rng, 7, 9)
        expected = states.astype(np.int64) @ np.array(w)
        assert core._fields(w, states).dtype == np.int64
        assert np.array_equal(core._fields(w, states), expected)
        assert np.array_equal(core._fields(w, states[2]), expected[2])


class TestFactorRegistry:
    @pytest.fixture
    def spy(self, monkeypatch):
        # the shape of each kept memory matrix core._fields is given to compute through
        calls = []
        factor = core._factor

        def spy(w):
            x = factor(w)
            if x is not None:
                calls.append(x.shape)
            return x

        monkeypatch.setattr(core, "_factor", spy)
        return calls

    def test_entry_dies_with_its_weights(self, monkeypatch):
        monkeypatch.setattr(core, "_TRUSTED", {})
        w = train(random_memories(np.random.default_rng(1), 3, 8))
        factor = weakref.ref(core._TRUSTED[id(w)])
        assert factor().shape == (3, 8) and factor().dtype == np.float64
        assert not factor().flags.writeable
        del w
        gc.collect()
        assert core._TRUSTED == {}
        assert factor() is None

    def test_trained_weights_take_the_factor(self, spy):
        memories = random_memories(np.random.default_rng(2), 3, 8)
        w = train(memories)
        recall_sync(w, memories[0])
        assert spy == [(3, 8)]

    def test_synchronous_passes_take_the_factor(self, spy):
        # the first field and the field after every pass that changed the state
        rng = np.random.default_rng(7)
        memories = random_memories(rng, 4, 24)
        w = train(memories)
        result = recall_sync_iterated(w, random_memories(rng, 1, 24)[0])
        assert result.iterations > 2
        assert spy == [(4, 24)] * result.iterations

    def test_copy_takes_the_int64_path(self, spy):
        memories = random_memories(np.random.default_rng(3), 3, 8)
        w = train(memories)
        copy = w.copy()
        assert np.array_equal(recall_sync(copy, memories[0]), recall_sync(np.array(w), memories[0]))
        assert is_stored(copy, memories[1]) == is_stored(np.array(w), memories[1])
        s = -memories[2]
        assert _trace(recall_sync_iterated(copy, s)) == _trace(recall_sync_iterated(np.array(w), s))
        assert spy == []

    def test_writeable_again_takes_the_int64_path(self, spy):
        memories = random_memories(np.random.default_rng(4), 3, 8)
        w = train(memories)
        w.setflags(write=True)
        w[0, 1] += 2
        w[1, 0] += 2
        s = np.ones(8, dtype=np.int8)
        assert np.array_equal(core._fields(w, s), w @ s)
        assert energy(w, s) == -int(s @ w @ s) / 2
        # every start, among them runs of 5 passes and 2-cycles, on the changed weights
        for start in (np.where((k >> np.arange(8)) & 1, 1, -1) for k in range(256)):
            assert _trace(recall_sync_iterated(w, start)) == _reference(w, start)
        assert spy == []

    def test_no_factor_when_m_is_not_below_n(self):
        rng = np.random.default_rng(5)
        w = train(random_memories(rng, 6, 7))
        assert core._TRUSTED[id(w)] is not None
        for m in (7, 8, 14):
            w = train(random_memories(rng, m, 7))
            assert core._TRUSTED[id(w)] is None

    def test_no_factor_beyond_the_exact_limit(self, monkeypatch):
        monkeypatch.setattr(core, "FLOAT_EXACT_LIMIT", 12)
        rng = np.random.default_rng(6)
        w = train(random_memories(rng, 2, 6))
        assert core._TRUSTED[id(w)] is not None  # m n = 12, at the limit
        w = train(random_memories(rng, 2, 7))
        assert core._TRUSTED[id(w)] is None


class TestExactFloat:
    # the capacity trial computes in float32 up to m n = 2**24, in float64 past it
    def test_float32_up_to_its_exact_limit(self):
        assert core._exact_float(2**24) is np.float32
        assert int(np.float32(2**24 - 1) + np.float32(1)) == 2**24

    def test_float64_past_it(self):
        assert core._exact_float(2**24 + 1) is np.float64
        # the bound is needed: float32 rounds the sum 2**24 + 1 to 2**24
        assert int(np.float32(2**24) + np.float32(1)) == 2**24
