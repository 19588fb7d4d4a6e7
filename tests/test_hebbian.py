import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from assocmem import (
    DimensionMismatch,
    ParameterError,
    energy,
    is_stored,
    recall_async,
    recall_sync,
    recall_sync_iterated,
    train,
)
from assocmem import core
from conftest import WORKED_WEIGHTS, random_memories, random_symmetric_weights, reference_energy, reference_sync

memory_sets = st.integers(min_value=2, max_value=8).flatmap(
    lambda n: st.lists(
        st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n),
        min_size=1,
        max_size=6,
    )
)


class TestTrain:
    def test_worked_example(self, two_memories):
        assert np.array_equal(train(two_memories), WORKED_WEIGHTS)

    def test_single_memory(self):
        w = train([(1, 1, -1)])
        assert np.array_equal(w, [[0, 1, -1], [1, 0, -1], [-1, -1, 0]])

    def test_memory_and_complement(self):
        x = np.array([1, -1, 1, 1, -1])
        expected = 2 * np.outer(x, x)
        np.fill_diagonal(expected, 0)
        assert np.array_equal(train([x, -x]), expected)

    def test_propagates_validation(self):
        with pytest.raises(DimensionMismatch):
            train([(1, 1), (1, 1, 1)])

    @given(memory_sets)
    def test_symmetric_zero_diagonal_bounded(self, memories):
        m = len(memories)
        w = train(memories)
        assert np.array_equal(w, w.T)
        assert not np.any(np.diag(w))
        off = w[~np.eye(w.shape[0], dtype=bool)]
        assert np.all(np.abs(off) <= m)
        # every off-diagonal entry is a sum of m terms from {-1, +1}
        assert np.all((off - m) % 2 == 0)

    @given(
        st.one_of(st.sampled_from((1, 63, 64, 65, 128, 130)), st.integers(1, 200)).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(1, n + 70), st.integers(0, 2**32 - 1))
        )
    )
    @example((1, 1, 0))
    @example((1, 71, 1))
    @example((63, 64, 2))
    @example((64, 64, 3))
    @example((65, 65, 4))
    @example((65, 64, 5))
    @example((128, 198, 6))
    @example((130, 129, 7))
    @example((130, 200, 8))
    def test_matches_the_int64_product(self, case):
        # row blocks of 64 through float64 BLAS against the plain int64 sum, m >= n included
        n, m, seed = case
        memories = random_memories(np.random.default_rng(seed), m, n)
        w = train(memories)
        x = memories.astype(np.int64)
        expected = x.T @ x
        np.fill_diagonal(expected, 0)
        assert w.dtype == np.int64
        assert np.array_equal(w, expected)
        assert not w.flags.writeable and core._trusted(w, np.int64)
        factor = core._factor(w)
        assert (factor is not None) == (m < n and m * n <= core.FLOAT_EXACT_LIMIT)
        if factor is not None:
            assert factor.dtype == np.float64 and not factor.flags.writeable
            assert np.array_equal(factor, memories)

    def test_peak_memory_is_the_matrix_and_one_row_block(self):
        # a float64 n x n product cast to int64 would hold twice the matrix at once
        memories = random_memories(np.random.default_rng(9), 40, 600)
        tracemalloc.start()
        try:
            w = train(memories)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * w.nbytes


class TestRecallSync:
    def test_both_memories_are_fixed(self, worked_weights, two_memories):
        for x in two_memories:
            assert np.array_equal(recall_sync(worked_weights, x), x)

    def test_zero_weights_give_all_ones(self):
        w = np.zeros((3, 3), dtype=int)
        assert list(recall_sync(w, [-1, 1, -1])) == [1, 1, 1]

    def test_dimension_mismatch(self, worked_weights):
        with pytest.raises(DimensionMismatch):
            recall_sync(worked_weights, [1, 1, 1])

    def test_positive_scale_invariance(self, worked_weights):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = random_memories(rng, 1, 4)[0]
            for c in (2, 3, 7):
                assert np.array_equal(recall_sync(c * worked_weights, x), recall_sync(worked_weights, x))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            w = random_symmetric_weights(rng, n)
            x = random_memories(rng, 1, n)[0]
            perm = rng.permutation(n)
            wp = w[np.ix_(perm, perm)]
            assert np.array_equal(recall_sync(wp, x[perm]), recall_sync(w, x)[perm])


class TestIsStored:
    def test_worked_true(self, worked_weights):
        assert is_stored(worked_weights, (1, 1, 1, 1))

    def test_worked_false(self, worked_weights):
        # one synchronous pass sends this to (-1, 1, 1, 1)
        assert np.array_equal(recall_sync(worked_weights, (1, 1, -1, 1)), (-1, 1, 1, 1))
        assert not is_stored(worked_weights, (1, 1, -1, 1))

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_single_memory_always_stored(self, n):
        rng = np.random.default_rng(n)
        x = random_memories(rng, 1, n)[0]
        assert is_stored(train([x]), x)


class TestEnergy:
    def test_worked_value(self, worked_weights):
        assert energy(worked_weights, (1, 1, 1, 1)) == -4.0

    def test_zero_weights(self):
        assert energy(np.zeros((4, 4), dtype=int), (1, -1, 1, -1)) == 0.0

    def test_sign_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(2, 10))
            w = random_symmetric_weights(rng, n)
            x = random_memories(rng, 1, n)[0]
            assert energy(w, x) == energy(w, -x)


class TestRecallAsync:
    def test_stored_memory_converges_immediately(self, worked_weights):
        result = recall_async(worked_weights, (1, 1, 1, 1), schedule="cyclic")
        assert result.converged
        assert result.iterations == 1
        assert np.array_equal(result.state, (1, 1, 1, 1))
        assert len(set(result.energy_trace)) == 1

    def test_worked_example_cyclic(self, worked_weights):
        # cyclic order flips neuron 1 first (field -2), landing on the
        # complement-family attractor; energy drops 0 -> -4 and stays
        result = recall_async(worked_weights, (1, 1, -1, 1), schedule="cyclic")
        assert np.array_equal(result.state, (-1, 1, -1, 1))
        assert result.converged
        assert result.energy_trace[0] == 0.0
        assert result.energy_trace[-1] == -4.0
        assert all(b <= a for a, b in zip(result.energy_trace, result.energy_trace[1:]))

    def test_same_start_other_order_reaches_first_memory(self, worked_weights):
        # updating neuron 3 first repairs the damaged bit instead
        result = recall_async(worked_weights, (1, 1, -1, 1), schedule=[2, 0, 1, 3])
        assert np.array_equal(result.state, (1, 1, 1, 1))
        assert result.converged

    def test_zero_weights_reach_all_ones(self):
        w = np.zeros((5, 5), dtype=int)
        result = recall_async(w, [-1, -1, 1, -1, 1], schedule="cyclic")
        assert result.converged
        assert list(result.state) == [1] * 5
        # all flips happen during the first pass
        assert result.energy_trace[5:] == (0.0,) * (len(result.energy_trace) - 5)

    def test_random_schedule_needs_seed(self, worked_weights):
        with pytest.raises(ParameterError):
            recall_async(worked_weights, (1, 1, 1, 1), schedule="random")

    def test_negative_seed_rejected(self, worked_weights):
        with pytest.raises(ParameterError, match="^seed must be a nonnegative integer$"):
            recall_async(worked_weights, (1, 1, 1, 1), schedule="random", seed=-1)

    @pytest.mark.parametrize(
        "schedule, seed",
        [
            ("cyclic", 0),
            ("cyclic", "abc"),
            ("cyclic", -3),
            ([3, 2, 1, 0], 1.5),
            ([3, 2, 1, 0], 7),
            (np.array([3, 2, 1, 0]), 7),
            ("sweep", 7),
        ],
        ids=["cyclic", "cyclic-string", "cyclic-negative", "explicit-float", "explicit", "explicit-array", "unknown"],
    )
    def test_seed_that_determines_nothing_is_refused(self, worked_weights, schedule, seed):
        # only the random schedule draws; the seed is refused before it is read
        with pytest.raises(ParameterError, match="^seed only applies to the random schedule$"):
            recall_async(worked_weights, (1, 1, 1, 1), schedule=schedule, seed=seed)

    def test_zero_max_passes_rejected(self, worked_weights):
        with pytest.raises(ParameterError):
            recall_async(worked_weights, (1, 1, 1, 1), max_passes=0)

    def test_unknown_schedule(self, worked_weights):
        with pytest.raises(ParameterError):
            recall_async(worked_weights, (1, 1, 1, 1), schedule="sweep")

    def test_explicit_schedule_must_be_permutation(self, worked_weights):
        with pytest.raises(ParameterError):
            recall_async(worked_weights, (1, 1, 1, 1), schedule=[0, 0, 1, 2])

    def test_descent_on_random_networks(self):
        rng = np.random.default_rng(2024)
        for trial in range(200):
            n = int(rng.integers(2, 33))
            w = train(random_memories(rng, int(rng.integers(1, n + 2)), n))
            x = random_memories(rng, 1, n)[0]
            schedule, seed = ("cyclic", None) if trial % 2 == 0 else ("random", trial)
            result = recall_async(w, x, schedule=schedule, seed=seed)
            diffs = np.diff(result.energy_trace)
            assert np.all(diffs <= 0)
            assert result.converged
            assert result.iterations <= 10 * n
            assert is_stored(w, result.state)
            assert result.energy_trace[-1] == energy(w, result.state)

    def test_zero_field_tie_keeps_energy_flat(self):
        # neuron 0 of (−1, ...) sees field 0, adopts +1, energy unchanged
        w = np.zeros((2, 2), dtype=int)
        result = recall_async(w, [-1, -1], schedule="cyclic")
        assert list(result.state) == [1, 1]
        assert set(result.energy_trace) == {0.0}

    def test_trace_is_exact_near_the_weight_limit(self):
        # energies far beyond 2**53, where a running float sum would drift
        rng = np.random.default_rng(62)
        for _ in range(60):
            n = int(rng.integers(2, 30))
            w = random_symmetric_weights(rng, n)
            w *= 2**62 // max(1, int(np.abs(w).sum()))
            x = random_memories(rng, 1, n)[0].astype(np.int64)
            result = recall_async(w, x, schedule="cyclic")
            assert result.energy_trace[0] == energy(w, x)
            for k, e in enumerate(result.energy_trace[1:]):
                i = k % n
                x[i] = 1 if w[i] @ x >= 0 else -1
                assert e == energy(w, x)
            assert np.array_equal(result.state, x)


class TestComplementProperty:
    def test_conditional_complement_on_random_networks(self):
        rng = np.random.default_rng(99)
        checked = 0
        for _ in range(150):
            n = int(rng.integers(2, 12))
            memories = random_memories(rng, int(rng.integers(1, 5)), n)
            w = train(memories)
            for x in memories:
                if is_stored(w, x) and not np.any(w @ x.astype(np.int64) == 0):
                    assert is_stored(w, -x)
                    checked += 1
        assert checked > 50


class TestRecallSyncIterated:
    def test_fixed_point(self, worked_weights):
        result = recall_sync_iterated(worked_weights, (1, 1, 1, 1))
        assert result.converged
        assert result.iterations == 1
        assert result.cycle is None

    def test_two_cycle_reported(self):
        w = np.array([[0, -1], [-1, 0]])
        result = recall_sync_iterated(w, (1, 1))
        assert not result.converged
        assert result.cycle is not None
        a, b = result.cycle
        assert np.array_equal(recall_sync(w, a), b)
        assert np.array_equal(recall_sync(w, b), a)

    def test_worked_network_two_cycles_from_noisy_start(self, worked_weights):
        # the same start the asynchronous dynamics repair: synchronous
        # passes bounce between (1,1,-1,1) and (-1,1,1,1) forever
        result = recall_sync_iterated(worked_weights, (1, 1, -1, 1))
        assert not result.converged
        assert result.cycle is not None

    def test_converges_from_noisy_start(self):
        w = train([(1, 1, -1)])
        result = recall_sync_iterated(w, (1, 1, 1))
        assert result.converged
        assert np.array_equal(result.state, (1, 1, -1))
        assert is_stored(w, result.state)


@st.composite
def recall_cases(draw):
    """Weights, a start state, an update schedule and a pass budget.

    Weights are trained (mostly converging), trained and negated (synchronous
    two-cycles), or small random integers (frequent zero-field ties), copied
    and then scaled by an integer, up to a total absolute weight just below
    2**62; or they are kept: the matrix train returns for m < n memories,
    unscaled, whose fields go through its memories.
    """
    kind = draw(st.sampled_from(("trained", "negated", "small", "kept")))
    n = draw(st.integers(2 if kind == "kept" else 1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "kept":
        w = train(random_memories(rng, int(rng.integers(1, n)), n))
        assert core._factor(w) is not None
    else:
        if kind == "small":
            w = random_symmetric_weights(rng, n, lo=-1, hi=2)
        else:
            w = train(random_memories(rng, int(rng.integers(1, n + 3)), n)).copy()
            if kind == "negated":
                w = -w
        scale = draw(st.sampled_from((1, 3, 2**40, "limit")))
        w *= 2**62 // max(1, int(np.abs(w).sum())) if scale == "limit" else scale
    x = random_memories(rng, 1, n)[0]
    schedule = draw(st.sampled_from(("cyclic", "random", "explicit")))
    if schedule == "explicit":
        schedule = draw(st.permutations(range(n)))
    max_passes = draw(st.sampled_from((None, 1, 2, 3)))
    return w, x, schedule, max_passes, draw(st.integers(0, 2**16)) if schedule == "random" else None


def reference_async(w, x, schedule, max_passes, seed):
    """Asynchronous recall from the definitions: W[i] x at every visit and
    x W x after every visit."""
    w = np.asarray(w, dtype=np.int64)
    x = np.array(x, dtype=np.int64)
    n = x.size
    max_passes = 10 * n if max_passes is None else max_passes
    rng = np.random.default_rng(seed)
    trace = [reference_energy(w, x)]
    for passes in range(1, max_passes + 1):
        if schedule == "cyclic":
            order = range(n)
        elif schedule == "random":
            order = rng.permutation(n)
        else:
            order = schedule
        flips = 0
        for i in order:
            v = 1 if w[i] @ x >= 0 else -1
            flips += v != x[i]
            x[i] = v
            trace.append(reference_energy(w, x))
        if flips == 0:
            return x, passes, True, trace
    return x, max_passes, bool(np.array_equal(np.where(w @ x >= 0, 1, -1), x)), trace


# zero weights: every field is 0, so sgn(0) = +1 decides every neuron
ZERO_FIELD_TIES = (np.zeros((3, 3), dtype=np.int64), np.array([-1, 1, -1]), "cyclic", None, None)
# neuron 0 always sees a zero field; its partners two-cycle synchronously
ZERO_FIELD_CYCLE = (np.array([[0, 0, 0], [0, 0, -2], [0, -2, 0]]), np.array([-1, 1, 1]), "random", 2, 5)
ANTIFERROMAGNET = (np.array([[0, -1], [-1, 0]]), np.array([1, 1]), [1, 0], None, None)


class TestRecallOracle:
    @given(recall_cases())
    @example(ZERO_FIELD_TIES)
    @example(ZERO_FIELD_CYCLE)
    @example(ANTIFERROMAGNET)
    def test_sync_matches_reference(self, case):
        w, x, _, max_passes, _ = case
        result = recall_sync_iterated(w, x, max_passes=max_passes)
        state, iterations, converged, trace, cycle = reference_sync(w, x, max_passes)
        assert np.array_equal(result.state, state)
        assert (result.iterations, result.converged) == (iterations, converged)
        assert result.energy_trace == tuple(trace)
        if cycle is None:
            assert result.cycle is None
        else:
            assert np.array_equal(result.cycle[0], cycle[0]) and np.array_equal(result.cycle[1], cycle[1])

    @given(recall_cases())
    @example(ZERO_FIELD_TIES)
    @example(ZERO_FIELD_CYCLE)
    @example(ANTIFERROMAGNET)
    def test_async_matches_reference(self, case):
        w, x, schedule, max_passes, seed = case
        result = recall_async(w, x, schedule=schedule, max_passes=max_passes, seed=seed)
        state, iterations, converged, trace = reference_async(w, x, schedule, max_passes, seed)
        assert np.array_equal(result.state, state)
        assert (result.iterations, result.converged) == (iterations, converged)
        assert result.energy_trace == tuple(trace)
        assert result.cycle is None


class TestRecallOracleCases:
    """Fixed cases the strategy above rarely or never draws, against the same references:
    passes that change many rows, including more than one block, fields at the
    2**62 limit, a fixed point confirmed only after flipping passes, and on
    matrices that keep their memories, passes that change more and then fewer
    neurons than there are memories, a 2-cycle, and a flip that turns over the
    field of a neuron visited later in the same pass."""

    @staticmethod
    def assert_both_match(w, x, schedule="cyclic", seed=None):
        result = recall_sync_iterated(w, x)
        state, iterations, converged, trace, cycle = reference_sync(w, x, None)
        assert (result.state.tolist(), result.iterations, result.converged, list(result.energy_trace)) == (
            state.tolist(),
            iterations,
            converged,
            trace,
        )
        assert (result.cycle is None) == (cycle is None)
        assert cycle is None or np.array_equal(np.stack(result.cycle), np.stack(cycle))
        result = recall_async(w, x, schedule=schedule, seed=seed)
        state, iterations, converged, trace = reference_async(w, x, schedule, None, seed)
        assert (result.state.tolist(), result.iterations, result.converged, list(result.energy_trace)) == (
            state.tolist(),
            iterations,
            converged,
            trace,
        )
        return result

    def test_trained_network_with_noisy_probes(self):
        rng = np.random.default_rng(300)
        n = 300
        memories = random_memories(rng, 30, n)
        w = train(memories)
        for k in range(4):
            x = memories[k].copy()
            x[rng.choice(n, 45, replace=False)] *= -1  # 15 % noise
            if k % 2:
                self.assert_both_match(w, x, schedule="random", seed=k)
            else:
                self.assert_both_match(w, x)

    def test_star_at_the_weight_limit(self):
        # neuron 0 is joined to all others with weights summing to 2**61, so the total
        # is 2**62; from this start every neuron changes on every synchronous pass, and
        # each pass's product W x has h[0] = +-2**61 and an energy dot x.h of -2**62,
        # the whole total
        n = 200
        c = 2**61 // (n - 1) + np.arange(n - 1, dtype=np.int64) - (n - 2)
        c[-1] += 2**61 - int(c.sum())
        w = np.zeros((n, n), dtype=np.int64)
        w[0, 1:] = w[1:, 0] = c
        x = -np.ones(n, dtype=np.int64)
        x[0] = 1
        result = recall_sync_iterated(w, x)
        assert (result.iterations, result.converged) == (2, False)
        for seed in range(3):
            self.assert_both_match(w, x, schedule="random", seed=seed)

    def test_explicit_schedule_confirms_after_flipping_passes(self):
        # pass 1 flips neurons 3, 2, 5, 4 and 0, pass 2 flips neuron 5 back, and
        # pass 3, which flips nothing, is confirmed without visiting a neuron
        w = train([(-1, -1, -1, 1, 1, -1), (1, 1, 1, 1, 1, -1)])
        result = self.assert_both_match(w, [-1, 1, -1, -1, -1, -1], schedule=[3, 2, 5, 4, 1, 0])
        assert (result.iterations, result.converged) == (3, True)
        assert result.state.tolist() == [1, 1, 1, 1, 1, -1]
        assert len(result.energy_trace) == 1 + 3 * 6

    def test_kept_memories_many_then_few_changes(self):
        # m = 4: pass 1 changes more than m neurons, pass 2 fewer but some, pass 3 none
        rng = np.random.default_rng(4)
        memories = random_memories(rng, 4, 24)
        x = random_memories(rng, 1, 24)[0]
        w = train(memories)
        assert core._factor(w) is not None
        first = recall_sync(w, x)
        second = recall_sync(w, first)
        assert np.count_nonzero(first != x) > 4 > np.count_nonzero(second != first) > 0
        assert np.array_equal(recall_sync(w, second), second)
        self.assert_both_match(w, x, schedule="random", seed=4)

    def test_kept_memories_two_cycle(self):
        # passes change 5, 4 and 4 neurons; the third returns to the state after the first
        w = train([(1, -1, -1, 1, -1, -1, 1, -1), (-1, -1, 1, -1, -1, 1, -1, -1), (-1, 1, 1, -1, -1, -1, -1, 1)])
        assert core._factor(w) is not None
        x = [1, -1, 1, -1, 1, 1, 1, -1]
        self.assert_both_match(w, x)
        result = recall_sync_iterated(w, x)
        assert (result.iterations, result.converged, result.cycle is not None) == (3, False, True)

    def test_kept_memories_flip_turns_a_later_field_over(self):
        # the order flips neurons 5 and 3 before it visits neuron 2, whose field said +1
        # at the start of the pass and says -1 by then, so the two kinds of pass part there
        w = train([(1, 1, -1, -1, 1, 1), (-1, 1, -1, 1, -1, 1)])
        assert core._factor(w) is not None
        x = [1, 1, -1, 1, 1, -1]
        order = [5, 4, 3, 0, 1, 2]
        assert recall_sync(w, x).tolist() == [1, 1, 1, -1, 1, 1]
        assert recall_async(w, x, schedule=order, max_passes=1).state.tolist() == [1, 1, -1, -1, 1, 1]
        self.assert_both_match(w, x, schedule=order)
