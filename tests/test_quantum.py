import math
import warnings

import numpy as np
import pytest

from assocmem import (
    ParameterError,
    ValidationError,
    as_amplitudes,
    collapse_as_selection,
    collapse_sample,
    enumerate_reorganizations,
    reorg_count,
)


def random_amplitudes(rng, k):
    v = rng.normal(size=k)
    while not np.any(v):
        v = rng.normal(size=k)
    return v / math.sqrt(float(v @ v))


class TestAmplitudes:
    def test_valid(self):
        amps = as_amplitudes([0.6, 0.8])
        assert amps.dtype == np.float64
        with pytest.raises(ValueError):
            amps[0] = 1.0

    def test_not_normalized(self):
        with pytest.raises(ValidationError):
            as_amplitudes([0.5, 0.5])

    def test_too_short(self):
        with pytest.raises(ValidationError):
            as_amplitudes([1.0])

    def test_non_finite(self):
        with pytest.raises(ValidationError):
            as_amplitudes([float("nan"), 0.0])

    def test_tolerance_is_tight(self):
        with pytest.raises(ValidationError):
            as_amplitudes([math.sqrt(0.5) + 1e-4, math.sqrt(0.5)])

    @pytest.mark.parametrize("amps", [[1e308, 1e308], [1e155, 0.0], [-1e200, 1.0]])
    def test_squares_beyond_float_range_are_refused_without_a_warning(self, amps):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"^amplitudes are not normalized: sum of squares is inf$"):
                as_amplitudes(amps)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "check", [as_amplitudes, lambda a: collapse_sample(a, seed=0, count=3)], ids=["as_amplitudes", "collapse_sample"]
)
@pytest.mark.parametrize(
    "amps,dtype",
    [
        ([0.6 + 0j, 0.8], "complex128"),
        ([True, False], "bool"),
        (["0.6", "0.8"], "<U3"),
        (np.array([0.6, 0.8], dtype=object), "object"),
    ],
    ids=["complex", "bool", "string", "object"],
)
def test_non_real_amplitudes_refused(check, amps, dtype):
    with pytest.raises(ValidationError, match=f"^amplitudes must be numeric, got dtype {dtype}$"):
        check(amps)


def test_integer_amplitudes_read_as_float():
    assert as_amplitudes([0, 1]).tolist() == [0.0, 1.0]


class TestReorgCount:
    @pytest.mark.parametrize("n,expected", [(10, 100), (1, 1), (37, 1369)])
    def test_square_counts(self, n, expected):
        assert reorg_count(n) == expected

    @pytest.mark.parametrize("bad", [0, -3])
    def test_rejects_bad_resolution(self, bad):
        with pytest.raises(ParameterError):
            reorg_count(bad)


class TestEnumerateReorganizations:
    def test_single_level(self):
        table = enumerate_reorganizations(1)
        assert table.distinct_count == 1
        assert table.raw_count == 2
        assert table.cases == ((0, 0, 0),)

    def test_ten_levels(self):
        table = enumerate_reorganizations(10)
        assert table.distinct_count == 100
        assert table.raw_count == 200

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_reorg_count(self, n):
        table = enumerate_reorganizations(n)
        assert table.distinct_count == reorg_count(n)
        assert len(table.cases) == table.distinct_count
        assert len(set(table.cases)) == len(table.cases)

    def test_quotient_covers_every_raw_case(self):
        n = 5
        table = enumerate_reorganizations(n)
        reps = set(table.cases)

        def partner(case):
            i, j, o = case
            return (j, i, 1 - o)

        for i in range(n):
            for j in range(n):
                for o in (0, 1):
                    case = (i, j, o)
                    assert partner(partner(case)) == case
                    assert (case in reps) != (partner(case) in reps) or case == min(
                        case, partner(case)
                    )
                    assert min(case, partner(case)) in reps


class TestCollapseSample:
    def test_certain_outcome(self):
        samples = collapse_sample([1.0, 0.0], seed=3, count=500)
        assert not np.any(samples)

    def test_zero_amplitude_head(self):
        samples = collapse_sample([0.0, 1.0], seed=3, count=500)
        assert np.all(samples == 1)

    def test_symmetric_qubit_frequency(self):
        r = math.sqrt(0.5)
        samples = collapse_sample([r, r], seed=20, count=100_000)
        freq = np.count_nonzero(samples == 0) / samples.size
        assert abs(freq - 0.5) <= 0.005

    def test_uneven_qubit_frequencies(self):
        samples = collapse_sample([0.6, 0.8], seed=8, count=100_000)
        for idx, p in enumerate((0.36, 0.64)):
            freq = np.count_nonzero(samples == idx) / samples.size
            se = math.sqrt(p * (1 - p) / samples.size)
            assert abs(freq - p) <= 3 * se

    def test_deterministic(self):
        a = collapse_sample([0.6, 0.8], seed=123, count=2000)
        b = collapse_sample([0.6, 0.8], seed=123, count=2000)
        assert np.array_equal(a, b)

    def test_sign_flips_are_invisible(self):
        a = collapse_sample([0.6, 0.8], seed=9, count=5000)
        b = collapse_sample([-0.6, 0.8], seed=9, count=5000)
        c = collapse_sample([0.6, -0.8], seed=9, count=5000)
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)

    def test_empirical_distribution_on_random_vectors(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            amps = random_amplitudes(rng, int(rng.integers(2, 7)))
            samples = collapse_sample(amps, seed=100 + trial, count=100_000)
            counts = np.bincount(samples, minlength=amps.size)
            for idx, a in enumerate(amps):
                p = a * a
                se = math.sqrt(p * (1 - p) / samples.size)
                assert abs(counts[idx] / samples.size - p) <= 3 * se + 1e-12

    @pytest.mark.parametrize("kwargs", [dict(seed=-1, count=10), dict(seed=0, count=0)])
    def test_parameter_validation(self, kwargs):
        with pytest.raises(ParameterError):
            collapse_sample([0.6, 0.8], **kwargs)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            collapse_sample([1.0, 1.0], seed=0, count=10)


class TestCollapseAsSelection:
    def test_certain_selection(self):
        sel = collapse_as_selection([0.0, 1.0], seed=4)
        assert sel.index == 1
        assert sel.outputs == 2
        assert sel.weight == 1.0
        assert "output 2 of 2" in sel.note

    def test_repeated_calls_identical(self):
        a = collapse_as_selection([0.6, 0.8], seed=55)
        b = collapse_as_selection([0.6, 0.8], seed=55)
        assert a == b

    def test_consistent_with_sampler(self):
        amps = [0.6, -0.8]
        sel = collapse_as_selection(amps, seed=77)
        assert sel.index == int(collapse_sample(amps, seed=77, count=1)[0])

    def test_uniform_four_outputs(self):
        amps = [0.5, 0.5, 0.5, 0.5]
        samples = collapse_sample(amps, seed=42, count=100_000)
        for idx in range(4):
            freq = np.count_nonzero(samples == idx) / samples.size
            assert abs(freq - 0.25) <= 0.013
