import json
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from assocmem import (
    DimensionMismatch,
    MemorySet,
    ParameterError,
    SpreadOrder,
    ValidationError,
    as_amplitudes,
    as_bipolar,
    classify,
    collapse_sample,
    energy,
    enumerate_fixed_points,
    is_stored,
    load_weights,
    normalize_start,
    order_from_proximity,
    parse_proximity,
    recall_async,
    recall_sync,
    recall_sync_iterated,
    sgn,
    spread_full,
    train,
    validate_memory_set,
    validate_proximity,
    validate_weights,
)
from assocmem import core, formats
from assocmem.cli import main
from assocmem.core import PROXIMITY_TOL, _proximity_fault
from conftest import WORKED_WEIGHTS


class TestSgn:
    def test_positive(self):
        assert sgn(3.2) == 1

    def test_zero_maps_to_plus_one(self):
        assert sgn(0) == 1
        assert sgn(0.0) == 1
        assert sgn(-0.0) == 1

    def test_strictly_negative(self):
        assert sgn(-0.0001) == -1

    def test_elementwise_on_arrays(self):
        out = sgn(np.array([2.0, 0.0, -3.5]))
        assert out.dtype == np.int8
        assert list(out) == [1, 1, -1]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValidationError):
            sgn(bad)

    def test_rejects_non_numeric(self):
        with pytest.raises(ValidationError):
            sgn("3")

    @given(st.floats(min_value=-1e9, max_value=1e9))
    def test_idempotent_on_own_range(self, v):
        assert sgn(sgn(v)) == sgn(v)

    @given(
        # a subnormal v can underflow c * v to -0.0, which is zero and maps to +1
        st.floats(min_value=-1e6, max_value=1e6, allow_subnormal=False),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_positive_scale_invariance(self, v, c):
        assert sgn(c * v) == sgn(v)


def read_only(arr):
    arr.setflags(write=False)
    return arr


# odd memory sets, each with its int8 rows and duplicate groups, or with the
# exception type and message of its refusal; the refusals name the first bad row.
# A MemorySet built by hand is read as its rows, whatever duplicates it claims.
ODD_MEMORY_SETS = {
    "int8 array": (
        lambda: np.array([[1, -1, 1], [-1, 1, 1], [1, -1, 1]], dtype=np.int8),
        ([[1, -1, 1], [-1, 1, 1], [1, -1, 1]], ((0, 2),)),
    ),
    "int64 array": (lambda: np.array([[1, -1], [-1, 1]], dtype=np.int64), ([[1, -1], [-1, 1]], ())),
    "uint8 rows": (lambda: [np.ones(2, dtype=np.uint8)] * 2, ([[1, 1], [1, 1]], ((0, 1),))),
    "float rows": (
        lambda: np.array([[1.0, -1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, -1.0]]),
        ([[1, -1], [-1, -1], [1, -1], [-1, -1]], ((0, 2), (1, 3))),
    ),
    "tuple rows": (lambda: [(1, -1, -1), (1, 1, 1)], ([[1, -1, -1], [1, 1, 1]], ())),
    "mixed dtype rows": (
        lambda: [np.array([1, -1], dtype=np.int8), (-1.0, 1.0), [1, -1]],
        ([[1, -1], [-1, 1], [1, -1]], ((0, 2),)),
    ),
    "generator of rows": (lambda: (r for r in [(1, -1), (1, -1)]), ([[1, -1], [1, -1]], ((0, 1),))),
    "empty 2-d array": (lambda: np.empty((0, 3)), (ParameterError, "memory set is empty")),
    "empty list": (lambda: [], (ParameterError, "memory set is empty")),
    "bool row": (
        lambda: [np.array([True, True])],
        (ValidationError, "state entries must be numeric, got dtype bool"),
    ),
    "bool row after a good one": (
        lambda: [np.array([1, -1]), np.array([True, False])],
        (ValidationError, "state entries must be numeric, got dtype bool"),
    ),
    "string row": (lambda: [["1", "-1"]], (ValidationError, "state entries must be numeric, got dtype <U2")),
    "string set": (lambda: "ab", (ValidationError, "expected a 1-d state vector, got shape ()")),
    "complex row": (
        lambda: [(1 + 0j, -1)],
        (ValidationError, "state entries must be numeric, got dtype complex128"),
    ),
    "object row": (
        lambda: [np.array([1, -1], dtype=object)],
        (ValidationError, "state entries must be numeric, got dtype object"),
    ),
    "0-d rows": (lambda: [1, -1], (ValidationError, "expected a 1-d state vector, got shape ()")),
    "0-d numpy rows": (
        lambda: [np.int8(1), np.int8(1)],
        (ValidationError, "expected a 1-d state vector, got shape ()"),
    ),
    "2-d rows": (
        lambda: [np.ones((1, 2)), np.ones((1, 2))],
        (ValidationError, "expected a 1-d state vector, got shape (1, 2)"),
    ),
    "3-d array": (
        lambda: np.ones((2, 1, 2), dtype=np.int8),
        (ValidationError, "expected a 1-d state vector, got shape (1, 2)"),
    ),
    "2-d row after a good one": (
        lambda: [(1, -1), [[1], [-1]]],
        (ValidationError, "expected a 1-d state vector, got shape (2, 1)"),
    ),
    "empty rows": (lambda: [[], []], (ValidationError, "a state needs at least one neuron")),
    "empty columns": (
        lambda: np.empty((3, 0), dtype=np.int8),
        (ValidationError, "a state needs at least one neuron"),
    ),
    "ragged rows": (lambda: [(1, -1), (1,)], (DimensionMismatch, "memories have mixed dimensions [1, 2]")),
    "ragged rows with a bad entry": (
        lambda: [(1, 2), (1,)],
        (DimensionMismatch, "memories have mixed dimensions [1, 2]"),
    ),
    "bad entry in a later row": (
        lambda: [(1, -1, 1), (1, 1, 0), (5, 1, 1)],
        (ValidationError, "state entries must be +1 or -1, neuron 3 has np.int64(0)"),
    ),
    "bad float entry in a later row": (
        lambda: [(1.0, -1.0), (1.0, 0.5)],
        (ValidationError, "state entries must be +1 or -1, neuron 2 has np.float64(0.5)"),
    ),
    "nan entry": (
        lambda: [(1.0, float("nan"))],
        (ValidationError, "state entries must be +1 or -1, neuron 2 has np.float64(nan)"),
    ),
    "bad entry then a bool row": (
        lambda: [(1, 3), np.array([True, False])],
        (ValidationError, "state entries must be +1 or -1, neuron 2 has np.int64(3)"),
    ),
    "bool row then a bad entry": (
        lambda: [np.array([True, False]), (1, 3)],
        (ValidationError, "state entries must be numeric, got dtype bool"),
    ),
    "hand-built int64 set": (
        lambda: MemorySet(vectors=np.array([[1, -1], [1, -1]])),
        ([[1, -1], [1, -1]], ((0, 1),)),
    ),
    "hand-built read-only int8 set": (
        lambda: MemorySet(vectors=read_only(np.array([[1, -1], [-1, 1], [1, -1]], dtype=np.int8)), duplicates=()),
        ([[1, -1], [-1, 1], [1, -1]], ((0, 2),)),
    ),
    "hand-built set of tuples": (
        lambda: MemorySet(vectors=((1.0, -1.0), (-1, 1)), duplicates=((0, 1),)),
        ([[1, -1], [-1, 1]], ()),
    ),
    "hand-built set holding 2": (
        lambda: MemorySet(vectors=np.array([[2, -1, 1]])),
        (ValidationError, "state entries must be +1 or -1, neuron 1 has np.int64(2)"),
    ),
    "hand-built set holding 0": (
        lambda: MemorySet(vectors=np.array([[1, -1], [1, 0]], dtype=np.int8)),
        (ValidationError, "state entries must be +1 or -1, neuron 2 has np.int8(0)"),
    ),
    "hand-built set holding 1.5": (
        lambda: MemorySet(vectors=np.array([[1.5, -1, 1]])),
        (ValidationError, "state entries must be +1 or -1, neuron 1 has np.float64(1.5)"),
    ),
    "hand-built bool set": (
        lambda: MemorySet(vectors=np.array([[True, False]])),
        (ValidationError, "state entries must be numeric, got dtype bool"),
    ),
    "hand-built 1-d set": (
        lambda: MemorySet(vectors=np.array([1, -1], dtype=np.int8)),
        (ValidationError, "expected a 1-d state vector, got shape ()"),
    ),
    "hand-built ragged set": (
        lambda: MemorySet(vectors=[(1, -1), (1,)]),
        (DimensionMismatch, "memories have mixed dimensions [1, 2]"),
    ),
    "hand-built empty set": (
        lambda: MemorySet(vectors=np.empty((0, 3), dtype=np.int8)),
        (ParameterError, "memory set is empty"),
    ),
    "hand-built set of no vectors": (
        lambda: MemorySet(vectors=None),
        (ValidationError, "a memory set must be a collection of vectors, got a non-iterable MemorySet"),
    ),
    "non-iterable int": (
        lambda: 5,
        (ValidationError, "a memory set must be a collection of vectors, got a non-iterable int"),
    ),
    "non-iterable 0-d array": (
        lambda: np.array(1),
        (ValidationError, "a memory set must be a collection of vectors, got a non-iterable ndarray"),
    ),
    "non-iterable None": (
        lambda: None,
        (ValidationError, "a memory set must be a collection of vectors, got a non-iterable NoneType"),
    ),
}


class TestMemoryValidation:
    def test_well_formed(self):
        mset = validate_memory_set([(1, 1, 1, 1), (1, -1, 1, -1)])
        assert isinstance(mset, MemorySet)
        assert (mset.m, mset.n) == (2, 4)
        assert mset.duplicates == ()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            validate_memory_set([(1, 1), (1, 1, 1)])

    def test_empty_list(self):
        with pytest.raises(ParameterError):
            validate_memory_set([])

    def test_non_bipolar_entry(self):
        with pytest.raises(ValidationError):
            validate_memory_set([(1, 2, 1)])

    @pytest.mark.parametrize("scalar", [np.array(1), 1])
    def test_non_iterable(self, scalar):
        with pytest.raises(ValidationError, match="must be a collection of vectors"):
            validate_memory_set(scalar)

    def test_first_bad_entry_in_a_later_memory(self):
        # each row is checked in turn, so the message names the first bad
        # entry in row-major order, here in the second memory
        with pytest.raises(ValidationError) as err:
            validate_memory_set([(1, -1, 1), (1, 1, 0), (5, 1, 1)])
        assert str(err.value) == "state entries must be +1 or -1, neuron 3 has np.int64(0)"
        with pytest.raises(ValidationError, match="must be numeric, got dtype bool"):
            validate_memory_set([np.array([1, -1]), np.array([True, False])])

    def test_duplicates_reported_but_permitted(self):
        mset = validate_memory_set([(1, 1), (1, -1), (1, 1)])
        assert mset.m == 3
        assert mset.duplicates == ((0, 2),)
        # groups come in order of their first member, whatever the vectors' order
        mset = validate_memory_set([(1, 1), (-1, -1), (1, 1), (-1, -1), (-1, -1)])
        assert mset.duplicates == ((0, 2), (1, 3, 4))

    def test_memoryset_passthrough(self):
        mset = validate_memory_set([(1, -1)])
        assert validate_memory_set(mset) is mset

    @pytest.mark.parametrize(
        "name", [name for name, (_, expected) in ODD_MEMORY_SETS.items() if not isinstance(expected[0], type)]
    )
    def test_a_validated_set_is_returned_as_it_is(self, name, tmp_path):
        # trusted by its int8 vectors, as a weights or proximity array is by its own
        build, _ = ODD_MEMORY_SETS[name]
        mset = validate_memory_set(build())
        assert validate_memory_set(mset) is mset
        path = tmp_path / "memories.txt"
        path.write_text("\n".join(" ".join(map(str, row)) for row in mset.vectors.tolist()) + "\n")
        parsed = formats.parse_memories(path)
        assert validate_memory_set(parsed) is parsed

    def test_a_set_made_writeable_again_is_checked_again(self):
        mset = validate_memory_set([(1, -1, 1), (-1, 1, 1)])
        mset.vectors.setflags(write=True)
        again = validate_memory_set(mset)
        assert again is not mset and again.vectors is not mset.vectors
        assert (again.vectors.tolist(), again.duplicates) == ([[1, -1, 1], [-1, 1, 1]], ())
        assert validate_memory_set(again) is again
        mset.vectors[1, 2] = 3
        with pytest.raises(ValidationError, match=r"^state entries must be \+1 or -1, neuron 3 has np.int8\(3\)$"):
            validate_memory_set(mset)

    def test_accepts_2d_array(self):
        arr = np.array([[1, -1], [-1, 1]])
        assert validate_memory_set(arr).m == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", list(ODD_MEMORY_SETS))
    def test_odd_input(self, name):
        build, expected = ODD_MEMORY_SETS[name]
        if isinstance(expected[0], type):
            with pytest.raises(expected[0]) as err:
                validate_memory_set(build())
            assert (type(err.value), str(err.value)) == expected
            return
        mset = validate_memory_set(build())
        assert mset.vectors.dtype == np.int8 and not mset.vectors.flags.writeable
        assert (mset.vectors.tolist(), mset.duplicates) == expected


class TestBipolar:
    def test_frozen(self):
        v = as_bipolar([1, -1, 1])
        with pytest.raises(ValueError):
            v[0] = -1

    def test_rejects_zero(self):
        with pytest.raises(ValidationError):
            as_bipolar([1, 0, 1])

    def test_rejects_matrix(self):
        with pytest.raises(ValidationError):
            as_bipolar([[1, -1]])


@pytest.mark.parametrize(
    "call",
    [
        lambda: as_bipolar([True, -1]),
        lambda: train([[True, -1, 1], [1, 1, -1]]),
        lambda: recall_sync(WORKED_WEIGHTS, (1, -1, np.True_, 1)),
        lambda: validate_weights([[0, True], [True, 0]]),
        lambda: validate_weights([np.array([False, True]), [True, 0]]),
        lambda: validate_proximity([[0, True], [True, 0]]),
        lambda: order_from_proximity(((0.0, True), (True, 0.0)), {0}),
        lambda: as_amplitudes([True, 0.0]),
        lambda: sgn([[True], [-1]]),
    ],
    ids=["as_bipolar", "train", "recall_sync", "validate_weights", "a bool array in a list of weights",
         "validate_proximity", "order_from_proximity", "as_amplitudes", "sgn"],
)
def test_a_bool_inside_a_list_is_refused(call):
    # numpy would read the bool as 0 or 1 beside the numbers; a bool array is refused the same way
    with pytest.raises(ValidationError, match=r"(must be numeric|expects real input), got dtype bool$"):
        call()


RAGGED = [[0, 1], [1]]


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: validate_weights(RAGGED), DimensionMismatch),
        (lambda: validate_proximity(RAGGED), ValidationError),
        (lambda: as_bipolar([[1, -1], [1]]), ValidationError),
        (lambda: recall_sync(WORKED_WEIGHTS, [[1, -1], [1], 1, 1]), ValidationError),
        (lambda: recall_async(WORKED_WEIGHTS, ([1], [1, -1], 1, 1)), ValidationError),
        (lambda: sgn(RAGGED), ValidationError),
        (lambda: as_amplitudes([[0.6], [0.8, 0.0]]), ValidationError),
        (lambda: collapse_sample([[0.6], [0.8, 0.0]], 0, 1), ValidationError),
        (lambda: spread_full(WORKED_WEIGHTS, {0: 1}, proximity=RAGGED), ValidationError),
        (lambda: order_from_proximity(RAGGED, {0}), ValidationError),
        (lambda: order_from_proximity(np.ones((4, 4)) - np.eye(4), [[0, 1], [2]]), ParameterError),
        (lambda: SpreadOrder([[0, 1], [2, 3, 4]], 1), ParameterError),
        (lambda: recall_async(WORKED_WEIGHTS, (1, 1, 1, 1), schedule=[[0, 1], [2, 3, 4]]), ParameterError),
        (lambda: classify([[[1, -1], [1]]], [[1, -1]]), ValidationError),
        (lambda: validate_memory_set([[1, [1]]]), ValidationError),
    ],
    ids=["validate_weights", "validate_proximity", "as_bipolar", "recall_sync", "recall_async",
         "sgn", "as_amplitudes", "collapse_sample", "spread_full proximity", "order_from_proximity",
         "start set", "SpreadOrder", "schedule", "classify", "validate_memory_set"],
)
def test_a_ragged_list_is_refused(call, error):
    # numpy cannot make such a list rectangular; it is read as an object array and refused
    # by the library's own check, never with numpy's bare ValueError
    with pytest.raises(error):
        call()


class TestWeightsValidation:
    def test_asymmetric_named(self):
        w = np.array([[0, 1], [2, 0]])
        with pytest.raises(ValidationError, match=r"\(1, 2\)"):
            validate_weights(w)

    def test_nonzero_diagonal(self):
        w = np.array([[1, 0], [0, 0]])
        with pytest.raises(ValidationError, match="diagonal"):
            validate_weights(w)

    def test_integral_floats_accepted(self):
        w = validate_weights(np.array([[0.0, 2.0], [2.0, 0.0]]))
        assert w.dtype == np.int64

    def test_non_integral_rejected(self):
        with pytest.raises(ValidationError):
            validate_weights(np.array([[0.0, 0.5], [0.5, 0.0]]))

    def test_non_square(self):
        with pytest.raises(DimensionMismatch):
            validate_weights(np.zeros((2, 3)))

    def test_overflowing_fields_rejected(self):
        # int64 fields of (1, 1, 1) would wrap: 2 * 2**62 = 2**63
        w = np.full((3, 3), 2**62, dtype=np.int64)
        np.fill_diagonal(w, 0)
        with pytest.raises(ValidationError, match="2\\*\\*62"):
            validate_weights(w)
        with pytest.raises(ValidationError):
            is_stored(w, (1, 1, 1))

    def test_uint64_beyond_int64_rejected(self):
        w = np.array([[0, 2**63], [2**63, 0]], dtype=np.uint64)
        with pytest.raises(ValidationError, match="int64"):
            validate_weights(w)

    def test_most_negative_int64_rejected(self):
        w = np.array([[0, -(2**63)], [-(2**63), 0]], dtype=np.int64)
        with pytest.raises(ValidationError, match="2\\*\\*62"):
            validate_weights(w)

    @pytest.mark.parametrize("big", [2.0**53 + 2, 1e300])
    def test_inexact_floats_rejected(self, big):
        with pytest.raises(ValidationError, match="2\\*\\*53"):
            validate_weights(np.array([[0.0, big], [big, 0.0]]))

    def test_total_bound_is_exact(self):
        at_bound = validate_weights(np.array([[0, 2**61], [2**61, 0]], dtype=np.int64))
        assert at_bound[0, 1] == 2**61
        with pytest.raises(ValidationError):
            validate_weights(np.array([[0, 2**61 + 1], [2**61 + 1, 0]], dtype=np.int64))

    def test_large_weights_within_bound_stay_exact(self):
        # total 6 * 2**59 = 3 * 2**60 <= 2**62, fields 2**60 exceed float precision
        w = np.full((3, 3), 2**59, dtype=np.uint64)
        np.fill_diagonal(w, 0)
        assert is_stored(w, (1, 1, 1))
        assert energy(w, (1, 1, -1)) == float(2**59)


PLANTS = [
    "nan", "inf", "-inf", "gap_inside", "gap_outside", "diagonal_inside", "diagonal_outside",
    "zero", "negative", "one_sided",
]


def plant_fault(p, plant, rng):
    """Plant one kind of entry at a random place of a legal matrix; some stay legal."""
    i, j = (int(k) for k in rng.integers(p.shape[0], size=2))
    tol = PROXIMITY_TOL
    if plant == "nan":
        p[i, j] = np.nan
    elif plant in ("inf", "-inf"):
        p[i, j] = p[j, i] = float(plant)
    elif plant.startswith("diagonal"):
        p[i, i] = rng.choice([-1, 1]) * (1.0 if plant == "diagonal_inside" else 1.5) * tol
    elif i == j:
        return
    elif plant == "gap_inside":
        # 2e-9 - 1e-9 is exactly the tolerance, which is not a fault
        p[i, j], p[j, i] = tol, 2 * tol
    elif plant == "gap_outside":
        p[i, j] += 1.5 * tol
    elif plant == "zero":
        p[i, j] = p[j, i] = 0.0
    elif plant == "negative":
        p[i, j] = p[j, i] = -rng.random()
    else:
        # non-positive on one side only, its mirror within the tolerance
        p[i, j], p[j, i] = rng.choice([0.0, -0.25 * tol]), 0.5 * tol


def reference_proximity_fault(p):
    """The first fault over the full matrix, checked in order: finite, symmetric, diagonal, positive."""
    bad = ~np.isfinite(p)
    if bad.any():
        return int(np.argwhere(bad)[0][0]), "proximity entries must be finite"
    asym = np.abs(p - p.T) > PROXIMITY_TOL
    if asym.any():
        i, j = (int(k) for k in np.argwhere(asym)[0])
        return i, f"proximity matrix is asymmetric at ({i + 1}, {j + 1})"
    diag = np.abs(np.diag(p)) > PROXIMITY_TOL
    if diag.any():
        i = int(np.flatnonzero(diag)[0])
        return i, f"proximity diagonal must be zero, neuron {i + 1} has {p[i, i]}"
    low = (p <= 0) & ~np.eye(p.shape[0], dtype=bool)
    if low.any():
        i, j = (int(k) for k in np.argwhere(low)[0])
        return i, f"off-diagonal proximity must be positive, ({i + 1}, {j + 1}) has {p[i, j]}"
    return None


class TestProximityValidation:
    def test_identity_distances(self):
        p = np.ones((3, 3)) - np.eye(3)
        out = validate_proximity(p)
        assert out.dtype == np.float64

    def test_asymmetric_named(self):
        p = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValidationError, match=r"\(1, 2\)"):
            validate_proximity(p)

    def test_nonzero_diagonal(self):
        p = np.array([[0.5, 1.0], [1.0, 0.0]])
        with pytest.raises(ValidationError):
            validate_proximity(p)

    def test_zero_off_diagonal_rejected(self):
        p = np.array([[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValidationError):
            validate_proximity(p)

    def test_first_non_positive_off_diagonal_named(self):
        # row-major first offender; the zero diagonal is not one
        p = np.array([[0, 1, 2, 3], [1, 0, 0, -1], [2, 0, 0, 1], [3, -1, 1, 0]], dtype=float)
        with pytest.raises(ValidationError, match=r"^off-diagonal proximity must be positive, \(2, 3\) has 0\.0$"):
            validate_proximity(p)
        p[1, 2] = p[2, 1] = 5.0
        with pytest.raises(ValidationError, match=r"\(2, 4\) has -1\.0$"):
            validate_proximity(p)

    def test_tolerated_diagonal_is_not_an_off_diagonal_fault(self):
        # diagonal entries within the tolerance, of either sign, are zeros
        p = np.ones((3, 3))
        np.fill_diagonal(p, [-1e-10, 0.0, 1e-10])
        validate_proximity(p)

    @given(
        n=st.integers(1, 200),
        seed=st.integers(0, 2**32 - 1),
        plants=st.lists(st.sampled_from(PLANTS), max_size=3),
    )
    @example(n=130, seed=0, plants=["gap_outside"])
    @example(n=65, seed=1, plants=["gap_outside", "gap_inside", "gap_outside"])
    @example(n=2, seed=0, plants=["gap_inside"])
    @example(n=3, seed=0, plants=["diagonal_inside"])
    @example(n=1, seed=0, plants=["nan"])
    @example(n=70, seed=3, plants=["one_sided", "zero"])
    def test_first_fault_matches_full_matrix_reference(self, n, seed, plants):
        rng = np.random.default_rng(seed)
        a = rng.random((n, n)) + 0.5
        p = a + a.T
        np.fill_diagonal(p, 0.0)
        for plant in plants:
            plant_fault(p, plant, rng)
        want = reference_proximity_fault(p)
        assert _proximity_fault(p) == want

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_entries_refused_without_a_warning(self, value):
        p = np.ones((3, 3))
        np.fill_diagonal(p, 0.0)
        p[2, 1] = p[1, 2] = value
        with pytest.raises(ValidationError, match="^proximity entries must be finite$"):
            validate_proximity(p)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_mirror_gap_refused_without_a_warning(self):
        p = np.array([[0.0, 1e308], [-1e308, 0.0]])
        with pytest.raises(ValidationError, match=r"^proximity matrix is asymmetric at \(1, 2\)$"):
            validate_proximity(p)

    @pytest.mark.parametrize("n", [2, 65, 130, 200])
    def test_asymmetry_in_the_last_row_block(self, n):
        p = np.ones((n, n))
        np.fill_diagonal(p, 0.0)
        p[n - 1, n - 2] += 2 * PROXIMITY_TOL
        assert _proximity_fault(p) == (n - 2, f"proximity matrix is asymmetric at ({n - 1}, {n})")

    def test_faults_at_the_tolerance_are_accepted(self):
        # 2e-9 - 1e-9 and |-1e-9| are exactly PROXIMITY_TOL: within it, not beyond
        p = np.ones((3, 3))
        np.fill_diagonal(p, [PROXIMITY_TOL, -PROXIMITY_TOL, 0.0])
        p[0, 2], p[2, 0] = PROXIMITY_TOL, 2 * PROXIMITY_TOL
        assert _proximity_fault(p) is None

    def test_non_finite_entry_outranks_an_asymmetry_in_an_earlier_row_block(self):
        # row block 0 fails first, on its asymmetry, yet the NaN in row block 2 is the fault
        p = np.ones((150, 150))
        np.fill_diagonal(p, 0.0)
        p[3, 5] = 2.0
        p[140, 145] = np.nan
        want = (140, "proximity entries must be finite")
        assert reference_proximity_fault(p) == want
        assert _proximity_fault(p) == want

    def test_asymmetry_below_the_diagonal_of_a_later_row_block(self):
        p = np.ones((150, 150))
        np.fill_diagonal(p, 0.0)
        p[140, 3] = 2.0
        p[100, 90] = 2.0
        with pytest.raises(ValidationError, match=r"^proximity matrix is asymmetric at \(4, 141\)$"):
            validate_proximity(p)

    def test_triangle_inequality_not_required(self):
        # d(0,2) far exceeds d(0,1) + d(1,2); still a legal separation table
        p = np.array([[0, 1, 100], [1, 0, 1], [100, 1, 0]], dtype=float)
        validate_proximity(p)

    # every public reader of a caller's proximity matrix
    each_reader = pytest.mark.parametrize(
        "check",
        [
            validate_proximity,
            lambda p: order_from_proximity(p, {0}),
            lambda p: spread_full(np.zeros((2, 2), dtype=int), {0: 1}, proximity=p),
        ],
        ids=["validate_proximity", "order_from_proximity", "spread_full"],
    )

    @pytest.mark.filterwarnings("error")
    @each_reader
    @pytest.mark.parametrize(
        "raw,dtype",
        [
            (np.array([[0, 1 + 5j], [1 + 5j, 0]]), "complex128"),
            (np.array([[False, True], [True, False]]), "bool"),
            ([["0", "1"], ["1", "0"]], "<U1"),
            (np.array([[0, 1], [1, 0]], dtype=object), "object"),
        ],
        ids=["complex", "bool", "string", "object"],
    )
    def test_non_real_entries_refused(self, check, raw, dtype):
        with pytest.raises(ValidationError, match=f"^proximity entries must be numeric, got dtype {dtype}$"):
            check(raw)

    @each_reader
    def test_empty_matrix_refused(self, check):
        # as an empty weight matrix is; a proximity file with no rows is a ParseError
        with pytest.raises(ValidationError, match="^proximity matrix needs at least one neuron$"):
            check(np.zeros((0, 0)))

    def test_integer_entries_read_as_float(self):
        p = validate_proximity([[0, 2], [2, 0]])
        assert p.dtype == np.float64 and p.tolist() == [[0.0, 2.0], [2.0, 0.0]]


class TestNormalizeStart:
    def test_mapping(self):
        assert normalize_start({1: -1, 0: 1}, 4) == {0: 1, 1: -1}

    def test_out_of_range(self):
        with pytest.raises(ParameterError):
            normalize_start({4: 1}, 4)

    def test_out_of_range_names_the_neuron_1_based(self):
        with pytest.raises(ParameterError, match=r"^start neuron 5 out of range for 4 neurons$"):
            normalize_start({4: 1}, 4)

    def test_empty(self):
        with pytest.raises(ParameterError):
            normalize_start({}, 4)

    def test_bad_value(self):
        with pytest.raises(ValidationError):
            normalize_start({0: 2}, 4)

    @pytest.mark.parametrize("value", [True, np.True_, 1.0, np.float64(-1.0)])
    def test_bool_value_is_refused(self, value):
        # True == 1 and 1.0 == 1, yet neither a bool nor a whole float is a spin value
        message = f"^start value for neuron 1 must be \\+1 or -1, got {re.escape(repr(value))}$"
        with pytest.raises(ValidationError, match=message):
            normalize_start({0: value}, 4)

    @pytest.mark.parametrize("bad", [0.5, "x"])
    def test_value_is_checked_before_a_repeat(self, bad):
        message = f"^start value for neuron 1 must be \\+1 or -1, got {bad!r}$"
        with pytest.raises(ValidationError, match=message):
            normalize_start([(0, 1), (0, bad)], 4)


class TestTrust:
    """A value a validator returned is accepted again in O(1), by identity."""

    @pytest.fixture
    def w(self):
        # w[0, 2] != 0, so the column-reversed matrix has a nonzero diagonal
        return train([(1, -1, 1), (1, 1, 1)])

    def test_validated_weights_are_trusted(self, w, tmp_path):
        assert type(w) is np.ndarray
        assert validate_weights(w) is w
        checked = validate_weights([[0, 3], [3, 0]])
        assert validate_weights(checked) is checked
        path = tmp_path / "w.json"
        path.write_text(formats.render_document(formats.weights_document(w, {})))
        loaded = load_weights(path)
        assert validate_weights(loaded) is loaded

    def test_validated_proximity_is_trusted(self, tmp_path):
        checked = validate_proximity(np.ones((3, 3)) - np.eye(3))
        assert type(checked) is np.ndarray
        assert validate_proximity(checked) is checked
        path = tmp_path / "p.txt"
        path.write_text("0 1\n1 0\n")
        parsed = parse_proximity(path)
        assert validate_proximity(parsed) is parsed

    def test_trust_is_kept_apart_per_kind(self, w):
        p = validate_proximity(np.full((3, 3), 0.5) - 0.5 * np.eye(3))
        with pytest.raises(ValidationError, match="integers"):
            validate_weights(p)
        with pytest.raises(ValidationError, match="off-diagonal proximity must be positive"):
            validate_proximity(w)

    def test_memory_vectors_and_weights_are_trusted_apart(self, w):
        mset = validate_memory_set([(1, -1), (-1, 1)])
        with pytest.raises(ValidationError, match=r"^weight diagonal must be zero, neuron 1 has 1$"):
            validate_weights(mset.vectors)
        with pytest.raises(ValidationError, match=r"^state entries must be \+1 or -1, neuron 1 has np.int64\(0\)$"):
            validate_memory_set(MemorySet(vectors=w))

    def test_trusted_values_are_frozen(self, w):
        with pytest.raises(ValueError):
            w[0, 1] = 7

    def test_a_dead_arrays_id_grants_no_trust(self):
        # CPython hands a freed array's id to the next array it builds; an entry that
        # outlived its array would let such a stranger through unchecked
        template = np.array([[0, 1], [2, 0]])
        dead = id(validate_weights([[0, 1], [1, 0]]))
        strangers = []
        while len(strangers) < 1000 and (not strangers or id(strangers[-1]) != dead):
            strangers.append(core._frozen(template.copy()))
        assert id(strangers[-1]) == dead
        for stranger in strangers:
            with pytest.raises(ValidationError, match=r"asymmetric at \(1, 2\)"):
                validate_weights(stranger)

    def test_writeable_again_is_checked_in_full(self, w):
        w.setflags(write=True)
        w[0, 1] += 1
        calls = [
            lambda: validate_weights(w),
            lambda: recall_sync_iterated(w, (1, 1, 1)),
            lambda: spread_full(w, {0: 1}),
            lambda: enumerate_fixed_points(w),
        ]
        for call in calls:
            with pytest.raises(ValidationError, match=r"asymmetric at \(1, 2\)"):
                call()

    def test_writeable_proximity_is_checked_in_full(self):
        p = validate_proximity(np.ones((3, 3)) - np.eye(3))
        p.setflags(write=True)
        p[2, 0] = 5.0
        with pytest.raises(ValidationError, match=r"asymmetric at \(1, 3\)"):
            validate_proximity(p)

    def test_derived_arrays_are_checked_in_full(self, w):
        for derived in (w[:, ::-1], w * 2**61):
            with pytest.raises(ValidationError):
                validate_weights(derived)
        copy = w.copy()
        copy[1, 0] = 5
        with pytest.raises(ValidationError, match="asymmetric"):
            validate_weights(copy)
        with pytest.raises(ValidationError):
            validate_weights(w + np.eye(3, dtype=np.int64))

    def test_spread_validates_a_parsed_proximity_once(self, tmp_path, monkeypatch, capsys):
        calls = []

        def spy(arr):
            calls.append(arr.shape)
            return _proximity_fault(arr)

        monkeypatch.setattr(core, "_proximity_fault", spy)
        monkeypatch.setattr(formats, "_proximity_fault", spy)
        weights = tmp_path / "w.json"
        weights.write_text(formats.render_document(formats.weights_document(train([(1, 1, -1)]), {})))
        prox = tmp_path / "p.txt"
        prox.write_text("0 2 1\n2 0 3\n1 3 0\n")
        argv = ["spread", "--weights", str(weights), "--proximity", str(prox), "--start", "1:+1"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["result"]["order"] == [1, 3, 2]
        assert calls == [(3, 3)]
