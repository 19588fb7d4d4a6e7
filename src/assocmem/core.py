"""Shared domain types and validation for bipolar feedback networks.

Network states are bipolar vectors (entries +1/-1, kept as read-only int8
numpy arrays), weights are symmetric integer matrices with a zero diagonal,
neuron separations live in a proximity matrix, and a partial state (the
seed of a spread) is an index -> value mapping checked by normalize_start.
No partial-state type is needed: the seeds head the spread order, every
other position is written once, and neurons whose final value disagrees
with their field are reported as flags, not resolved.

Every function here is pure and every returned array is frozen, so values
can be shared freely across threads or processes.

A value is validated once. validate_weights and validate_proximity (and
hebbian.train, formats.load_weights and formats.parse_proximity, which
return the same kind of value) freeze the array they return and enter it
in one table, _TRUSTED, and every later call of the same validator accepts
that very object in O(1). Trust is the object's identity, its read-only
flag and its dtype (int64 weights, float64 proximity), with no private
copy: weakref.finalize drops an entry when its array dies, so an id found
in the table names that very array. The entry of a matrix W = X^T X - m I
that hebbian.train built from m < n memories with m n <= 2**53 keeps the
float64 memory matrix X, for as long as W lives. _fields, the one owner of
"the field of a state", then computes W s as (s X^T) X - m s in float64
BLAS, in O(m n) per state instead of O(n^2); every product and partial sum
is an integer of magnitude at most m n, so the fields are exact. Any other
matrix (loaded, hand-written, copied, or trained with m >= n) gives its
fields as the int64 product W s, exact by the bound of validate_weights,
and _block_fields makes the same choice for the spread, one block of
neurons at a time. A copy, slice or arithmetic result is a new object and
is checked in full, and so is a trusted array while it is writeable again.
Changing a trusted array and freezing it again voids the guarantee, since
the change cannot be seen; such a matrix also keeps its old memories.

A raw proximity matrix passed to generator.order_from_proximity or
generator.spread_full is used once: _checked_proximity checks it in full
for that call and neither copies nor remembers it. validate_proximity is
built on the same check and returns a frozen, trusted copy. That check,
_proximity_fault, is one walk over the row blocks that both decides and
names the first fault, so each proximity invariant is stated once.

Indices are 0-based throughout the library; error messages and reports
speak of "neuron 1" like a person would.

One integer rule covers every count, pass budget, seed and neuron index
the library takes: Python and numpy integers pass, and a float, a string,
None or a bool is refused with ParameterError, never truncated or parsed.
_whole checks a scalar against its least legal value and refuses a
non-integer by the parameter's name, _seed checks a seed, _neuron one start
neuron and _start_neurons a start set, in one numpy pass; _index_array
requires an integer dtype of every collection of neuron indices (a start
set, a spread order, a recall schedule) and refuses a Python list or tuple
that holds a bool, which numpy would read as 0 or 1. A start value is an
integer by the same rule, so True and 1.0 are no spin values. The same
holds for the entries of a state, a memory, a weight or proximity matrix
and an amplitude vector: each is read through _array, which gives a list
or tuple that holds a bool back as a bool array, refused like one, and a
ragged list back as an object array, refused like one too.
"""

from __future__ import annotations

import operator
import weakref
from dataclasses import dataclass
from typing import Mapping

import numpy as np

BIPOLAR_DTYPE = np.int8

PROXIMITY_TOL = 1e-9

# bound on the total absolute weight; see validate_weights
WEIGHT_TOTAL_LIMIT = 2**62

# float weights beyond this magnitude may not be the integers they were meant to be
FLOAT_EXACT_LIMIT = 2**53

# float32 holds every integer up to this magnitude
FLOAT32_EXACT_LIMIT = 2**24

# largest n the exhaustive fixed-point census walks by default (2^n states)
ENUMERATION_LIMIT = 20

# rows per block of the proximity symmetry check and of hebbian.train, and positions
# per block of the spread's sign solve
_ROW_BLOCK = 64


class ValidationError(ValueError):
    """A domain value breaks its invariants (non-bipolar entry, asymmetry, ...)."""


class DimensionMismatch(ValueError):
    """Operands disagree on the number of neurons."""


class ParameterError(ValueError):
    """A parameter is missing or outside its allowed range."""


_BOOLS = frozenset({bool, np.bool_})


def _integer(value) -> int:
    """operator.index(value), with a bool refused too: TypeError for a non-integer."""
    if isinstance(value, bool):
        raise TypeError("a bool is not an integer")
    return operator.index(value)


def _whole(value, name: str, least: int, refusal: str) -> int:
    """``value`` as a Python int, refused unless it is an integer >= least.

    A non-integer is refused as one, by ``name``; an integer below ``least``
    gets ParameterError(refusal).
    """
    try:
        whole = _integer(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None
    if whole < least:
        raise ParameterError(refusal)
    return whole


def _seed(seed) -> int:
    """A seed: an integer >= 0."""
    return _whole(seed, "seed", 0, "seed must be a nonnegative integer")


def _neuron(index, n: int) -> int:
    """A 0-based start neuron, refused unless it is an integer in [0, n)."""
    try:
        i = _integer(index)
    except TypeError:
        raise ParameterError(f"start neuron index must be an integer, got {index!r}") from None
    if not 0 <= i < n:
        raise ParameterError(f"start neuron {i + 1} out of range for {n} neurons")
    return i


def _array(values) -> np.ndarray:
    """np.asarray(values), as a bool array when a list or tuple holds a bool.

    numpy reads a bool beside numbers as 0 or 1. So a list or tuple that
    numpy read as numbers is searched once, in C, through an object array
    of its entries, and comes back as a bool array when one of them is a
    bool at any depth; every caller refuses that as it refuses a bool array.
    A ragged list, which numpy cannot make rectangular, comes back as a 1-d
    object array of its entries, refused like any object array.
    """
    try:
        arr = np.asarray(values)
    except ValueError:
        return np.fromiter(values, dtype=object)
    if arr.dtype.kind in "iuf" and isinstance(values, (list, tuple)):
        if not _BOOLS.isdisjoint(map(type, np.asarray(values, dtype=object).ravel())):
            return arr.astype(bool)
    return arr


def _index_array(values, refusal: str) -> np.ndarray:
    """``values`` as an array; ParameterError(refusal) unless its dtype is integer.

    An empty collection holds no non-integer, whatever dtype numpy gives it.
    A list or tuple that holds a bool is refused too (see _array). The
    integers keep the width numpy read them at, so a uint64 beyond int64 is
    never wrapped before its caller checks its range.
    """
    arr = _array(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise ParameterError(refusal)
    return arr


def _numeric(arr: np.ndarray, what: str) -> None:
    """Refuse an array that is not integer or float: bool, complex, string or object."""
    if arr.dtype.kind not in "iuf":
        raise ValidationError(f"{what} must be numeric, got dtype {arr.dtype}")


def _start_neurons(start_set, n: int) -> np.ndarray:
    """The distinct neurons of a flat start set, sorted, refused unless each is one of n."""
    start = _index_array(list(start_set), "start neuron indices must be integers")
    if start.ndim != 1:
        raise ParameterError("start set must be a flat collection of neuron indices")
    start = np.unique(start)
    if not start.size:
        raise ParameterError("start set is empty")
    if start[0] < 0 or start[-1] >= n:
        _neuron(int(start[(start < 0) | (start >= n)][0]), n)  # raises, naming the first offender
    return start


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


# id -> the kept float64 memories of a trusted matrix, or None, for each frozen array a
# validator returned; an entry dies with its array, so an id found here names that very array
_TRUSTED: dict[int, np.ndarray | None] = {}


def _trust(arr: np.ndarray, memories: np.ndarray | None = None) -> np.ndarray:
    """Freeze ``arr`` and let the validator of its dtype accept it in O(1) from now on.

    ``memories``, the float64 memories X of a matrix W = X^T X - m I that
    train built, are frozen and kept in the same entry, for _fields: only
    for m < n, where O(m n) beats O(n^2), and m n <= FLOAT_EXACT_LIMIT, where
    every float64 product and partial sum is an exact integer. They cost
    8 m n bytes while ``arr`` lives, and the entry dies with ``arr``.
    """
    m, n = (0, 0) if memories is None else memories.shape  # (0, 0) keeps nothing
    _TRUSTED[id(arr)] = _frozen(memories) if m < n and m * n <= FLOAT_EXACT_LIMIT else None
    weakref.finalize(arr, _TRUSTED.pop, id(arr), None)
    return _frozen(arr)


def _trusted(value, dtype: type) -> bool:
    """True for an array _trust entered, still read-only, of ``dtype``: np.int64 asks
    for weights, np.float64 for proximity."""
    return id(value) in _TRUSTED and value.dtype == dtype and not value.flags.writeable


def _exact_float(bound: int) -> type:
    """float32 when it holds every integer of magnitude at most ``bound``, else float64."""
    return np.float32 if bound <= FLOAT32_EXACT_LIMIT else np.float64


def _factor(w: np.ndarray) -> np.ndarray | None:
    """The kept float64 memories X of a trusted W = X^T X - m I, or None: the trust
    entry that _trusted just matched."""
    return _TRUSTED[id(w)] if _trusted(w, np.int64) else None


def _fields(w: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Exact int64 fields W s of a validated matrix, for one state or each row of a stack.

    Through the training factor when ``w`` carries one (see the module
    docstring), else as the int64 product; both are exact, so they agree.
    """
    x = _factor(w)
    if x is not None:
        # (s X^T) X - m s, the cheaper association for the m < n memories _trust keeps
        s = s.astype(x.dtype, copy=False)
        fields = (s @ x.T) @ x
        fields -= len(x) * s
        return fields.astype(np.int64)
    # W is symmetric, so a row of s @ w is W times that row
    return w @ s if s.ndim == 1 else s @ w


def _block_fields(w: np.ndarray, s: np.ndarray, blocks):
    """For each block of neurons in turn, its int64 fields W[block] s and its couplings.

    The couplings are the block's own weights W[block][:, block], exact off
    the diagonal; the diagonal is m through the factor, 0 otherwise, and is
    the caller's to discard. ``s`` must be 0 on a block when its fields are
    asked for, and is read lazily: the caller writes the entries of one block
    into s before it asks for the next block.

    Through the factor, q = X s is carried and a block of b costs O(b^2 m)
    float64 BLAS: the fields are X[:, block]^T q while s is 0 on the block,
    the couplings X[:, block]^T X[:, block], then q grows by
    X[:, block] s[block]. Every value is an integer of magnitude at most
    m n <= 2**53, so all are exact. Any other matrix gives both from the
    block's b rows, O(b n) int64, with the int64 bound of validate_weights.
    """
    x = _factor(w)
    if x is None:
        for block in blocks:
            rows = w[block]
            yield rows @ s, rows[:, block]
        return
    q = x @ s
    for block in blocks:
        xb = x[:, block]
        yield (xb.T @ q).astype(np.int64), (xb.T @ xb).astype(np.int64)
        q += xb @ s[block]


def sgn(v):
    """Hard threshold: +1 where v >= 0, -1 where v < 0.

    Accepts a scalar or an array (applied elementwise); non-finite input is
    rejected. Zero maps to +1, which biases the dynamics toward +1 wherever
    a field cancels exactly; see analysis.complement_asymmetry_probe for
    where that bias becomes visible.
    """
    arr = _array(v)
    if arr.dtype.kind not in "iuf":
        raise ValidationError(f"sgn expects real input, got dtype {arr.dtype}")
    if arr.dtype.kind == "f" and not np.all(np.isfinite(arr)):
        raise ValidationError("sgn expects finite input")
    out = np.where(arr >= 0, 1, -1).astype(BIPOLAR_DTYPE)
    if arr.ndim == 0:
        return int(out)
    return _frozen(out)


def _unstable(fields, states):
    """True where a state differs from sgn of its field (sgn(0) = +1), elementwise.

    The stability test of recall, the spread, the capacity trials and the
    complement probe: x is a fixed point exactly when _unstable(W x, x) holds
    nowhere. The census of analysis.enumerate_fixed_points tests the same
    rule in packed form: with the image's bits taken as fields >= 0, x is
    fixed when the index of its image is its own index.
    """
    return (fields >= 0) != (states > 0)


def as_bipolar(values) -> np.ndarray:
    """Validate a state vector with entries in {+1, -1}; returns a frozen int8 copy."""
    arr = _array(values)
    if arr.ndim != 1:
        raise ValidationError(f"expected a 1-d state vector, got shape {arr.shape}")
    if arr.size < 1:
        raise ValidationError("a state needs at least one neuron")
    _numeric(arr, "state entries")
    if np.count_nonzero(arr == 1) + np.count_nonzero(arr == -1) != arr.size:
        i = int(np.flatnonzero((arr != 1) & (arr != -1))[0])
        raise ValidationError(f"state entries must be +1 or -1, neuron {i + 1} has {arr[i]!r}")
    return _frozen(arr.astype(BIPOLAR_DTYPE))


@dataclass(frozen=True)
class MemorySet:
    """A validated collection of memories, all of the same dimension.

    ``duplicates`` groups row indices of repeated vectors. Duplicates are
    legal (they just weight the Hebbian sum) but worth surfacing.
    """

    vectors: np.ndarray
    duplicates: tuple[tuple[int, ...], ...] = ()

    @property
    def m(self) -> int:
        return int(self.vectors.shape[0])

    @property
    def n(self) -> int:
        return int(self.vectors.shape[1])

    def __iter__(self):
        return iter(self.vectors)

    def __len__(self) -> int:
        return self.m


def validate_memory_set(memories) -> MemorySet:
    """Check that all memories are bipolar and share one dimension.

    Accepts a MemorySet (returned unchanged), a 2-d array, or an iterable of
    vectors. Raises ParameterError on an empty set, DimensionMismatch on
    ragged input, and ValidationError on a value that is no collection at
    all. Each row then goes through as_bipolar in turn, so a non-bipolar
    set is refused with the first bad row's exception.
    """
    mset = _memory_set(memories)
    if mset is None:
        raise ParameterError("memory set is empty")
    return mset


def _memory_set(memories) -> MemorySet | None:
    """validate_memory_set(memories), or None for an empty collection of any kind,
    an iterator included, which has no length to ask first."""
    if isinstance(memories, MemorySet):
        return memories
    try:
        rows = iter(memories)
    except TypeError:
        raise ValidationError(
            f"a memory set must be a collection of vectors, got a non-iterable {type(memories).__name__}"
        ) from None
    rows = [_array(r) for r in rows]
    if not rows:
        return None
    widths = {int(r.size) for r in rows}
    if len(widths) != 1:
        raise DimensionMismatch(f"memories have mixed dimensions {sorted(widths)}")
    vectors = np.stack([as_bipolar(r) for r in rows])
    groups: dict[bytes, list[int]] = {}
    for i, row in enumerate(vectors):
        groups.setdefault(row.tobytes(), []).append(i)
    # groups are disjoint and listed by first member, so this order is also sorted
    duplicates = tuple(tuple(g) for g in groups.values() if len(g) > 1)
    return MemorySet(vectors=_frozen(vectors), duplicates=duplicates)


def _abs_total(w: np.ndarray) -> int:
    """Exact sum of |w_ij| over an int64 matrix, free of int64 wrap-around."""
    mag = np.abs(w).view(np.uint64)  # |-2**63| = 2**63 is exact in uint64
    # each half-sum stays below 2**64 for any n below 65536
    return (int((mag >> 32).sum()) << 32) + int((mag & 0xFFFFFFFF).sum())


def validate_weights(weights) -> np.ndarray:
    """Validate a symmetric, zero-diagonal, integer weight matrix.

    Returns a frozen int64 copy. A matrix whose total absolute weight
    exceeds WEIGHT_TOTAL_LIMIT (2**62) is refused, and this is the int64
    bound every kernel relies on: an accepted matrix counts each column
    twice in its total (once more as a row, the diagonal being zero), so
    each column sums to at most 2**61 in absolute value, and so does every
    field, row and partial sum of W s over a state s in {-1, 0, +1}. Every
    energy s^T W s, and its partial sums, stay within the 2**62 total.
    int64 arithmetic on an accepted matrix is therefore exact. A matrix
    this function (or train or load_weights) returned is returned as it
    is, in O(1).
    """
    if _trusted(weights, np.int64):
        return weights
    arr = _array(weights)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"weight matrix must be square, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise ValidationError("weight matrix needs at least one neuron")
    _numeric(arr, "weight entries")
    if arr.dtype.kind == "f":
        if not np.all(np.isfinite(arr)) or not np.all(arr == np.round(arr)):
            raise ValidationError("weight entries must be integers")
        if np.any(np.abs(arr) > FLOAT_EXACT_LIMIT):
            raise ValidationError("float weight entries must lie within +-2**53, where every integer is exact")
    elif arr.dtype == np.uint64:
        if int(arr.max()) > np.iinfo(np.int64).max:
            raise ValidationError("weight entries exceed the int64 range")
    out = arr.astype(np.int64)
    peak = max(-int(out.min()), int(out.max()))
    if peak * out.size > WEIGHT_TOTAL_LIMIT:
        total = _abs_total(out)
        if total > WEIGHT_TOTAL_LIMIT:
            raise ValidationError(
                f"total absolute weight {total} exceeds 2**62; fields could overflow int64"
            )
    if not np.array_equal(out, out.T):
        i, j = np.argwhere(out != out.T)[0]
        raise ValidationError(f"weight matrix is asymmetric at ({int(i) + 1}, {int(j) + 1})")
    diag = np.diag(out)
    if np.any(diag != 0):
        i = int(np.flatnonzero(diag != 0)[0])
        raise ValidationError(f"weight diagonal must be zero, neuron {i + 1} has {diag[i]}")
    return _trust(out)


def _proximity_fault(arr: np.ndarray) -> tuple[int, str] | None:
    """The first broken invariant of a square float matrix, as (row, message), or None.

    One walk over the row blocks decides and locates. A NaN or infinite
    entry leaves NaN or inf in its mirror gap, and NaN propagates through
    the max, so a non-finite matrix fails some block with no pass of its
    own; only the first block that fails checks the whole matrix for one,
    since a non-finite entry anywhere outranks an asymmetry. The diagonal
    and the count of non-positive entries follow: the off-diagonal entries
    are positive exactly when every non-positive entry lies on the diagonal.
    """
    # inf - inf is NaN and 1e308 - -1e308 overflows to inf: refusals, not warnings
    with np.errstate(invalid="ignore", over="ignore"):
        for i in range(0, arr.shape[0], _ROW_BLOCK):
            # |P - P^T| on this row block from column i on: the row blocks of the upper
            # triangle, diagonal included, and their mirrors cover every entry, with no
            # n x n temporary
            gap = np.abs(arr[i:i + _ROW_BLOCK, i:] - arr[i:, i:i + _ROW_BLOCK].T)
            if not gap.max() <= PROXIMITY_TOL:
                if not np.all(np.isfinite(arr)):
                    return int(np.argwhere(~np.isfinite(arr))[0][0]), "proximity entries must be finite"
                # asymmetry is mirrored and earlier blocks hold none, so the row-major
                # first offender lies in this block, above the diagonal
                r, c = (i + int(k) for k in np.argwhere(gap > PROXIMITY_TOL)[0])
                return r, f"proximity matrix is asymmetric at ({r + 1}, {c + 1})"
    diag = np.diagonal(arr)
    bad = np.flatnonzero(np.abs(diag) > PROXIMITY_TOL)
    if bad.size:
        i = int(bad[0])
        return i, f"proximity diagonal must be zero, neuron {i + 1} has {arr[i, i]}"
    if np.count_nonzero(arr <= 0) != np.count_nonzero(diag <= 0):
        i, j = (int(k) for k in np.argwhere((arr <= 0) & ~np.eye(arr.shape[0], dtype=bool))[0])
        return i, f"off-diagonal proximity must be positive, ({i + 1}, {j + 1}) has {arr[i, j]}"
    return None


def _checked_proximity(proximity) -> np.ndarray:
    """A trusted proximity matrix as it is, else the caller's values as float64, checked in full.

    Integer and float entries are read as float64; a bool, complex, string
    or object array is refused, never cast. Nothing is copied or remembered:
    a float64 array comes back as the very object given, still writeable,
    and the next call checks it again. For a matrix used once, such as the
    one an order is sorted from.
    """
    if _trusted(proximity, np.float64):
        return proximity
    arr = _array(proximity)
    _numeric(arr, "proximity entries")
    arr = arr.astype(np.float64, copy=False)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"proximity matrix must be square, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise ValidationError("proximity matrix needs at least one neuron")
    fault = _proximity_fault(arr)
    if fault is not None:
        raise ValidationError(fault[1])
    return arr


def validate_proximity(proximity) -> np.ndarray:
    """Validate a pairwise-distance matrix; returns a frozen float64 copy.

    At least one neuron; symmetric within 1e-9, zero diagonal, strictly
    positive off-diagonal.
    Distances are not required to obey the triangle inequality; coiled or
    twisted pathways make neuron separations non-Cartesian. A matrix this
    function (or parse_proximity) returned is returned as it is, in O(1).
    """
    arr = _checked_proximity(proximity)
    return arr if _trusted(arr, np.float64) else _trust(arr.copy())


def normalize_start(start, n: int) -> dict[int, int]:
    """Normalize a start assignment (mapping or (index, value) pairs) to a dict.

    Validates indices against ``n`` neurons and values against {+1, -1}
    under the integer rule (a bool or a whole float such as 1.0 is refused),
    each value before any repeat of its neuron; a start must name at least
    one neuron.
    """
    n = _whole(n, "n", 0, f"neuron count must be a nonnegative integer, got {n!r}")
    out: dict[int, int] = {}
    for idx, val in start.items() if isinstance(start, Mapping) else start:
        i = _neuron(idx, n)
        try:
            spin = _integer(val)  # True == 1 and 1.0 == 1, yet neither is a spin value
        except TypeError:
            spin = None
        if spin not in (-1, 1):
            raise ValidationError(f"start value for neuron {i + 1} must be +1 or -1, got {val!r}")
        if out.get(i, spin) != spin:
            raise ParameterError(f"start assigns neuron {i + 1} twice with different values")
        out[i] = spin
    if not out:
        raise ParameterError("start assignment is empty")
    return out
