"""Spreading-activity retrieval through a triangular generator matrix.

The symmetric weight matrix W splits exactly and uniquely into
W = G + G^T with G strictly lower triangular (the zero diagonal leaves
nothing to halve). Retrieval then mimics activity spreading through the
network from a seed fragment: neurons are ordered by proximity to the
start sites, and the fragment grows one neuron per step, the new neuron
taking sgn of its generator-row field. Values already in the fragment,
whether seeded or spread-computed, are left unchanged for the rest of the
spread.

Because G is strictly lower triangular in spread coordinates (the weights
relabeled into spread order), the field of the neuron being assigned
depends only on neurons assigned before it; the prefix shape of the
fragment is what makes "grow by one neuron" well defined, and the
proximity permutation is what makes arbitrary start sets legal.

A completed spread need not be self-consistent: recomputing an assigned
neuron's value from the full symmetric field over the final state can
disagree with the value it holds (a noisy seed, for instance). Such
neurons are surfaced in ``consistency_flags`` rather than resolved; an
empty flag set is exactly the statement that the final state is a fixed
point of one synchronous pass.

The arithmetic needs no relabeled copy. A neuron the activity has not
reached yet is silent, held at 0, and adds nothing to a field, so the full
row of the weights as they are, dotted with the fragment in original
coordinates, is exactly the generator-row field. The spread assigns 64
positions at a time. For a block of b positions, f0 holds the fields from
the neurons assigned before it, and C the couplings among its own
neurons, strictly lower triangular in spread order. The block's values
are then the unique solution of x_b = sgn(f0 + C x_b), found by starting
from sgn(f0) and iterating. Each round settles at least one more leading
entry, so the solve ends within b rounds. The reported fields are
f0 + C x_b, exactly the per-step generator-row fields.

f0 and C come from core._block_fields. A matrix that train built and that
keeps its memories X gets both through X, never forming a row of W: f0 is
X[:, block]^T q, with q = X x carried over the assigned neurons, and C is
X[:, block]^T X[:, block], O(b m) float64 BLAS work per position. Any
other matrix reads the block's b rows: O(n) int64 work per position,
O(n^2) per spread, and b rows of memory (200 KB at n=400). The weights
are validated once (in O(1) for a matrix a validator already returned,
see core). Each round of a solve costs O(b^2); a block usually settles
in one or two rounds. Couplings that overturn every guess settle
one neuron per round: on an antiferromagnetic chain (W[i, i+1] = -1, in
index order) a block takes b - 1 rounds, each a b x b product, and the
spread costs several times what one row dot per neuron would (README).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    _ROW_BLOCK,
    BIPOLAR_DTYPE,
    DimensionMismatch,
    ParameterError,
    ValidationError,
    _block_fields,
    _checked_proximity,
    _fields,
    _frozen,
    _index_array,
    _start_neurons,
    _unstable,
    normalize_start,
    validate_memory_set,
    validate_weights,
)

# keeps the couplings of a block on earlier positions of the spread order
_STRICTLY_LOWER = _frozen(np.tri(_ROW_BLOCK, k=-1, dtype=np.int64))


def decompose(weights) -> np.ndarray:
    """Strictly lower-triangular generator G with G + G^T equal to the weights."""
    w = validate_weights(weights)
    return _frozen(np.tril(w, -1))


@dataclass(frozen=True)
class SpreadOrder:
    """The order in which activity reaches the neurons.

    ``permutation[k]`` is the original index of the neuron in position k of
    the spread; every start neuron comes before every non-start neuron.
    """

    permutation: np.ndarray
    start_set: frozenset[int]

    def __post_init__(self):
        perm = _index_array(self.permutation, "spread order must hold integer neuron indices")
        n = perm.size
        if not np.array_equal(np.sort(perm), np.arange(n)):
            raise ValidationError("spread order must be a permutation of the neuron indices")
        start = _start_neurons(self.start_set, n)
        if not np.array_equal(np.sort(perm[: start.size]), start):
            raise ValidationError("spread order must place the start set first")
        object.__setattr__(self, "permutation", _frozen(perm.copy()))
        object.__setattr__(self, "start_set", frozenset(start.tolist()))

    @property
    def n(self) -> int:
        return int(self.permutation.size)


def _order(n: int, start_set, proximity=None) -> SpreadOrder:
    """Start neurons by index, then the rest by distance to the start set, ties by index.

    One stable sort: each start neuron is keyed at -inf, every other neuron at
    its minimum distance to the start set, or at 0 without a proximity matrix.
    Start neurons are keyed explicitly, as a tolerated diagonal entry may lie
    above an off-diagonal distance.
    """
    start = _start_neurons(start_set, n)
    key = np.zeros(n) if proximity is None else proximity[start].min(axis=0)
    key[start] = -np.inf
    return SpreadOrder(np.argsort(key, kind="stable"), frozenset(start.tolist()))


def order_from_proximity(proximity, start_set) -> SpreadOrder:
    """Order the neurons by increasing distance from the start set.

    The distance of a neuron to the start set is the minimum over start
    members, modeling activity arriving from the nearest active site. Ties
    break toward the smaller neuron index; start members head the order,
    sorted by index. The order is one stable sort of those distances, with
    the start members keyed first. The matrix is checked in full for this
    call and is neither copied nor remembered (see core).
    """
    p = _checked_proximity(proximity)
    return _order(p.shape[0], start_set, p)


class SpreadStep(NamedTuple):
    """One assignment during a spread: the neuron (original index), its
    integer field before thresholding, and the resulting value."""

    neuron: int
    field: int
    value: int


@dataclass(frozen=True)
class SpreadTrace:
    """Full record of a spread: per-step assignments, the completed state in
    original coordinates, the final consistency flags, the order used, and
    the seed assignment."""

    steps: tuple[SpreadStep, ...]
    final: np.ndarray
    consistency_flags: frozenset[int]
    order: SpreadOrder
    start: tuple[tuple[int, int], ...]


def spread_full(weights, start, proximity=None, order=None) -> SpreadTrace:
    """Run a complete spread from a seed assignment.

    ``start`` maps neuron indices to clamped values. The spread order comes
    from ``order`` (an explicit SpreadOrder), from ``proximity`` distances,
    or falls back to index order. An explicit order or a proximity matrix
    must cover exactly the neurons of the weights (DimensionMismatch
    otherwise); a proximity matrix is checked once, in full, and sized
    before its order is built, so a start neuron beyond it is reported as
    that mismatch. Like order_from_proximity, the spread neither copies nor
    remembers the matrix.
    The fragment grows one neuron per step, each new neuron taking sgn of
    its generator-row field over the neurons assigned before it; exactly
    n - len(start) steps are performed. The field is the dot of the
    neuron's weight row with the fragment, where every neuron not reached
    yet is silent (0); the steps are solved 64 positions at a time, as the
    module docstring describes.
    """
    w = validate_weights(weights)
    n = w.shape[0]
    seed = normalize_start(start, n)
    if proximity is not None and order is not None:
        raise ParameterError("give either a proximity matrix or an explicit order, not both")
    if proximity is not None:
        proximity = _checked_proximity(proximity)
    # sized before any order is built: a start neuron beyond a small proximity
    # matrix is a size mismatch, not a start out of range
    size = order.n if order is not None else n if proximity is None else proximity.shape[0]
    if size != n:
        raise DimensionMismatch(f"order covers {size} neurons, weights have {n}")
    if order is None:
        order = _order(n, seed.keys(), proximity)
    if order.start_set != frozenset(seed):
        raise ParameterError("explicit order was built for a different start set")

    # each neuron is written once, by the seed or by its block; until then it is
    # silent (0). Every field and every partial sum below, for any guess, is a sum of
    # distinct entries of one weight row times +-1 or 0, so no int64 product wraps
    # (the bound of validate_weights).
    x = np.zeros(n, dtype=np.int64)
    x[list(seed)] = list(seed.values())
    rest = order.permutation[len(seed):]
    blocks = [rest[k:k + _ROW_BLOCK] for k in range(0, rest.size, _ROW_BLOCK)]
    steps: list[SpreadStep] = []
    for block, (f0, couplings) in zip(blocks, _block_fields(w, x, blocks)):
        c = couplings * _STRICTLY_LOWER[:block.size, :block.size]
        h = f0
        # round r leaves at least the first r values right: b rounds settle b values
        for _ in range(block.size):
            v = np.where(h >= 0, 1, -1)
            h = f0 + c @ v
            if not _unstable(h, v).any():
                break
        x[block] = v
        steps += map(SpreadStep._make, zip(block.tolist(), h.tolist(), v.tolist()))

    final = _frozen(x.astype(BIPOLAR_DTYPE))
    flags = frozenset(np.flatnonzero(_unstable(_fields(w, x), x)).tolist())
    return SpreadTrace(
        steps=tuple(steps),
        final=final,
        consistency_flags=flags,
        order=order,
        start=tuple(sorted(seed.items())),
    )


@dataclass(frozen=True)
class RetrievalReport:
    """Outcome quality of a spread against a memory list."""

    trace: SpreadTrace
    matched_index: int | None
    nearest_index: int | None
    nearest_distance: int | None
    is_fixed_point: bool


def retrieve_report(weights, start, memories=None, proximity=None, order=None) -> RetrievalReport:
    """Spread from a seed and report what was retrieved.

    Reports the index of the stored memory the final state equals (if any),
    the Hamming distance to the nearest memory (ties to the lower index),
    and whether the final state is a fixed point of one synchronous pass.
    """
    trace = spread_full(weights, start, proximity, order)
    is_fp = len(trace.consistency_flags) == 0

    matched = nearest = distance = None
    if memories is not None and len(memories) > 0:
        mset = validate_memory_set(memories)
        if mset.n != trace.final.size:
            raise DimensionMismatch(f"memories have {mset.n} neurons, weights have {trace.final.size}")
        dists = np.count_nonzero(mset.vectors != trace.final, axis=1)
        nearest = int(np.argmin(dists))
        distance = int(dists[nearest])
        if distance == 0:
            matched = nearest
    return RetrievalReport(
        trace=trace,
        matched_index=matched,
        nearest_index=nearest,
        nearest_distance=distance,
        is_fixed_point=is_fp,
    )
