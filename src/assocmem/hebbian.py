"""Hebbian outer-product training and threshold recall dynamics.

Training sums the outer products of the memory vectors and zeroes the
diagonal: W[i, j] = sum_k x^k[i] * x^k[j] for i != j. The sum is formed
in float64 BLAS and stored as int64. It is exact: each term is +-1, so
every product and partial sum is an integer of magnitude at most m, and
float64 holds every such integer up to 2**53, in any summation order. The
sum is not normalized by the number of memories; the sgn threshold is
invariant under positive scaling, so normalization would only discard
exactness.

A memory x counts as stored when one synchronous pass reproduces it,
x == sgn(W x). Iterated synchronous recall and asynchronous (one neuron at
a time) recall are provided on top of that definition, together with the
quadratic energy E(s) = -1/2 s^T W s used to check that asynchronous
updates only ever descend (Hopfield 1982 dynamics).

Every field of a synchronous recall, the first field of an asynchronous
one, and the field of is_stored, energy and recall_sync come from
core._fields, which picks the cheaper exact product from the matrix itself.
For a matrix train built from m < n memories with m n <= 2**53, W x is
(x X^T) X - m x in O(m n) float64 BLAS, exact because every product and
partial sum is an integer of magnitude at most m n, and the memories X
cost 8 m n bytes while W lives. Any other matrix (m >= n, loaded,
hand-written or copied) pays the O(n^2) int64 product, exact by the bound
of validate_weights.

A synchronous recall takes each pass's field afresh from core._fields.
Its energy -1/2 x.h is an O(n) dot, and a pass that repeats an earlier
state reuses that state's energy. An asynchronous recall pays only for
what changes: it computes h once and carries the half fields g = h >> 1.
A flip adds +-2 W[i] to h, so no field changes parity, and h[i] >= 0
exactly when g[i] >= 0. A visit reads g[i] as a Python int through a
memoryview in O(1), and a flip of neuron i adds +-W[i] to g once, in O(n).
Before each pass it compares the signs of g with the state, one O(n)
vector check: when they agree the pass could flip nothing, so it is
counted and its n equal trace entries are written without visiting any
neuron. Energies are exact integers, bounded by 2**62 through
validate_weights; the asynchronous recall updates its energy as a Python
int on each flip, so every trace entry is the float nearest the exact
energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .core import (
    DimensionMismatch,
    ParameterError,
    _ROW_BLOCK,
    _fields,
    _frozen,
    _index_array,
    _seed,
    _trust,
    _unstable,
    _whole,
    as_bipolar,
    sgn,
    validate_memory_set,
    validate_weights,
)

SCHEDULES = ("cyclic", "random")


def train(memories) -> np.ndarray:
    """Build the weight matrix from a memory set via the outer-product rule.

    Returns a frozen int64 matrix, symmetric with a zero diagonal, that
    validate_weights accepts in O(1). With m < n memories and m n <= 2**53
    the matrix also carries its memories, so its fields cost O(m n) (see
    core._fields).

    Costs O(m n^2) float64 BLAS work, exact for any memory set that fits in
    memory (see the module docstring). The matrix is filled one block of _ROW_BLOCK rows at a time,
    so its peak memory is W itself, the float64 memories (8 m n bytes) and
    one 64 x n float64 block.
    """
    mset = validate_memory_set(memories)
    x = mset.vectors.astype(np.float64)
    n = x.shape[1]
    weights = np.empty((n, n), dtype=np.int64)
    for i in range(0, n, _ROW_BLOCK):
        weights[i:i + _ROW_BLOCK] = x[:, i:i + _ROW_BLOCK].T @ x
    np.fill_diagonal(weights, 0)
    return _trust(weights, x)


def _weights_and_state(weights, state) -> tuple[np.ndarray, np.ndarray]:
    """Validated weights and state, refused when their neuron counts differ."""
    w = validate_weights(weights)
    x = as_bipolar(state)
    if x.size != w.shape[0]:
        raise DimensionMismatch(f"state has {x.size} neurons, weight matrix has {w.shape[0]}")
    return w, x


def recall_sync(weights, state) -> np.ndarray:
    """One synchronous update pass: sgn applied componentwise to W x."""
    w, x = _weights_and_state(weights, state)
    return sgn(_fields(w, x))


def is_stored(weights, state) -> bool:
    """True when the state is a fixed point of one synchronous pass."""
    w, x = _weights_and_state(weights, state)
    return not _unstable(_fields(w, x), x).any()


def _energy(x: np.ndarray, h: np.ndarray) -> int:
    """Exact energy -1/2 x.h of state x with field h = W x.

    x.h = 2 * sum_{i<j} w_ij x_i x_j is even, and the int64 dot cannot wrap
    (the bound of validate_weights).
    """
    return -(int(x @ h) // 2)


def energy(weights, state) -> float:
    """Quadratic energy E(s) = -1/2 s^T W s, as the float nearest its exact integer value."""
    w, x = _weights_and_state(weights, state)
    return float(_energy(x, _fields(w, x)))


@dataclass(frozen=True)
class RecallResult:
    """Trajectory metadata for an iterated recall.

    ``energy_trace`` records E before any update and after every single
    neuron update (asynchronous) or every pass (synchronous). ``cycle`` is
    only populated by iterated synchronous recall, which can settle into a
    2-cycle instead of a fixed point; in that case ``converged`` is False
    and the alternating pair is attached.
    """

    state: np.ndarray
    iterations: int
    converged: bool
    energy_trace: tuple[float, ...]
    cycle: tuple[np.ndarray, np.ndarray] | None = None


def _resolve_orders(schedule, n: int, seed):
    """Validate the schedule and return an iterator of per-pass update orders."""
    if isinstance(schedule, str):
        if schedule == "cyclic":
            return repeat(np.arange(n))
        if schedule == "random":
            if seed is None:
                raise ParameterError("schedule 'random' needs an explicit seed")
            # a fresh permutation per pass, all from one generator
            return map(np.random.default_rng(_seed(seed)).permutation, repeat(n))
        raise ParameterError(f"unknown schedule {schedule!r}, expected one of {SCHEDULES} or an explicit order")
    # a non-integer order is no permutation, even when its values are whole
    refusal = f"explicit schedule must be a permutation of 0..{n - 1}"
    order = _index_array(list(schedule), refusal)
    if not np.array_equal(np.sort(order), np.arange(n)):
        raise ParameterError(refusal)
    return repeat(order)


def _pass_budget(max_passes, n: int) -> int:
    """The pass budget of a recall: max_passes, or 10 n when it is None."""
    if max_passes is None:
        return 10 * n
    return _whole(max_passes, "max_passes", 1, f"max_passes must be at least 1, got {max_passes}")


def recall_async(weights, state, schedule="cyclic", max_passes: int | None = None, seed=None) -> RecallResult:
    """Asynchronous recall: update one neuron at a time until a fixed point.

    ``schedule`` is "cyclic" (index order every pass), "random" (a fresh
    seeded permutation per pass, seed required), or an explicit permutation
    reused every pass. A pass with no flips certifies a fixed point. The
    energy trace is extended after every single-neuron update; with a zero
    diagonal each update can only keep energy equal or lower it, including
    the tie case where a zero field pulls a -1 neuron up to +1.
    """
    w, x = _weights_and_state(weights, state)
    n = x.size
    max_passes = _pass_budget(max_passes, n)
    orders = _resolve_orders(schedule, n, seed)
    h = _fields(w, x)
    e = _energy(x, h)
    ef = float(e)
    trace = [ef]
    x = x.copy()
    xs = x.tolist()
    # A flip adds (v - x_i) * W[i] = +-2 W[i] to h (W is symmetric), so no field
    # changes parity: h = 2 g + p with the half fields g = h >> 1 and p = h & 1 fixed.
    # h >= 0 exactly when g >= 0, so a visit reads only g[i] and a flip adds +-W[i] to
    # g once. Fields and rows stay within 2**61 (the bound of validate_weights).
    p = (h & 1).tolist()
    g = h >> 1
    # gv[i] reads g[i] as a Python int and sees every in-place update of g below,
    # so g must not be rebound while gv is alive
    gv = memoryview(g)
    for passes in range(1, max_passes + 1):
        if not _unstable(g, x).any():
            # no visit can flip a neuron: the pass only repeats the energy n times
            trace.extend([ef] * n)
            converged = True
            break
        for i in next(orders).tolist():
            gi = gv[i]
            v = 1 if gi >= 0 else -1
            if v != xs[i]:
                e -= (v - xs[i]) * (2 * gi + p[i])
                ef = float(e)  # the exact energy, rounded once
                if v > 0:
                    g += w[i]
                else:
                    g -= w[i]
                xs[i] = x[i] = v
            trace.append(ef)
    else:
        converged = not _unstable(g, x).any()
    return RecallResult(state=_frozen(x), iterations=passes, converged=converged, energy_trace=tuple(trace))


def recall_sync_iterated(weights, state, max_passes: int | None = None) -> RecallResult:
    """Iterate synchronous passes until the state repeats.

    Symmetric zero-diagonal weights make synchronous dynamics settle into a
    fixed point or a 2-cycle. A fixed point reports converged; a 2-cycle
    reports non-converged with the alternating pair attached.
    """
    w, cur = _weights_and_state(weights, state)
    max_passes = _pass_budget(max_passes, cur.size)
    h = _fields(w, cur)
    trace = [float(_energy(cur, h))]
    prev = None
    for t in range(1, max_passes + 1):
        nxt = sgn(h)
        if np.array_equal(nxt, cur):
            trace.append(trace[-1])
            return RecallResult(state=cur, iterations=t, converged=True, energy_trace=tuple(trace))
        if prev is not None and np.array_equal(nxt, prev):
            trace.append(trace[-2])
            return RecallResult(
                state=nxt,
                iterations=t,
                converged=False,
                energy_trace=tuple(trace),
                cycle=(nxt, cur),
            )
        h = _fields(w, nxt)
        trace.append(float(_energy(nxt, h)))
        prev = cur
        cur = nxt
    return RecallResult(state=cur, iterations=max_passes, converged=False, energy_trace=tuple(trace))
