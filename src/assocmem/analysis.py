"""Ground truth and statistics: attractor censuses and capacity experiments.

enumerate_fixed_points is the brute-force oracle for the recall rule: it
walks all 2^n bipolar states and keeps the fixed points, so everything the
recall dynamics claim can be checked against exhaustive truth for small n.
classify splits those fixed points into stored memories, complements of
stored memories, and spurious attractors.

capacity_experiment measures, by Monte Carlo over random memory sets, how
loading a network degrades recall. Capacity has no single agreed
operationalization, so the report carries two readings side by side:

* per-bit instability, the fraction of memory components a single
  synchronous pass flips (the headline threshold asks where per-bit
  stability drops below 99%), and
* the all-exact rate, the fraction of trials in which every memory is an
  exact fixed point, which collapses to zero at much lighter loading.

A trial never forms the n x n weights: it reads the fields of its m
memories off the overlap matrix in BLAS, at O(min(m, n) m n), in float32
while m n <= 2**24 and in float64 above, and loads with m n above 2**53,
where float64 stops being exact, are refused. Its memories are bit 7 of
each byte of Generator.bytes, the very bits Generator.integers(0, 2,
dtype=int8) draws from the same stream.

Reproducibility contract: the per-trial generators are derived from
(seed, m, trial) through SeedSequence spawn keys, and aggregation sums
integer counters in a fixed order, so the report is bit-identical no
matter how trials are scheduled or parallelized.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .core import (
    FLOAT_EXACT_LIMIT,
    DimensionMismatch,
    ParameterError,
    _exact_float,
    _factor_fields,
    _fields,
    _frozen,
    _seed,
    _unstable,
    _whole,
    validate_memory_set,
    validate_weights,
)

ENUMERATION_LIMIT = 20

# neurons in the low part of a split-half enumeration: a 2^14 x n int64 table
_LOW_BITS = 14


def _half_fields(rows: np.ndarray) -> np.ndarray:
    """Row g holds sum_j s_j rows[j] for the state s of integer g.

    The state of g sets s_j = +1 where bit k - 1 - j of g is 1 and -1 where
    it is 0, for the k rows: the first row is the most significant bit, so
    integer order is lexicographic order with -1 before +1. Of the identity
    rows the table is the states themselves, in that order. Each neuron
    doubles the table, as the least significant bit of the new index, so
    the k neurons of ``rows`` cost O(2^k n) int64 additions.
    """
    table = np.zeros((1, rows.shape[1]), dtype=np.int64)
    for row in rows:
        table = np.stack([table - row, table + row], axis=1).reshape(-1, rows.shape[1])
    return table


def enumerate_fixed_points(weights, limit_n: int = ENUMERATION_LIMIT) -> list[np.ndarray]:
    """All states with sgn(W x) = x, in lexicographic order (-1 before +1).

    Exhaustive over 2^n states; refuses n above ``limit_n`` (default 20,
    about a million states) unless the caller raises the limit explicitly.

    The state splits into its first n - k neurons (high part h) and its
    last k = min(n, 14) (low part l), and W x = F_high[h] + F_low[l], with
    each table holding the fields of one part alone. The states are the
    same builder's tables of identity rows, so they index as the fields do.
    A state then costs one O(n) row addition, O(2^n n) in all, and the
    tables 8 n (2^k + 2^(n-k)) bytes. Every table entry and sum is a field
    over a state in {-1, 0, +1}, so the int64 sums are exact (the bound of
    validate_weights).
    """
    w = validate_weights(weights)
    n = w.shape[0]
    _whole(limit_n, "limit_n", n, f"enumeration over 2^{n} states exceeds the limit n <= {limit_n}")
    k = min(n, _LOW_BITS)
    f_high, f_low = _half_fields(w[:n - k]), _half_fields(w[n - k:])
    high = _half_fields(np.eye(n - k, dtype=np.int8))
    states = np.empty((1 << k, n), dtype=np.int8)
    states[:, n - k:] = _half_fields(np.eye(k, dtype=np.int8))
    found: list[np.ndarray] = []
    for h in range(1 << (n - k)):
        states[:, :n - k] = high[h]
        stable = ~_unstable(f_low + f_high[h], states).any(axis=1)
        # rows of a frozen array are read-only views
        found.extend(_frozen(states[stable]))
    return found


@dataclass(frozen=True)
class AttractorCensus:
    """Fixed points labeled stored / complement / spurious.

    A fixed point equal to some memory counts as stored even when it is
    also the complement of another memory; complement only applies to
    negations of memories that are not themselves in the memory list.
    """

    fixed_points: tuple[np.ndarray, ...]
    labels: tuple[str, ...]
    stored_count: int
    complement_count: int
    spurious_count: int


def classify(fixed_points, memories) -> AttractorCensus:
    """Label each fixed point as stored, complement, or spurious."""
    points = [np.asarray(p) for p in fixed_points]
    mem = validate_memory_set(memories).vectors if len(memories) else None
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


@dataclass(frozen=True)
class CapacityRow:
    """Monte Carlo estimates at one memory load m."""

    m: int
    trials: int
    per_bit_instability: float
    all_stable_fraction: float
    stderr: float


@dataclass(frozen=True)
class CapacityReport:
    """Capacity sweep over memory loads at fixed network size."""

    n: int
    rows: tuple[CapacityRow, ...]
    seed: int
    threshold_capacity_ratio: float


def _capacity_trial(n: int, m: int, seed: int, trial: int) -> int:
    """One trial: draw m random memories, count the bits one pass flips.

    Returns the unstable bit count; 0 means every memory was an exact fixed
    point. The generator stream depends only on (seed, m, trial), never on
    scheduling.

    The memories are bit 7 of each of m n bytes of Generator.bytes, mapped
    0 -> -1 and 1 -> +1: Generator.integers(0, 2, dtype=int8) keeps exactly
    that bit of the same little-endian uint32 stream, so the draw is the
    same, for less work.

    The fields of the memories are X W with W = X^T X - m I, so W is never
    formed: core._factor_fields gives them as (X X^T) X - m X, or
    X (X^T X) - m X when m > n, at O(min(m, n) m n) in BLAS. Every product
    and partial sum is an integer of magnitude at most m n, exact in float32
    while m n <= 2**24 and in float64 while m n <= 2**53, which
    capacity_experiment enforces.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(m, trial)))
    x = (np.frombuffer(rng.bytes(m * n), np.uint8).reshape(m, n) >> 7).astype(_exact_float(m * n))
    x += x
    x -= 1
    fields = _factor_fields(x, x)
    unstable = int(np.count_nonzero(_unstable(fields, x)))
    if m == 1 and unstable != 0:
        raise AssertionError("a single memory must always be an exact fixed point")
    return unstable


def capacity_experiment(n: int, m_values, trials: int, seed: int, workers: int = 1) -> CapacityReport:
    """Monte Carlo capacity sweep.

    For each memory count m in ``m_values``, draws ``trials`` independent
    sets of m uniform bipolar memories and records, without forming the
    weights (see _capacity_trial), the per-bit instability (fraction of
    memory components one synchronous pass of the outer-product net flips)
    plus the fraction of trials where every memory is exact.
    ``threshold_capacity_ratio`` is the largest m/n whose per-bit stability
    is at least 99%, or 0.0 if no load in the sweep qualifies. A repeated m
    is refused: its trials would draw the very same streams, so a second
    row would be a copy, not a second estimate.

    ``workers`` > 1 deals the trials round-robin to that many threads of a
    pool, at most one per CPU; results are stored by index, so they are
    bit-identical to the serial run by construction. The pool pays only
    where BLAS runs single-threaded: a trial is one to a few BLAS calls,
    and a multi-threaded BLAS already spreads each over the cores, so the
    threads add only their overhead. Loads with m * n above
    2**53 are refused before any trial runs, because their fields would not
    be exact in float64.
    """
    n = _whole(n, "n", 10, f"capacity experiment needs n >= 10, got {n}")
    trials = _whole(trials, "trials", 50, f"capacity experiment needs trials >= 50, got {trials}")
    ms = [_whole(m, "m", 1, "every m must be at least 1") for m in m_values]
    if not ms:
        raise ParameterError("m_values is empty")
    repeated = [m for i, m in enumerate(ms) if m in ms[:i]]
    if repeated:
        raise ParameterError(f"m = {repeated[0]} is repeated in the loads; its trials would draw the same streams")
    seed = _seed(seed)
    workers = _whole(workers, "workers", 1, "workers must be at least 1")
    if max(ms) * n > FLOAT_EXACT_LIMIT:
        raise ParameterError(f"m * n = {max(ms) * n} exceeds 2**53; the float64 fields would not be exact")

    unstable = np.zeros((len(ms), trials), dtype=np.int64)

    tasks = len(ms) * trials
    threads = min(workers, os.cpu_count() or 1, tasks)

    def run_share(first: int) -> None:
        # every threads-th task of the (m, trial) grid in row-major order, from task first
        for mi, t in (divmod(task, trials) for task in range(first, tasks, threads)):
            unstable[mi, t] = _capacity_trial(n, ms[mi], seed, t)

    if threads == 1:
        run_share(0)
    else:
        # imported here: concurrent.futures (and logging with it) would cost every
        # command its start-up time, and only this branch uses a pool
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_share, range(threads)))

    rows = []
    for mi, m in enumerate(ms):
        bits = trials * m * n
        fraction = int(unstable[mi].sum()) / bits
        per_trial = unstable[mi] / (m * n)
        se = float(np.std(per_trial, ddof=1) / math.sqrt(trials))
        rows.append(
            CapacityRow(
                m=m,
                trials=trials,
                per_bit_instability=float(fraction),
                all_stable_fraction=int(np.count_nonzero(unstable[mi] == 0)) / trials,
                stderr=se,
            )
        )
    qualifying = [row.m for row in rows if row.per_bit_instability <= 0.01]
    threshold = max(qualifying) / n if qualifying else 0.0
    return CapacityReport(n=n, rows=tuple(rows), seed=seed, threshold_capacity_ratio=float(threshold))


@dataclass(frozen=True)
class ComplementFailure:
    """A stored memory whose complement is not a fixed point, with the
    zero-field components that break it."""

    memory_index: int
    zero_field_components: tuple[int, ...]


@dataclass(frozen=True)
class ComplementAsymmetryReport:
    """Which complements fail, and why.

    For a fixed-point memory x, negating the state negates every field, so
    -x can only fail to be a fixed point at components where the field of x
    is exactly zero and the +1 tie rule points the wrong way.
    """

    fixed_memory_indices: tuple[int, ...]
    failures: tuple[ComplementFailure, ...]


def complement_asymmetry_probe(weights, memories) -> ComplementAsymmetryReport:
    """Test the complement of every stored fixed-point memory."""
    w = validate_weights(weights)
    mset = validate_memory_set(memories)
    if mset.n != w.shape[0]:
        raise DimensionMismatch(f"memories have {mset.n} neurons, weights have {w.shape[0]}")
    # row k holds the fields of memory k (W is symmetric)
    fields = _fields(w, mset.vectors)
    fixed_indices = np.flatnonzero(~_unstable(fields, mset.vectors).any(axis=1)).tolist()
    failures = []
    for k in fixed_indices:
        # -x_k fails exactly where its field is zero; see ComplementAsymmetryReport
        zeros = np.flatnonzero(fields[k] == 0)
        if zeros.size:
            failures.append(ComplementFailure(memory_index=k, zero_field_components=tuple(zeros.tolist())))
    return ComplementAsymmetryReport(
        fixed_memory_indices=tuple(fixed_indices), failures=tuple(failures)
    )
