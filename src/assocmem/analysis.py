"""Ground truth and statistics: attractor censuses and capacity experiments.

enumerate_fixed_points is the brute-force oracle for the recall rule: it
walks all 2^n bipolar states and keeps the fixed points, so everything the
recall dynamics claim can be checked against exhaustive truth for small n.
One private walker, _walk, is the only loop over the 2^n states: it yields
their fields in index order, a state's index reading it as a binary number
with neuron 0 as the top bit and +1 as 1. A consumer holds no state table;
the census packs the one-pass image sgn(W s) of each state into an index
and keeps the states that map to their own index.
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

A trial never forms the n x n weights: it folds m I into the diagonal of
the smaller Gram matrix of its m memories, X X^T or X^T X, and takes their
fields with one more product, in BLAS at O(min(m, n) m n), in float32
while m n <= 2**24 and in float64 above; loads with m n above 2**53,
where float64 stops being exact, are refused. Its memories are bit 7 of
each byte of the generator's raw 64-bit words read little-endian: the
bytes of Generator.bytes, whose bit 7 Generator.integers(0, 2, dtype=int8)
draws from the same stream.

The trials run through _sweep, the one loop over seeded trials, whose
docstring states the reproducibility rule: a report is bit-identical no
matter how its trials are scheduled or parallelized. Trial t of load m
draws the stream of SeedSequence(entropy=seed, spawn_key=(m, t)), seeded
in bulk: numpy's SeedSequence mixes the (seed, m) prefix of that key once
per load, and _stream_words hashes only t, for every trial of the load in
one numpy pass, giving PCG64 the very words SeedSequence would, so a trial
pays for no SeedSequence of its own.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .core import (
    ENUMERATION_LIMIT,
    FLOAT_EXACT_LIMIT,
    DimensionMismatch,
    ParameterError,
    _exact_float,
    _fields,
    _frozen,
    _memory_set,
    _seed,
    _unstable,
    _whole,
    as_bipolar,
    validate_memory_set,
    validate_weights,
)

# neurons in the low part of a split-half enumeration: a 2^14 x n int64 table
_LOW_BITS = 14


def _half_fields(rows: np.ndarray) -> np.ndarray:
    """Row g holds sum_j s_j rows[j] for the state s of integer g.

    The state of g sets s_j = +1 where bit k - 1 - j of g is 1 and -1 where
    it is 0, for the k rows: the first row is the most significant bit, so
    integer order is lexicographic order with -1 before +1. Each neuron
    doubles the table, as the least significant bit of the new index, so
    the k neurons of ``rows`` cost O(2^k n) int64 additions.
    """
    table = np.zeros((1, rows.shape[1]), dtype=np.int64)
    for row in rows:
        table = np.stack([table - row, table + row], axis=1).reshape(-1, rows.shape[1])
    return table


def _walk(w: np.ndarray):
    """Yield (first, fields): the int64 fields W s of the states first, first + 1, ...

    Blocks of 2^k consecutive states come in index order, from index 0 on
    (see the module docstring), and cover every index once. A state splits
    into its first n - k neurons (high part h) and its last k = min(n, 14)
    (low part l), and W s = F_high[h] + F_low[l], with each _half_fields
    table holding the fields of one part alone; block h is all of F_low plus
    row h of F_high, so a state costs one O(n) row addition, O(2^n n) in
    all, and the tables 8 n (2^k + 2^(n-k)) bytes. Every table entry and sum
    is a field over a state in {-1, 0, +1}, so the int64 sums are exact (the
    bound of validate_weights). Only fields are yielded: a consumer that
    needs a state decodes it from its index.
    """
    # the last _LOW_BITS neurons form the low part, or all of them when n is smaller
    f_high, f_low = _half_fields(w[:-_LOW_BITS]), _half_fields(w[-_LOW_BITS:])
    for h, high in enumerate(f_high):
        yield h << _LOW_BITS, f_low + high


def enumerate_fixed_points(weights, limit_n: int = ENUMERATION_LIMIT) -> list[np.ndarray]:
    """All states with sgn(W x) = x, in lexicographic order (-1 before +1).

    Exhaustive over 2^n states; refuses n above ``limit_n`` (default 20,
    about a million states) unless the caller raises the limit explicitly,
    and n above 63 whatever the limit, where a state index leaves int64.

    The states come from _walk, at O(2^n n). The one-pass image of each
    state, sgn(W x) with sgn(0) = +1 as in sgn and core._unstable, is packed
    into a state index, and x is fixed exactly when that index is its own.
    Only the fixed indices are decoded into states.
    """
    w = validate_weights(weights)
    n = w.shape[0]
    _whole(limit_n, "limit_n", n, f"enumeration over 2^{n} states exceeds the limit n <= {limit_n}")
    if n > 63:
        raise ParameterError(f"enumeration packs each state into an int64 index, which needs n <= 63, got {n}")
    bits = 1 << np.arange(n - 1, -1, -1)
    fixed = []
    for first, fields in _walk(w):
        own = first + np.arange(len(fields))
        # the image's bits, fields >= 0, are written over the fields, which serve once
        fixed.append(own[np.greater_equal(fields, 0, out=fields) @ bits == own])
    # rows of a frozen array are read-only views
    return list(_frozen(np.where(np.concatenate(fixed)[:, None] & bits, 1, -1).astype(np.int8)))


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
    """Label each fixed point as stored, complement, or spurious.

    Each point is read through as_bipolar, as every state is. ``memories``
    is anything validate_memory_set takes, an iterator included; an empty
    collection of any kind labels every point spurious. The labels come
    from one table keyed by a state's bytes, so a point costs one O(n)
    lookup.
    """
    points = [as_bipolar(p) for p in fixed_points]
    mset = _memory_set(memories)
    table: dict[bytes, str] = {}
    if mset is not None:
        # negations first, so a memory that is also another's negation stays stored
        table = dict.fromkeys(map(bytes, -mset.vectors), "complement")
        table.update(dict.fromkeys(map(bytes, mset.vectors), "stored"))
    labels = []
    for p in points:
        if mset is not None and p.size != mset.n:
            raise DimensionMismatch(f"fixed point has {p.size} neurons, memories have {mset.n}")
        labels.append(table.get(p.tobytes(), "spurious"))
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


# the hash constants of numpy's SeedSequence (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# a trial index is one 32-bit entropy word of its stream's key
_TRIAL_LIMIT = 2**32


def _word_count(value: int) -> int:
    """The number of 32-bit entropy words SeedSequence makes of an integer >= 0; 0 is one word."""
    return -(-max(value.bit_length(), 1) // 32)


def _hash_constants(first: int, mult: int, count: int) -> np.ndarray:
    """``count`` successive values of a SeedSequence hash constant from ``first``, as uint32."""
    return np.array([first * pow(mult, k, 2**32) % 2**32 for k in range(count)], dtype=np.uint32)


def _xorshift(value):
    return value ^ value >> 16


def _stream_words(seed: int, key: tuple[int, ...], trials: int) -> np.ndarray:
    """Row t is SeedSequence(entropy=seed, spawn_key=(*key, t)).generate_state(4, np.uint64).

    A trials x 4 uint64 array, for 0 <= t < trials <= 2**32, where t is one
    entropy word. numpy's SeedSequence mixes the (seed, key) prefix: the
    pool of SeedSequence(entropy=seed, spawn_key=key) is the pool before t,
    and by then its hash constant has advanced four times per assembled
    entropy word: the seed's words, padded with zeros to four because a key
    follows, then the key's words. Only t is hashed here, as generate_state would
    after it, in one uint32 pass over all trials: t is mixed into the four
    pool words, a trials x 4 array, and the pool hashed out into eight
    32-bit words, a trials x 8 array; every product wraps as SeedSequence's
    uint32 arithmetic does.
    """
    from numpy.random import SeedSequence  # see _sweep: only a sweep loads numpy.random

    pool = SeedSequence(entropy=seed, spawn_key=key).pool
    words = max(_word_count(seed), 4) + sum(map(_word_count, key))
    # hashmix of t for each pool word in turn: the constant before, and after, each step
    a = _hash_constants(_INIT_A * pow(_MULT_A, 4 * words, 2**32), _MULT_A, 5)
    t = np.arange(trials, dtype=np.uint32)[:, None]
    pool = _xorshift(_MIX_L * pool - _MIX_R * _xorshift((t ^ a[:4]) * a[1:]))
    # generate_state(4, np.uint64): eight 32-bit outputs, two per word, low first, its
    # constant restarted from _INIT_B
    b = _hash_constants(_INIT_B, _MULT_B, 9)
    out = _xorshift((np.tile(pool, 2) ^ b[:8]) * b[1:])
    return out.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _StreamWords:
    """The seed of one stream for numpy's PCG64: a minimal ISeedSequence over its four words.

    PCG64 asks its seed sequence for generate_state(4, np.uint64) and for
    nothing else, so this answers that request alone and cannot spawn.
    _sweep registers the class with numpy.random.bit_generator.ISeedSequence
    when it runs, so that importing this module does not load numpy.random.
    """

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"holds the 4 uint64 words of one PCG64 seed, asked for {n_words} {np.dtype(dtype)}")
        return self.words


def _sweep(trial, loads, trials: int, seed: int, workers: int) -> np.ndarray:
    """The int64 counter trial(load, rng) of every (load, t) task, as a len(loads) x trials array.

    Reproducibility rule: task (load, t) draws only from its own generator,
    the very stream of default_rng(SeedSequence(entropy=seed,
    spawn_key=(load, t))), and its counter is stored at its own index, so
    the array, and every sum taken from it in a fixed order, is
    bit-identical however the tasks are scheduled. A repeated load would
    repeat its streams. The capacity study owns the bare (load, t) key: the
    next experiment to run here must add its own tag at the front of the
    key, so that no two experiments share a stream.

    The streams are seeded in bulk: numpy's SeedSequence mixes the (seed,
    load) prefix once per load, _stream_words hashes only t to give the
    PCG64 seeds of all trials of that load at once, and each task's PCG64
    reads its own through _StreamWords. So t is one entropy word, at most
    2**32 trials per load, and a trial must not call spawn on its
    generator: numpy raises TypeError, as _StreamWords cannot spawn.

    ``workers`` > 1 deals the tasks, in row-major order, round-robin to
    min(workers, CPUs, tasks) threads of a pool; one runs inline, with no
    thread. The pool pays only where BLAS runs single-threaded: a capacity
    trial is one to a few BLAS calls, and a multi-threaded BLAS already
    spreads each over the cores, so the threads add only their overhead.
    """
    # imported here: numpy.random would cost every command that loads this module
    # its start-up time, and only a sweep draws
    from numpy.random import PCG64, default_rng
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_StreamWords)
    words = [_stream_words(seed, (load,), trials) for load in loads]
    counts = np.zeros((len(loads), trials), dtype=np.int64)
    tasks = counts.size
    threads = min(workers, os.cpu_count() or 1, tasks)

    def run_share(first: int) -> None:
        # every threads-th task of the (load, t) grid in row-major order, from task first
        for i, t in (divmod(task, trials) for task in range(first, tasks, threads)):
            counts[i, t] = trial(loads[i], default_rng(PCG64(_StreamWords(words[i][t]))))

    if threads == 1:
        run_share(0)
    else:
        # imported here: concurrent.futures (and logging with it) would cost every
        # command its start-up time, and only this branch uses a pool
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_share, range(threads)))
    return counts


def _capacity_trial(n: int, m: int, rng: np.random.Generator) -> int:
    """One trial: draw m random memories from ``rng``, count the bits one pass flips.

    Returns the unstable bit count; 0 means every memory was an exact fixed
    point.

    The memories are bit 7 of each of the first m n bytes of the generator's
    raw 64-bit words, read little-endian, mapped 0 -> -1 and 1 -> +1. Those
    bytes are the ones Generator.bytes returns from a fresh generator, and
    Generator.integers(0, 2, dtype=int8) keeps exactly that bit of them, so
    the draw is the same, for less work.

    The fields of the memories are X W with W = X^T X - m I, and W is never
    formed: m I is folded into the diagonal of the smaller Gram matrix, so
    the fields are (X X^T - m I) X, or X (X^T X - m I) when m > n, at
    O(min(m, n) m n) in BLAS. Every product and partial sum is an integer of
    magnitude at most m n, exact in float32 while m n <= 2**24 and in
    float64 while m n <= 2**53, which capacity_experiment enforces.
    """
    words = rng.bit_generator.random_raw(-(-m * n // 8)).astype("<u8", copy=False)
    x = (words.view(np.uint8)[:m * n].reshape(m, n) >> 7).astype(_exact_float(m * n))
    x += x
    x -= 1
    # a product of x with a copy of itself runs as gemm, not as numpy's syrk
    # for x @ x.T, which took up to twice as long at n = 300, m <= 30
    y = x.copy()
    gram = x @ y.T if m <= n else x.T @ y
    gram.flat[::len(gram) + 1] -= m
    fields = gram @ x if m <= n else x @ gram
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

    The trials of load m are the tasks (m, trial) of _sweep, which states
    the reproducibility rule and how ``workers`` deals them to threads; the
    report is bit-identical for every ``workers``. Loads with m * n above
    2**53 are refused before any trial runs, because their fields would not
    be exact in float64, and so are more than 2**32 trials, the most _sweep
    seeds per load.
    """
    n = _whole(n, "n", 10, f"capacity experiment needs n >= 10, got {n}")
    trials = _whole(trials, "trials", 50, f"capacity experiment needs trials >= 50, got {trials}")
    if trials > _TRIAL_LIMIT:
        raise ParameterError(f"capacity experiment runs at most 2**32 trials per load, got {trials}")
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

    counts = _sweep(lambda m, rng: _capacity_trial(n, m, rng), ms, trials, seed, workers)
    rows = [
        CapacityRow(
            m=m,
            trials=trials,
            per_bit_instability=int(unstable.sum()) / (trials * m * n),
            all_stable_fraction=int(np.count_nonzero(unstable == 0)) / trials,
            stderr=float(np.std(unstable / (m * n), ddof=1) / math.sqrt(trials)),
        )
        for m, unstable in zip(ms, counts)
    ]
    threshold = max((row.m for row in rows if row.per_bit_instability <= 0.01), default=0) / n
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
