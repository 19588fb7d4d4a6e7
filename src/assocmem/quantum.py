"""Discretized collapse bookkeeping and squared-amplitude outcome sampling.

A binary measurement on a two-amplitude state (a, b) hides an internal
story: if each amplitude is discretized to one of n grid values, there are
2 * n^2 raw (a value, b value, outcome) cases, and identifying each case
with its partner under the shared normalization constraint halves that to
n^2 distinct internal configurations. reorg_count and
enumerate_reorganizations implement that arithmetic literally; the grids
for a and b are treated as independent n-point discretizations of [0, 1],
and the halving is realized by an explicit involution (see
enumerate_reorganizations). A literal shared constraint a^2 + b^2 = 1 over
one grid would instead leave on the order of n cases; this module counts
the quotient construction, not the constraint surface.

Outcome statistics follow the squared-amplitude (Born) rule: outcome i is
drawn with probability a_i^2 via inverse-CDF sampling from a seeded
generator, so runs are reproducible and sign flips of any amplitude are
invisible. collapse_as_selection repackages one draw as the label of the
network output the system settled on, the same selection seen as a
resonance among k possible outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ParameterError, ValidationError, _array, _frozen, _numeric, _seed, _whole

NORMALIZATION_TOL = 1e-9

# most grid levels enumerate_reorganizations lists: 2^18 cases, about 120 MB of tuples
_LIST_LIMIT = 512


def as_amplitudes(amplitudes) -> np.ndarray:
    """Validate a real amplitude vector: k >= 2, finite, sum of squares 1.

    Integer and float entries are read as float64; bool, complex, string and
    object entries are refused. Normalization tolerance is 1e-9. Returns a
    frozen float64 copy.
    """
    arr = _array(amplitudes)
    _numeric(arr, "amplitudes")
    arr = arr.astype(np.float64, copy=False)
    if arr.ndim != 1:
        raise ValidationError(f"amplitudes must be a 1-d vector, got shape {arr.shape}")
    if arr.size < 2:
        raise ValidationError("an amplitude vector needs at least two entries")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("amplitudes must be finite")
    with np.errstate(over="ignore"):  # finite entries beyond ~1.3e154 square to inf, and are refused
        total = float(np.sum(arr * arr))
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise ValidationError(f"amplitudes are not normalized: sum of squares is {total!r}")
    return _frozen(arr.copy())


def _check_levels(n_levels) -> int:
    return _whole(n_levels, "n_levels", 1, f"grid resolution must be at least 1, got {n_levels}")


def reorg_count(n_levels: int) -> int:
    """Distinct internal configurations behind a binary outcome: n_levels squared.

    This is the raw case count 2 * n^2 (n values for each amplitude, two
    outcomes) divided by 2 for the mutual constraint between the two
    amplitudes.
    """
    n = _check_levels(n_levels)
    return n * n


@dataclass(frozen=True)
class ReorganizationTable:
    """The quotient of the raw (a index, b index, outcome) cases.

    ``cases`` holds one canonical representative per identified pair;
    ``distinct_count`` equals n_levels squared exactly, half the raw count.
    """

    n_levels: int
    cases: tuple[tuple[int, int, int], ...]
    distinct_count: int

    @property
    def raw_count(self) -> int:
        return 2 * self.n_levels * self.n_levels


def _partner(case: tuple[int, int, int]) -> tuple[int, int, int]:
    """The constraint partner: swap the two amplitude roles, flip the outcome."""
    i, j, outcome = case
    return (j, i, 1 - outcome)


def enumerate_reorganizations(n_levels: int) -> ReorganizationTable:
    """Enumerate the raw cases and quotient them down to n_levels squared.

    Raw cases place each amplitude on an n-point grid over [0, 1] and
    attach one of the two outcomes. The mutual-constraint halving is
    realized by the involution (i, j, outcome) <-> (j, i, 1 - outcome),
    which is fixed-point free, so every orbit has size two and the quotient
    count is exact; the lexicographically smaller member represents its
    orbit. The pairing is a modeling choice: it reproduces the halving
    exactly, but no particular pairing is canonical.

    A table holds about 0.45 KB per case, so more than 512 levels are
    refused before any case is built; reorg_count has no such limit.
    """
    n = _check_levels(n_levels)
    if n > _LIST_LIMIT:
        raise ParameterError(f"listing the {n * n} cases of {n} levels exceeds the limit n_levels <= {_LIST_LIMIT}")
    raw = [(i, j, o) for i in range(n) for j in range(n) for o in (0, 1)]
    reps = {min(case, _partner(case)) for case in raw}
    cases = tuple(sorted(reps))
    table = ReorganizationTable(n_levels=n, cases=cases, distinct_count=len(cases))
    if table.distinct_count != n * n:
        raise AssertionError("quotient construction lost the exact n^2 count")
    return table


def collapse_sample(amplitudes, seed: int, count: int) -> np.ndarray:
    """Draw ``count`` outcome indices with probability a_i^2 each.

    Sampling is inverse-CDF over the cumulative squared amplitudes with a
    seeded generator, so a fixed seed gives a bit-identical sequence. A
    draw landing exactly on a bin boundary resolves to the lower index.
    Only the nonzero amplitudes get a bin, so an outcome of amplitude 0 is
    never drawn: not by a uniform of exactly 0.0, nor by the slack of up to
    the normalization tolerance that the last bin takes up to 1.0.
    """
    amps = as_amplitudes(amplitudes)
    seed = _seed(seed)
    count = _whole(count, "count", 1, f"sample count must be at least 1, got {count}")
    support = np.flatnonzero(amps)
    cumulative = np.cumsum(np.square(amps[support]))
    cumulative[-1] = 1.0
    uniforms = np.random.default_rng(seed).random(count)
    return _frozen(support[np.searchsorted(cumulative, uniforms, side="left")])


@dataclass(frozen=True)
class CollapseSelection:
    """One collapse presented as the network output that won.

    ``index`` is the 0-based outcome; ``note`` is the 1-based human
    reading of the same selection.
    """

    index: int
    outputs: int
    weight: float
    note: str


def collapse_as_selection(amplitudes, seed: int) -> CollapseSelection:
    """Sample one outcome and present it as the selected network output.

    Purely presentational over collapse_sample: the selection among k
    basis states and the settling of a k-output network onto one output
    are the same draw.
    """
    amps = as_amplitudes(amplitudes)
    index = int(collapse_sample(amps, seed, 1)[0])
    weight = float(amps[index] ** 2)
    note = (
        f"resonance settled on output {index + 1} of {amps.size} "
        f"(squared-amplitude weight {weight:.6g})"
    )
    return CollapseSelection(index=index, outputs=int(amps.size), weight=weight, note=note)
