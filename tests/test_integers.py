"""The integer rule: every count, pass budget, seed and neuron index.

Python and numpy integers are accepted and give the same results; a float,
a string, None or a bool is refused with ParameterError, never truncated,
parsed or read as 0 or 1.
A non-integer scalar is refused as one, by the parameter's name, while an
integer out of range keeps its range message.
"""

import re

import numpy as np
import pytest

from assocmem import (
    ParameterError,
    SpreadOrder,
    capacity_experiment,
    collapse_as_selection,
    collapse_sample,
    enumerate_fixed_points,
    enumerate_reorganizations,
    normalize_start,
    order_from_proximity,
    recall_async,
    recall_sync_iterated,
    reorg_count,
    retrieve_report,
    spread_full,
    train,
)
from conftest import WORKED_WEIGHTS, random_memories

STATE = (1, -1, 1, 1)
PROX = np.array([[0, 4, 1, 5], [4, 0, 2, 6], [1, 2, 0, 3], [5, 6, 3, 0]], dtype=float)
AMPS = (0.6, 0.8)

# entry point -> a call taking the value under test in one integer position;
# "none_ok" marks a position where None selects a documented default
ENTRIES = {
    "recall_async max_passes": (lambda v: recall_async(WORKED_WEIGHTS, STATE, max_passes=v), True),
    "recall_async seed": (lambda v: recall_async(WORKED_WEIGHTS, STATE, schedule="random", seed=v), False),
    "recall_async schedule": (lambda v: recall_async(WORKED_WEIGHTS, STATE, schedule=[0, 1, 2, v]), False),
    "recall_sync_iterated max_passes": (lambda v: recall_sync_iterated(WORKED_WEIGHTS, STATE, max_passes=v), True),
    "normalize_start index": (lambda v: normalize_start({v: 1}, 4), False),
    "normalize_start n": (lambda v: normalize_start({0: 1}, v), False),
    "spread_full start": (lambda v: spread_full(WORKED_WEIGHTS, {v: 1}), False),
    "retrieve_report start": (lambda v: retrieve_report(WORKED_WEIGHTS, [(v, 1)]), False),
    "order_from_proximity start": (lambda v: order_from_proximity(PROX, [v]), False),
    "SpreadOrder permutation": (lambda v: SpreadOrder([0, 1, 2, v], 1), False),
    "SpreadOrder start_count": (lambda v: SpreadOrder(np.arange(4), v), False),
    "spread_full start with an order": (
        lambda v: spread_full(WORKED_WEIGHTS, {v: 1}, order=SpreadOrder(np.arange(4), 1)), False
    ),
    "enumerate_fixed_points limit_n": (lambda v: enumerate_fixed_points(WORKED_WEIGHTS, limit_n=v), False),
    "capacity_experiment n": (lambda v: capacity_experiment(v, [2], 50, 1), False),
    "capacity_experiment m": (lambda v: capacity_experiment(20, [2, v], 50, 1), False),
    "capacity_experiment trials": (lambda v: capacity_experiment(20, [2], v, 1), False),
    "capacity_experiment seed": (lambda v: capacity_experiment(20, [2], 50, v), False),
    "capacity_experiment workers": (lambda v: capacity_experiment(20, [2], 50, 1, workers=v), False),
    "reorg_count": (lambda v: reorg_count(v), False),
    "enumerate_reorganizations": (lambda v: enumerate_reorganizations(v), False),
    "collapse_sample seed": (lambda v: collapse_sample(AMPS, v, 3), False),
    "collapse_sample count": (lambda v: collapse_sample(AMPS, 0, v), False),
    "collapse_as_selection seed": (lambda v: collapse_as_selection(AMPS, v), False),
}


@pytest.mark.parametrize(
    "entry,value",
    [
        pytest.param(entry, value, id=f"{entry}={value!r}")
        for entry, (_, none_ok) in sorted(ENTRIES.items())
        # cast to 3, a whole float would pass most of these checks
        for value in (1.5, 3.0, "3", None, True)
        if value is not None or not none_ok
    ],
)
def test_non_integers_are_refused(entry, value):
    with pytest.raises(ParameterError):
        ENTRIES[entry][0](value)


@pytest.mark.parametrize(
    "call",
    [
        lambda: recall_async(WORKED_WEIGHTS, STATE, schedule=[True, 0, 2, 3]),
        lambda: recall_async(WORKED_WEIGHTS, STATE, schedule=(np.True_, 0, 2, 3)),
        lambda: SpreadOrder([True, 0, 2, 3], 1),
    ],
    ids=["schedule", "numpy bool in a schedule tuple", "spread order"],
)
def test_a_bool_that_completes_a_permutation_is_refused(call):
    # numpy would read True as 1 beside the integers and find a permutation
    with pytest.raises(ParameterError):
        call()


@pytest.mark.parametrize("schedule", [[0.9, 1.2, 2.0, 3.7], [0.0, 1.0, 2.0, 3.0]])
def test_float_schedule_is_refused_even_when_whole(schedule):
    with pytest.raises(ParameterError, match=r"^explicit schedule must be a permutation of 0\.\.3$"):
        recall_async(WORKED_WEIGHTS, STATE, schedule=schedule)


def test_float_spread_order_is_refused_even_when_whole():
    with pytest.raises(ParameterError, match="^spread order must hold integer neuron indices$"):
        SpreadOrder(np.array([0.0, 1.0, 2.0, 3.0]), 1)


@pytest.mark.parametrize("k", [np.int64, np.uint32])
def test_numpy_integers_match_python_integers(k):
    """Same results, same types and the same random streams as Python ints."""
    rng = np.random.default_rng(41)
    w = train(random_memories(rng, 3, 16))
    probe = random_memories(rng, 1, 16)[0]
    pairs = [
        (lambda: recall_async(w, probe, schedule="random", seed=k(7), max_passes=k(3)),
         lambda: recall_async(w, probe, schedule="random", seed=7, max_passes=3)),
        (lambda: recall_async(w, probe, schedule=np.arange(15, -1, -1).astype(k)),
         lambda: recall_async(w, probe, schedule=list(range(15, -1, -1)))),
        (lambda: recall_sync_iterated(w, probe, max_passes=k(2)),
         lambda: recall_sync_iterated(w, probe, max_passes=2)),
        (lambda: normalize_start({k(1): 1, k(3): -1}, k(4)),
         lambda: normalize_start({1: 1, 3: -1}, 4)),
        (lambda: spread_full(w, {k(2): -1, k(9): 1}),
         lambda: spread_full(w, {2: -1, 9: 1})),
        (lambda: order_from_proximity(PROX, np.array([3], dtype=k)),
         lambda: order_from_proximity(PROX, {3})),
        (lambda: SpreadOrder(np.array([2, 0, 1, 3], dtype=k), k(1)),
         lambda: SpreadOrder(np.array([2, 0, 1, 3]), 1)),
        (lambda: spread_full(w, {k(2): -1}, order=SpreadOrder(np.roll(np.arange(16, dtype=k), -2), k(1))),
         lambda: spread_full(w, {2: -1}, order=SpreadOrder(list(range(2, 16)) + [0, 1], 1))),
        (lambda: enumerate_fixed_points(WORKED_WEIGHTS, limit_n=k(4)),
         lambda: enumerate_fixed_points(WORKED_WEIGHTS, limit_n=4)),
        (lambda: capacity_experiment(k(20), [k(2), k(5)], k(50), k(11), workers=k(2)),
         lambda: capacity_experiment(20, [2, 5], 50, 11, workers=2)),
        (lambda: reorg_count(k(5)), lambda: reorg_count(5)),
        (lambda: enumerate_reorganizations(k(3)), lambda: enumerate_reorganizations(3)),
        (lambda: collapse_sample(AMPS, k(3), k(20)), lambda: collapse_sample(AMPS, 3, 20)),
        (lambda: collapse_as_selection(AMPS, k(8)), lambda: collapse_as_selection(AMPS, 8)),
    ]
    for numpy_call, python_call in pairs:
        # repr shows array contents and dtypes, and tells np.int64(3) from 3
        assert repr(numpy_call()) == repr(python_call())


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: recall_async(WORKED_WEIGHTS, STATE, max_passes=2.5), "max_passes must be an integer, got 2.5"),
        (lambda: enumerate_fixed_points(WORKED_WEIGHTS, limit_n=20.5), "limit_n must be an integer, got 20.5"),
        (lambda: capacity_experiment(20, [2], 50, "7"), "seed must be an integer, got '7'"),
        (lambda: collapse_sample(AMPS, 0, None), "count must be an integer, got None"),
        (lambda: normalize_start({0: 1}, 4.0), "n must be an integer, got 4.0"),
    ],
    ids=["max_passes", "limit_n", "seed", "count", "n"],
)
def test_a_non_integer_is_refused_as_one_by_name(call, message):
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        call()


def test_integer_refusals_keep_their_range_messages():
    with pytest.raises(ParameterError, match=r"^max_passes must be at least 1, got 0$"):
        recall_async(WORKED_WEIGHTS, STATE, max_passes=0)
    with pytest.raises(ParameterError, match=r"^enumeration over 2\^4 states exceeds the limit n <= 3$"):
        enumerate_fixed_points(WORKED_WEIGHTS, limit_n=3)
