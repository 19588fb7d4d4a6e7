"""The summary and verdict of tools/ab.py, on fixed ratios. Starts no worker and times nothing."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab.py"


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_equal_ratios_give_a_point_interval(ab):
    assert ab.paired_summary([[1.1] * 5] * 3, seed=0) == (1.1, 1.1, 1.1)


def test_median_is_over_every_pair_and_the_interval_is_seeded(ab):
    table = [[0.95, 1.02, 1.01, 0.99], [1.04, 0.98, 1.00, 1.03]]
    assert ab.paired_summary(table, seed=3) == (1.005, 0.97, 1.03)


def test_a_slowdown_is_told_and_noise_is_not(ab):
    rng = np.random.default_rng(11)
    noise = 1 + 0.03 * rng.standard_normal((6, 8))
    _, low, high = ab.paired_summary(noise, seed=1)
    assert low < 1 < high
    assert ab.verdict(low, high) == "no difference told"
    _, low, high = ab.paired_summary(1.1 * noise, seed=1)
    assert 1 < low < 1.1 < high
    assert ab.verdict(low, high) == "change slower"
    _, low, high = ab.paired_summary(noise / 1.1, seed=1)
    assert ab.verdict(low, high) == "change faster"


def test_rounds_that_are_off_as_a_whole_widen_the_interval(ab):
    # each round's worker adds its own offset to all of its pairs; resampling the
    # pairs alone would take the offsets for noise that averages out
    rng = np.random.default_rng(5)
    table = np.array([0.97, 1.0, 1.03])[:, None] + 0.001 * rng.standard_normal((3, 40))
    _, low, high = ab.paired_summary(table, seed=2)
    _, pooled_low, pooled_high = ab.paired_summary(table.reshape(1, -1), seed=2)
    assert low < 0.975 and high > 1.025
    assert 0.995 < pooled_low < 1 < pooled_high < 1.005


@pytest.mark.parametrize("bad", [[], [[]], [1.0, 1.1], [[1.0], [1.0, 1.1]]])
def test_a_table_of_ratios_is_needed(ab, bad):
    with pytest.raises(ValueError):
        ab.paired_summary(bad, seed=0)
