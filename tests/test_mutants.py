"""The recorded mutants of tools/mutants.py still apply: each anchor occurs exactly
once and each listed test is still defined. Runs no mutant."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"


def _tool():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_mutant_is_stale(capsys):
    assert _tool().main(["--check"]) == 0, capsys.readouterr().out


def test_a_moved_anchor_or_a_gone_test_is_stale():
    tool = _tool()
    mutant = tool.MUTANTS[0]._replace(anchor="no such text", tests=("tests/test_fields.py::test_gone",))
    assert tool.stale_reasons(mutant) == [
        f"anchor occurs 0 times in {mutant.path}",
        "no test tests/test_fields.py::test_gone",
    ]


def test_a_replacement_equal_to_its_anchor_is_stale():
    tool = _tool()
    mutant = tool.MUTANTS[0]._replace(replacement=tool.MUTANTS[0].anchor)
    assert tool.stale_reasons(mutant) == ["replacement equals its anchor"]


def test_a_name_used_twice_is_stale(capsys):
    # outcomes are keyed by name, so a repeated name would hide one outcome
    tool = _tool()
    first, second = tool.MUTANTS[:2]
    twin = second._replace(name=first.name)
    mutants = (first, twin)
    assert [tool.stale_reasons(m, mutants) for m in mutants] == [["name used by 2 mutants"]] * 2
    tool.MUTANTS = mutants
    assert tool.main(["--check"]) == 1
    assert capsys.readouterr().out.endswith("2 mutants, 2 stale\n")


def test_failed_tests_and_uncollected_modules_do_not_pass():
    summary = "FAILED tests/test_a.py::test_x - AssertionError\nERROR tests/test_b.py - ImportError\n"
    listed = ["tests/test_a.py::test_x", "tests/test_a.py::test_y", "tests/test_b.py::TestB::test_z"]
    proc = subprocess.CompletedProcess([], 1, stdout=summary, stderr="")
    assert _tool()._passing(proc, listed) == ["tests/test_a.py::test_y"]


def test_a_parametrize_id_with_spaces_is_read_whole():
    summary = "FAILED tests/test_a.py::test_x[m=1.5] - AssertionError\nFAILED tests/test_a.py::test_x[n m]\n"
    listed = ["tests/test_a.py::test_x[m=1.5]", "tests/test_a.py::test_x[n m]", "tests/test_a.py::test_x[n]"]
    proc = subprocess.CompletedProcess([], 1, stdout=summary, stderr="")
    assert _tool()._passing(proc, listed) == ["tests/test_a.py::test_x[n]"]


def test_a_usage_or_collection_error_stops_the_run():
    # a listed parametrize id that no longer exists: pytest runs nothing and exits 4
    output = "ERROR: not found: tests/test_a.py::test_x[64]\n"
    proc = subprocess.CompletedProcess([], 4, stdout=output, stderr="")
    with pytest.raises(SystemExit, match="pytest exited 4"):
        _tool()._passing(proc, ["tests/test_a.py::test_x[64]"])
