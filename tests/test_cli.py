import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from assocmem.cli import main


def run_cli(argv):
    """Invoke the CLI in-process; argparse usage failures surface as SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return int(exc.code)


@pytest.fixture
def workspace(tmp_path):
    mem = tmp_path / "mem.txt"
    mem.write_text("1 1 1 1\n1 -1 1 -1\n")
    weights = tmp_path / "w.json"
    assert run_cli(["train", "--memories", str(mem), "--out", str(weights)]) == 0
    return tmp_path, mem, weights


class TestTrain:
    def test_weight_file_matches_hand_computation(self, workspace):
        _, _, weights = workspace
        doc = json.loads(weights.read_text())
        assert doc["weights"] == [
            [0, 0, 2, 0],
            [0, 0, 0, 2],
            [2, 0, 0, 0],
            [0, 2, 0, 0],
        ]
        assert doc["kind"] == "weights"
        assert doc["config"]["seed"] is None
        assert doc["version"]

    def test_train_is_reproducible(self, workspace, tmp_path):
        _, mem, weights = workspace
        again = tmp_path / "again.json"
        assert run_cli(["train", "--memories", str(mem), "--out", str(again)]) == 0
        assert again.read_bytes() == weights.read_bytes()


class TestRecall:
    def test_synchronous_fixed_point(self, workspace, capsys):
        _, _, weights = workspace
        assert run_cli(["recall", "--weights", str(weights), "--state", "1,1,1,1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["final"] == [1, 1, 1, 1]
        assert doc["result"]["converged"] is True

    def test_synchronous_two_cycle_surfaces_in_report(self, workspace, capsys):
        _, _, weights = workspace
        assert run_cli(["recall", "--weights", str(weights), "--state", "1,1,-1,1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["converged"] is False
        cycle = doc["result"]["cycle"]
        assert cycle is not None and len(cycle) == 2
        assert sorted(cycle) == sorted([[1, 1, -1, 1], [-1, 1, 1, 1]])

    def test_async_cyclic(self, workspace, capsys):
        _, _, weights = workspace
        code = run_cli(
            ["recall", "--weights", str(weights), "--state", "1,1,-1,1",
             "--async", "--schedule", "cyclic"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["final"] == [-1, 1, -1, 1]
        trace = doc["result"]["energy_trace"]
        assert all(b <= a for a, b in zip(trace, trace[1:]))

    def test_async_random_requires_seed(self, workspace):
        _, _, weights = workspace
        assert run_cli(["recall", "--weights", str(weights), "--state", "1,1,1,1", "--async"]) == 5

    def test_negative_seed_is_a_parameter_error(self, workspace, capsys):
        _, _, weights = workspace
        argv = ["recall", "--weights", str(weights), "--state", "1,1,1,1", "--async", "--seed", "-1"]
        assert run_cli(argv) == 5
        assert "seed must be a nonnegative integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra", [["--seed", "5"], ["--async", "--schedule", "cyclic", "--seed", "9"]], ids=["sync", "async-cyclic"]
    )
    def test_seed_that_determines_nothing_is_refused(self, workspace, tmp_path, capsys, extra):
        _, _, weights = workspace
        out = tmp_path / "report.json"
        argv = ["recall", "--weights", str(weights), "--state", "1,1,1,1", "--out", str(out)] + extra
        assert run_cli(argv) == 5
        assert "--seed only applies to the random asynchronous schedule" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("schedule", ["cyclic", "random"])
    def test_schedule_on_synchronous_recall_is_refused(self, workspace, tmp_path, capsys, schedule):
        _, _, weights = workspace
        out = tmp_path / "report.json"
        argv = ["recall", "--weights", str(weights), "--state", "1,1,-1,1", "--schedule", schedule, "--out", str(out)]
        assert run_cli(argv) == 5
        assert "--schedule only applies to asynchronous recall" in capsys.readouterr().err
        assert not out.exists()

    def test_async_without_schedule_runs_the_random_schedule(self, workspace, capsys):
        _, _, weights = workspace
        argv = ["recall", "--weights", str(weights), "--state", "1,1,-1,1", "--async", "--seed", "3"]
        assert run_cli(argv) == 0
        implicit = capsys.readouterr().out
        assert run_cli(argv + ["--schedule", "random"]) == 0
        assert capsys.readouterr().out == implicit
        assert json.loads(implicit)["config"]["schedule"] == "random"

    def test_state_dimension_mismatch(self, workspace):
        _, _, weights = workspace
        assert run_cli(["recall", "--weights", str(weights), "--state", "1,1,1"]) == 4

    def test_bad_state_token(self, workspace):
        _, _, weights = workspace
        assert run_cli(["recall", "--weights", str(weights), "--state", "1,2,1,1"]) == 5

    def test_state_may_start_with_minus(self, workspace, tmp_path):
        _, _, weights = workspace
        spaced, joined = tmp_path / "spaced.json", tmp_path / "joined.json"
        base = ["recall", "--weights", str(weights)]
        assert run_cli(base + ["--state", "-1,1,1,1", "--out", str(spaced)]) == 0
        assert run_cli(base + ["--state=-1,1,1,1", "--out", str(joined)]) == 0
        assert spaced.read_bytes() == joined.read_bytes()
        assert json.loads(spaced.read_text())["result"]["initial"] == [-1, 1, 1, 1]

    def test_missing_state_is_usage_error(self, workspace):
        _, _, weights = workspace
        assert run_cli(["recall", "--weights", str(weights), "--state"]) == 2
        assert run_cli(["recall", "--weights", str(weights), "--state", "--async"]) == 2


class TestSpread:
    def test_single_neuron_seed_retrieves_first_memory(self, workspace, capsys):
        _, mem, weights = workspace
        code = run_cli(
            ["spread", "--weights", str(weights), "--start", "1:+1", "--memories", str(mem)]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        result = doc["result"]
        assert result["final"] == [1, 1, 1, 1]
        assert result["matched_memory"] == 1
        assert result["fixed_point"] is True
        assert result["consistency_flags"] == []

    def test_two_neuron_start(self, workspace, capsys):
        _, mem, weights = workspace
        code = run_cli(
            ["spread", "--weights", str(weights), "--start", "1:+1,2:-1", "--memories", str(mem)]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["final"] == [1, -1, 1, -1]
        assert doc["result"]["matched_memory"] == 2

    def test_proximity_file(self, workspace, capsys):
        tmp, _, weights = workspace
        prox = tmp / "p.txt"
        prox.write_text("0 4 1 5\n4 0 2 6\n1 2 0 3\n5 6 3 0\n")
        code = run_cli(
            ["spread", "--weights", str(weights), "--proximity", str(prox), "--start", "3:+1"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["order"] == [3, 1, 2, 4]
        assert doc["result"]["matched_memory"] is None  # no memory file given

    def test_proximity_of_the_wrong_size(self, workspace, capsys):
        tmp, _, weights = workspace
        prox = tmp / "p.txt"
        prox.write_text("0 1 2\n1 0 1\n2 1 0\n")
        # neuron 4 lies beyond the 3x3 matrix: the same mismatch, not a start out of range
        for start in ("1:+1", "4:+1"):
            code = run_cli(
                ["spread", "--weights", str(weights), "--proximity", str(prox), "--start", start]
            )
            assert code == 4
            assert capsys.readouterr().err == (
                "assocmem: dimension mismatch: order covers 3 neurons, weights have 4\n"
            )

    def test_bad_start_syntax(self, workspace):
        _, _, weights = workspace
        assert run_cli(["spread", "--weights", str(weights), "--start", "0:+1"]) == 5
        assert run_cli(["spread", "--weights", str(weights), "--start", "1=+1"]) == 5

    @pytest.mark.parametrize("index", ["1_0", "\u0661", "\uff11"])
    def test_start_index_takes_plain_ascii_digits(self, workspace, capsys, index):
        _, _, weights = workspace
        assert run_cli(["spread", "--weights", str(weights), "--start", f"{index}:+1"]) == 5
        assert capsys.readouterr().err == f"assocmem: invalid parameter: bad start index {index!r}\n"

    @pytest.mark.parametrize("start", ["1 :+1", "1: +1", " 1 : +1 "])
    def test_spaces_around_either_side_of_a_start_pair(self, workspace, capsys, start):
        # the config keeps the text as typed, so only the results are compared
        _, _, weights = workspace
        assert run_cli(["spread", "--weights", str(weights), "--start", "1:+1"]) == 0
        want = json.loads(capsys.readouterr().out)["result"]
        assert run_cli(["spread", "--weights", str(weights), "--start", start]) == 0
        assert json.loads(capsys.readouterr().out)["result"] == want

    def test_start_out_of_range(self, workspace):
        _, _, weights = workspace
        assert run_cli(["spread", "--weights", str(weights), "--start", "9:+1"]) == 5

    def test_start_out_of_range_names_the_neuron_1_based(self, workspace, capsys):
        _, _, weights = workspace
        assert run_cli(["spread", "--weights", str(weights), "--start", "2:+1,9:+1"]) == 5
        assert capsys.readouterr().err == (
            "assocmem: invalid parameter: start neuron 9 out of range for 4 neurons\n"
        )

    def test_start_assigning_a_neuron_twice_differently(self, workspace, capsys):
        _, _, weights = workspace
        assert run_cli(["spread", "--weights", str(weights), "--start", "1:+1,1:-1"]) == 5
        assert capsys.readouterr().err == (
            "assocmem: invalid parameter: start assigns neuron 1 twice with different values\n"
        )

    def test_empty_start(self, workspace, capsys):
        _, _, weights = workspace
        assert run_cli(["spread", "--weights", str(weights), "--start", ","]) == 5
        assert capsys.readouterr().err == "assocmem: invalid parameter: start assignment is empty\n"


class TestFixedPoints:
    def test_census(self, workspace, capsys):
        _, mem, weights = workspace
        code = run_cli(["fixed-points", "--weights", str(weights), "--memories", str(mem)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        result = doc["result"]
        assert result["count"] == 4
        assert result["census"] == {
            "stored": 2,
            "complement": 2,
            "spurious": 0,
            "labels": ["complement", "complement", "stored", "stored"],
        }
        assert result["complement_asymmetry"]["failures"] == []

    def test_limit_too_small(self, workspace):
        _, _, weights = workspace
        assert run_cli(["fixed-points", "--weights", str(weights), "--limit", "3"]) == 5


class TestCapacity:
    def test_runs_and_reports(self, tmp_path, capsys):
        code = run_cli(
            ["capacity", "--n", "30", "--m-list", "1,3", "--trials", "50", "--seed", "9"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        rows = doc["result"]["rows"]
        assert rows[0]["m"] == 1
        assert rows[0]["per_bit_instability"] == 0.0
        assert doc["config"]["seed"] == 9

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["capacity", "--n", "30", "--m-list", "2,4", "--trials", "50", "--seed", "4"]
        assert run_cli(argv + ["--out", str(out1)]) == 0
        assert run_cli(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_parallel_byte_identical(self, tmp_path):
        serial, threaded = tmp_path / "s.json", tmp_path / "t.json"
        base = ["capacity", "--n", "30", "--m-list", "2,4", "--trials", "50", "--seed", "4"]
        assert run_cli(base + ["--workers", "1", "--out", str(serial)]) == 0
        assert run_cli(base + ["--workers", "3", "--out", str(threaded)]) == 0
        assert serial.read_bytes() == threaded.read_bytes()

    def test_missing_seed_is_usage_error(self):
        assert run_cli(["capacity", "--n", "30", "--m-list", "2", "--trials", "50"]) == 2

    def test_bad_m_list(self):
        assert run_cli(["capacity", "--n", "30", "--m-list", "2,x", "--trials", "50", "--seed", "1"]) == 5

    def test_repeated_m_is_refused(self, capsys):
        assert run_cli(["capacity", "--n", "30", "--m-list", "4,2,4", "--trials", "50", "--seed", "1"]) == 5
        assert "m = 4 is repeated" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["1_0", "\u0663"])
    def test_m_list_takes_plain_ascii_digits(self, capsys, entry):
        argv = ["capacity", "--n", "30", "--m-list", f"2,{entry}", "--trials", "50", "--seed", "1"]
        assert run_cli(argv) == 5
        assert capsys.readouterr().err == (
            f"assocmem: invalid parameter: bad m-list entry {entry!r}, expected an integer\n"
        )


class TestCollapse:
    def test_sampling_report(self, capsys):
        code = run_cli(["collapse", "--amps", "0.6,0.8", "--samples", "1000", "--seed", "3"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        result = doc["result"]
        assert result["probabilities"] == [pytest.approx(0.36), pytest.approx(0.64)]
        assert sum(result["counts"]) == 1000
        assert len(result["samples"]) == 1000

    def test_sampling_reruns_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["collapse", "--amps", "0.6,0.8", "--samples", "2000", "--seed", "12"]
        assert run_cli(argv + ["--out", str(a)]) == 0
        assert run_cli(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_count_levels(self, capsys):
        assert run_cli(["collapse", "--count-levels", "10"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["distinct_count"] == 100
        assert doc["result"]["raw_case_count"] == 200
        assert doc["result"]["cases"] is None

    def test_amps_may_start_with_minus(self, tmp_path):
        spaced, joined = tmp_path / "spaced.json", tmp_path / "joined.json"
        base = ["collapse", "--samples", "20", "--seed", "3"]
        assert run_cli(base + ["--amps", "-0.6,0.8", "--out", str(spaced)]) == 0
        assert run_cli(base + ["--amps=-0.6,0.8", "--out", str(joined)]) == 0
        assert spaced.read_bytes() == joined.read_bytes()
        assert json.loads(spaced.read_text())["config"]["amps"] == [-0.6, 0.8]

    @pytest.mark.parametrize("entry", ["0.6_0", "0.\u0666"])
    def test_amps_take_plain_ascii_numbers(self, capsys, entry):
        assert run_cli(["collapse", "--amps", f"{entry},0.8", "--samples", "3", "--seed", "1"]) == 5
        assert capsys.readouterr().err == (
            f"assocmem: invalid parameter: bad amps entry {entry!r}, expected a number\n"
        )

    def test_missing_amps_is_usage_error(self):
        assert run_cli(["collapse", "--samples", "20", "--seed", "3", "--amps"]) == 2
        assert run_cli(["collapse", "--amps", "--samples", "20", "--seed", "3"]) == 2

    def test_unnormalized_amps(self):
        assert run_cli(["collapse", "--amps", "1,1", "--samples", "10", "--seed", "0"]) == 5

    def test_overflowing_amps_leave_only_the_refusal_on_stderr(self):
        # a subprocess, so that a numpy warning would reach stderr as a user sees it
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        argv = ["collapse", "--amps=1e308,1e308", "--samples", "3", "--seed", "1"]
        for flags in ([], ["-W", "error"]):
            proc = subprocess.run(
                [sys.executable, *flags, "-m", "assocmem.cli", *argv],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert proc.returncode == 5
            assert proc.stdout == ""
            assert proc.stderr == (
                "assocmem: invalid parameter: amplitudes are not normalized: sum of squares is inf\n"
            )

    def test_missing_seed(self):
        assert run_cli(["collapse", "--amps", "0.6,0.8", "--samples", "10"]) == 5

    def test_modes_are_exclusive(self):
        assert run_cli(["collapse", "--amps", "0.6,0.8", "--count-levels", "3"]) == 2

    def test_mismatched_options_rejected(self):
        assert run_cli(["collapse", "--count-levels", "3", "--samples", "5"]) == 5
        assert run_cli(["collapse", "--amps", "0.6,0.8", "--samples", "5", "--seed", "1", "--list-cases"]) == 5


class TestErrorChannels:
    def test_unknown_flag_is_usage(self, workspace):
        _, _, weights = workspace
        assert run_cli(["recall", "--weights", str(weights), "--state", "1,1,1,1", "--bogus"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["recall", "--weights", "{weights}", "--state", "1,1,1,1", "--passes", "1_0"],
            ["recall", "--weights", "{weights}", "--state", "1,1,1,1", "--async", "--seed", "\u0667"],
            ["capacity", "--n", "\u0663\u0660", "--m-list", "2", "--trials", "50", "--seed", "1"],
            ["capacity", "--n", "30", "--m-list", "2", "--trials", "50", "--seed", "1", "--workers", "\uff12"],
            ["collapse", "--count-levels", "1_0"],
            ["collapse", "--amps", "0.6,0.8", "--samples", "2_0", "--seed", "3"],
        ],
        ids=["passes", "seed", "n", "workers", "count-levels", "samples"],
    )
    def test_integer_options_take_plain_ascii_digits(self, workspace, argv, capsys):
        _, _, weights = workspace
        assert run_cli([arg.format(weights=weights) for arg in argv]) == 2
        assert "invalid int value" in capsys.readouterr().err

    def test_missing_subcommand_is_usage(self):
        assert run_cli([]) == 2

    def test_missing_file(self, tmp_path):
        assert run_cli(["train", "--memories", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "w.json")]) == 2

    def test_parse_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2 1\n")
        assert run_cli(["train", "--memories", str(bad), "--out", str(tmp_path / "w.json")]) == 3

    def test_binary_file_is_a_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"1 -1\n\x80 1\n")
        assert run_cli(["train", "--memories", str(bad), "--out", str(tmp_path / "w.json")]) == 3
        assert "bad.txt:2:1: not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data, fault",
        [
            (b'\xff{"weights": [[0]]}\n', ":1:1: not UTF-8 text"),
            (b'{"weights": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", ": JSON nested too deeply to read"),
            (b'{"weights": [[' + b"9" * 5000 + b"]]}", ": JSON number too long to read"),
        ],
        ids=["not-utf8", "nesting", "number"],
    )
    def test_unreadable_weights_are_a_parse_error(self, tmp_path, capsys, data, fault):
        bad = tmp_path / "w.json"
        bad.write_bytes(data)
        assert run_cli(["recall", "--weights", str(bad), "--state", "1"]) == 3
        assert capsys.readouterr().err == f"assocmem: parse error: {bad}{fault}\n"

    def test_version(self, capsys):
        assert run_cli(["--version"]) == 0
        assert "assocmem" in capsys.readouterr().out


class TestStartup:
    def test_import_leaves_the_thread_pool_out(self):
        # only capacity with workers > 1 uses a pool; analysis, which holds it, loads on first use
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        code = "import sys, assocmem, assocmem.cli, assocmem.analysis; print('concurrent.futures' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")
