"""The four benchmark workloads: recall, spread, capacity and cli.

Each workload is a closed loop with one client: op i+1 starts only after op
i has completed and been checked. All inputs come from the workload seed
and the op index; the package receives only the generated inputs.

A workload object provides:

* ``setup()``: the package's one-off set-up for the loop (training).
  Returns a problem string, or None when the result matches the reference.
* ``op_input(i)``: the inputs of op i, drawn from (seed, i).
* ``run(inp, tr)``: the timed op; ``tr`` records spans around each call
  into the package.
* ``check(inp, out)``: ``(problem, facts)``. ``problem`` names the first
  mismatch with the benchmark's own reference, or is None. ``facts`` are the
  op's work counts that feed the per-layer metrics.
* ``digest(out)``: bytes identifying the op's output.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import assocmem as am
import refs

CLI_TIMEOUT_S = 120
FLIP = 0.15  # share of bits flipped in a recall probe
NOISY_BITS = 3  # bits flipped in every fourth spread cue
SRC = Path(__file__).resolve().parent.parent / "src"


def _bipolar(rng, m: int, n: int) -> np.ndarray:
    return (rng.integers(0, 2, size=(m, n), dtype=np.int8) * 2 - 1).astype(np.int8)


def _distances(points: np.ndarray) -> np.ndarray:
    """Euclidean distances; exactly symmetric with an exact zero diagonal."""
    return np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1))


def _nearest(points: np.ndarray, site: np.ndarray, count: int) -> np.ndarray:
    return np.argsort(np.sqrt(((points - site) ** 2).sum(axis=-1)), kind="stable")[:count]


def _recall_sync_problem(result, ref) -> str | None:
    if not np.array_equal(result.state, ref["state"]):
        return "synchronous final state differs from the reference"
    if result.iterations != ref["iterations"] or result.converged != ref["converged"]:
        return "synchronous iterations or convergence differ from the reference"
    if list(result.energy_trace) != ref["trace"]:
        return "synchronous energy trace differs from the reference"
    if (result.cycle is None) != (ref["cycle"] is None):
        return "synchronous cycle differs from the reference"
    if result.cycle is not None and not all(np.array_equal(a, b) for a, b in zip(result.cycle, ref["cycle"])):
        return "synchronous cycle differs from the reference"
    return None


class _Trained:
    """A workload whose set-up trains the package's weights from its memories."""

    def setup_job(self) -> list[str]:
        path = self.work / f"{self.name}_memories.npy"
        np.save(path, self.memories)
        return ["train", str(path)]

    def setup(self) -> str | None:
        # Once the frozen W equals the reference, it serves as the reference,
        # so the peak memory of the process holds no second copy of it.
        self.w = am.train(self.memories)
        if not refs.hebb_matches(self.memories, self.w):
            return "trained weight matrix differs from the reference"
        return None


class Recall(_Trained):
    """n=1000 network trained on m=60 memories; probes are memories with 15 % of bits flipped."""

    name = "recall"
    tag = 1
    count_ops = 16

    def __init__(self, seed: int, work: Path, n: int = 1000, m: int = 60):
        rng = np.random.default_rng([seed, self.tag])
        self.seed = seed
        self.work = work
        self.memories = _bipolar(rng, m, n)
        self.flips = round(FLIP * n)
        self.w = None

    def op_input(self, i: int):
        rng = np.random.default_rng([self.seed, self.tag, i])
        k = int(rng.integers(len(self.memories)))
        probe = refs.flip(self.memories[k], self.flips, rng)
        return k, probe, int(rng.integers(2**31))

    def run(self, inp, tr):
        _, probe, async_seed = inp
        with tr.span("hebbian.recall_sync_iterated"):
            sync = am.recall_sync_iterated(self.w, probe)
        with tr.span("hebbian.recall_async"):
            asyn = am.recall_async(self.w, probe, schedule="random", seed=async_seed)
        return sync, asyn

    def check(self, inp, out):
        k, probe, _ = inp
        sync, asyn = out
        problem = _recall_sync_problem(sync, refs.recall_sync_iterated(self.w, probe))
        if problem is None:
            problem = refs.async_violation(
                self.w, probe, asyn.state, asyn.iterations, asyn.converged, asyn.energy_trace
            )
        source = self.memories[k]
        facts = {
            "sync_passes": sync.iterations,
            "async_passes": asyn.iterations,
            "changed": int(np.count_nonzero(np.asarray(asyn.state) != probe)),
            "hits": int(np.array_equal(sync.state, source)) + int(np.array_equal(asyn.state, source)),
            "recalls": 2,
        }
        return problem, facts

    def digest(self, out) -> bytes:
        sync, asyn = out
        return b"".join(
            [np.asarray(sync.state).tobytes(), bytes([sync.iterations % 256]),
             np.asarray(asyn.state).tobytes(), bytes([asyn.iterations % 256])]
        )


class Spread(_Trained):
    """n=400, m=8; neurons at random points of the unit square, cues of the 40
    neurons nearest a random site, every fourth cue with 3 bits flipped."""

    name = "spread"
    tag = 2
    count_ops = 6

    def __init__(self, seed: int, work: Path, n: int = 400, m: int = 8, cue: int = 40):
        rng = np.random.default_rng([seed, self.tag, n])
        self.seed = seed
        self.work = work
        self.points = rng.random((n, 2))
        self.proximity = _distances(self.points)
        self.memories = _bipolar(rng, m, n)
        self.cue_size = cue
        self.w = None

    def op_input(self, i: int):
        rng = np.random.default_rng([self.seed, self.tag, self.points.shape[0], i])
        idx = _nearest(self.points, rng.random(2), self.cue_size)
        values = self.memories[int(rng.integers(len(self.memories)))][idx]
        if i % 4 == 3:
            values = refs.flip(values, NOISY_BITS, rng)
        return {int(j): int(v) for j, v in zip(idx, values)}

    def run(self, cue, tr):
        with tr.span("generator.order_from_proximity"):
            order = am.order_from_proximity(self.proximity, cue.keys())
        with tr.span("generator.retrieve_report"):
            return am.retrieve_report(self.w, cue, self.memories, order=order)

    def check(self, cue, report):
        trace = report.trace
        facts = {
            "steps": len(trace.steps),
            "flagged": len(trace.consistency_flags),
            "matched": int(report.matched_index is not None),
            "fixed_point": int(report.is_fixed_point),
        }
        perm = refs.proximity_order(self.proximity, cue)
        if not np.array_equal(trace.order.permutation, perm):
            return "spread order differs from the reference", facts
        ref = refs.spread(self.w, cue, perm)
        if [(s.neuron, s.field, s.value) for s in trace.steps] != ref["steps"]:
            return "spread steps differ from the reference", facts
        if not np.array_equal(trace.final, ref["final"]):
            return "spread final state differs from the reference", facts
        if any(trace.final[j] != v for j, v in cue.items()) or trace.start != tuple(sorted(cue.items())):
            return "a seed value was not kept clamped", facts
        if sorted(trace.consistency_flags) != ref["flags"] or report.is_fixed_point != (not ref["flags"]):
            return "consistency flags differ from the reference", facts
        nearest, distance = refs.nearest_memory(self.memories, ref["final"])
        matched = nearest if distance == 0 else None
        if (report.nearest_index, report.nearest_distance, report.matched_index) != (nearest, distance, matched):
            return "memory match differs from the reference", facts
        return None, facts

    def digest(self, report) -> bytes:
        flags = ",".join(str(i) for i in sorted(report.trace.consistency_flags))
        return np.asarray(report.trace.final).tobytes() + flags.encode()


class Capacity:
    """capacity_experiment(300, [m], trials=50) with m cycling 15, 30, 45."""

    name = "capacity"
    tag = 3
    count_ops = 6

    def __init__(self, seed: int, work: Path, n: int = 300, loads=(15, 30, 45), trials: int = 50):
        self.seed = seed
        self.work = work
        self.n = n
        self.loads = tuple(loads)
        self.trials = trials
        self.workers = 1

    def setup_job(self) -> list[str]:
        return ["import"]

    def setup(self) -> str | None:
        return None

    def op_input(self, i: int):
        rng = np.random.default_rng([self.seed, self.tag, i])
        return self.loads[i % len(self.loads)], int(rng.integers(2**31))

    def run(self, inp, tr):
        m, op_seed = inp
        with tr.span("analysis.capacity_experiment"):
            return am.capacity_experiment(self.n, [m], trials=self.trials, seed=op_seed, workers=self.workers)

    def check(self, inp, report):
        m, op_seed = inp
        unstable = refs.capacity_unstable(self.n, m, op_seed, self.trials)
        facts = {"unstable_bits": int(unstable.sum())}
        want = refs.capacity_row(self.n, m, unstable)
        if (report.n, report.seed, len(report.rows)) != (self.n, op_seed, 1):
            return "capacity report header differs from the request", facts
        row = report.rows[0]
        if (row.m, row.trials) != (m, self.trials):
            return "capacity row describes another load", facts
        if (row.per_bit_instability, row.all_stable_fraction) != (want["per_bit_instability"], want["all_stable_fraction"]):
            return "capacity counts differ from the reference", facts
        if abs(row.stderr - want["stderr"]) > 1e-12 * max(abs(want["stderr"]), 1e-300):
            return "capacity standard error differs from the reference", facts
        threshold = m / self.n if want["per_bit_instability"] <= 0.01 else 0.0
        if report.threshold_capacity_ratio != threshold:
            return "capacity threshold differs from the reference", facts
        return None, facts

    def digest(self, report) -> bytes:
        row = report.rows[0]
        return repr((row.m, row.per_bit_instability, row.all_stable_fraction)).encode()


def _as_list(state) -> list[int]:
    return [int(v) for v in state]


def _duplicates(memories) -> list[list[int]]:
    """Groups of indices of equal memories, as the train report lists them."""
    groups: dict[bytes, list[int]] = {}
    for k, row in enumerate(memories):
        groups.setdefault(row.tobytes(), []).append(k)
    return sorted(g for g in groups.values() if len(g) > 1)


def _first_difference(got, want, where: str = "$") -> str | None:
    """Where two parsed JSON documents differ in content, or None."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return f"{where} has other keys than the reference"
        for key in want:
            found = _first_difference(got[key], want[key], f"{where}.{key}")
            if found:
                return found
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{where} has another length than the reference"
        for i, (g, w) in enumerate(zip(got, want)):
            found = _first_difference(g, w, f"{where}[{i}]")
            if found:
                return found
        return None
    if isinstance(got, bool) != isinstance(want, bool) or got != want:
        return f"{where} is {got!r}, the reference has {want!r}"
    return None


class Cli:
    """A session of six CLI commands on an n=500, m=40 network, an n=18
    network for the fixed-point census, and k=4 amplitudes."""

    name = "cli"
    tag = 4
    count_ops = 1
    commands = ("train", "recall", "recall_async", "spread", "fixed_points", "collapse")

    def __init__(self, seed: int, work: Path, n: int = 500, m: int = 40, cue: int = 50,
                 fp_n: int = 18, fp_m: int = 3, samples: int = 100_000):
        rng = np.random.default_rng([seed, self.tag])
        self.seed = seed
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.memories = _bipolar(rng, m, n)
        self.points = rng.random((n, 2))
        self.proximity = _distances(self.points)
        self.fp_memories = _bipolar(rng, fp_m, fp_n)
        amps = rng.random(4) + 0.1
        self.amps_text = ",".join(repr(float(a)) for a in amps / np.linalg.norm(amps))
        self.amps = [float(a) for a in self.amps_text.split(",")]
        self.flips = round(FLIP * n)
        self.cue_size = cue
        self.samples = samples
        self.version = am.__version__

        self.w_ref = refs.hebb(self.memories)
        self.fp_w = refs.hebb(self.fp_memories)
        self.fp_doc = self._fixed_points_reference()
        self._write_inputs()

    def _write_inputs(self):
        def rows(matrix, fmt):
            return "".join(" ".join(fmt(v) for v in row) + "\n" for row in matrix)

        (self.work / "mem.txt").write_text(rows(self.memories, str), encoding="utf-8")
        (self.work / "fp_mem.txt").write_text(rows(self.fp_memories, str), encoding="utf-8")
        (self.work / "prox.txt").write_text(rows(self.proximity, lambda v: repr(float(v))), encoding="utf-8")
        fp = {"kind": "weights", "n": int(self.fp_w.shape[0]), "weights": self.fp_w.tolist()}
        (self.work / "fp_w.json").write_text(json.dumps(fp), encoding="utf-8")

    def _fixed_points_reference(self) -> dict:
        points = refs.fixed_points(self.fp_w)
        mems = [tuple(int(v) for v in x) for x in self.fp_memories]
        labels = []
        for p in points:
            t = tuple(int(v) for v in p)
            if t in mems:
                labels.append("stored")
            elif tuple(-v for v in t) in mems:
                labels.append("complement")
            else:
                labels.append("spurious")
        fixed, failures = [], []
        for k, x in enumerate(self.fp_memories.astype(np.int64)):
            if not np.array_equal(refs.sgn(self.fp_w @ x), x):
                continue
            fixed.append(k + 1)
            if not np.array_equal(refs.sgn(self.fp_w @ -x), -x):
                zeros = [int(i) + 1 for i in np.flatnonzero(self.fp_w @ x == 0)]
                failures.append({"memory": k + 1, "zero_components": zeros})
        return {
            "n": int(self.fp_w.shape[0]),
            "count": len(points),
            "fixed_points": [[int(v) for v in p] for p in points],
            "census": {
                "stored": labels.count("stored"),
                "complement": labels.count("complement"),
                "spurious": labels.count("spurious"),
                "labels": labels,
            },
            "complement_asymmetry": {"fixed_memories": fixed, "failures": failures},
        }

    def setup_job(self) -> list[str]:
        return ["version"]

    def setup(self) -> str | None:
        return None

    def argv(self, inp) -> dict[str, list[str]]:
        return {
            "train": ["train", "--memories", "mem.txt", "--out", "w.json"],
            "recall": ["recall", "--weights", "w.json", f"--state={inp['state']}", "--out", "recall.json"],
            "recall_async": ["recall", "--weights", "w.json", f"--state={inp['state']}", "--async",
                             "--seed", str(inp["async_seed"]), "--out", "recall_async.json"],
            "spread": ["spread", "--weights", "w.json", "--proximity", "prox.txt", "--start", inp["start"],
                       "--memories", "mem.txt", "--out", "spread.json"],
            "fixed_points": ["fixed-points", "--weights", "fp_w.json", "--memories", "fp_mem.txt",
                             "--out", "fixed_points.json"],
            "collapse": ["collapse", f"--amps={self.amps_text}", "--samples", str(self.samples),
                         "--seed", str(inp["collapse_seed"]), "--out", "collapse.json"],
        }

    def op_input(self, i: int):
        # reports left by the previous session must not pass for this one's
        for path in self.outputs().values():
            path.unlink(missing_ok=True)
        rng = np.random.default_rng([self.seed, self.tag, i])
        k = int(rng.integers(len(self.memories)))
        probe = refs.flip(self.memories[k], self.flips, rng)
        idx = _nearest(self.points, rng.random(2), self.cue_size)
        values = self.memories[int(rng.integers(len(self.memories)))][idx]
        cue = {int(j): int(v) for j, v in zip(idx, values)}
        return {
            "probe": probe,
            "state": ",".join(str(int(v)) for v in probe),
            "async_seed": int(rng.integers(2**31)),
            "cue": cue,
            "start": ",".join(f"{j + 1}:{'+1' if v > 0 else '-1'}" for j, v in sorted(cue.items())),
            "collapse_seed": int(rng.integers(2**31)),
        }

    def command(self, args: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "assocmem.cli", *args], cwd=self.work, env=self.env,
            capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )

    def run(self, inp, tr):
        codes = {}
        for cmd, args in self.argv(inp).items():
            with tr.span(f"cli.{cmd}"):
                proc = self.command(args)
            codes[cmd] = (proc.returncode, proc.stderr.strip()[-300:])
        return codes

    def _report(self, command: str, config: dict, result: dict) -> dict:
        return {"tool": "assocmem", "version": self.version, "kind": "report",
                "command": command, "config": config, "result": result}

    def _expected(self, inp) -> dict[str, dict]:
        probe = [int(v) for v in inp["probe"]]
        sync = refs.recall_sync_iterated(self.w_ref, inp["probe"])
        asyn = refs.recall_async_random(self.w_ref, inp["probe"], inp["async_seed"])
        perm = refs.proximity_order(self.proximity, inp["cue"])
        spread = refs.spread(self.w_ref, inp["cue"], perm)
        nearest, distance = refs.nearest_memory(self.memories, spread["final"])
        probs = [a * a for a in self.amps]
        samples = refs.collapse_samples(self.amps, inp["collapse_seed"], self.samples)
        counts = np.bincount(samples, minlength=len(self.amps))
        recall_config = {"weights": "w.json", "state": inp["state"], "async": False, "schedule": None,
                         "passes": None, "seed": None}
        return {
            "train": {"tool": "assocmem", "version": self.version, "kind": "weights", "command": "train",
                      "config": {"memories": "mem.txt", "seed": None}, "n": int(self.w_ref.shape[0]),
                      "m": len(self.memories), "duplicates": _duplicates(self.memories)},
            "recall": self._report("recall", recall_config, {
                "mode": "synchronous", "initial": probe, "final": _as_list(sync["state"]),
                "iterations": sync["iterations"], "converged": sync["converged"], "energy_trace": sync["trace"],
                "cycle": None if sync["cycle"] is None else [_as_list(s) for s in sync["cycle"]]}),
            "recall_async": self._report(
                "recall", dict(recall_config, **{"async": True, "schedule": "random", "seed": inp["async_seed"]}), {
                    "mode": "asynchronous", "initial": probe, "final": _as_list(asyn["state"]),
                    "iterations": asyn["iterations"], "converged": asyn["converged"],
                    "energy_trace": asyn["trace"], "cycle": None}),
            "spread": self._report("spread", {"weights": "w.json", "proximity": "prox.txt", "start": inp["start"],
                                              "memories": "mem.txt", "seed": None}, {
                "n": int(self.w_ref.shape[0]),
                "order": [int(i) + 1 for i in perm],
                "start": [[j + 1, v] for j, v in sorted(inp["cue"].items())],
                "steps": [{"neuron": j + 1, "field": f, "value": v} for j, f, v in spread["steps"]],
                "final": _as_list(spread["final"]),
                "consistency_flags": [i + 1 for i in spread["flags"]],
                "fixed_point": not spread["flags"],
                "matched_memory": nearest + 1 if distance == 0 else None,
                "nearest_memory": nearest + 1,
                "hamming_to_nearest": distance}),
            "fixed_points": self._report("fixed-points", {"weights": "fp_w.json", "memories": "fp_mem.txt",
                                                          "limit": 20, "seed": None}, self.fp_doc),
            "collapse": self._report("collapse", {"amps": self.amps, "samples": self.samples,
                                                  "seed": inp["collapse_seed"]}, {
                "k": len(self.amps), "probabilities": probs,
                "counts": [int(c) for c in counts],
                "frequencies": [int(c) / self.samples for c in counts]}),
        }

    def outputs(self) -> dict[str, Path]:
        return {cmd: self.work / f"{'w' if cmd == 'train' else cmd}.json" for cmd in self.commands}

    def check(self, inp, codes):
        paths = self.outputs()
        facts = {"report_bytes": sum(paths[c].stat().st_size for c in self.commands[1:] if paths[c].exists())}
        for cmd, (code, err) in codes.items():
            if code != 0:
                return f"{cmd} exited with {code}: {err}", facts
        docs = {cmd: json.loads(path.read_text(encoding="utf-8")) for cmd, path in paths.items()}
        weights = docs["train"].pop("weights", None)
        if not np.array_equal(np.asarray(weights), self.w_ref):
            return "train: weights differ from the reference", facts
        samples = docs["collapse"].get("result", {}).pop("samples", None)
        want_samples = refs.collapse_samples(self.amps, inp["collapse_seed"], self.samples)
        if not np.array_equal(np.asarray(samples), want_samples):
            return "collapse: samples differ from the reference", facts
        for cmd, want in self._expected(inp).items():
            found = _first_difference(docs[cmd], want)
            if found:
                return f"{cmd}: {found}", facts
        return None, facts

    def digest(self, codes) -> bytes:
        h = hashlib.sha256()
        for cmd in self.commands[1:]:
            doc = json.loads(self.outputs()[cmd].read_text(encoding="utf-8"))
            h.update(json.dumps(doc["result"], sort_keys=True).encode())
        return h.digest()


BY_NAME = {w.name: w for w in (Recall, Spread, Capacity, Cli)}
