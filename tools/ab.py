"""Paired A/B timing of one benchmark workload on two checkouts.

    python tools/ab.py PARENT_DIR CHANGE_DIR --workload capacity

Each of 6 rounds starts two worker processes. Each imports ``assocmem`` from its
own tree's ``src`` and the workload's ops from CHANGE_DIR's
``perfbench/workloads.py``, so both run the very same ops on the very same
inputs. The driver hands them 8 pairs of slices of k ops: pair j of round r
runs the same k ops on both sides, the parent first in even pairs and the
change first in odd ones, and the parent's worker starts first in even
rounds. k is set once, in the first round, so that the parent's warm ops
fill about 0.2 s. A slice's time is the sum of its ops' ``run``
calls; inputs and digests are not timed. Every slice waits 0.2 s first,
so that the BLAS threads of the side that ran last have gone idle.

Both sides of a pair see the same stretch of host state, so drift that
lasts longer than a pair cancels in its ratio of change to parent time.
A worker process can also run a few per cent slower or faster than
another on the very same code for its whole life, which no pairing inside
it cancels. So the report is the median of all the ratios with a seeded
bootstrap interval (95 %) that resamples the rounds and then the pairs of
each. Below 1 the change is faster; an interval that excludes 1 is a
difference the run can tell. Each slice's op digests (``digest`` of each
op's output), the warm-up's included, must be equal on both sides; the
first that differ stop the run with exit status 1. The workload inputs and
the bootstrap take seed 1.

Workloads: recall, spread and capacity (cli times subprocesses, which a
long-lived worker cannot pair). Each worker also reports its set-up in
parts: the import of assocmem (numpy included), the workload's input
generation and its ``setup`` (training). BLAS threads follow
perfbench/run.py's rule: nproc unless the environment sets them lower.

This tool adds no gated metric and is not the benchmark of record;
``perfbench/run.py`` is. The final line of standard output is one JSON
object with the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("recall", "spread", "capacity")
LEVEL = 0.95
RESAMPLES = 10_000
WARMUP_OPS = 3
# rounds, each with fresh workers; fewer give a bootstrap of the rounds too little to
# resample: in one A/A check, 2 rounds of 2 pairs read an interval of [0.69, 0.98] on unchanged code
ROUNDS = 6
PAIRS = 8  # slice pairs per round
SEED = 1  # of the workload inputs and of the bootstrap
# idle time before each slice: OpenBLAS threads spin for a while after a call, and
# those of the side that just ran would take the cores from the side that runs next
GAP_S = 0.2
SLICE_S = 0.2  # the parent's time per slice, in the first round


def paired_summary(ratios, seed: int) -> tuple[float, float, float]:
    """(median, low, high) of ``ratios[round][pair]``: the median of all paired
    ratios and its bootstrap interval at LEVEL.

    Each of RESAMPLES resamples, drawn with default_rng(seed), picks the
    rounds with replacement and then the pairs of each picked round, so the
    interval carries what a worker process adds to all of its pairs as well
    as what varies from pair to pair.
    """
    import numpy as np  # here, so that a worker's import time of assocmem includes numpy

    r = np.asarray(ratios, dtype=np.float64)
    if r.ndim != 2 or r.size == 0:
        raise ValueError("need a rounds x pairs table of ratios")
    rounds, pairs = r.shape
    rng = np.random.default_rng(seed)
    picked = rng.integers(0, rounds, size=(RESAMPLES, rounds, 1))
    drawn = r[picked, rng.integers(0, pairs, size=(RESAMPLES, rounds, pairs))]
    low, high = np.quantile(np.median(drawn.reshape(RESAMPLES, -1), axis=1), [(1 - LEVEL) / 2, (1 + LEVEL) / 2])
    return float(np.median(r)), float(low), float(high)


def verdict(low: float, high: float) -> str:
    """What an interval of change / parent time ratios tells."""
    if high < 1.0:
        return "change faster"
    if low > 1.0:
        return "change slower"
    return "no difference told"


# --- worker ---------------------------------------------------------------


def _worker(tree: Path, bench: Path, workload: str) -> int:
    """Serve slices on stdin: each line "START COUNT" runs ops START .. START + COUNT - 1
    and answers one JSON line with their summed run time and digest."""
    t0 = time.perf_counter()
    sys.path[:0] = [str(tree / "src"), str(bench)]
    import assocmem

    import_s = time.perf_counter() - t0
    if Path(assocmem.__file__).resolve().parent != (tree / "src" / "assocmem").resolve():
        raise SystemExit(f"imported assocmem from {assocmem.__file__}, not from {tree / 'src'}")
    import workloads
    from spans import NULL

    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        t0 = time.perf_counter()
        w = workloads.BY_NAME[workload](SEED, Path(tmp))
        inputs_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        problem = w.setup()
        setup_s = time.perf_counter() - t0
        _reply({"import_s": import_s, "inputs_s": inputs_s, "setup_s": setup_s, "problem": problem})
        for line in sys.stdin:
            start, count = map(int, line.split())
            busy, digest = 0.0, hashlib.sha256()
            for i in range(start, start + count):
                inp = w.op_input(i)
                t0 = time.perf_counter()
                out = w.run(inp, NULL)
                busy += time.perf_counter() - t0
                digest.update(w.digest(out))
            _reply({"seconds": busy, "digest": digest.hexdigest()})
    return 0


def _reply(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


# --- driver ---------------------------------------------------------------


class _Side:
    """One worker process, started on ``tree``."""

    def __init__(self, name: str, tree: Path, bench: Path, workload: str, env: dict):
        self.name = name
        argv = [sys.executable, str(Path(__file__).resolve()), "--worker", str(tree), str(bench), workload]
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)
        self.setup = self._answer()
        if self.setup["problem"] is not None:
            self.close()
            raise SystemExit(f"{name} set-up: {self.setup['problem']}")

    def slice(self, start: int, count: int) -> dict:
        self.proc.stdin.write(f"{start} {count}\n")
        self.proc.stdin.flush()
        return self._answer()

    def _answer(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"the {self.name} worker exited with {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        if self.proc.stdin:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # each worker puts its own tree first
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if not env.get(var, "").isdigit() or not 0 < int(env[var]) <= nproc:
            env[var] = str(nproc)
    return env


class _DigestMismatch(Exception):
    """Two sides gave different outputs for the same ops."""


def _pair(order, start: int, count: int, where: str) -> dict[str, float]:
    """Each side's run time of ops start .. start + count - 1, the sides in ``order``;
    their digests must agree."""
    got = {}
    for side in order:
        time.sleep(GAP_S)
        got[side.name] = side.slice(start, count)
    if len({answer["digest"] for answer in got.values()}) > 1:
        raise _DigestMismatch(f"{where}: the op digests of ops {start}-{start + count - 1} differ")
    return {name: answer["seconds"] for name, answer in got.items()}


def _round(r: int, trees: dict, bench: Path, workload: str, count):
    """One round of fresh workers: (ratios, ops per slice, set-up parts by side).

    The parent's worker starts first in even rounds and the change's in odd
    ones; the parent runs first in even pairs. ``count`` ops per slice, or
    when None as many as the parent's warm ops fill SLICE_S.
    """
    env = _worker_env()
    names = ("parent", "change") if r % 2 == 0 else ("change", "parent")
    sides: dict[str, _Side] = {}
    try:
        for name in names:
            sides[name] = _Side(name, trees[name], bench, workload, env)
        a, b = sides["parent"], sides["change"]
        # a warm-up pair; then the parent's time per op, warm, may set the slice length
        _pair((a, b), 0, WARMUP_OPS, f"round {r} warm-up")
        per_op = _pair((a,), 0, WARMUP_OPS, "")["parent"] / WARMUP_OPS
        if count is None:
            count = max(1, round(SLICE_S / per_op)) if per_op > 0 else 1
        ratios = []
        for j in range(PAIRS):
            start = WARMUP_OPS + (r * PAIRS + j) * count
            got = _pair((a, b) if j % 2 == 0 else (b, a), start, count, f"round {r} pair {j}")
            ratios.append(got["change"] / got["parent"])
            print(f"round {r} pair {j:2d}  ops {start}-{start + count - 1}  parent {1000 * got['parent']:8.2f} ms"
                  f"  change {1000 * got['change']:8.2f} ms  ratio {ratios[-1]:.4f}", flush=True)
    finally:
        for side in sides.values():
            side.close()
    setup = {name: {k: v for k, v in side.setup.items() if k != "problem"} for name, side in sides.items()}
    return ratios, count, setup


def compare(parent: Path, change: Path, workload: str) -> dict:
    trees = {"parent": parent, "change": change}
    table, setups, count = [], [], None
    for r in range(ROUNDS):
        ratios, count, setup = _round(r, trees, change / "perfbench", workload, count)
        table.append(ratios)
        setups.append(setup)
    median, low, high = paired_summary(table, SEED)
    return {
        "workload": workload, "rounds": ROUNDS, "pairs": PAIRS, "ops_per_slice": count, "seed": SEED,
        "ratio": "change / parent time", "median_ratio": median, "interval": [low, high], "level": LEVEL,
        "verdict": verdict(low, high), "digests_equal": True,
        # the median over rounds of each part of the set-up
        "setup_s": {name: {part: statistics.median(s[name][part] for s in setups) for part in setups[0][name]}
                    for name in trees},
    }


def main(argv: list[str]) -> int:
    if argv[:1] == ["--worker"]:
        tree, bench, workload = argv[1:]
        return _worker(Path(tree), Path(bench), workload)
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent", type=Path, help="checkout measured as the parent")
    parser.add_argument("change", type=Path, help="checkout measured as the change; its perfbench defines the ops")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    args = parser.parse_args(argv)
    for tree in (args.parent, args.change):
        if not (tree / "src" / "assocmem" / "__init__.py").is_file():
            parser.error(f"no package source at {tree / 'src' / 'assocmem'}")
    if not (args.change / "perfbench" / "workloads.py").is_file():
        parser.error(f"no perfbench/workloads.py in {args.change}")
    try:
        result = compare(args.parent.resolve(), args.change.resolve(), args.workload)
    except _DigestMismatch as exc:
        print(f"ab: {exc}", file=sys.stderr)
        print(json.dumps({"workload": args.workload, "digests_equal": False, "error": str(exc)}))
        return 1
    low, high = result["interval"]
    print(f"{args.workload}: change / parent time, median {result['median_ratio']:.4f}, "
          f"{100 * LEVEL:.0f} % interval [{low:.4f}, {high:.4f}] over {ROUNDS} x {PAIRS} pairs of "
          f"{result['ops_per_slice']} ops: {result['verdict']}")
    for name, parts in result["setup_s"].items():
        print(f"  {name} set-up: " + ", ".join(f"{k[:-2]} {1000 * v:.1f} ms" for k, v in parts.items()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
