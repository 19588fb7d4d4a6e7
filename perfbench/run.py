"""assocmem benchmark: run one workload, check every output, print its metrics.

    python3 perfbench/run.py --workload recall --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports the package from the
checkout's ``src`` and refuses to measure any other copy. ``--workload`` is
one of recall, spread, capacity and cli (see NOTES.md for why each exists),
or ``all``, which runs the four one after the other, each in a fresh process.

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
runs each op of the workload twice, untraced and traced, for half of
``--seconds``, then a fixed number of traced ops of every other workload and direct calls
into each module, and reports the per-layer metrics.

Standard output ends with one JSON line holding ``correct``, ``attempted``,
``failed`` and ``metrics``. A result file with the provenance block, the op
digest, the work counts and (when traced) every span goes to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("recall", "spread", "capacity", "cli")
SETUP_REPEATS = 13
P90_MIN_OPS = 100



def metric_units(kind: str) -> dict[str, str]:
    """Name to unit of the ``end_to_end`` or ``per_layer`` metrics of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


class Tally:
    """Attempted and failed ops, the first problems, and for the first
    ``count_ops`` ops of each workload their work counts and output digest."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.facts: dict[str, dict[str, list]] = {}
        self.digests: dict = {}

    def record(self, where: str, problem: str | None):
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{where}: {problem}")

    def keep(self, workload: str, facts: dict, digest: bytes):
        per = self.facts.setdefault(workload, {})
        for key, value in facts.items():
            per.setdefault(key, []).append(value)
        self.digests.setdefault(workload, hashlib.sha256()).update(digest)

    def values(self, workload: str, key: str) -> list:
        return self.facts.get(workload, {}).get(key, [])

    def mean(self, workload: str, key: str) -> float:
        values = self.values(workload, key)
        return statistics.fmean(values) if values else 0.0

    def share(self, workload: str, key: str, base: str) -> float:
        return _ratio(sum(self.values(workload, key)), sum(self.values(workload, base)))


def _ratio(a: float, b: float) -> float:
    """a / b, or 0 when b is 0 (only when every op of a workload failed)."""
    return a / b if b else 0.0


def loop(w, tr, tally: Tally, until: float = 0.0, ops: int | None = None, keep: bool = True, start: int = 0):
    """Closed loop over ops start, start + 1, ...: for ``ops`` ops, or else
    while ``time.perf_counter()`` is before ``until``. Each op is timed alone
    and checked outside the timed interval. Returns the latencies of the ops
    that passed their check, the summed latency of all ops, and the index of
    the next op."""
    latencies: list[float] = []
    busy = 0.0
    i = start
    while i < start + ops if ops is not None else time.perf_counter() < until:
        inp = w.op_input(i)
        tr.op = f"{w.name}:{i}"
        t0 = time.perf_counter()
        try:
            with tr.span("bench.op"):
                out = w.run(inp, tr)
        except Exception as exc:  # a failing op is counted, the loop goes on
            busy += time.perf_counter() - t0
            tally.record(f"{w.name} op {i}", f"{type(exc).__name__}: {exc}")
            i += 1
            continue
        elapsed = time.perf_counter() - t0
        busy += elapsed
        try:
            problem, facts = w.check(inp, out)
            digest = w.digest(out) if problem is None else b"failed"
        except Exception as exc:  # malformed output
            problem, facts, digest = f"check raised {type(exc).__name__}: {exc}", {}, b"failed"
        tally.record(f"{w.name} op {i}", problem)
        if problem is None:
            latencies.append(elapsed)
        if keep and i < w.count_ops:
            tally.keep(w.name, facts, digest)
        i += 1
    return latencies, busy, i


def make(name: str, seed: int, work: Path, **sizes):
    import workloads

    return workloads.BY_NAME[name](seed, work, **sizes)


def setup_seconds(w, job: list[str], env: dict, am) -> float:
    """The workload's set-up cost, measured once in a fresh interpreter."""
    if job[0] == "version":
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "assocmem.cli", "--version"], cwd=w.work, env=env,
                              capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0 or proc.stdout.strip() != f"assocmem {am.__version__}":
            raise SystemExit(f"assocmem --version failed: {proc.stderr.strip()[-300:]}")
        return elapsed
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), *job], cwd=w.work, env=env,
                          capture_output=True, text=True, timeout=60)
    lines = proc.stdout.split("\n")
    if proc.returncode != 0 or Path(lines[1]).resolve() != Path(am.__file__).resolve():
        raise SystemExit(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
    return float(lines[0])


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def untraced(name: str, seed: int, seconds: float, work: Path, tally: Tally, am) -> tuple[dict, dict]:
    from spans import NULL

    w = make(name, seed, work)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    job = w.setup_job()
    tally.record(f"{name} set-up", w.setup())
    loop(w, NULL, tally, ops=1, keep=False)  # warm-up
    # The set-up probes are spread over the run, between ops, so that they
    # meet the machine in the same states as the ops do.
    setup_times, latencies, busy, i = [], [], 0.0, 0
    t0 = time.perf_counter()
    for k in range(1, SETUP_REPEATS + 1):
        setup_times.append(setup_seconds(w, job, env, am))
        # the last segment times at least one op, however short the run
        until = t0 + seconds * k / SETUP_REPEATS
        lat, spent, i = loop(w, NULL, tally, until=until, ops=1 if k == SETUP_REPEATS and i == 0 else None, start=i)
        latencies += lat
        busy += spent
    ok = len(latencies)
    metrics = {
        "ops_per_s": _ratio(ok, busy),
        "op_p50_ms": 1000.0 * statistics.median(latencies) if ok else 0.0,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(name),
    }
    extra = {
        "ops": ok,
        "latencies_ms": [1000.0 * t for t in latencies],
        "op_p90_ms": 1000.0 * statistics.quantiles(latencies, n=10)[-1] if ok >= P90_MIN_OPS else None,
        "error_ratio": tally.failed / tally.attempted,
    }
    return metrics, extra


def _direct(tr, tally: Tally, span: str, times: int, call, check) -> None:
    """Time ``call`` ``times`` times under a span and check each result."""
    tr.op = f"direct:{span}"
    for _ in range(times):
        try:
            with tr.span(span):
                out = call()
            problem = check(out)
        except Exception as exc:  # a failing call is counted like a failing op
            problem = f"{type(exc).__name__}: {exc}"
        tally.record(span, problem)


def traced(name: str, seed: int, seconds: float, work: Path, tally: Tally, am, nproc: int) -> tuple[dict, dict]:
    import numpy as np

    import refs
    from spans import NULL, Tracer

    tr = Tracer()
    ws = {}
    for wname in WORKLOADS:
        sub = work / wname
        sub.mkdir()
        ws[wname] = make(wname, seed, sub)
        tally.record(f"{wname} set-up", ws[wname].setup())
    named = ws[name]

    loop(named, NULL, tally, ops=1, keep=False)  # warm-up
    # Each op runs twice, untraced and traced, in alternating order, so that
    # both sides of the overhead ratio meet the same inputs and machine state.
    busy = {NULL: 0.0, tr: 0.0}
    t_end = time.perf_counter() + seconds / 2
    pairs = 0
    while pairs == 0 or time.perf_counter() < t_end:
        for tracer in (NULL, tr) if pairs % 2 == 0 else (tr, NULL):
            busy[tracer] += loop(named, tracer, tally, ops=1, start=pairs, keep=tracer is tr)[1]
        pairs += 1
    for wname in WORKLOADS:
        if wname != name:
            loop(ws[wname], tr, tally, ops=ws[wname].count_ops)

    rec, spr, cap, cli = (ws[k] for k in WORKLOADS)

    def same(want):
        return lambda got: None if np.array_equal(np.asarray(got), want) else "differs from the reference"

    _direct(tr, tally, "core.validate_weights", 5, lambda: am.validate_weights(rec.w), same(rec.w))
    _direct(tr, tally, "hebbian.train", 3, lambda: am.train(rec.memories), same(rec.w))
    fp_want = np.array(cli.fp_doc["fixed_points"]).reshape(-1, cli.fp_w.shape[0])
    _direct(tr, tally, "analysis.enumerate_fixed_points", 3, lambda: am.enumerate_fixed_points(cli.fp_w), same(fp_want))
    _direct(tr, tally, "quantum.collapse_sample", 5, lambda: am.collapse_sample(cli.amps, seed, cli.samples),
            same(refs.collapse_samples(cli.amps, seed, cli.samples)))
    _direct(tr, tally, "formats.parse_memories", 3, lambda: am.parse_memories(cli.work / "mem.txt").vectors,
            same(cli.memories))
    _direct(tr, tally, "formats.parse_proximity", 3, lambda: am.parse_proximity(cli.work / "prox.txt"),
            same(cli.proximity))
    _direct(tr, tally, "formats.load_weights", 3, lambda: am.load_weights(cli.work / "w.json"), same(cli.w_ref))

    rendered = []

    def render():
        config = {"memories": "mem.txt", "seed": None}
        with tr.span("formats.weights_document"):
            doc = am.formats.weights_document(cli.w_ref, config, command="train", m=len(cli.memories), duplicates=[])
        with tr.span("formats.render_document"):
            text = am.formats.render_document(doc)
        rendered.append(len(text.encode("utf-8")))
        return json.loads(text)["weights"]

    _direct(tr, tally, "formats.render_weights", 3, render, same(cli.w_ref))

    # the spread at twice the size, for the cost exponent
    big = make("spread", seed, spr.work, n=2 * spr.proximity.shape[0], m=2 * len(spr.memories), cue=2 * spr.cue_size)
    big.name = "spread_2n"
    tally.record("spread_2n set-up", big.setup())
    loop(big, tr, tally, ops=1, keep=False)
    # the first loads of the capacity workload again, with a worker per core
    par = make("capacity", seed, cap.work)
    par.name, par.workers = "capacity_par", nproc
    loop(par, tr, tally, ops=len(par.loads), keep=False)

    def ms(span: str, prefix: str) -> float:
        found = [d for d, op in tr.durations(span) if op.startswith(prefix)]
        return 1000.0 * statistics.median(found) if found else 0.0

    def span_busy(span: str, ops: set) -> float:
        return sum(d for d, op in tr.durations(span) if op in ops)

    n_rec = rec.w.shape[0]
    sync_passes = tally.values("recall", "sync_passes")
    first_rec = {f"recall:{i}" for i in range(len(sync_passes))}
    first_cap = {f"capacity:{i}" for i in range(len(par.loads))}
    first_par = {f"capacity_par:{i}" for i in range(len(par.loads))}
    capacity_ms = ms("analysis.capacity_experiment", "capacity:")
    retrieve_ms = ms("generator.retrieve_report", "spread:")
    enumerate_ms = ms("analysis.enumerate_fixed_points", "direct:")
    big_ms = ms("generator.retrieve_report", "spread_2n:")
    metrics = {
        "core.validate_weights_ms": ms("core.validate_weights", "direct:"),
        "hebbian.train_ms": ms("hebbian.train", "direct:"),
        "hebbian.recall_sync_iterated_ms": ms("hebbian.recall_sync_iterated", "recall:"),
        "hebbian.recall_async_ms": ms("hebbian.recall_async", "recall:"),
        "hebbian.sync_macs_per_s": _ratio(sum(sync_passes) * n_rec * n_rec,
                                          span_busy("hebbian.recall_sync_iterated", first_rec)),
        "hebbian.sync_passes_per_op": tally.mean("recall", "sync_passes"),
        "hebbian.async_passes_per_op": tally.mean("recall", "async_passes"),
        "hebbian.changed_per_op": tally.mean("recall", "changed"),
        "hebbian.retrieval_hit_ratio": tally.share("recall", "hits", "recalls"),
        "generator.order_ms": ms("generator.order_from_proximity", "spread:"),
        "generator.retrieve_ms": retrieve_ms,
        "generator.us_per_step": 1000.0 * _ratio(retrieve_ms, tally.mean("spread", "steps")),
        "generator.retrieve_cost_exponent": math.log2(big_ms / retrieve_ms) if big_ms and retrieve_ms else 0.0,
        "generator.steps_per_op": tally.mean("spread", "steps"),
        "generator.flagged_per_op": tally.mean("spread", "flagged"),
        "generator.match_ratio": tally.mean("spread", "matched"),
        "generator.fixed_point_ratio": tally.mean("spread", "fixed_point"),
        "analysis.capacity_ms": capacity_ms,
        "analysis.trial_ms": capacity_ms / cap.trials,
        "analysis.unstable_bits_per_op": tally.mean("capacity", "unstable_bits"),
        "analysis.parallel_efficiency": _ratio(span_busy("analysis.capacity_experiment", first_cap),
                                               nproc * span_busy("analysis.capacity_experiment", first_par)),
        "analysis.enumerate_ms": enumerate_ms,
        "analysis.states_per_s": 1000.0 * _ratio(2 ** cli.fp_w.shape[0], enumerate_ms),
        "quantum.collapse_sample_ms": ms("quantum.collapse_sample", "direct:"),
        "formats.parse_memories_ms": ms("formats.parse_memories", "direct:"),
        "formats.render_weights_ms": ms("formats.render_weights", "direct:"),
        "formats.load_weights_ms": ms("formats.load_weights", "direct:"),
        "formats.parse_proximity_ms": ms("formats.parse_proximity", "direct:"),
        "formats.weights_bytes": float(rendered[0]) if rendered else 0.0,
        "formats.report_bytes_per_op": tally.mean("cli", "report_bytes"),
        **{f"cli.{cmd}_ms": ms(f"cli.{cmd}", "cli:") for cmd in cli.commands},
        "trace.overhead_ratio": 1.0 - _ratio(busy[NULL], busy[tr]),
    }
    layer_s = tr.layer_self_seconds(f"{name}:")
    op_s = sum(layer_s.values())
    extra = {
        "op_pairs": pairs,
        "layer_self_share": {k: v / op_s for k, v in sorted(layer_s.items())} if op_s else {},
        "spans": tr.records(),
    }
    return metrics, extra


def provenance(am, nproc: int) -> dict:
    import numpy as np

    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_name(np),
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "assocmem_version": am.__version__,
        "assocmem_path": str(Path(am.__file__).resolve().parent),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_name(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, asked of the library itself."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    """The checkout's commit; None when it is not a git repository."""
    # the ceiling keeps git from reporting the commit of a repository around the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_all(args) -> int:
    """Each workload in a fresh process; a summary of all four at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")

    package = ROOT / "src" / "assocmem"
    if not (package / "__init__.py").is_file():
        print(f"benchmark: no package source at {package}; run from a checkout", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if not os.environ.get(var, "").isdigit() or not 0 < int(os.environ[var]) <= nproc:
            os.environ[var] = str(nproc)
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(ROOT / "src"))
    import assocmem as am

    if Path(am.__file__).resolve().parent != package.resolve():
        print(f"benchmark: imported assocmem from {am.__file__}, not from {package}", file=sys.stderr)
        return 3
    prov = provenance(am, nproc)

    units = metric_units("per_layer" if args.trace else "end_to_end")
    tally = Tally()
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        if args.trace:
            metrics, extra = traced(args.workload, args.seed, args.seconds, Path(tmp), tally, am, nproc)
        else:
            metrics, extra = untraced(args.workload, args.seed, args.seconds, Path(tmp), tally, am)
    if set(metrics) != set(units):
        print(f"benchmark: BENCHMARK.json lists {sorted(units)}, the run measured {sorted(metrics)}", file=sys.stderr)
        return 4
    digests = {k: h.hexdigest() for k, h in sorted(tally.digests.items())}
    counts = {w: {k: sum(v) for k, v in f.items()} for w, f in sorted(tally.facts.items())}

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "provenance": prov, "attempted": tally.attempted, "failed": tally.failed,
              "problems": tally.problems, "digests": digests, "counts": counts, "metrics": metrics, **extra}
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"provenance {json.dumps(prov)}")
    print(f"workload {args.workload} seed {args.seed}: {tally.attempted} ops attempted, {tally.failed} failed")
    for problem in tally.problems[:5]:
        print(f"  FAILED {problem}")
    for key, value in metrics.items():
        print(f"  {key:34s} {value:.6g} {units[key]}")
    if not args.trace:
        p90 = extra["op_p90_ms"]
        print(f"  {'op_p90_ms':34s} " + (f"{p90:.6g} ms" if p90 is not None
                                          else f"not reported: {extra['ops']} ops < {P90_MIN_OPS}"))
        print(f"  {'error_ratio':34s} {extra['error_ratio']:.6g} ratio ({tally.failed}/{tally.attempted})")
        print(f"  op_p50_ms over {extra['ops']} ops; setup_s median of {SETUP_REPEATS}")
    else:
        shares = ", ".join(f"{k} {v:.3f}" for k, v in extra["layer_self_share"].items())
        print(f"  self-time share of {args.workload} ops by layer: {shares}")
    print(f"  digests {json.dumps(digests)}; results in {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
