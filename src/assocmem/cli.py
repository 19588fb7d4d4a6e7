"""Command-line front end binding the library into reproducible runs.

Subcommands: train, recall, spread, fixed-points, capacity, collapse.
Each run emits one JSON document (to --out, or stdout) embedding the tool
version and the full configuration; commands that use randomness refuse to
run without an explicit --seed.

Each subparser names its runner (set_defaults(run=...)), and main calls
it, so the command table is the parser itself. Each runner imports the one
library module it runs (hebbian, generator, analysis or quantum), so a
command loads core, formats and that module only.

Exit codes: 0 success, 2 usage or unreadable input file, 3 file parse
error (every fault of a weights document included), 4 dimension mismatch,
5 invalid parameter value.
"""

from __future__ import annotations

import argparse
import dataclasses
import re
import sys

import numpy as np

from ._version import __version__
from . import formats
from .core import ENUMERATION_LIMIT, DimensionMismatch, ParameterError, ValidationError, as_bipolar

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_DIMENSION = 4
EXIT_PARAMETER = 5

# inline states and start values use the token table of memory files
_TOKENS = formats._MEMORY_TOKENS

# options whose value may start with "-", as in --state -1,1 or --amps -0.6,0.8
_SIGNED_OPTIONS = ("--state", "--amps")


def _int(text: str) -> int:
    """An integer option value under the file parsers' number rule (formats._ascii_number)."""
    return formats._ascii_number(text, int)


_int.__name__ = "int"  # argparse names the type in "invalid int value: ..."


def _parse_state(text: str) -> np.ndarray:
    """An inline state: comma or whitespace separated tokens from {1, -1}."""
    values = []
    for token in text.replace(",", " ").split():
        if token not in _TOKENS:
            raise ParameterError(f"bad state token {token!r}, expected 1 or -1")
        values.append(_TOKENS[token])
    if not values:
        raise ParameterError("state is empty")
    return as_bipolar(values)


def _parse_start(text: str) -> list[tuple[int, int]]:
    """Start syntax: comma-separated 1-based index:value pairs, e.g. 1:+1,4:-1.

    Returns 0-based (index, value) pairs; core.normalize_start refuses an
    empty start and a neuron assigned twice with different values.
    """
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if ":" not in piece:
            raise ParameterError(f"bad start entry {piece!r}, expected index:value")
        idx_text, val_text = (side.strip() for side in piece.split(":", 1))
        try:
            idx = formats._ascii_number(idx_text, int)
        except ValueError:
            raise ParameterError(f"bad start index {idx_text!r}") from None
        if idx < 1:
            raise ParameterError(f"start indices are 1-based, got {idx}")
        if val_text not in _TOKENS:
            raise ParameterError(f"bad start value {val_text!r}, expected +1 or -1")
        out.append((idx - 1, _TOKENS[val_text]))
    return out


def _parse_list(text: str, what: str, convert) -> list:
    """Comma-separated values, each read by ``convert`` (int or float) under
    the file parsers' number rule (formats._ascii_number)."""
    expected = "an integer" if convert is int else "a number"
    values = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            values.append(formats._ascii_number(piece, convert))
        except ValueError:
            raise ParameterError(f"bad {what} entry {piece!r}, expected {expected}") from None
    if not values:
        raise ParameterError(f"{what} is empty")
    return values


def _run_train(args) -> dict:
    from . import hebbian

    config = {"memories": args.memories, "seed": None}
    mset = formats.parse_memories(args.memories)
    weights = hebbian.train(mset)
    return formats.weights_document(
        weights,
        config,
        command="train",
        m=mset.m,
        duplicates=[list(group) for group in mset.duplicates],
    )


def _run_recall(args) -> dict:
    from . import hebbian

    if args.schedule is not None and not args.asynchronous:
        raise ParameterError("--schedule only applies to asynchronous recall")
    schedule = (args.schedule or "random") if args.asynchronous else None
    if args.seed is not None and schedule != "random":
        raise ParameterError("--seed only applies to the random asynchronous schedule")
    config = {
        "weights": args.weights,
        "state": args.state,
        "async": bool(args.asynchronous),
        "schedule": schedule,
        "passes": args.passes,
        "seed": args.seed,
    }
    weights = formats.load_weights(args.weights)
    state = _parse_state(args.state)
    if args.asynchronous:
        result = hebbian.recall_async(
            weights, state, schedule=schedule, max_passes=args.passes, seed=args.seed
        )
        mode = "asynchronous"
    else:
        result = hebbian.recall_sync_iterated(weights, state, max_passes=args.passes)
        mode = "synchronous"
    payload = {
        "mode": mode,
        "initial": state.tolist(),
        "final": result.state.tolist(),
        "iterations": result.iterations,
        "converged": result.converged,
        "energy_trace": list(result.energy_trace),
        "cycle": None if result.cycle is None else [s.tolist() for s in result.cycle],
    }
    return formats.document("report", "recall", config, result=payload)


def _run_spread(args) -> dict:
    from . import generator

    config = {
        "weights": args.weights,
        "proximity": args.proximity,
        "start": args.start,
        "memories": args.memories,
        "seed": None,
    }
    weights = formats.load_weights(args.weights)
    start = _parse_start(args.start)
    proximity = formats.parse_proximity(args.proximity) if args.proximity else None
    memories = formats.parse_memories(args.memories) if args.memories else None
    report = generator.retrieve_report(weights, start, memories, proximity=proximity)
    trace = report.trace
    payload = {
        "n": int(weights.shape[0]),
        "order": (trace.order.permutation + 1).tolist(),
        "start": [[neuron + 1, value] for neuron, value in trace.start],
        "steps": [
            {"neuron": s.neuron + 1, "field": s.field, "value": s.value} for s in trace.steps
        ],
        "final": trace.final.tolist(),
        "consistency_flags": sorted(i + 1 for i in trace.consistency_flags),
        "fixed_point": report.is_fixed_point,
        "matched_memory": None if report.matched_index is None else report.matched_index + 1,
        "nearest_memory": None if report.nearest_index is None else report.nearest_index + 1,
        "hamming_to_nearest": report.nearest_distance,
    }
    return formats.document("report", "spread", config, result=payload)


def _run_fixed_points(args) -> dict:
    from . import analysis

    config = {
        "weights": args.weights,
        "memories": args.memories,
        "limit": args.limit,
        "seed": None,
    }
    weights = formats.load_weights(args.weights)
    points = analysis.enumerate_fixed_points(weights, limit_n=args.limit)
    census_payload = None
    probe_payload = None
    if args.memories:
        mset = formats.parse_memories(args.memories)
        census = analysis.classify(points, mset)
        census_payload = {
            "stored": census.stored_count,
            "complement": census.complement_count,
            "spurious": census.spurious_count,
            "labels": list(census.labels),
        }
        probe = analysis.complement_asymmetry_probe(weights, mset)
        probe_payload = {
            "fixed_memories": [i + 1 for i in probe.fixed_memory_indices],
            "failures": [
                {
                    "memory": f.memory_index + 1,
                    "zero_components": [c + 1 for c in f.zero_field_components],
                }
                for f in probe.failures
            ],
        }
    payload = {
        "n": int(weights.shape[0]),
        "count": len(points),
        "fixed_points": [p.tolist() for p in points],
        "census": census_payload,
        "complement_asymmetry": probe_payload,
    }
    return formats.document("report", "fixed-points", config, result=payload)


def _run_capacity(args) -> dict:
    from . import analysis

    m_values = _parse_list(args.m_list, "m-list", int)
    config = {
        "n": args.n,
        "m_list": m_values,
        "trials": args.trials,
        "seed": args.seed,
    }
    report = analysis.capacity_experiment(
        args.n, m_values, trials=args.trials, seed=args.seed, workers=args.workers
    )
    payload = {
        "n": report.n,
        "trials": args.trials,
        "rows": [dataclasses.asdict(row) for row in report.rows],
        "threshold_capacity_ratio": report.threshold_capacity_ratio,
        "threshold_rule": "largest m/n with per-bit stability >= 0.99",
        "definitions": {
            "per_bit_instability": "fraction of memory components flipped by one synchronous pass",
            "all_stable_fraction": "fraction of trials where every memory is an exact fixed point",
        },
    }
    return formats.document("report", "capacity", config, result=payload)


def _run_collapse(args) -> dict:
    from . import quantum

    if args.count_levels is not None:
        if args.samples is not None or args.seed is not None:
            raise ParameterError("--samples and --seed only apply to amplitude sampling")
        config = {
            "count_levels": args.count_levels,
            "list_cases": bool(args.list_cases),
            "seed": None,
        }
        distinct = quantum.reorg_count(args.count_levels)
        # the full table is only materialized when the caller wants it listed
        cases = None
        if args.list_cases:
            cases = [list(c) for c in quantum.enumerate_reorganizations(args.count_levels).cases]
        payload = {
            "n_levels": args.count_levels,
            "raw_case_count": 2 * distinct,
            "distinct_count": distinct,
            "cases": cases,
        }
        return formats.document("report", "collapse", config, result=payload)

    if args.list_cases:
        raise ParameterError("--list-cases only applies to --count-levels")
    if args.seed is None:
        raise ParameterError("collapse sampling needs an explicit --seed")
    if args.samples is None:
        raise ParameterError("collapse sampling needs --samples")
    amps = quantum.as_amplitudes(_parse_list(args.amps, "amps", float))
    config = {
        "amps": amps.tolist(),
        "samples": args.samples,
        "seed": args.seed,
    }
    samples = quantum.collapse_sample(amps, args.seed, args.samples)
    counts = np.bincount(samples, minlength=amps.size)
    payload = {
        "k": int(amps.size),
        "probabilities": (amps * amps).tolist(),
        "samples": samples.tolist(),
        "counts": counts.tolist(),
        "frequencies": (counts / samples.size).tolist(),
    }
    return formats.document("report", "collapse", config, result=payload)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="assocmem",
        description="Feedback associative-memory lab: train, recall, spread, enumerate, measure.",
    )
    parser.add_argument("--version", action="version", version=f"assocmem {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="build outer-product weights from a memory file")
    train.add_argument("--memories", required=True, help="memory file, one bipolar vector per line")
    train.add_argument("--out", required=True, help="path for the weights document")
    train.set_defaults(run=_run_train)

    recall = sub.add_parser("recall", help="iterate recall dynamics from a start state")
    recall.add_argument("--weights", required=True, help="weights document")
    recall.add_argument("--state", required=True, help="inline state, e.g. 1,-1,1,1")
    recall.add_argument("--async", dest="asynchronous", action="store_true",
                        help="update one neuron at a time instead of whole passes")
    recall.add_argument("--schedule", choices=("random", "cyclic"), default=None,
                        help="asynchronous update order, with --async only (default random, needs --seed)")
    recall.add_argument("--passes", type=_int, default=None, help="pass budget (default 10n)")
    recall.add_argument("--seed", type=_int, default=None, help="seed for the random schedule")
    recall.add_argument("--out", default=None, help="report path (default stdout)")
    recall.set_defaults(run=_run_recall)

    spread = sub.add_parser("spread", help="spreading-activity retrieval from a fragment")
    spread.add_argument("--weights", required=True, help="weights document")
    spread.add_argument("--proximity", default=None, help="proximity file (default index order)")
    spread.add_argument("--start", required=True, help="1-based index:value pairs, e.g. 1:+1,4:-1")
    spread.add_argument("--memories", default=None, help="memory file for match reporting")
    spread.add_argument("--out", default=None, help="report path (default stdout)")
    spread.set_defaults(run=_run_spread)

    fixed = sub.add_parser("fixed-points", help="enumerate all fixed points exhaustively")
    fixed.add_argument("--weights", required=True, help="weights document")
    fixed.add_argument("--memories", default=None, help="memory file for the census")
    fixed.add_argument("--limit", type=_int, default=ENUMERATION_LIMIT,
                       help="largest n to enumerate (default 20)")
    fixed.add_argument("--out", default=None, help="report path (default stdout)")
    fixed.set_defaults(run=_run_fixed_points)

    capacity = sub.add_parser("capacity", help="Monte Carlo capacity sweep")
    capacity.add_argument("--n", type=_int, required=True, help="neuron count (>= 10)")
    capacity.add_argument("--m-list", required=True, help="comma-separated memory counts")
    capacity.add_argument("--trials", type=_int, required=True, help="trials per m (>= 50)")
    capacity.add_argument("--seed", type=_int, required=True, help="experiment seed")
    capacity.add_argument("--workers", type=_int, default=1, help="thread workers (default 1)")
    capacity.add_argument("--out", default=None, help="report path (default stdout)")
    capacity.set_defaults(run=_run_capacity)

    collapse = sub.add_parser("collapse", help="squared-amplitude sampling or case counting")
    which = collapse.add_mutually_exclusive_group(required=True)
    which.add_argument("--amps", default=None, help="comma-separated amplitudes, e.g. 0.6,0.8")
    which.add_argument("--count-levels", type=_int, default=None,
                       help="count distinct cases for an n-point amplitude grid")
    collapse.add_argument("--samples", type=_int, default=None, help="number of draws")
    collapse.add_argument("--seed", type=_int, default=None, help="sampling seed")
    collapse.add_argument("--list-cases", action="store_true",
                          help="embed the case table in the count report")
    collapse.add_argument("--out", default=None, help="report path (default stdout)")
    collapse.set_defaults(run=_run_collapse)

    return parser


def _attach_signed_values(argv: list[str]) -> list[str]:
    """Rewrite "--state -1,1" as "--state=-1,1".

    argparse reads a separate value that starts with "-" as an unknown
    option. Only a value that starts with "-" and a digit or "." is
    attached, so "--state --async" is still a missing value.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _SIGNED_OPTIONS and re.match(r"-[\d.]", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_signed_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        doc = args.run(args)
        text = formats.render_document(doc)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return EXIT_OK
    except formats.ParseError as exc:
        print(f"assocmem: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DimensionMismatch as exc:
        print(f"assocmem: dimension mismatch: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except (ParameterError, ValidationError) as exc:
        print(f"assocmem: invalid parameter: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except OSError as exc:
        print(f"assocmem: cannot read or write: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
