"""Argparse wiring for ``bips trace``.

Runs an experiment with span tracing threaded through the whole stack
and exports the collected spans — Chrome trace-event JSON (load the
file in Perfetto / ``chrome://tracing``) or one-record-per-line JSONL.
Kept beside the tracer so the main CLI only grows two hooks
(:func:`add_trace_parser`, :func:`run_trace`), mirroring ``bips bench``.

Examples::

    bips trace --sample 1.0 --format chrome --out results/trace/e2e.json
    bips trace --experiment table1 --trials 20 --jobs 2
    bips trace --faults office-chaos --flight-recorder
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Optional

from repro.obs.flight import FlightRecorder
from repro.obs.tracing import (
    CATEGORY_TIDS,
    SpanTracer,
    merge_worker_spans,
    write_chrome_trace,
    write_spans_jsonl,
)

#: Where trace exports and flight-recorder dumps land by default.
DEFAULT_TRACE_DIR = "results/trace"


def add_trace_parser(
    subparsers: "argparse._SubParsersAction[argparse.ArgumentParser]",
) -> None:
    """Register the ``trace`` subcommand on the main CLI."""
    from repro.faults.profiles import profile_names

    trace = subparsers.add_parser(
        "trace",
        help="run an experiment with causal span tracing and export the "
        "trace (see docs/observability.md)",
    )
    trace.add_argument(
        "--experiment",
        choices=("e2e", "table1"),
        default="e2e",
        help="what to trace: the full-system run (all four span layers) "
        "or the discovery-time trials (kernel + bluetooth)",
    )
    trace.add_argument(
        "--sample",
        type=float,
        default=1.0,
        metavar="RATE",
        help="root-span sampling rate in [0, 1]; sampling is deterministic "
        "in the seed (default 1.0 = keep everything)",
    )
    trace.add_argument(
        "--format",
        choices=("chrome", "jsonl"),
        default="chrome",
        help="chrome = Perfetto-loadable trace-event JSON; jsonl = one "
        "span record per line",
    )
    trace.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help=f"output file (default: {DEFAULT_TRACE_DIR}/trace-<experiment>"
        ".json|.jsonl)",
    )
    trace.add_argument(
        "--flight-recorder",
        action="store_true",
        help="keep a ring buffer of recent spans and dump it when a "
        "workstation fails or the server browns out",
    )
    trace.add_argument("--seed", type=int, default=None, help="experiment seed")
    trace.add_argument(
        "--faults",
        choices=profile_names(),
        default="none",
        metavar="PROFILE",
        help="fault profile to inject while tracing",
    )
    trace.add_argument("--fault-seed", type=int, default=0, metavar="SEED")
    # e2e knobs (small defaults: a trace is a magnifying glass, not a survey).
    trace.add_argument("--users", type=int, default=4, help="e2e: walking users")
    trace.add_argument(
        "--duration", type=float, default=120.0, help="e2e: simulated seconds"
    )
    # table1 knobs.
    trace.add_argument("--trials", type=int, default=20, help="table1: trial count")
    trace.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="table1: worker processes (the merged trace is byte-identical "
        "for every N)",
    )


def _trace_e2e(args: argparse.Namespace) -> tuple[list[dict[str, Any]], Optional[FlightRecorder]]:
    from repro.experiments.e2e import E2EConfig, run_e2e

    flight = None
    if args.flight_recorder:
        flight = FlightRecorder(out_dir=DEFAULT_TRACE_DIR)
        flight.arm("core.workstation_failed", "core.server_brownout")
    config = E2EConfig(
        user_count=args.users,
        duration_seconds=args.duration,
        seed=args.seed if args.seed is not None else E2EConfig().seed,
        faults=args.faults,
        fault_seed=args.fault_seed,
    )
    spans = SpanTracer(seed=config.seed, sample=args.sample, recorder=flight)
    run_e2e(config, spans=spans)
    return spans.records(), flight


def _trace_table1(args: argparse.Namespace) -> tuple[list[dict[str, Any]], Optional[FlightRecorder]]:
    from repro.experiments.table1 import EXPERIMENT, Table1Config, trial_payload
    from repro.runner.executor import ExperimentRunner

    config = Table1Config(
        trials=args.trials,
        seed=args.seed if args.seed is not None else Table1Config().seed,
        faults=args.faults,
        fault_seed=args.fault_seed,
        trace=True,
        trace_sample=args.sample,
    )
    runner = ExperimentRunner(jobs=args.jobs)
    payloads = runner.map_trials(EXPERIMENT, config, trial_payload, config.trials)
    return merge_worker_spans([payload["spans"] for payload in payloads]), None


def run_trace(args: argparse.Namespace) -> int:
    """The ``bips trace`` subcommand; returns the process exit code."""
    if not 0.0 <= args.sample <= 1.0:
        print(f"bips trace: --sample out of range: {args.sample}", file=sys.stderr)
        return 2
    if args.experiment == "e2e":
        records, flight = _trace_e2e(args)
    else:
        records, flight = _trace_table1(args)

    suffix = "json" if args.format == "chrome" else "jsonl"
    out = args.out or os.path.join(
        DEFAULT_TRACE_DIR, f"trace-{args.experiment}.{suffix}"
    )
    out_dir = os.path.dirname(out)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    if args.format == "chrome":
        count = write_chrome_trace(out, records, process_name=f"bips {args.experiment}")
    else:
        count = write_spans_jsonl(out, records)

    layers = sorted(
        {record["cat"] for record in records},
        key=lambda cat: CATEGORY_TIDS.get(cat, 99),
    )
    print(f"wrote {count} spans to {out} (layers: {', '.join(layers) or 'none'})")
    if flight is not None:
        if flight.dumps:
            for path in flight.dumps:
                print(f"flight recorder dumped: {path}")
        else:
            print("flight recorder armed; no fault fired, no dump written")
    return 0
