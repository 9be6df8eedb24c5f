"""Command-line entry points: regenerate any paper result from a shell.

Installed as ``bips`` (and reachable as ``python -m repro``)::

    bips table1 --trials 500
    bips figure2 --replications 60
    bips section5
    bips e2e --users 8 --duration 600
    bips sweeps --fast --jobs 4
    bips metrics --duration 300
    bips table1 --trials 100 --metrics-out metrics.jsonl
    bips figure2 --jobs 8
    bips trace --sample 1.0 --format chrome
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.experiments.duty_cycle import Section5Config, run_section5
from repro.experiments.e2e import E2EConfig, run_e2e
from repro.experiments.figure2 import Figure2Config, run_figure2
from repro.experiments.sweep import run_all_sweeps
from repro.experiments.table1 import Table1Config, run_table1
from repro.obs.metrics import MetricsRegistry
from repro.runner import ExperimentRunner


def _add_metrics_out(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write a metrics snapshot to PATH as JSON lines after the run",
    )


def _add_fault_args(subparser: argparse.ArgumentParser) -> None:
    """Fault-injection flags (chaos runs; see docs/fault-injection.md)."""
    from repro.faults import profile_names

    subparser.add_argument(
        "--faults",
        choices=profile_names(),
        default="none",
        metavar="PROFILE",
        help=f"fault profile to inject (one of: {', '.join(profile_names())})",
    )
    subparser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        metavar="SEED",
        help="seed of the fault plan's own random streams (the simulation "
        "seed is untouched, so a chaos run perturbs delivery, not draws)",
    )


def _add_runner_args(subparser: argparse.ArgumentParser) -> None:
    """Trial fan-out flag (Monte-Carlo experiments)."""
    subparser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for trial fan-out (1 = serial; results are "
        "byte-identical for every N)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bips",
        description=(
            "Reproduction of 'Experimenting an Indoor Bluetooth-based "
            "Positioning Service' (ICDCS Workshops 2003)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    table1 = subparsers.add_parser(
        "table1", help="the §4.1 device-discovery-time table"
    )
    table1.add_argument("--trials", type=int, default=500)
    table1.add_argument("--seed", type=int, default=Table1Config().seed)
    _add_fault_args(table1)
    _add_runner_args(table1)
    _add_metrics_out(table1)

    figure2 = subparsers.add_parser(
        "figure2", help="Figure 2: discovery probability vs time, 2-20 slaves"
    )
    figure2.add_argument("--replications", type=int, default=60)
    figure2.add_argument("--seed", type=int, default=Figure2Config().seed)
    _add_runner_args(figure2)
    _add_metrics_out(figure2)

    section5 = subparsers.add_parser(
        "section5", help="the §5 scheduling-policy numbers"
    )
    section5.add_argument("--replications", type=int, default=100)
    section5.add_argument("--seed", type=int, default=Section5Config().seed)
    _add_runner_args(section5)
    _add_metrics_out(section5)

    e2e = subparsers.add_parser(
        "e2e", help="full-system run: tracking accuracy under walking users"
    )
    e2e.add_argument("--users", type=int, default=8)
    e2e.add_argument("--duration", type=float, default=600.0, help="simulated seconds")
    e2e.add_argument("--seed", type=int, default=E2EConfig().seed)
    _add_fault_args(e2e)
    _add_metrics_out(e2e)

    metrics = subparsers.add_parser(
        "metrics",
        help="run a small full-system simulation and print the metrics scoreboard",
    )
    metrics.add_argument("--users", type=int, default=4)
    metrics.add_argument("--duration", type=float, default=300.0,
                         help="simulated seconds")
    metrics.add_argument("--seed", type=int, default=E2EConfig().seed)
    _add_fault_args(metrics)
    _add_metrics_out(metrics)

    sweeps = subparsers.add_parser("sweeps", help="all design-choice ablations")
    sweeps.add_argument(
        "--fast", action="store_true", help="reduced sample sizes for a quick look"
    )
    _add_runner_args(sweeps)
    _add_metrics_out(sweeps)

    from repro.bench.cli import add_bench_parser

    add_bench_parser(subparsers)

    from repro.obs.trace_cli import add_trace_parser

    add_trace_parser(subparsers)

    lint = subparsers.add_parser(
        "lint",
        help="determinism & protocol-invariant static analysis "
        "(see docs/static-analysis.md)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files/directories to lint (default: src if present, else .)",
    )
    lint.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="report format (json is the stable CI interface)",
    )
    lint.add_argument(
        "--select",
        metavar="RULES",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _write_metrics(registry: MetricsRegistry, path: Optional[str]) -> None:
    """Write the snapshot if --metrics-out was given."""
    if path is None:
        return
    records = registry.write_jsonl(path)
    print(f"wrote {records} metric records to {path}")


def _run_lint(args: argparse.Namespace) -> int:
    """The `bips lint` subcommand; returns the process exit code."""
    from repro.lint import REGISTRY, lint_paths

    if args.list_rules:
        for spec in REGISTRY:
            print(f"{spec.id}  {spec.name}: {spec.summary}")
        return 0
    paths = list(args.paths)
    if not paths:
        import os

        paths = ["src"] if os.path.isdir("src") else ["."]

    def split(value: str) -> list[str]:
        return [token.strip() for token in value.split(",") if token.strip()]

    try:
        report = lint_paths(
            paths,
            select=split(args.select) if args.select else None,
        )
    except (FileNotFoundError, KeyError) as error:
        print(f"bips lint: {error}", file=sys.stderr)
        return 2

    output = report.to_json() if args.format == "json" else report.render_text()
    sys.stdout.write(output if output.endswith("\n") else output + "\n")
    return report.exit_code


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "lint":
        return _run_lint(args)
    if args.command == "bench":
        from repro.bench.cli import run_bench

        return run_bench(args)
    if args.command == "trace":
        from repro.obs.trace_cli import run_trace

        return run_trace(args)
    if args.command == "table1":
        registry = MetricsRegistry()
        result = run_table1(
            Table1Config(
                trials=args.trials,
                seed=args.seed,
                faults=args.faults,
                fault_seed=args.fault_seed,
            ),
            metrics=registry,
            runner=ExperimentRunner(jobs=args.jobs, metrics=registry),
        )
        print(result.render())
        _write_metrics(registry, args.metrics_out)
    elif args.command == "figure2":
        registry = MetricsRegistry()
        result = run_figure2(
            Figure2Config(replications=args.replications, seed=args.seed),
            runner=ExperimentRunner(jobs=args.jobs, metrics=registry),
        )
        print(result.render())
        _write_metrics(registry, args.metrics_out)
    elif args.command == "section5":
        registry = MetricsRegistry()
        result = run_section5(
            Section5Config(replications=args.replications, seed=args.seed),
            runner=ExperimentRunner(jobs=args.jobs, metrics=registry),
        )
        print(result.render())
        _write_metrics(registry, args.metrics_out)
    elif args.command == "e2e":
        registry = MetricsRegistry()
        result = run_e2e(
            E2EConfig(
                user_count=args.users,
                duration_seconds=args.duration,
                seed=args.seed,
                faults=args.faults,
                fault_seed=args.fault_seed,
            ),
            metrics=registry,
        )
        print(result.render())
        _write_metrics(registry, args.metrics_out)
    elif args.command == "metrics":
        registry = MetricsRegistry()
        run_e2e(
            E2EConfig(
                user_count=args.users,
                duration_seconds=args.duration,
                seed=args.seed,
                faults=args.faults,
                fault_seed=args.fault_seed,
            ),
            metrics=registry,
        )
        print(registry.render_scoreboard("BIPS pipeline metrics"))
        _write_metrics(registry, args.metrics_out)
    elif args.command == "sweeps":
        registry = MetricsRegistry()
        for sweep in run_all_sweeps(
            fast=args.fast, runner=ExperimentRunner(jobs=args.jobs, metrics=registry)
        ):
            print(sweep.render())
            print()
        _write_metrics(registry, args.metrics_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
