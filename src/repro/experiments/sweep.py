"""Ablation sweeps over the design choices DESIGN.md §5 calls out.

Each sweep isolates one modelling decision and shows its effect on the
headline numbers, so a reader can see *why* the defaults are what they
are (and how sensitive the reproduction is to each choice).

Seeding note: every variant/window cell runs under a seed stream
derived from its *own* config digest (see :mod:`repro.runner.seeding`),
so no two cells replay the same random draws — sharing one stream
across variants silently correlates the columns being compared.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.analysis.tables import render_table
from repro.bluetooth.scan import BackoffReentry, PhaseMode, ResponseMode
from repro.runner.executor import ExperimentRunner

from .duty_cycle import Section5Config, run_section5
from .figure2 import Figure2Config, run_figure2
from .table1 import Table1Config, run_table1


@dataclass(frozen=True)
class SweepRow:
    """One configuration's headline numbers."""

    label: str
    values: tuple[float, ...]


@dataclass
class SweepResult:
    """A labelled grid of numbers with a renderer."""

    title: str
    columns: tuple[str, ...]
    rows: list[SweepRow]

    def render(self) -> str:
        """Monospace table of the sweep."""
        return render_table(
            ("variant",) + self.columns,
            [[row.label] + [f"{v:.4f}" for v in row.values] for row in self.rows],
            title=self.title,
        )

    def row(self, label: str) -> SweepRow:
        """Find a row by label."""
        for row in self.rows:
            if row.label == label:
                return row
        raise KeyError(f"no sweep row {label!r}")


def _sweep_table1(
    title: str,
    variants: Sequence[tuple[str, dict]],
    trials: int,
    seed: int,
    runner: Optional[ExperimentRunner],
) -> SweepResult:
    """Table 1's three mean discovery times under each ``(label,
    overrides)`` variant of :class:`Table1Config`."""
    rows = []
    for label, overrides in variants:
        result = run_table1(
            Table1Config(trials=trials, seed=seed, **overrides), runner=runner
        )
        rows.append(
            SweepRow(
                label=label,
                values=(
                    result.same_summary.mean,
                    result.different_summary.mean,
                    result.mixed_summary.mean,
                ),
            )
        )
    return SweepResult(
        title=title, columns=("same (s)", "different (s)", "mixed (s)"), rows=rows
    )


def sweep_table1_phase_mode(
    trials: int = 300, seed: int = 77001, runner: Optional[ExperimentRunner] = None
) -> SweepResult:
    """Ablation 6: slave listening-frequency evolution (FIXED vs SEQUENCE)."""
    return _sweep_table1(
        "Table-1 ablation: scan phase evolution",
        [(mode.value, dict(phase_mode=mode)) for mode in (PhaseMode.FIXED, PhaseMode.SEQUENCE)],
        trials,
        seed,
        runner,
    )


def sweep_table1_backoff_reentry(
    trials: int = 300, seed: int = 77002, runner: Optional[ExperimentRunner] = None
) -> SweepResult:
    """Ablation 1: where the slave listens after its backoff."""
    return _sweep_table1(
        "Table-1 ablation: backoff re-entry policy",
        [
            (reentry.value, dict(backoff_reentry=reentry))
            for reentry in (BackoffReentry.IMMEDIATE, BackoffReentry.NEXT_WINDOW)
        ],
        trials,
        seed,
        runner,
    )


def sweep_table1_scan_interleaving(
    trials: int = 300, seed: int = 77003, runner: Optional[ExperimentRunner] = None
) -> SweepResult:
    """Ablation 2: inquiry-scan-only slave vs the paper's interleaved slave."""
    return _sweep_table1(
        "Table-1 ablation: slave scan interleaving",
        [
            ("inquiry+page scan (paper)", dict(interleave_page_scan=True)),
            ("inquiry scan only", dict(interleave_page_scan=False)),
        ],
        trials,
        seed,
        runner,
    )


def sweep_figure2_contention(
    replications: int = 30,
    seed: int = 77004,
    slave_counts: Sequence[int] = (10, 20),
    runner: Optional[ExperimentRunner] = None,
) -> SweepResult:
    """Ablation 3: what each contention mechanism costs in window 1."""
    variants = [
        ("full model (paper)", dict()),
        ("no receiver capture", dict(receiver_capture=False)),
        ("no enrolment", dict(enroll_discovered=False)),
        ("backoff after every response", dict(response_mode=ResponseMode.BACKOFF_EACH)),
    ]
    base = Figure2Config(
        slave_counts=tuple(slave_counts), replications=replications, seed=seed
    )
    rows = []
    for label, overrides in variants:
        result = run_figure2(replace(base, **overrides), runner=runner)
        values = []
        for count in slave_counts:
            curve = result.curve_for(count)
            values.append(curve.probability_by(base.inquiry_window_seconds))
            values.append(
                curve.probability_by(
                    base.cycle_period_seconds + base.inquiry_window_seconds
                )
            )
        rows.append(SweepRow(label=label, values=tuple(values)))
    columns = []
    for count in slave_counts:
        columns.append(f"n={count} by w1")
        columns.append(f"n={count} by w2")
    return SweepResult(
        title="Figure-2 ablation: contention mechanisms",
        columns=tuple(columns),
        rows=rows,
    )


def sweep_inquiry_window(
    windows_seconds: Sequence[float] = (1.28, 2.56, 3.84, 5.12, 7.68, 10.24),
    slave_count: int = 20,
    replications: int = 40,
    seed: int = 77005,
    runner: Optional[ExperimentRunner] = None,
) -> SweepResult:
    """Ablation 4: discovery coverage vs inquiry-window length.

    Reproduces the reasoning behind the §5 recommendation: 3.84 s is the
    knee — below one full train dwell (2.56 s) coverage collapses, and
    beyond ~3.84 s the extra dwell buys little.
    """
    runner = runner if runner is not None else ExperimentRunner()
    rows = []
    for window in windows_seconds:
        config = Section5Config(
            slave_count=slave_count,
            replications=replications,
            seed=seed,
            inquiry_window_seconds=window,
        )
        fraction = run_section5(config, runner).discovered_fraction
        rows.append(SweepRow(label=f"{window:.2f}s", values=(fraction,)))
    return SweepResult(
        title=f"§5 ablation: inquiry window vs discovered fraction ({slave_count} slaves)",
        columns=("discovered fraction",),
        rows=rows,
    )


def run_all_sweeps(
    fast: bool = True, runner: Optional[ExperimentRunner] = None
) -> list[SweepResult]:
    """Every ablation, optionally at reduced sample sizes."""
    trials = 150 if fast else 500
    reps = 15 if fast else 60
    return [
        sweep_table1_phase_mode(trials=trials, runner=runner),
        sweep_table1_backoff_reentry(trials=trials, runner=runner),
        sweep_table1_scan_interleaving(trials=trials, runner=runner),
        sweep_figure2_contention(replications=reps, runner=runner),
        sweep_inquiry_window(replications=max(10, reps), runner=runner),
    ]
