"""Harnesses regenerating every result in the paper's evaluation.

* ``table1`` — the §4.1 discovery-time table (hardware experiment)
* ``figure2`` — the §4.2 multi-slave discovery-probability curves
* ``section5`` — the scheduling-policy numbers of the conclusions
* ``e2e`` — the full BIPS system under walking users (extension)
* ``sweep`` — ablations over the modelling choices
"""

from .duty_cycle import Section5Config, Section5Result, run_section5
from .e2e import E2EConfig, E2EResult, run_e2e
from .figure2 import Figure2Config, Figure2Curve, Figure2Result, run_figure2
from .sweep import (
    SweepResult,
    SweepRow,
    run_all_sweeps,
    sweep_figure2_contention,
    sweep_inquiry_window,
    sweep_table1_backoff_reentry,
    sweep_table1_phase_mode,
    sweep_table1_scan_interleaving,
)
from .table1 import Table1Config, Table1Result, Trial, run_table1

__all__ = [
    "Section5Config",
    "Section5Result",
    "run_section5",
    "E2EConfig",
    "E2EResult",
    "run_e2e",
    "Figure2Config",
    "Figure2Curve",
    "Figure2Result",
    "run_figure2",
    "SweepResult",
    "SweepRow",
    "run_all_sweeps",
    "sweep_figure2_contention",
    "sweep_inquiry_window",
    "sweep_table1_backoff_reentry",
    "sweep_table1_phase_mode",
    "sweep_table1_scan_interleaving",
    "Table1Config",
    "Table1Result",
    "Trial",
    "run_table1",
]
