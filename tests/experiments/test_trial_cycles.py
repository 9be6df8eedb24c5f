"""A finished paper-artefact trial is freed by reference counting alone.

A trial left in a reference cycle waits for the cyclic GC, so finished
trials pile up between collections and raise the peak RSS of every
artefact run.  Each trial here runs with the GC disabled; a collection
afterwards must find nothing to free.
"""

from __future__ import annotations

import gc

import pytest

from repro.experiments.duty_cycle import Section5Config, window_payload
from repro.experiments.figure2 import Figure2Config, cell_config, replication_payload
from repro.experiments.table1 import Table1Config, trial_payload

TRIALS = {
    "figure2": lambda: replication_payload(cell_config(Figure2Config(), 10), 0, 7),
    "section5": lambda: window_payload(Section5Config(), 0, 7),
    "table1": lambda: trial_payload(Table1Config(), 0, 7),
}


@pytest.mark.parametrize("name", sorted(TRIALS))
def test_finished_trial_leaves_no_cyclic_garbage(name):
    gc.collect()
    gc.disable()
    try:
        TRIALS[name]()
        assert gc.collect() == 0
    finally:
        gc.enable()
