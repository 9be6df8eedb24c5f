"""Harnesses regenerating every result in the paper's evaluation.

* ``table1`` — the §4.1 discovery-time table (hardware experiment)
* ``figure2`` — the §4.2 multi-slave discovery-probability curves
* ``section5`` — the scheduling-policy numbers of the conclusions
* ``e2e`` — the full BIPS system under walking users (extension)
* ``sweep`` — ablations over the modelling choices
"""

# bipsbench/workloads.py imports these six through the package.
from .duty_cycle import Section5Config, run_section5
from .figure2 import Figure2Config, run_figure2
from .table1 import Table1Config, run_table1
