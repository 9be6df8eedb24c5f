"""Parallel, deterministic experiment execution.

The paper's evaluation is Monte-Carlo: hundreds of independent
discovery trials per table cell.  This package fans those trials out
over ``multiprocessing`` workers without giving up reproducibility:

* :mod:`repro.runner.seeding` derives a child seed per
  ``(experiment, config-hash, trial-index)``, so a trial's random
  stream depends only on *what* is being computed — never on which
  worker computes it or in what order;
* :mod:`repro.runner.executor` maps trial functions over serial or
  process pools, always returning results in trial-index order, so the
  parallel path is byte-identical to the serial one.
"""
