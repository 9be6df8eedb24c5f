"""Tracked performance benchmarks (the ``bips bench`` subcommand).

Pure-stdlib timing harness + a pinned two-case suite (the kernel's
event queue and one dense piconet), judged against a git revision
timed in alternating pairs on the same host (the CI regression gate).
Layout:

* :mod:`repro.bench.harness` — timing, statistics, sides and pairs;
* :mod:`repro.bench.suite` — the pinned workloads;
* :mod:`repro.bench.report` — the paired verdict, ``BENCH_<rev>.json``
  and its rendering;
* :mod:`repro.bench.cli` — argparse wiring for ``bips bench``.

This package is host-facing tooling, not simulation code: it may read
wall clocks (outside the DET002 scope) and its times are explicitly
machine-dependent — only a head/parent ratio from one host is compared.
"""
