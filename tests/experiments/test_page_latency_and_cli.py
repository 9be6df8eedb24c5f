"""Small-size tests for the CLI surface: the kept subcommands and no others."""

from __future__ import annotations

import re

import pytest

from repro.cli import main

SUBCOMMANDS = (
    "table1", "figure2", "section5", "e2e", "metrics",
    "sweeps", "bench", "trace", "lint",
)


class TestCLI:
    def test_table1_subcommand(self, capsys):
        assert main(["table1", "--trials", "20"]) == 0
        output = capsys.readouterr().out
        assert "Starting Train" in output
        assert "Mixed" in output

    def test_section5_subcommand(self, capsys):
        assert main(["section5", "--replications", "3"]) == 0
        output = capsys.readouterr().out
        assert "tracking load" in output

    def test_metrics_subcommand(self, capsys):
        assert main(["metrics", "--users", "2", "--duration", "60"]) == 0
        output = capsys.readouterr().out
        values = dict(re.findall(r"^  ([a-z_.]+): (\S+)$", output, re.MULTILINE))
        for name in ("sim.events_fired", "bt.scan.responses_sent", "lan.messages_sent"):
            assert int(values[name]) > 0, name

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0

    def test_help_lists_exactly_the_subcommands(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        choices = re.search(r"\{([a-z0-9,]+)\}", capsys.readouterr().out)
        assert choices is not None
        assert tuple(choices.group(1).split(",")) == SUBCOMMANDS

    @pytest.mark.parametrize("retired", ["pages", "policies", "serving", "plan"])
    def test_retired_subcommand_is_a_usage_error(self, retired):
        with pytest.raises(SystemExit) as excinfo:
            main([retired])
        assert excinfo.value.code == 2
