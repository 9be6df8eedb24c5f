"""Figure 2 and e2e CLI subcommand coverage (fast parameterisations)."""

from __future__ import annotations

from repro.cli import main


class TestCLIMore:
    def test_figure2_subcommand(self, capsys):
        assert main(["figure2", "--replications", "2"]) == 0
        output = capsys.readouterr().out
        assert "Figure 2" in output
        assert "legend" in output

    def test_e2e_subcommand(self, capsys):
        assert main(["e2e", "--users", "2", "--duration", "150"]) == 0
        output = capsys.readouterr().out
        assert "tracking accuracy" in output
