"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import SUBCOMMANDS, main


class TestCLI:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "SIGMOD 2004" in out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "true cardinality" in out
        assert "GS-Diff" in out

    def test_estimate(self, capsys):
        sql = (
            "SELECT * FROM sales, customer "
            "WHERE sales.customer_id = customer.customer_id "
            "AND customer.age BETWEEN 20 AND 40"
        )
        assert main(["estimate", "--sql", sql, "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "GS-Diff" in out
        assert "true" in out

    def test_explain_text(self, capsys):
        sql = (
            "SELECT * FROM sales, customer "
            "WHERE sales.customer_id = customer.customer_id "
            "AND customer.age BETWEEN 20 AND 40"
        )
        assert main(["explain", sql, "--scale", "0.05", "--error", "diff"]) == 0
        out = capsys.readouterr().out
        assert "EXPLAIN ESTIMATE" in out
        assert "decomposition" in out
        assert "SIT(" in out

    def test_explain_json(self, capsys):
        import json

        sql = (
            "SELECT * FROM sales, customer "
            "WHERE sales.customer_id = customer.customer_id"
        )
        assert main(["explain", sql, "--scale", "0.05", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["estimator"] == "GS-Diff"
        assert payload["factors"]
        for factor in payload["factors"]:
            assert {"factor", "selectivity", "error_contribution"} <= set(factor)

    def test_explain_nind_error_function(self, capsys):
        sql = (
            "SELECT * FROM sales, customer "
            "WHERE sales.customer_id = customer.customer_id"
        )
        command = ["explain", sql, "--scale", "0.05", "--error", "nind"]
        assert main(command) == 0
        out = capsys.readouterr().out
        assert "engine=bitmask" in out
        assert "error=nInd" in out

    def test_explain_has_no_engine_switch(self):
        sql = "SELECT * FROM sales WHERE sales.quantity < 5"
        with pytest.raises(SystemExit):
            main(["explain", sql, "--engine", "legacy"])

    def test_explain_sql_flag_spelling(self, capsys):
        sql = (
            "SELECT * FROM sales, customer "
            "WHERE sales.customer_id = customer.customer_id"
        )
        assert main(["explain", "--sql", sql, "--scale", "0.05"]) == 0
        assert "EXPLAIN ESTIMATE" in capsys.readouterr().out

    def test_explain_requires_sql(self):
        with pytest.raises(SystemExit):
            main(["explain"])

    def test_figures_quick(self, capsys):
        assert (
            main(["figures", "--scale", "0.05", "--queries", "2"]) == 0
        )
        out = capsys.readouterr().out
        assert "Figure 7" in out
        assert "J0" in out and "J3" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_estimate_requires_sql(self):
        with pytest.raises(SystemExit):
            main(["estimate"])


class TestSubcommandRegistry:
    def test_subcommand_set_is_pinned(self):
        assert set(SUBCOMMANDS) == {
            "info",
            "demo",
            "estimate",
            "explain",
            "figures",
            "catalog",
            "serve",
            "advisor",
        }
        for description in SUBCOMMANDS.values():
            assert description  # every entry carries a help line

    def test_top_level_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for name in SUBCOMMANDS:
            assert name in out

    @pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
    def test_each_subcommand_has_help(self, name, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([name, "--help"])
        assert excinfo.value.code == 0
        assert "usage" in capsys.readouterr().out.lower()
