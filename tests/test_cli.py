"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import SUBCOMMANDS, main

JOIN_SQL = (
    "SELECT * FROM sales, customer "
    "WHERE sales.customer_id = customer.customer_id"
)


class _Built(Exception):
    """Raised by a patched generator once it has seen its config."""


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

    def test_advisor_is_not_a_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["advisor"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'advisor'" in capsys.readouterr().err


class TestOptionsReachTheirTarget:
    """Every flag set off its default changes what the command builds."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "--sql", JOIN_SQL, "--scale", "0.05", "--seed", "7"],
            ["explain", JOIN_SQL, "--scale", "0.05", "--seed", "7"],
            ["figures", "--scale", "0.05", "--seed", "7"],
        ],
        ids=["estimate", "explain", "figures"],
    )
    def test_scale_and_seed_reach_the_database(self, argv, monkeypatch):
        seen = []

        def generate(config):
            seen.append(config)
            raise _Built

        monkeypatch.setattr("repro.workload.snowflake.generate_snowflake", generate)
        with pytest.raises(_Built):
            main(argv)
        assert (seen[0].scale, seen[0].seed) == (0.05, 7)

    def test_explain_backend_answers(self, capsys):
        assert main(["explain", JOIN_SQL, "--scale", "0.05", "--backend", "sample", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] == "sample"
        assert payload["error_bound"] is not None

    def test_catalog_load_serves_the_saved_file(self, tmp_path, capsys):
        path = str(tmp_path / "catalog.json")
        args = ["--path", path, "--scale", "0.05", "--seed", "11"]
        assert main(["catalog", "save", *args, "--queries", "2"]) == 0
        saved = int(capsys.readouterr().out.split()[1])
        # a load builds nothing, whatever --queries says
        assert main(["catalog", "load", *args, "--queries", "5"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["sits"] == saved
        assert "building" not in captured.err

    def test_serve_flags_build_the_service(self, monkeypatch):
        import repro.workload.fixture as fixture

        built, served = [], []
        real = fixture.snowflake_fixture

        def snowflake(*args, **kwargs):
            built.append((args, kwargs))
            return real(*args, **kwargs)

        def run_server(service, host, port, ready=None):
            served.append((service, host, port))
            service.close()

        monkeypatch.setattr(fixture, "snowflake_fixture", snowflake)
        monkeypatch.setattr("repro.service.run_server", run_server)
        argv = ["--scale", "0.05", "--seed", "11", "--queries", "2"]
        flags = ["--workers", "1", "--host", "localhost", "--port", "0", "--backend", "bn"]
        assert main(["serve", *argv, *flags]) == 0
        assert built == [((0.05, 11, 2), {"path": None})]
        ((service, host, port),) = served
        assert (host, port) == ("localhost", 0)
        assert service.config.workers == 1
        assert service.config.backend == "bn"


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
