"""Tests for the command-line interface (python -m repro)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.obs.history import WorkloadHistory, set_history
from repro.storage.disk import load_catalog, save_catalog


@pytest.fixture()
def paper_data_dir(tmp_path, paper_catalog):
    """The paper's example catalog saved to disk for CLI commands."""
    root = tmp_path / "paper"
    save_catalog(paper_catalog, root)
    return str(root)


PAPER_SQL = (
    "SELECT t.title FROM title AS t "
    "JOIN movie_info_idx AS mi_idx ON t.id = mi_idx.movie_id "
    "WHERE (t.production_year > 2000 AND mi_idx.info > 7.0) "
    "   OR (t.production_year > 1980 AND mi_idx.info > 8.0)"
)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "synthetic"])

    def test_query_rejects_unknown_planner(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["query", "--data", "x", "--sql", "SELECT", "--planner", "nope"]
            )


class TestGenerate:
    def test_generate_synthetic(self, tmp_path, capsys):
        out = tmp_path / "synthetic"
        code = main(
            ["generate", "synthetic", "--out", str(out), "--table-size", "200", "--seed", "1"]
        )
        assert code == 0
        assert "wrote 3 tables" in capsys.readouterr().out
        catalog = load_catalog(out)
        assert set(catalog.table_names) == {"T0", "T1", "T2"}

    def test_generate_fuzz_schema(self, tmp_path, capsys):
        out = tmp_path / "fuzz"
        code = main(
            [
                "generate",
                "fuzz",
                "--out",
                str(out),
                "--table-size",
                "50",
                "--dimensions",
                "3",
            ]
        )
        assert code == 0
        catalog = load_catalog(out)
        assert set(catalog.table_names) == {"F", "D1", "D2", "D3"}

    def test_generate_imdb(self, tmp_path, capsys):
        out = tmp_path / "imdb"
        code = main(["generate", "imdb", "--out", str(out), "--scale", "0.01", "--seed", "2"])
        assert code == 0
        catalog = load_catalog(out)
        assert "title" in catalog and "movie_info_idx" in catalog


class TestQueryAndExplain:
    def test_query_prints_rows_and_timing(self, paper_data_dir, capsys):
        code = main(
            ["query", "--data", paper_data_dir, "--sql", PAPER_SQL, "--planner", "tcombined"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "The Dark Knight" in output
        assert "4 rows" in output
        assert "planner=tcombined" in output

    def test_query_with_metrics(self, paper_data_dir, capsys):
        code = main(["query", "--data", paper_data_dir, "--sql", PAPER_SQL, "--metrics"])
        assert code == 0
        output = capsys.readouterr().out
        assert "predicate_rows_evaluated" in output

    def test_query_max_rows_truncates(self, paper_data_dir, capsys):
        sql = "SELECT t.title FROM title AS t"
        code = main(["query", "--data", paper_data_dir, "--sql", sql, "--max-rows", "2"])
        assert code == 0
        assert "more rows" in capsys.readouterr().out

    def test_explain_prints_plan(self, paper_data_dir, capsys):
        code = main(
            ["explain", "--data", paper_data_dir, "--sql", PAPER_SQL, "--planner", "tpushdown"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Scan(title AS t)" in output
        assert "Join" in output

    def test_query_aggregate_sql(self, paper_data_dir, capsys):
        sql = (
            "SELECT t.production_year, COUNT(*) FROM title AS t "
            "JOIN movie_info_idx AS mi_idx ON t.id = mi_idx.movie_id "
            "GROUP BY t.production_year ORDER BY COUNT(*) DESC LIMIT 3"
        )
        code = main(["query", "--data", paper_data_dir, "--sql", sql])
        assert code == 0
        assert "COUNT(*)" in capsys.readouterr().out


class TestCompare:
    def test_compare_reports_speedups(self, paper_data_dir, capsys):
        code = main(
            [
                "compare",
                "--data",
                paper_data_dir,
                "--sql",
                PAPER_SQL,
                "--planners",
                "tcombined",
                "bdisj",
                "bpushconj",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "tcombined" in output and "bdisj" in output and "bpushconj" in output
        first = next(line for line in output.splitlines() if line.startswith("tcombined"))
        assert first.split()[1] == "4" and first.split()[-1] == "1.00x"
        assert "speedup" in output

    def test_compare_warms_up_then_times_one_pass(self, paper_data_dir, capsys):
        class Log(WorkloadHistory):
            def record_query(self, record, trace=None):
                planners.append(record.planner)
                return []

        planners: list[str] = []
        previous = set_history(Log(detect_regressions=False))
        try:
            code = main(
                ["compare", "--data", paper_data_dir, "--sql", PAPER_SQL,
                 "--planners", "tcombined", "bdisj"]
            )
        finally:
            set_history(previous)
        assert code == 0
        assert planners == ["tcombined", "bdisj"] * 2


class TestFuzz:
    def test_fuzz_campaign_agrees(self, capsys):
        code = main(
            [
                "fuzz",
                "--queries",
                "2",
                "--seed",
                "11",
                "--table-size",
                "60",
                "--planners",
                "tcombined",
                "bdisj",
                "bpushconj",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "2/2 queries agreed" in output


class TestFigures:
    def test_figures_delegates(self, capsys):
        code = main(
            ["figures", "fig4a", "--quick"]
        )
        assert code == 0
        assert "selectivity" in capsys.readouterr().out.lower()


class TestSplitStatements:
    def test_splits_on_semicolons_and_drops_comments(self):
        from repro.cli import split_statements

        text = "-- a comment\nSELECT 1;\n\nSELECT 2 ;"
        assert split_statements(text) == ["SELECT 1", "SELECT 2"]

    def test_semicolon_inside_string_literal_is_preserved(self):
        from repro.cli import split_statements

        sql = "SELECT * FROM t AS t WHERE t.name LIKE '%;%'"
        assert split_statements(sql + ";" + sql) == [sql, sql]

    def test_escaped_quote_inside_literal(self):
        from repro.cli import split_statements

        sql = "SELECT * FROM t AS t WHERE t.name = 'it''s;fine'"
        assert split_statements(sql + ";") == [sql]

    def test_trailing_comment_after_terminator_is_not_a_statement(self):
        from repro.cli import split_statements

        assert split_statements("SELECT 1; -- warm-up\n") == ["SELECT 1"]
        assert split_statements("SELECT 1 -- inline note\n; SELECT 2") == [
            "SELECT 1",
            "SELECT 2",
        ]

    def test_scan_statements_keeps_unterminated_tail(self):
        from repro.cli import scan_statements

        statements, tail = scan_statements("SELECT 1; SELECT 2 WHERE x LIKE '%;%'")
        assert statements == ["SELECT 1"]
        assert tail.strip() == "SELECT 2 WHERE x LIKE '%;%'"


class TestServe:
    def _dataset(self, tmp_path):
        root = tmp_path / "data"
        assert main(
            ["generate", "synthetic", "--out", str(root), "--table-size", "120"]
        ) == 0
        return str(root)

    def test_serve_buffers_multiline_statement_until_terminator(
        self, tmp_path, capsys, monkeypatch
    ):
        import io

        data = self._dataset(tmp_path)
        capsys.readouterr()
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO("SELECT T0.id FROM T0\nWHERE T0.A1 < 0.5;\n\\stats\n\\quit\n"),
        )
        assert main(["serve", "--data", data]) == 0
        out = capsys.readouterr().out
        assert "[plan cache miss | " in out
        assert "s elapsed]" in out
        assert "plan_cache" in out  # \stats table

    def test_serve_runs_unterminated_statement_at_eof(
        self, tmp_path, capsys, monkeypatch
    ):
        import io

        data = self._dataset(tmp_path)
        capsys.readouterr()
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("SELECT T0.id FROM T0 WHERE T0.A1 < 0.5")
        )
        assert main(["serve", "--data", data]) == 0
        assert "[plan cache miss | " in capsys.readouterr().out
