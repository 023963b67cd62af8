"""The TMin oracle of Figure 3c: an offline bench helper, not a planner."""

from __future__ import annotations

import re

import pytest

from repro.bench import TMIN_CANDIDATES, run_job_figure, runner, time_fastest
from repro.cli import build_parser
from repro.engine.session import PLANNERS


def test_not_part_of_tmin_candidates():
    assert "texhaustive" not in TMIN_CANDIDATES


class TestTimeFastest:
    def test_fig3c_row_count_equals_baseline(self, imdb_session):
        figure = run_job_figure("3c", groups=[1], repetitions=1, session=imdb_session)
        (row,) = figure.rows
        assert figure.tagged_planner == row.tagged.planner == "tmin"
        assert row.tagged.row_count == row.baseline.row_count

    @staticmethod
    def _fake_times(monkeypatch, seconds: dict[str, float], rows: dict[str, int]):
        def fake_time_query(session, query, planner, repetitions=3, naive_tags=False):
            return runner.BenchmarkMeasurement(
                planner, "q", repetitions, seconds[planner], seconds[planner], 0.0, rows[planner]
            )

        monkeypatch.setattr(runner, "time_query", fake_time_query)

    def test_keeps_the_fastest_mean(self, monkeypatch):
        self._fake_times(monkeypatch, {"a": 0.3, "b": 0.1, "c": 0.2}, {"a": 5, "b": 5, "c": 5})
        fastest = time_fastest(None, None, ("a", "b", "c"), 2)
        assert (fastest.planner, fastest.total_seconds, fastest.repetitions) == ("tmin", 0.1, 2)

    def test_disagreeing_candidates_raise(self, paper_query, monkeypatch):
        self._fake_times(monkeypatch, {"a": 0.1, "b": 0.2}, {"a": 4, "b": 5})
        with pytest.raises(AssertionError, match="disagree"):
            time_fastest(None, paper_query, ("a", "b"), 1)


@pytest.mark.parametrize("name", ("tmin", "bypass"))
class TestRemovedPlannersAreUnknown:
    def test_session_rejects(self, paper_session, paper_query_sql, name):
        message = f"unknown planner '{name}'; choose one of {', '.join(PLANNERS)}"
        for call in (paper_session.prepare, paper_session.execute, paper_session.explain):
            with pytest.raises(ValueError, match=re.escape(message)):
                call(paper_query_sql, planner=name)

    def test_cli_rejects(self, name):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["query", "--data", "x", "--sql", "SELECT", "--planner", name]
            )
