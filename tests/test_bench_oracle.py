"""The TMin oracle of Figure 3c: an offline bench helper, not a planner."""

from __future__ import annotations

import re

import pytest

from repro.bench import TMIN_CANDIDATES, PlannerTimes, time_planners
from repro.bench.figures import FIGURES, factor_query
from repro.cli import build_parser
from repro.engine.session import PLANNERS
from repro.workloads.job import job_query


def test_not_part_of_tmin_candidates():
    assert "texhaustive" not in TMIN_CANDIDATES


class TestTmin:
    def test_fig3c_times_the_baseline_and_every_candidate(self, imdb_catalog):
        figure = FIGURES["fig3c"]
        assert (figure.baseline, figure.tagged, figure.tagged_name) == (
            "bpushconj", TMIN_CANDIDATES, "tmin"
        )
        times = time_planners(
            imdb_catalog, factor_query(job_query(1)), (figure.baseline, *figure.tagged), 1
        )
        assert set(times.totals) == {"bpushconj", *TMIN_CANDIDATES}
        assert times.fastest(figure.tagged) in TMIN_CANDIDATES

    def test_keeps_the_lowest_median_total(self):
        # b's mean (0.37) is above a's, its median (0.1) below.
        times = PlannerTimes(totals={"a": [0.3, 0.3, 0.3], "b": [0.1, 0.9, 0.1], "c": [0.2] * 3})
        assert times.fastest(("a", "b", "c")) == "b"
        assert times.fastest(("a", "c")) == "c"


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
