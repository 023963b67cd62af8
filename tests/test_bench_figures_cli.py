"""Tests for the figure-regeneration command line interface."""

import pytest

from repro.bench import figures
from repro.bench.figures import FIGURES, parse_args, point_values


class TestFiguresCli:
    def test_quick_runs_groups_1_to_12_with_3_passes(self):
        args = parse_args(["fig3a", "--quick", "--scale", "0.02"])
        assert args.repetitions == 3
        assert args.scale == pytest.approx(0.02)
        assert point_values(FIGURES["fig3a"], args) == list(range(1, 13))
        assert point_values(FIGURES["fig3a"], parse_args(["fig3a"])) == list(range(1, 34))

    def test_explicit_groups_override_quick(self):
        args = parse_args(["fig3b", "--quick", "--groups", "5", "6"])
        assert point_values(FIGURES["fig3b"], args) == [5, 6]

    def test_quick_sweeps(self):
        quick = parse_args(["fig4c", "--quick"])
        assert point_values(FIGURES["fig4c"], quick) == [2, 3, 4]
        assert point_values(FIGURES["fig4c"], parse_args(["fig4c"])) == [2, 3, 4, 5, 6, 7]
        assert point_values(FIGURES["fig4b"], quick) == [1_000, 2_000, 5_000]
        sizes = parse_args(["fig4b", "--quick", "--sizes", "300"])
        assert point_values(FIGURES["fig4b"], sizes) == [300]

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            figures.main(["fig9x"])

    def test_all_runs_every_figure(self, capsys):
        figures.main(
            [
                "all", "--quick", "--groups", "1", "--scale", "0.01",
                "--sizes", "300", "--table-size", "300", "--repetitions", "2",
            ]
        )
        out = capsys.readouterr().out
        titles = [line for line in out.splitlines() if line.startswith("Figure ")]
        assert len(titles) == len(FIGURES) == 9
        assert all("2 passes" in title and "unresolved)" in title for title in titles)
        assert "Figure 3c: bpushconj vs tmin" in out
        assert "Figure generalization: tpushdown-naive vs tpushdown" in out
        assert "total ratio [q1-q3]" in out and "exec ratio [q1-q3]" in out
