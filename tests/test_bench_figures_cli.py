"""Tests for the figure-regeneration command line interface."""

import pytest

from repro.bench import figures


class TestFiguresCli:
    def test_fig4a_quick(self, capsys, monkeypatch):
        monkeypatch.setattr(figures, "run_selectivity_sweep", _fake_sweep)
        exit_code = figures.main(["fig4a", "--quick"])
        assert exit_code == 0
        assert "FAKE-SWEEP" in capsys.readouterr().out

    def test_fig3a_quick_uses_group_subset(self, capsys, monkeypatch):
        captured = {}

        def fake_run_job_figure(figure, scale, repetitions, groups):
            captured.update(figure=figure, scale=scale, repetitions=repetitions, groups=groups)
            return _FakeResult()

        monkeypatch.setattr(figures, "run_job_figure", fake_run_job_figure)
        exit_code = figures.main(["fig3a", "--quick", "--scale", "0.02"])
        assert exit_code == 0
        assert captured["figure"] == "fig3a"
        assert captured["scale"] == pytest.approx(0.02)
        assert captured["repetitions"] == 1
        assert captured["groups"] == list(range(1, 13))

    def test_explicit_groups_override_quick(self, monkeypatch, capsys):
        captured = {}

        def fake_run_job_figure(figure, scale, repetitions, groups):
            captured["groups"] = groups
            return _FakeResult()

        monkeypatch.setattr(figures, "run_job_figure", fake_run_job_figure)
        figures.main(["fig3b", "--quick", "--groups", "5", "6"])
        assert captured["groups"] == [5, 6]

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            figures.main(["fig9x"])

    def test_all_runs_every_figure(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(
            figures, "run_job_figure", lambda *args, **kwargs: calls.append("job") or _FakeResult()
        )
        for name in (
            "run_selectivity_sweep",
            "run_table_size_sweep",
            "run_root_clause_sweep",
            "run_outer_factor_sweep",
        ):
            monkeypatch.setattr(
                figures, name, lambda *args, **kwargs: calls.append("synthetic") or _FakeResult()
            )
        figures.main(["all", "--quick"])
        assert calls.count("job") == 5
        assert calls.count("synthetic") == 4


class _FakeResult:
    def to_table(self) -> str:
        return "FAKE-SWEEP"


def _fake_sweep(*args, **kwargs):
    return _FakeResult()
