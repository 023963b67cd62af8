"""Smoke tests: every script in ``examples/`` runs from a fresh checkout.

Each example exposes a ``main()`` with size parameters, so these tests run
miniature versions: enough to execute every code path and validate the
printed output shape, small enough for the tier-1 suite.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def load_example(name: str):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_examples_directory_is_fully_covered():
    scripts = {path.stem for path in EXAMPLES_DIR.glob("*.py")}
    covered = {
        name[len("test_"):]
        for name in globals()
        if name.startswith("test_") and name != "test_examples_directory_is_fully_covered"
    }
    assert scripts == covered, f"examples without a smoke test: {sorted(scripts - covered)}"


def test_quickstart(capsys):
    load_example("quickstart").main()
    out = capsys.readouterr().out
    assert "--- tcombined ---" in out
    assert "rows: 4" in out


def test_nulls_and_three_valued_logic(capsys):
    load_example("nulls_and_three_valued_logic").main()
    out = capsys.readouterr().out
    assert "NULL-bearing predicates: planned with three-valued tag maps, 2 rows" in out
    assert "NULL-free predicates: planned with two-valued tag maps, 3 rows" in out


def test_analytics_report(capsys):
    load_example("analytics_report").main(scale=0.01)
    out = capsys.readouterr().out
    assert "Watchlist candidates" in out


def test_movie_night(capsys):
    load_example("movie_night").main(scale=0.01, groups=(1,))
    out = capsys.readouterr().out
    assert "query group 1" in out


def test_synthetic_sweep(capsys):
    load_example("synthetic_sweep").main(table_size=400)
    out = capsys.readouterr().out
    assert "Figure 4a" in out and "Figure 4b" in out


def test_persist_and_fuzz(capsys):
    load_example("persist_and_fuzz").main(table_size=300, num_queries=2)
    out = capsys.readouterr().out
    assert "persistence round-trip" in out
    assert "agreed" in out


def test_query_service(capsys):
    load_example("query_service").main(table_size=500, repeats=3)
    out = capsys.readouterr().out
    assert "hit" in out
    assert "queries/s" in out
